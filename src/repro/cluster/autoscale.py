"""Autoscaling: grow and drain chip replicas from load signals.

The fleet coordinator (:func:`repro.cluster.simulate_cluster_sharded`)
runs the control loop at window edges: when an ``interval_s`` tick is
due it samples the fleet's **queue pressure** — outstanding estimated
work per accepting chip, normalized by the interval (pressure 1.0 ≡ each
chip is backlogged by a full interval of work) — and makes one decision:

* pressure above ``high_pressure`` and headroom under ``max_chips`` →
  **add** a fully-replicated chip of the template ``kind`` (a fresh
  :class:`~repro.arch.engine.machine.BishopMachine` joins a shard's
  engine clock mid-run);
* pressure below ``low_pressure`` with more than ``min_chips`` accepting →
  **drain** the least-loaded removable chip: it stops accepting new work,
  finishes its queue, and from then on accrues no static energy.

A chip is only drainable if every model it hosts stays available on some
other accepting chip of its shard, so scaling down never strands a
placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AutoscaleConfig", "ScalingEvent"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Control-loop parameters of the autoscaler."""

    interval_s: float
    high_pressure: float = 1.0
    low_pressure: float = 0.1
    max_chips: int = 8
    min_chips: int = 1
    kind: str = "standard"      # template kind for added replicas

    def __post_init__(self) -> None:
        if not (math.isfinite(self.interval_s) and self.interval_s > 0):
            raise ValueError(
                f"autoscale interval_s must be positive and finite,"
                f" got {self.interval_s}"
            )
        if self.low_pressure >= self.high_pressure:
            raise ValueError("low_pressure must be below high_pressure")
        if not 1 <= self.min_chips <= self.max_chips:
            raise ValueError("need 1 <= min_chips <= max_chips")


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler decision, for the cluster report."""

    t_s: float
    action: str            # "add" | "drain"
    chip: str
    pressure: float
    accepting_chips: int   # after the action

    def to_dict(self) -> dict:
        return {
            "t_s": self.t_s,
            "action": self.action,
            "chip": self.chip,
            "pressure": self.pressure,
            "accepting_chips": self.accepting_chips,
        }
