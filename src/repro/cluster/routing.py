"""Front-end routing policies: which chip serves the next request.

Each shard's router consults a policy with the request and the
*eligible* chips (accepting, hosting the model, queue not full — see
``repro.cluster.admission``), in fleet order.  ``round_robin`` sees
every eligible chip; ``least_work`` and ``sparsity`` give a per-chip
key, and a shard takes its minimum in one pass over the chips that can
win it (the live chips and each kind's first idle host; the tie
argument is in ``repro.cluster.admission``).  Policies
are deterministic: given the same stream and fleet they always produce
the same assignment, which keeps cluster experiments cacheable by the
runtime.

``round_robin``
    Cycle through eligible chips regardless of load or fit — the baseline.
``least_work``
    Join the chip with the least outstanding estimated work (queued plus
    in-flight single-request service estimates) — classic load balancing,
    blind to heterogeneity.
``sparsity``
    Sparsity-aware affinity: minimize *expected completion* — the chip's
    outstanding work **plus the model's service time on that chip**.  A
    chip's per-model service estimate encodes its core provisioning, so
    high-sparsity traces gravitate to sparse-core-heavy chips (where their
    stratified-up workload runs on 2× the TTB units) and dense traces to
    dense-core-heavy chips, while the outstanding-work term still spreads
    load when the preferred chips back up.
"""

from __future__ import annotations

from ..serve.simulate import ChipServer
from ..serve.workload import Request

__all__ = [
    "POLICIES",
    "LeastKey",
    "LeastOutstanding",
    "RoundRobin",
    "RoutingPolicy",
    "SparsityAffinity",
    "make_policy",
]


class RoutingPolicy:
    """Base class: pick one chip among the eligible, or ``None`` to shed.

    ``scans_fleet`` is True when :meth:`choose` needs every eligible chip
    in fleet order.  A :class:`LeastKey` policy sets it False: a shard
    routes it with :meth:`CandidateIndex.least
    <repro.cluster.admission.CandidateIndex.least>` instead of a list.
    """

    name = "?"
    scans_fleet = True

    def choose(
        self, request: Request, eligible: list[ChipServer]
    ) -> ChipServer | None:
        raise NotImplementedError


class RoundRobin(RoutingPolicy):
    """Cycle through eligible chips in fleet order."""

    name = "round_robin"

    def __init__(self):
        self._turn = 0

    def choose(self, request, eligible):
        if not eligible:
            return None
        chip = eligible[self._turn % len(eligible)]
        self._turn += 1
        return chip


class LeastKey(RoutingPolicy):
    """Join the eligible chip with the least :meth:`key`, first in fleet
    order on ties.  The key is equal on the idle hosts of one chip kind
    (``outstanding_s == 0.0`` and the kind's profile), which is what
    lets a shard inspect one idle host per kind."""

    scans_fleet = False

    def key(self, chip: ChipServer, model: str) -> float:
        raise NotImplementedError

    def choose(self, request, eligible):
        if not eligible:
            return None
        # min() is stable: fleet order breaks exact ties deterministically.
        return min(eligible, key=lambda chip: self.key(chip, request.model))


class LeastOutstanding(LeastKey):
    """Join the chip with the least outstanding estimated work."""

    name = "least_work"

    def key(self, chip, model):
        return chip.outstanding_s


class SparsityAffinity(LeastKey):
    """Minimize expected completion: outstanding work + service time on
    that chip (the heterogeneity-aware term)."""

    name = "sparsity"

    def key(self, chip, model):
        return chip.outstanding_s + chip.service_estimate_s(model)


POLICIES: dict[str, type[RoutingPolicy]] = {
    policy.name: policy
    for policy in (RoundRobin, LeastOutstanding, SparsityAffinity)
}


def make_policy(policy: str) -> RoutingPolicy:
    """A fresh policy instance from its name."""
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown routing policy {policy!r}; options {sorted(POLICIES)}"
        ) from None
