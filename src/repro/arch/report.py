"""Result containers for accelerator simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .energy import EnergyModel
from .memory import TrafficLedger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..compiler.ir import Program

__all__ = ["EnergyBreakdown", "LayerReport", "InferenceReport"]


@dataclass
class EnergyBreakdown:
    """Per-layer energy decomposition (picojoules)."""

    compute_pj: float = 0.0
    memory_pj: float = 0.0
    spike_gen_pj: float = 0.0
    static_pj: float = 0.0
    memory_by_kind_pj: dict[str, float] = field(default_factory=dict)

    @property
    def total_pj(self) -> float:
        return self.compute_pj + self.memory_pj + self.spike_gen_pj + self.static_pj

    @property
    def total_mj(self) -> float:
        return self.total_pj * 1e-9

    def add(self, other: "EnergyBreakdown") -> None:
        self.compute_pj += other.compute_pj
        self.memory_pj += other.memory_pj
        self.spike_gen_pj += other.spike_gen_pj
        self.static_pj += other.static_pj
        for kind, value in other.memory_by_kind_pj.items():
            self.memory_by_kind_pj[kind] = self.memory_by_kind_pj.get(kind, 0.0) + value


@dataclass
class LayerReport:
    """Latency/energy of one layer on one accelerator."""

    block: int
    kind: str
    phase: str                      # P1 / ATN / P2 / MLP (Fig. 11 labels)
    cycles: float
    latency_s: float
    energy: EnergyBreakdown
    traffic: TrafficLedger
    unit_cycles: dict[str, float] = field(default_factory=dict)
    utilization: float = 0.0
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ·s)."""
        return self.energy.total_pj * self.latency_s


@dataclass
class InferenceReport:
    """End-to-end single-inference result: a list of layer reports."""

    accelerator: str
    model_name: str
    layers: list[LayerReport] = field(default_factory=list)
    # The compiled program this report was materialized from (Bishop only;
    # None for baselines and hand-assembled reports).
    program: "Program | None" = None

    # -- totals ----------------------------------------------------------
    @property
    def total_latency_s(self) -> float:
        return sum(layer.latency_s for layer in self.layers)

    @property
    def total_energy_pj(self) -> float:
        return sum(layer.energy_pj for layer in self.layers)

    @property
    def total_energy_mj(self) -> float:
        return self.total_energy_pj * 1e-9

    @property
    def edp(self) -> float:
        return self.total_energy_pj * self.total_latency_s

    # -- slicing ----------------------------------------------------------
    def by_phase(self) -> dict[tuple[int, str], LayerReport]:
        """Aggregate layers into Fig.-11 cells keyed by (block, phase)."""
        cells: dict[tuple[int, str], LayerReport] = {}
        for layer in self.layers:
            key = (layer.block, layer.phase)
            if key not in cells:
                cells[key] = LayerReport(
                    block=layer.block,
                    kind=layer.phase,
                    phase=layer.phase,
                    cycles=0.0,
                    latency_s=0.0,
                    energy=EnergyBreakdown(),
                    traffic=TrafficLedger(),
                )
            cell = cells[key]
            cell.cycles += layer.cycles
            cell.latency_s += layer.latency_s
            cell.energy.add(layer.energy)
            cell.traffic.merge(layer.traffic)
        return cells

    def phase_latency(self, phase: str) -> float:
        return sum(l.latency_s for l in self.layers if l.phase == phase)

    def phase_energy_pj(self, phase: str) -> float:
        return sum(l.energy_pj for l in self.layers if l.phase == phase)

    def attention_latency_s(self) -> float:
        return self.phase_latency("ATN")

    def attention_energy_pj(self) -> float:
        return self.phase_energy_pj("ATN")

    def traffic_bytes(self, level: str | None = None, kind: str | None = None) -> float:
        return sum(l.traffic.bytes(level, kind) for l in self.layers)

    def memory_energy_share_by_kind(self, energy_model: EnergyModel) -> dict[str, float]:
        """Fraction of total energy spent moving each data kind (Fig. 16)."""
        total = self.total_energy_pj
        shares: dict[str, float] = {}
        for layer in self.layers:
            for kind, pj in layer.traffic.energy_by_kind_pj(energy_model).items():
                shares[kind] = shares.get(kind, 0.0) + pj
        return {kind: pj / total for kind, pj in shares.items()} if total else shares
