"""Hardware configuration of the Bishop accelerator (Sec. 6.1 parameters).

Paper values: the TT-bundle sparse core has up to 128 parallel TTB units;
the TTB dense core and TTB attention core each have 512 PEs (32 output
features × 16 TT-bundles in parallel); each TTB unit processes up to 10
spikes per cycle; the spike generator handles up to 512 neurons in parallel;
144 KB weight GLB; 2 × 12 KB ping-pong spike TTB GLBs; DDR4-2400 at
76.8 GB/s; 500 MHz clock in a 28 nm process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from ..bundles import BundleSpec

__all__ = ["DRAMConfig", "BishopConfig", "PTBConfig", "resolve_overrides"]


@dataclass(frozen=True)
class DRAMConfig:
    """Off-chip memory: DDR4-2400 numbers from the paper."""

    bandwidth_bytes_per_s: float = 76.8e9
    power_w: float = 0.3239
    energy_pj_per_byte: float = 20.0   # interface + core energy per byte

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"DRAM bandwidth must be positive, got {self.bandwidth_bytes_per_s}"
            )
        if self.power_w < 0 or self.energy_pj_per_byte < 0:
            raise ValueError("DRAM power/energy constants must be non-negative")

    def transfer_time_s(self, num_bytes: float) -> float:
        return num_bytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class BishopConfig:
    """The accelerator's architectural hyperparameters."""

    bundle_spec: BundleSpec = field(default_factory=lambda: BundleSpec(2, 4))
    # Dense core: dense_rows TT-bundles × dense_cols output features = 512 PEs.
    dense_rows: int = 16
    dense_cols: int = 32
    # Sparse core: SIGMA-like with parallel TTB units.
    sparse_units: int = 128
    sparse_overhead: float = 1.2       # distribution/reduction network slack
    # Attention core: same 512-PE organization, reconfigurable AAC/SAC.
    attn_rows: int = 16
    attn_cols: int = 32
    attn_utilization: float = 0.85     # fill/imbalance derate
    # TTB units process up to this many spikes per cycle (paper: 10).
    spikes_per_cycle: int = 10
    # Partial-sum registers per PE: a bundle whose volume exceeds this is
    # processed in chunks, re-streaming its weights per chunk — the register
    # budget behind Fig. 16's penalty for oversized bundle volumes.
    psum_regs_per_pe: int = 16
    spike_generator_lanes: int = 512
    clock_hz: float = 500e6
    weight_bits: int = 8
    accumulator_bits: int = 24
    score_bits: int = 8                # attention scores: 6-10 bits
    # Memories.
    weight_glb_bytes: int = 144 * 1024
    spike_glb_bytes: int = 12 * 1024   # each of the two ping-pong GLBs
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    # Stratifier θ_s policy.  Whether stratification and inactive-bundle
    # skipping run at all is the compiler's call (``PassConfig``).
    stratify_dense_fraction: float | None = None  # None → balance core times
    stratify_theta: float | None = None           # explicit θ_s overrides
    pipeline_fill_cycles: int = 64

    def __post_init__(self) -> None:
        if self.dense_rows < 1 or self.dense_cols < 1:
            raise ValueError(
                f"dense core must have PEs, got {self.dense_rows}x{self.dense_cols}"
            )
        if self.attn_rows < 1 or self.attn_cols < 1:
            raise ValueError(
                f"attention core must have PEs, got {self.attn_rows}x{self.attn_cols}"
            )
        if self.sparse_units < 1:
            raise ValueError(f"sparse core needs TTB units, got {self.sparse_units}")
        if self.sparse_overhead < 1.0:
            raise ValueError(
                f"sparse_overhead is a >=1 network derate, got {self.sparse_overhead}"
            )
        if not 0.0 < self.attn_utilization <= 1.0:
            raise ValueError(
                f"attn_utilization must be in (0, 1], got {self.attn_utilization}"
            )
        if self.spikes_per_cycle < 1:
            raise ValueError("spikes_per_cycle must be >= 1")
        if self.psum_regs_per_pe < 1:
            raise ValueError(
                f"psum_regs_per_pe must be >= 1, got {self.psum_regs_per_pe}"
            )
        if self.spike_generator_lanes < 1:
            raise ValueError(
                f"spike_generator_lanes must be >= 1, got {self.spike_generator_lanes}"
            )
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.weight_glb_bytes < 1 or self.spike_glb_bytes < 1:
            raise ValueError(
                "GLB sizes must be positive, got"
                f" weight={self.weight_glb_bytes} spike={self.spike_glb_bytes}"
            )
        if self.stratify_dense_fraction is not None and not (
            0.0 <= self.stratify_dense_fraction <= 1.0
        ):
            raise ValueError(
                "stratify_dense_fraction must be in [0, 1],"
                f" got {self.stratify_dense_fraction}"
            )
        if self.pipeline_fill_cycles < 0:
            raise ValueError(
                f"pipeline_fill_cycles must be >= 0, got {self.pipeline_fill_cycles}"
            )

    @property
    def dense_pes(self) -> int:
        return self.dense_rows * self.dense_cols

    @property
    def attn_pes(self) -> int:
        return self.attn_rows * self.attn_cols

    @property
    def total_pes(self) -> int:
        return self.dense_pes + self.attn_pes + self.sparse_units

    @property
    def dense_throughput(self) -> int:
        """Peak SAC operations per cycle of the dense core."""
        return self.dense_pes * self.spikes_per_cycle

    @property
    def sparse_throughput(self) -> int:
        return self.sparse_units * self.spikes_per_cycle

    @property
    def attn_throughput(self) -> int:
        """Peak AAC/SAC operations per cycle of the attention core."""
        return self.attn_pes * self.spikes_per_cycle

    def with_overrides(self, **kwargs) -> "BishopConfig":
        return replace(self, **kwargs)


def resolve_overrides(base: BishopConfig, overrides: Mapping) -> BishopConfig:
    """``with_overrides`` that also accepts JSON-safe nested sub-configs.

    Chip-kind profiles (``repro.cluster.fleet``) and DSE fleet exports
    carry ``bundle_spec`` / ``dram`` as plain dicts; this resolves them
    against the base config's values, so a kind file round-trips through
    JSON without losing the nested dataclasses.
    """
    resolved = dict(overrides)
    spec = resolved.get("bundle_spec")
    if isinstance(spec, Mapping):
        resolved["bundle_spec"] = replace(
            base.bundle_spec, **{k: int(v) for k, v in spec.items()}
        )
    dram = resolved.get("dram")
    if isinstance(dram, Mapping):
        resolved["dram"] = replace(base.dram, **dram)
    return base.with_overrides(**resolved)


@dataclass(frozen=True)
class PTBConfig:
    """The PTB baseline [27], matched in PE count / area (Sec. 6.1).

    PTB packs spiking activity across a *time window* only (paper: effective
    for 100-300 steps, weak for the 4-20 steps of spiking transformers) and
    has no token bundling, no stratified heterogeneous cores, and no
    dedicated attention core.
    """

    pe_count: int = 1152               # = 512 + 512 + 128, equal-area match
    time_window: int = 10              # time points batched per PE
    # PTB's published PE performs one spike-accumulate per cycle; the time
    # window batches *weight reuse*, not throughput.  We grant two parallel
    # accumulate lanes per PE (a generous equal-area reading of "identical
    # compute resources", see DESIGN.md calibration notes).
    lanes_per_pe: int = 2
    mapping_efficiency: float = 0.8    # transformer matmuls on a CNN/FC array
    clock_hz: float = 500e6
    weight_bits: int = 8
    score_bits: int = 8
    accumulator_bits: int = 24
    # PTB exploits spike sparsity within a window, but skipping is
    # fine-grained and desynchronizes the systolic flow; only part of the
    # skippable work converts into saved cycles.
    skip_efficiency: float = 0.4
    weight_glb_bytes: int = 156 * 1024  # same total SRAM budget
    act_glb_bytes: int = 12 * 1024
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    pipeline_fill_cycles: int = 64

    @property
    def throughput(self) -> float:
        """Effective select-accumulate ops per cycle on matmul workloads."""
        return self.pe_count * self.lanes_per_pe * self.mapping_efficiency

    # Without Bishop's reconfigurable AAC/SAC datapath and score-stationary
    # mode, the array must stage the multi-bit attention scores through its
    # weight path, stalling most cycles (the Sec.-5.5 motivation for a
    # dedicated attention core).
    attention_staging_efficiency: float = 0.3

    @property
    def attention_throughput(self) -> float:
        """Attention ops per cycle: both operands are time-indexed, so PTB's
        time-window batching buys nothing — one op per PE per cycle, further
        derated by multi-bit score staging."""
        return (
            self.pe_count
            * self.mapping_efficiency
            * self.attention_staging_efficiency
        )

    def effective_time_lanes(self, timesteps: int) -> int:
        """Time points actually packed per PE — the short-T weakness."""
        return max(1, min(timesteps, self.time_window))

    def with_overrides(self, **kwargs) -> "PTBConfig":
        return replace(self, **kwargs)
