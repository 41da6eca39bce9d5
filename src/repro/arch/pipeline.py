"""Inter-layer pipelining via the double-buffered memory hierarchy.

The paper's memory system is double-buffered at every level "to hide
latency" (Sec. 6.1): while layer *i* computes, the ping-pong GLBs prefetch
layer *i+1*'s weights.  Each layer becomes a
:class:`~repro.arch.engine.machine.LayerTiming` whose compute sits on the
dense core and whose streams sit on the DRAM channel, and the chip's
closed-form replay (:class:`~repro.arch.engine.fastpath.FastSchedule`)
gives the numbers; each layer's compute and streaming run concurrently,
and the layer completes when both finish:

* ``serial_latency_s`` — the layer-serial makespan ``Σ max(compute,
  dram)``;
* ``scheduled_latency_s`` — the makespan under the compiler's depth-1
  prefetch schedule (*weight* streaming runs ahead of compute, bounded
  by the double buffer; activation traffic stays bound to its layer);
* ``pipelined_latency_s`` — the steady-state bound ``max(Σ compute,
  Σ dram)``: with unbounded prefetch either shared resource becomes the
  bottleneck wholesale, the information-theoretic floor for a serial
  layer chain.

``serial ≥ scheduled ≥ pipelined`` always holds; the gap between the first
two is what the compiler's scheduling pass actually wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine.fastpath import schedule_for
from .engine.machine import LayerTiming
from .report import InferenceReport

__all__ = ["PipelineSchedule", "pipeline_schedule"]


@dataclass(frozen=True)
class PipelineSchedule:
    """Serial vs pipelined end-to-end latency of one inference."""

    serial_latency_s: float      # makespan, layers serialized
    pipelined_latency_s: float   # prefetch overlapped across layers (bound)
    compute_total_s: float
    dram_total_s: float
    # Makespan under the depth-1 prefetch schedule (between the serial
    # makespan and the pipelined bound).
    scheduled_latency_s: float = 0.0

    @property
    def savings_fraction(self) -> float:
        if self.serial_latency_s == 0:
            return 0.0
        return 1.0 - self.pipelined_latency_s / self.serial_latency_s

    @property
    def scheduled_savings_fraction(self) -> float:
        """Fraction of the serial latency the achievable (depth-1
        prefetch) schedule actually recovers."""
        if self.serial_latency_s == 0:
            return 0.0
        return 1.0 - self.scheduled_latency_s / self.serial_latency_s

    @property
    def lower_bound_s(self) -> float:
        """No schedule can beat max(total compute, total DRAM)."""
        return max(self.compute_total_s, self.dram_total_s)


def _layer_triples(report: InferenceReport) -> list[tuple[float, float, float]]:
    """Per-layer ``(compute_s, weight_dram_s, activation_dram_s)``, from
    the compiled program when available, else from the layer timing notes.

    Only the weight stream is prefetchable; notes-based reports split
    their total DRAM time by the traffic ledger's weight/activation byte
    fractions (a report with DRAM time but no recorded DRAM bytes —
    synthetic test reports — is treated as all-weight).  Layers lacking
    timing notes (e.g. GPU roofline reports) fall back to their recorded
    latency with no overlap.
    """
    if report.program is not None:
        return [
            (stage.compute_s, stage.weight_dram_s, stage.activation_dram_s)
            for stage in report.program.stages
        ]
    triples = []
    for layer in report.layers:
        compute_s = layer.notes.get("compute_time_s", layer.latency_s)
        dram_s = layer.notes.get("dram_time_s", 0.0)
        total_bytes = layer.traffic.bytes(level="dram")
        if dram_s > 0 and total_bytes > 0:
            weight_fraction = (
                layer.traffic.bytes(level="dram", kind="weight") / total_bytes
            )
        else:
            weight_fraction = 1.0
        triples.append(
            (compute_s, dram_s * weight_fraction, dram_s * (1 - weight_fraction))
        )
    return triples


def pipeline_schedule(report: InferenceReport) -> PipelineSchedule:
    """Compose a double-buffered schedule from a layer-serial report."""
    schedule = schedule_for(tuple(
        LayerTiming(
            block=index, kind="layer", phase="MLP", dense_s=compute,
            weight_dram_s=weight, activation_dram_s=activation,
        )
        for index, (compute, weight, activation) in enumerate(
            _layer_triples(report)
        )
    ))
    compute_total = float(schedule.compute.sum())
    dram_total = float((schedule.weight + schedule.activation).sum())
    return PipelineSchedule(
        serial_latency_s=schedule.serial_makespan(),
        pipelined_latency_s=max(compute_total, dram_total),
        compute_total_s=compute_total,
        dram_total_s=dram_total,
        scheduled_latency_s=schedule.scheduled_makespan(),
    )
