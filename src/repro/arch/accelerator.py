"""The Bishop accelerator: schedules a traced model onto the heterogeneous cores.

For every MLP / projection layer the stratifier (Alg. 1) splits the input
features; the dense and sparse cores run concurrently and the spike generator
merges their partial sums into output spikes.  Every spiking self-attention
layer runs on the attention core (Modes 1+2), optionally behind ECP pruning.
DRAM transfers are double-buffered, so a layer's latency is
``max(compute time, DRAM streaming time)``.

The tokenizer and classification head are outside Bishop's scope (the paper
delegates spiking-CNN front-ends to prior accelerators, Sec. 2.2) and are not
simulated.

Lowering goes through the compiler (``repro.compiler``): ``run_trace``
compiles the trace with the pass pipeline (plus an optional
:class:`~repro.algo.ECPConfig`) and materializes the per-layer analytical
reports from the compiled :class:`~repro.compiler.ir.Program`, which it
keeps as ``report.program``.  The program is the one uncontended latency
model: ``serial_latency_s``, ``scheduled_latency_s`` and
``pipelined_bound_s``.  The architecture ablations (no stratifier, no
bundle skipping) are pass toggles: ``run_trace(trace, passes=...)``.  The
serving layer (``repro.serve``) replays the same compiled programs on the
discrete-event engine under contention.
"""

from __future__ import annotations

from ..algo import ECPConfig
from ..compiler.passes import PassConfig, compile_trace, materialize_report
from ..model import ModelTrace
from .config import BishopConfig
from .energy import EnergyModel
from .report import InferenceReport

__all__ = ["BishopAccelerator"]


class BishopAccelerator:
    """Analytic simulator of the full Bishop architecture (Fig. 9)."""

    def __init__(
        self,
        config: BishopConfig | None = None,
        energy: EnergyModel | None = None,
    ):
        self.config = config or BishopConfig()
        self.energy = energy or EnergyModel()

    def run_trace(
        self,
        trace: ModelTrace,
        ecp: ECPConfig | None = None,
        passes: "PassConfig | str | None" = None,
    ) -> InferenceReport:
        """Simulate a full single-image inference.

        The trace is compiled through the pass pipeline (``repro.compiler``)
        and the per-layer analytical reports are materialized from the
        resulting program, available as ``report.program``.  ``passes``
        toggles individual optimization passes
        (``"all"`` by default; e.g. ``PassConfig().without("stratify")``
        runs every layer on the dense core).
        """
        return materialize_report(compile_trace(
            trace, self.config, self.energy, ecp=ecp, passes=passes
        ))
