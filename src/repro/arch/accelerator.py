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
:class:`~repro.algo.ECPConfig`), materializes the per-layer analytical
reports from the compiled :class:`~repro.compiler.ir.Program`, and replays
the layer chain on the discrete-event engine (``repro.arch.engine``),
attaching the resulting timeline to the report.  The architecture
ablations (no stratifier, no bundle skipping) are pass toggles:
``run_trace(trace, passes=...)``.  For one uncontended request the event
makespan reproduces the closed-form total, which keeps the analytical
numbers as the engine's validation oracle; the serving layer
(``repro.serve``) replays the same compiled programs under contention.
"""

from __future__ import annotations

from ..algo import ECPConfig
from ..compiler.passes import PassConfig, compile_trace, materialize_report
from ..model import ModelTrace
from .config import BishopConfig
from .energy import EnergyModel
from .engine.machine import simulate_inference
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
        simulate_events: bool = True,
        passes: "PassConfig | str | None" = None,
    ) -> InferenceReport:
        """Simulate a full single-image inference.

        The trace is compiled through the pass pipeline (``repro.compiler``)
        and the per-layer analytical reports are materialized from the
        resulting program, available as ``report.program``.  The layer
        chain is then replayed on the discrete-event engine and the
        resulting timeline attached as ``report.engine_run`` (set
        ``simulate_events=False`` to skip, e.g. inside tight design-space
        loops).  ``passes`` toggles individual optimization passes
        (``"all"`` by default; e.g. ``PassConfig().without("stratify")``
        runs every layer on the dense core).
        """
        program = compile_trace(
            trace, self.config, self.energy, ecp=ecp, passes=passes
        )
        report = materialize_report(program)
        if simulate_events:
            report.engine_run = simulate_inference(report, self.config, self.energy)
        return report
