"""The Bishop compiler: trace → optimization passes → chip program.

The compiler is the repo's single lowering path.  A
:class:`~repro.model.trace.ModelTrace` is ingested into a tile-level IR
(:class:`Program` → :class:`Stage` → :class:`TileOp`), refined by ordered
optimization passes — TTB bundle packing, error-constrained pruning
planning, stratified dense/sparse core assignment, prefetch/double-buffer
scheduling — and emitted as an engine-ready task graph that the
accelerator, the serving simulator, and the cluster simulator all replay.
Compiled programs are content-addressed in ``repro.compiler.cache`` so
serving and cluster runs reuse compilation across requests, chips, and
worker processes.

See ``docs/COMPILER.md`` for the IR reference, the pass catalog, and the
cache-key semantics.
"""

from .cache import (
    ProgramCache,
    compile_model,
    default_program_cache,
    package_code_hash,
    program_key,
)
from .ir import CORE_CLASSES, LEGAL_CORES, Program, Stage, TileOp, legal_cores_for
from .lowering import (
    lower_attention_layer,
    lower_matmul_layer,
    plan_stratification,
    stage_ops,
    unstratified_workload,
)
from .passes import (
    BundlePackingPass,
    Compilation,
    CompilerPass,
    ECPPlanningPass,
    LowerPass,
    PassConfig,
    PassManager,
    SchedulePass,
    StageDraft,
    StratifyPass,
    TraceIngestPass,
    compile_trace,
    default_pipeline,
    materialize_report,
)

__all__ = [
    "CORE_CLASSES",
    "LEGAL_CORES",
    "BundlePackingPass",
    "Compilation",
    "CompilerPass",
    "ECPPlanningPass",
    "LowerPass",
    "PassConfig",
    "PassManager",
    "Program",
    "ProgramCache",
    "SchedulePass",
    "Stage",
    "StageDraft",
    "StratifyPass",
    "TileOp",
    "TraceIngestPass",
    "compile_model",
    "compile_trace",
    "default_pipeline",
    "default_program_cache",
    "legal_cores_for",
    "lower_attention_layer",
    "lower_matmul_layer",
    "materialize_report",
    "package_code_hash",
    "plan_stratification",
    "program_key",
    "stage_ops",
    "unstratified_workload",
]
