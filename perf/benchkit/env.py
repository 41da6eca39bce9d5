"""Process settings shared by the benchmark's entry points.

Imports nothing heavy: :func:`pin_environment` must run before anything
imports numpy, so that the thread pins take effect.
"""

import os
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
SRC = ROOT / "src"

PINNED_ENV = {
    "REPRO_ENGINE": "fast",
    "REPRO_PROGRAM_CACHE": "off",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def pin_environment() -> None:
    """Pin the engine, the program cache and BLAS threads; put ``src`` on
    the import path of this process and of every child it starts."""
    os.environ.update(PINNED_ENV)
    # The untraced run keeps telemetry off; the traced run turns it on.
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_METRICS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
