"""Experiment harness (system S19): regenerates every table and figure."""

from . import ablation, endtoend, fig11, fig14, fig15, fig16, hetero, synthetic, table1
from .experiments import (
    EXPERIMENTS,
    Experiment,
    ParamSpec,
    get_experiment,
    run_experiment,
)
from ..store import package_code_hash

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ParamSpec",
    "get_experiment",
    "package_code_hash",
    "run_experiment",
    "ablation",
    "endtoend",
    "fig11",
    "fig14",
    "fig15",
    "fig16",
    "hetero",
    "synthetic",
    "table1",
]
