"""Parameter-grid expansion for ``repro sweep``.

Turns CLI ``--param k=v1,v2`` specs into a validated list of parameter
dicts (the cartesian product of every axis), with values cast through the
experiment's signature-derived schema (:mod:`repro.schema`).
"""

from __future__ import annotations

from itertools import product
from typing import Mapping, Sequence

from ..harness import Experiment

__all__ = ["expand_grid", "parse_param_specs"]


def parse_param_specs(
    experiment: Experiment, specs: Sequence[str]
) -> dict[str, list[object]]:
    """Parse ``k=v1,v2,...`` strings into a typed sweep grid.

    Raises ``ValueError`` for malformed specs, unknown parameter names, or
    values that do not cast to the schema type.
    """
    grid: dict[str, list[object]] = {}
    for spec in specs:
        name, sep, raw = spec.partition("=")
        name = name.strip()
        if not sep or not name or not raw.strip():
            raise ValueError(f"bad --param spec {spec!r}; expected k=v1,v2,...")
        if name not in experiment.params:
            raise ValueError(
                f"experiment {experiment.id!r} has no parameter {name!r};"
                f" schema: {sorted(experiment.params)}"
            )
        values = [
            experiment.cast(name, v.strip()) for v in raw.split(",") if v.strip()
        ]
        if not values:
            raise ValueError(f"bad --param spec {spec!r}; no values")
        grid[name] = values
    return grid


def expand_grid(
    experiment: Experiment, grid: Mapping[str, Sequence[object]]
) -> list[dict[str, object]]:
    """Cartesian product of a sweep grid, in deterministic axis order.

    Every combination is validated against the experiment's schema, so an
    invalid axis fails before any work is scheduled.
    """
    if not grid:
        return [experiment.resolve_params({})]
    axes = sorted(grid)
    combos = []
    for values in product(*(grid[axis] for axis in axes)):
        overrides = dict(zip(axes, values))
        combos.append(experiment.resolve_params(overrides))
    return combos
