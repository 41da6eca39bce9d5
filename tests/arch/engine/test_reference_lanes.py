"""Kernel mode pinned to the generator reference lanes.

Under ``REPRO_ENGINE=kernel`` an uncontended request is measured by the
callback replays (:func:`~repro.compiler.emit.measure_timings_kernel`).
Over every zoo model's serving profile they must be ``==`` to the
generator lanes of :mod:`.reference_lanes` at one quantum per core
task, and agree within 1e-9 with the tile-granular lanes at
``MAX_QUANTA`` quanta, whose rounding differs.
"""

import pytest

from repro.compiler.emit import measure_timings_kernel
from repro.model import MODEL_ZOO
from repro.serve import request_profile

from .reference_lanes import MAX_QUANTA, reference_makespan


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("passes", ["all", "packing+stratify+ecp", "none"])
@pytest.mark.parametrize("model", sorted(MODEL_ZOO))
def test_kernel_mode_matches_the_reference_lanes(model, passes, batch):
    timings = request_profile(model, passes=passes).timings
    for scheduled in (False, True):
        kernel = measure_timings_kernel(timings, scheduled, batch)
        assert kernel == reference_makespan(timings, scheduled, batch)
        tiled = reference_makespan(timings, scheduled, batch, MAX_QUANTA)
        assert abs(kernel - tiled) <= 1e-9 * tiled
