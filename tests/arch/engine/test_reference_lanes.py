"""The callback replays pinned to the generator reference lanes.

:func:`.reference_lanes.replay_makespan` measures an uncontended request
on the callback replays of :mod:`repro.arch.engine.lanes`.  Over every
zoo model's serving profile it must be ``==`` to the generator lanes of
:mod:`.reference_lanes` at one quantum per core task, and agree within
1e-9 with the tile-granular lanes at ``MAX_QUANTA`` quanta, whose
rounding differs.
"""

import pytest

from repro.model import MODEL_ZOO
from repro.serve import request_profile

from .reference_lanes import MAX_QUANTA, reference_makespan, replay_makespan


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("passes", ["all", "packing+stratify+ecp", "none"])
@pytest.mark.parametrize("model", sorted(MODEL_ZOO))
def test_callback_replays_match_the_reference_lanes(model, passes, batch):
    timings = request_profile(model, passes=passes).timings
    for scheduled in (False, True):
        replay = replay_makespan(timings, scheduled, batch)
        assert replay == reference_makespan(timings, scheduled, batch)
        tiled = reference_makespan(timings, scheduled, batch, MAX_QUANTA)
        assert abs(replay - tiled) <= 1e-9 * tiled
