"""A finished simulation leaves no repro objects in reference cycles.

Engines and their resources and the shard ↔ chip recorder links form
cycles that only a full garbage collection frees; in a 1,000-chip fleet that is tens of thousands of
objects per run, lingering until a gen-2 collection.  ``Engine.teardown``
and ``ChipServer.teardown`` break them at the end of ``simulate_serving``
and ``ShardState.finalize``, so reference counting frees everything.
"""

import gc

import pytest

from repro.cluster import (
    AutoscaleConfig,
    ShardingConfig,
    homogeneous_fleet,
    simulate_cluster_sharded,
)
from repro.serve import (
    SchedulerConfig,
    assign_priorities,
    poisson_arrivals,
    request_profile,
    simulate_serving,
)

STREAM = poisson_arrivals(60, 20000.0, "model2:0.4+model4:0.6", seed=3)


def cyclic_repro_objects(run) -> list[str]:
    """Type names of the repro objects only the cycle collector frees."""
    run()  # warm the profile and program caches outside the measurement
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted({
            type(obj).__qualname__
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("mode", ["static", "continuous"])
def test_simulate_serving_leaves_no_cycles(mode):
    profiles = {m: request_profile(m) for m in ("model2", "model4")}
    stream = assign_priorities(STREAM, "0:0.7+1:0.3", seed=3)
    assert cyclic_repro_objects(lambda: simulate_serving(
        stream, SchedulerConfig(max_batch=2, max_inflight=2, mode=mode),
        profiles=profiles, record_timeline=True,
    )) == []


@pytest.mark.parametrize("num_shards", [1, 2])
def test_sharded_fleet_leaves_no_cycles(num_shards):
    assert cyclic_repro_objects(lambda: simulate_cluster_sharded(
        STREAM, homogeneous_fleet(4),
        SchedulerConfig(max_batch=1, max_inflight=2),
        autoscale=AutoscaleConfig(interval_s=5e-4, min_chips=2),
        sharding=ShardingConfig(num_shards=num_shards),
    )) == []
