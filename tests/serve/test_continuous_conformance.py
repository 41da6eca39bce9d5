"""Differential conformance: degenerate continuous == static batching.

The continuous scheduler with a single tenant, one priority tier, and
join/leave + preemption disabled must reproduce the static same-model
batch scheduler's per-request latencies to float precision — across the
model zoo.  This is the pin that keeps the two schedulers semantically
anchored: any continuous-mode change that shifts these latencies is a
behavioural break, not a refactor.

The comparison uses the stage-serial pass set (no prefetch scheduling):
continuous execution re-decides at every compiled-stage boundary, so the
depth-1 weight-prefetch replay — which overlaps *across* stage
boundaries — is exactly the optimization the degenerate configuration
must forgo to stay preemptable.
"""

import pytest

from repro.model import MODEL_ZOO
from repro.serve import (
    SchedulerConfig,
    poisson_arrivals,
    request_profile,
    simulate_serving,
)

PASSES = "packing+stratify+ecp"


def degenerate(max_batch, max_inflight):
    return SchedulerConfig(
        max_batch=max_batch,
        max_inflight=max_inflight,
        mode="continuous",
        allow_join=False,
        preempt=False,
    )


def assert_latency_conformance(
    model, max_batch=4, max_inflight=2, n=24, load=1.5
):
    profiles = {model: request_profile(model, passes=PASSES)}
    rate = load / profiles[model].single_latency_s  # 1.5: backlogged
    requests = poisson_arrivals(n, rate, model, seed=11)
    static = simulate_serving(
        requests,
        SchedulerConfig(max_batch=max_batch, max_inflight=max_inflight),
        profiles=profiles,
    )
    cont = simulate_serving(
        requests, degenerate(max_batch, max_inflight), profiles=profiles
    )
    assert len(static.requests) == len(cont.requests) == n
    for a, b in zip(static.requests, cont.requests):
        assert a.index == b.index
        assert b.latency_s == pytest.approx(a.latency_s, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("model", sorted(MODEL_ZOO))
def test_zoo_latency_conformance(model):
    assert_latency_conformance(model)


@pytest.mark.parametrize("max_batch,max_inflight", [(1, 1), (2, 2), (8, 2)])
def test_conformance_across_scheduler_shapes(max_batch, max_inflight):
    assert_latency_conformance(
        "model4", max_batch=max_batch, max_inflight=max_inflight
    )


@pytest.mark.parametrize("load", [0.3, 1.0, 1.5, 4.0])
def test_conformance_across_offered_load(load):
    """From mostly-idle lanes (singleton groups) to a deep backlog (full
    groups on every dispatch) the residual stays at float precision."""
    assert_latency_conformance("model4", n=60, load=load)


def test_batch_membership_matches_take_batch():
    """Same groups, not just same latencies: batch sizes agree 1:1."""
    model = "model4"
    profiles = {model: request_profile(model, passes=PASSES)}
    rate = 2.0 / profiles[model].single_latency_s
    requests = poisson_arrivals(40, rate, model, seed=4)
    static = simulate_serving(
        requests,
        SchedulerConfig(max_batch=4, max_inflight=2),
        profiles=profiles,
    )
    cont = simulate_serving(requests, degenerate(4, 2), profiles=profiles)
    for a, b in zip(static.requests, cont.requests):
        assert b.batch_size == a.batch_size
