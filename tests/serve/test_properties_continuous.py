"""Property suites for continuous batching, preemption, and WFQ.

The continuous scheduler reorders work at stage boundaries; these
properties pin what reordering must never change:

* **work conservation** — per-resource busy seconds are invariant
  across FIFO, continuous-without-preemption, and continuous-with-
  preemption at batch 1 (preemption moves work, it never creates,
  drops, or re-executes any);
* **no starvation** — every admitted request completes, at every
  priority tier, under arbitrary priority mixes;
* **no re-execution** — a preempted request resumes from its
  checkpointed stage; its executed-stage log is exactly
  ``0..total_stages-1`` in order, each stage once;
* **WFQ fairness** — under a standing two-tenant backlog, cumulative
  virtual service per weight stays within a stage quantum of equal;
* **queue depth** — the admission-control counter equals a recount of
  the undispatched pool entries at every selection, in both modes, and
  the chip's ``admitted - dispatched`` counters equal it after every
  dispatch and every admission.
"""

from functools import partial

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.arch.engine import BishopMachine, Engine  # noqa: E402
from repro.serve import simulate as serve_simulate  # noqa: E402
from repro.serve import (  # noqa: E402
    ChipServer,
    ContinuousBatchScheduler,
    Request,
    SchedulerConfig,
    TenantSpec,
    assign_priorities,
    poisson_arrivals,
    request_profile,
    simulate_serving,
)

MODEL = "model4"
PASSES = "packing+stratify+ecp"


def profiles():
    # request_profile caches; every example reuses one compiled profile
    return {MODEL: request_profile(MODEL, passes=PASSES)}


def prioritized_stream(n, rho, seed, tiers):
    prof = profiles()[MODEL]
    rate = rho / prof.single_latency_s
    base = poisson_arrivals(n, rate, MODEL, seed=seed)
    mix = "+".join(f"{tier}:1" for tier in range(tiers))
    return assign_priorities(base, mix, seed=seed)


streams = st.builds(
    prioritized_stream,
    n=st.integers(min_value=5, max_value=25),
    rho=st.floats(min_value=0.5, max_value=3.0),
    seed=st.integers(min_value=0, max_value=50),
    tiers=st.integers(min_value=1, max_value=3),
)


@settings(max_examples=12, deadline=None)
@given(requests=streams, max_inflight=st.integers(min_value=1, max_value=2))
def test_work_conservation_under_preemption(requests, max_inflight):
    """Preemption and continuous re-forming never change busy seconds."""
    reports = [
        simulate_serving(requests, config, profiles=profiles())
        for config in (
            SchedulerConfig(max_inflight=max_inflight),
            SchedulerConfig(
                max_inflight=max_inflight, mode="continuous", preempt=False
            ),
            SchedulerConfig(max_inflight=max_inflight, mode="continuous"),
        )
    ]
    baseline = reports[0].run
    for report in reports[1:]:
        for resource in baseline.utilization():
            assert report.run.busy_s(resource) == pytest.approx(
                baseline.busy_s(resource), rel=1e-9, abs=1e-15
            )


@settings(max_examples=12, deadline=None)
@given(requests=streams, max_batch=st.integers(min_value=1, max_value=4))
def test_no_starvation(requests, max_batch):
    """Every admitted request completes — including the lowest tier."""
    report = simulate_serving(
        requests,
        SchedulerConfig(max_batch=max_batch, max_inflight=2, mode="continuous"),
        profiles=profiles(),
    )
    assert report.num_requests == len(requests)
    served = {r.index for r in report.requests}
    assert served == {r.index for r in requests}
    for record in report.requests:
        assert record.finish_s >= record.start_s >= record.arrival_s


@settings(max_examples=12, deadline=None)
@given(requests=streams, max_batch=st.integers(min_value=1, max_value=4))
def test_checkpoint_resume_never_reexecutes(requests, max_batch):
    """Each stage of each request runs exactly once, in order."""
    sched = ContinuousBatchScheduler(
        SchedulerConfig(max_batch=max_batch, mode="continuous"), profiles()
    )
    entries = [sched.add(r) for r in requests]
    group = []
    now = 0.0
    for _ in range(100_000):
        group, stage, _, _ = sched.select(group)
        if not group:
            break
        for entry in group:
            assert entry.completed == stage  # resumes at the checkpoint
        now += 1.0
        sched.stage_done(group, stage, now)
        group = [e for e in group if not e.done]
    else:  # pragma: no cover - loop guard
        raise AssertionError("scheduler did not drain")
    for entry in entries:
        assert entry.done
        assert entry.executed == list(range(entry.total_stages))


@settings(max_examples=15, deadline=None)
@given(
    gold_weight=st.floats(min_value=1.0, max_value=8.0),
    silver_weight=st.floats(min_value=1.0, max_value=8.0),
)
def test_wfq_virtual_service_within_one_quantum(gold_weight, silver_weight):
    """Under a standing backlog, per-weight service stays near-equal.

    The WFQ rule serves the tenant with minimum ``service/weight``, so at
    any boundary the two normalized services differ by at most one stage
    quantum (the largest stage's serial seconds over the lighter weight).
    """
    prof = profiles()[MODEL]
    specs = (
        TenantSpec("gold", gold_weight), TenantSpec("silver", silver_weight)
    )
    sched = ContinuousBatchScheduler(
        SchedulerConfig(max_batch=1, mode="continuous"), profiles(), specs
    )
    for i in range(80):
        sched.add(Request(
            index=i, model=MODEL, arrival_s=0.0,
            tenant="gold" if i % 2 == 0 else "silver",
        ))
    quantum = max(
        max(t.compute_s, t.dram_s(1)) for t in prof.timings
    ) / min(gold_weight, silver_weight)
    group = []
    now = 0.0
    while any(e.request.tenant == "gold" for e in sched.pool) and any(
        e.request.tenant == "silver" for e in sched.pool
    ):
        group, stage, _, _ = sched.select(group)
        now += 1.0
        sched.stage_done(group, stage, now)
        group = [e for e in group if not e.done]
        normalized = [
            sched.service_s[t.name] / t.weight for t in specs
        ]
        assert abs(normalized[0] - normalized[1]) <= quantum + 1e-12


def serve_checking_depth(requests, config):
    """Serve ``requests`` on one chip, checking ``queue_depth`` around
    every scheduling decision; returns the chip and the depths seen."""
    engine = Engine()
    chip = ChipServer(engine, BishopMachine(engine), profiles(), config)
    sched = chip.queue
    checks = []

    def check():
        recount = sum(not e.started for e in sched.pool)
        assert sched.queue_depth == recount
        checks.append(recount)

    def check_chip():
        # The chip's counters lag the scheduler only between a decision
        # and its dispatch, which no other process can observe.
        assert chip.queue_depth == sched.queue_depth
        check()

    select, take_batch = sched.select, serve_simulate.take_batch
    dispatch, enqueue = chip._dispatch, chip.enqueue

    def checked_select(prev):
        check()
        result = select(prev)
        check()
        return result

    def checked_take_batch(pool, size):
        check()
        batch = take_batch(pool, size)
        check()
        return batch

    def checked_dispatch(group):
        dispatch(group)
        check_chip()

    def checked_enqueue(request):
        enqueue(request)
        check_chip()

    sched.select = checked_select
    chip._dispatch = checked_dispatch
    chip.enqueue = checked_enqueue
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serve_simulate, "take_batch", checked_take_batch)
        # `simulate_serving`'s arrival feed, on this checked chip.
        engine.schedule(0.0, partial(
            serve_simulate.feed_arrivals, engine, requests, 0,
            chip.enqueue, chip.close,
        ))
        engine.run()
    assert chip.served_count == len(requests)
    assert checks and sched.queue_depth == 0 and chip.queue_depth == 0
    assert chip.admitted == chip.dispatched == len(requests)
    return chip, checks


@settings(max_examples=12, deadline=None)
@given(
    requests=streams,
    max_batch=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from(["static", "continuous"]),
)
def test_queue_depth_matches_recount_at_every_selection(
    requests, max_batch, mode
):
    """``queue_depth`` is kept as a counter that drops at dispatch; under
    priorities (so preemption in continuous mode) it never drifts from
    ``sum(not e.started for e in pool)``, and the chip's
    ``admitted - dispatched`` equals it after every dispatch."""
    serve_checking_depth(
        requests,
        SchedulerConfig(max_batch=max_batch, max_inflight=2, mode=mode),
    )


def test_chip_depth_counters_under_preemption_and_joins():
    """One stream that preempts and joins: the chip's two counters equal
    the scheduler's depth after every dispatch and admission."""
    requests = prioritized_stream(60, 2.5, seed=3, tiers=3)
    chip, checks = serve_checking_depth(
        requests,
        SchedulerConfig(
            max_batch=3, max_inflight=2, mode="continuous",
            allow_join=True, preempt=True,
        ),
    )
    assert chip.preemptions > 0 and chip.continuous_joins > 0
    assert max(checks) > 1
