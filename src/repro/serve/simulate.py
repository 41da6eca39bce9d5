"""Multi-request serving simulation on the discrete-event engine.

The serving loop of one chip is packaged as a :class:`ChipServer`: one
admission-ordered ready pool (optionally bounded, for admission control),
a dispatcher that opens a **lane** per free inference slot, and the lanes
themselves — each takes a group from the pool
(``repro.serve.scheduler``), runs one quantum of the model's compiled
program, contending with every other lane for the dense/sparse/attention
cores, the spike generator, and the DRAM channel, and repeats until the
pool is dry.  Static mode's quantum is the whole program; continuous
mode's is one stage.  A lane replays its quantum as a callback task
(``repro.arch.engine.lanes``, one timed event per occupancy).

Everything here is a callback on the engine clock.  Where the
dispatcher, a lane or the arrival feed waits — for work, for its
replay, for the next arrival — it schedules the callback it continues
in: a zero-delay event when woken (the dispatcher's wake-up, a
replay's ``wake``), a timed one for an arrival.  The callbacks are
bound methods and ``functools.partial`` objects over them, made per
event, so no chip is tied into a reference cycle by its own plumbing.

:func:`simulate_serving` wires ONE chip server to an arrival stream — the
N=1 special case of the fleet simulation (``repro.cluster``), which
routes the same streams across many chip servers on shard engine
clocks.  The output is a :class:`~repro.serve.report.ServingReport`:
latency percentiles, throughput, queue waits, per-resource utilization,
and chip energy (dynamic per work done + static over the horizon).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from .. import obs
from ..arch.engine.kernel import Engine
from ..arch.engine.lanes import ScheduledReplay, SerialReplay
from ..arch.engine.machine import BishopMachine
from ..arch.engine.timeline import EngineRun, TimelineEntry
from ..arch.energy import EnergyModel
from .continuous import ContinuousBatchScheduler, StageEntry
from .profiles import RequestProfile, request_profile
from .report import ServedRequest, ServingReport, build_report
from .scheduler import SchedulerConfig, take_batch
from .workload import Request, TenantSpec, arrival_order

__all__ = ["ChipServer", "feed_arrivals", "simulate_serving"]


class ChipServer:
    """One chip's serving loop: ready pool, dispatcher, lanes.

    The server owns the mutable serving state of a single
    :class:`~repro.arch.engine.machine.BishopMachine` — the ready pool
    (optionally bounded, for admission control), the in-flight lane
    count, the per-request completion records, and the chip's dynamic
    energy.  The cluster router talks to it through :meth:`enqueue` /
    :meth:`has_queue_capacity` / :attr:`outstanding_s`; the single-chip
    simulator feeds it directly from the arrival stream.
    """

    def __init__(
        self,
        engine: Engine,
        machine: BishopMachine,
        profiles: dict[str, RequestProfile],
        scheduler: SchedulerConfig | None = None,
        *,
        name: str | None = None,
        kind: str = "standard",
        queue_capacity: int | None = None,
        timeline: list[TimelineEntry] | None = None,
        recorder: "object | None" = None,
        tenants: tuple[TenantSpec, ...] = (),
    ):
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None: unbounded)")
        self.engine = engine
        self.machine = machine
        self.profiles = profiles
        self.scheduler = scheduler or SchedulerConfig()
        self.name = name
        self.kind = kind
        self.queue_capacity = queue_capacity
        self.timeline = timeline
        # A recorder replaces the per-request `served` list with streaming
        # observation (``recorder.observe(request, start_s, finish_s,
        # batch_size, chip)``) — how fleet runs keep memory bounded.
        # The summary counters below are maintained either way.
        self.recorder = recorder
        self.tenants = tuple(tenants)

        self.queue = ContinuousBatchScheduler(
            self.scheduler, profiles, self.tenants
        )
        self.inflight = 0
        # Entries admitted and first dispatched: their difference is the
        # queue depth, since ``_dispatch`` is where every entry starts.
        self.admitted = 0
        self.dispatched = 0
        self.served: list[ServedRequest] = []
        self.served_count = 0
        self.batch_size_weighted = 0.0   # Σ batch² (per-request mean weighting)
        self.last_finish_s = 0.0
        self.dynamic_energy_pj = 0.0
        self.preemptions = 0         # continuous: priority displacements
        self.continuous_joins = 0    # continuous: merges into in-flight cohorts
        self.outstanding_s = 0.0     # estimated queued + in-flight work
        self.accepting = True        # routing eligibility (autoscaler drain)
        self.closed = False          # no further arrivals will ever come
        self.started_s = engine.now  # chips added mid-run start later
        self.drained_s: float | None = None
        # The dispatcher waits for work: `enqueue`, `close` and a lane's
        # exit schedule it again.  Its first run is scheduled now.
        self._waiting = False
        engine.schedule(0.0, self._schedule_loop)

    # -- router-facing interface ------------------------------------------
    def hosts(self, model: str) -> bool:
        return model in self.profiles

    def has_queue_capacity(self) -> bool:
        return self.queue_capacity is None or self.queue_depth < self.queue_capacity

    @property
    def queue_depth(self) -> int:
        """Admitted requests not yet in service (``queue.queue_depth``)."""
        return self.admitted - self.dispatched

    @property
    def tenant_service_s(self) -> dict[str, float]:
        """Per-tenant service seconds delivered by this chip (serial
        stage-seconds executed in continuous mode; uncontended request
        seconds completed in static mode) — the WFQ fairness measure."""
        return dict(self.queue.service_s)

    def service_estimate_s(self, model: str) -> float:
        """Uncontended single-request latency of ``model`` on this chip."""
        return self.profiles[model].single_latency_s

    def enqueue(self, request: Request) -> None:
        if self.closed:
            raise RuntimeError(f"chip {self.name!r} is closed")
        self.queue.add(request)
        self.admitted += 1
        obs.inc("serve.admitted")
        obs.set_gauge("serve.queue_depth", self.queue_depth)
        self.outstanding_s += self.service_estimate_s(request.model)
        self._wake_dispatcher()

    def close(self) -> None:
        """No more arrivals: drain the queue, then let the dispatcher finish."""
        self.closed = True
        self._wake_dispatcher()

    @property
    def idle(self) -> bool:
        return self.queue.empty and self.inflight == 0

    @property
    def mean_batch_size(self) -> float:
        """Per-request mean batch size (each request weighted equally,
        matching the ServedRequest-list definition)."""
        if not self.served_count:
            return 0.0
        return self.batch_size_weighted / self.served_count

    def teardown(self) -> None:
        """Break this chip's reference cycle once its results are read.

        A recorder points back at its owner; dropping it lets reference
        counting free a finished chip (pair with :meth:`Engine.teardown
        <repro.arch.engine.kernel.Engine.teardown>`).
        """
        self.recorder = None

    # -- dispatcher and lanes ----------------------------------------------
    def _wake_dispatcher(self) -> None:
        if self._waiting:
            self._waiting = False
            self.engine.schedule(0.0, self._schedule_loop)

    def _schedule_loop(self) -> None:
        # Lanes are the chip's inference slots: each runs one group at a
        # time and takes its next group itself; a lane exits when the
        # ready pool is dry and is started again on the next arrival.
        while not self.queue.empty and self.inflight < self.scheduler.max_inflight:
            self.inflight += 1
            self.engine.schedule(0.0, self._run_lane)
        if self.closed and self.queue.empty:
            self._maybe_mark_drained()
        else:
            self._waiting = True

    def _maybe_mark_drained(self) -> None:
        # Fully idle after close: the dispatcher may finish while lanes are
        # still running, so the last lane to exit also checks.
        if self.closed and self.idle and self.drained_s is None:
            self.drained_s = self.engine.now

    def _label(self, label: str) -> str:
        return f"{self.name}/{label}" if self.name else label

    def _run_lane(self) -> None:
        """One inference slot: take a group, run one quantum, repeat."""
        if self.scheduler.continuous:
            self._stage_quantum([])
        else:
            self._program_quantum()

    def _lane_done(self) -> None:
        self.inflight -= 1
        self._maybe_mark_drained()
        self._wake_dispatcher()

    def _dispatch(self, group: list[StageEntry]) -> None:
        for entry in group:
            if entry.start_s is None:
                entry.start_s = self.engine.now
                self.dispatched += 1

    def _program_quantum(self) -> None:
        """Static mode: the whole program for the next :func:`take_batch`
        group, or the lane's exit when the pool is dry.

        Profiles compiled with the scheduling pass replay under the
        depth-1 weight-prefetch schedule; others layer-serially.
        """
        pool = self.queue.pool
        if not pool:
            self._lane_done()
            return
        group = take_batch(pool, self.scheduler.max_batch)
        self.queue.selects += 1
        self._dispatch(group)
        size = len(group)
        profile = self.profiles[group[0].request.model]
        label = self._label(f"b{group[0].request.index}x{size}")
        replay = ScheduledReplay if profile.scheduled else SerialReplay
        replay(
            self.engine, self.machine, profile.timings, label, size,
            self.timeline,
        ).start(partial(
            self.engine.schedule, 0.0, partial(self._program_done, group)
        ))

    def _program_done(self, group: list[StageEntry]) -> None:
        size = len(group)
        obs.inc("serve.batches")
        obs.observe("serve.batch_size", size)
        profile = self.profiles[group[0].request.model]
        self.dynamic_energy_pj += profile.batch_dynamic_pj(size)
        self._finish_entries(self.queue.program_done(group, self.engine.now))
        self._program_quantum()

    def _stage_quantum(self, group: list[StageEntry]) -> None:
        """Continuous mode: one compiled stage per scheduling decision.

        The lane asks the scheduler for an execution group at every stage
        boundary (handing back its previous group, so joins, leaves, WFQ
        switches, and preemptions all happen here), executes exactly one
        compiled stage for the whole group, then repeats; it exits when
        the scheduler has no group for it.
        """
        sched = self.queue
        while True:
            group, stage, preempted, joined = sched.select(group)
            for entry in preempted:
                self.preemptions += 1
                obs.inc("serve.preemptions")
                with obs.span(
                    "serve.preempt", cat="serve",
                    request=entry.request.index,
                    priority=entry.request.priority,
                    resume_stage=entry.completed,
                    chip=self.name or "",
                ):
                    pass
            if joined:
                self.continuous_joins += joined
                obs.inc("serve.continuous_joins")
            if not group:
                self._lane_done()
                return
            head = group[0]
            timings = self.profiles[head.request.model].timings
            size = len(group)
            self._dispatch(group)
            if timings:
                break
            # A zero-stage program completes at dispatch, as in static
            # mode; the whole group shares the model.
            self._finish_entries(sched.program_done(group, self.engine.now))
            group = []
        obs.inc("serve.stage_groups")
        # The replay label only names timeline entries.
        label = (
            "" if self.timeline is None
            else self._label(f"c{head.cohort}x{size}")
        )
        SerialReplay(
            self.engine, self.machine, timings, label, size,
            self.timeline, stage, stage + 1,
        ).start(partial(
            self.engine.schedule, 0.0, partial(self._stage_done, group, stage)
        ))

    def _stage_done(self, group: list[StageEntry], stage: int) -> None:
        timing = self.profiles[group[0].request.model].timings[stage]
        self.dynamic_energy_pj += timing.batch_dynamic_pj(len(group))
        finished = self.queue.stage_done(group, stage, self.engine.now)
        if finished:
            self._finish_entries(finished)
            group = [e for e in group if not e.done]
        self._stage_quantum(group)

    def _finish_entries(self, finished: list[StageEntry]) -> None:
        now = self.engine.now
        self.last_finish_s = max(self.last_finish_s, now)
        for entry in finished:
            request = entry.request
            size = entry.max_group
            self.served_count += 1
            self.batch_size_weighted += float(size)
            if self.recorder is None:
                self.served.append(ServedRequest(
                    index=request.index,
                    model=request.model,
                    arrival_s=request.arrival_s,
                    start_s=entry.start_s,
                    finish_s=now,
                    batch_size=size,
                    chip=self.name or "",
                    tenant=request.tenant,
                    priority=request.priority,
                    preemptions=entry.preemptions,
                ))
            else:
                self.recorder.observe(
                    request, entry.start_s, now, size, self.name or ""
                )
            self.outstanding_s -= self.service_estimate_s(request.model)


def feed_arrivals(
    engine: Engine,
    stream: Sequence[Request],
    index: int,
    deliver: Callable[[Request], None],
    done: Callable[[], None] | None = None,
) -> None:
    """Hand ``stream[index:]`` to ``deliver`` as the clock reaches each
    arrival, then call ``done``: the arrival feed of a chip or a shard.

    Requests already due are delivered at once; for the next one in the
    future the feed schedules its own resumption at that arrival.
    """
    while index < len(stream):
        gap = stream[index].arrival_s - engine.now
        if gap > 0:
            engine.schedule(
                gap, partial(_arrive, engine, stream, index, deliver, done)
            )
            return
        deliver(stream[index])
        index += 1
    if done is not None:
        done()


def _arrive(engine, stream, index, deliver, done) -> None:
    # Due now: the scheduled gap may miss `arrival_s` by an ulp, so the
    # gap is not checked again.
    deliver(stream[index])
    feed_arrivals(engine, stream, index + 1, deliver, done)


def simulate_serving(
    requests: list[Request],
    scheduler: SchedulerConfig | None = None,
    profiles: dict[str, RequestProfile] | None = None,
    bs_t: int = 2,
    bs_n: int = 4,
    seed: int = 0,
    energy: EnergyModel | None = None,
    record_timeline: bool = False,
    passes: str | None = None,
    tenants: tuple[TenantSpec, ...] = (),
) -> ServingReport:
    """Serve an arrival stream on one Bishop chip; returns the report.

    ``profiles`` may be passed explicitly (e.g. to serve custom task
    graphs) and then takes precedence over ``bs_t``/``bs_n``/``seed`` for
    the models it covers; by default each model's profile is compiled (and
    program-cached) from its Table-2 synthetic trace, with ``passes``
    selecting the compiler passes.  An empty stream yields an empty
    (all-zero) report rather than raising.
    """
    scheduler = scheduler or SchedulerConfig()
    energy = energy or EnergyModel()
    stream = arrival_order(requests)
    profiles = dict(profiles) if profiles else {}  # never mutate the caller's
    with obs.span(
        "serve.simulate", cat="serve",
        requests=len(stream), policy=scheduler.policy,
    ):
        for model in {r.model for r in stream}:
            if model not in profiles:
                profiles[model] = request_profile(
                    model, bs_t=bs_t, bs_n=bs_n, seed=seed, passes=passes
                )

        engine = Engine()
        machine = BishopMachine(engine)
        timeline: list[TimelineEntry] | None = [] if record_timeline else None
        chip = ChipServer(
            engine, machine, profiles, scheduler,
            timeline=timeline, tenants=tenants,
        )
        total = len(stream)
        engine.schedule(
            0.0, partial(feed_arrivals, engine, stream, 0, chip.enqueue, chip.close)
        )
        engine.run()
        obs.inc("serve.scheduler.selects", chip.queue.selects)
        obs.inc("serve.scheduler.continued", chip.queue.continued)
    if len(chip.served) != total:  # pragma: no cover - engine invariant
        raise RuntimeError(
            f"serving simulation stalled: {len(chip.served)}/{total} completed"
        )

    run = EngineRun.capture(engine, timeline=timeline)
    chip.teardown()
    engine.teardown()
    run.energy_pj = chip.dynamic_energy_pj + energy.static_pj(run.makespan_s)
    # Zero-span streams (empty, single request, simultaneous burst) have no
    # meaningful rate; report 0 rather than infinity so artifacts stay
    # strict-JSON parseable.
    span = stream[-1].arrival_s - stream[0].arrival_s if stream else 0.0
    offered = (total - 1) / span if span > 0 else 0.0
    return build_report(
        chip.served,
        run,
        offered_rps=offered,
        dynamic_energy_pj=chip.dynamic_energy_pj,
        static_energy_pj=energy.static_pj(run.makespan_s),
        policy=scheduler.policy,
        max_batch=scheduler.max_batch,
        max_inflight=scheduler.max_inflight,
        mode=scheduler.mode,
        preemptions=chip.preemptions,
        continuous_joins=chip.continuous_joins,
        tenant_service_s=chip.tenant_service_s,
    )
