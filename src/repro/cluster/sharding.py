"""The fleet simulator: chips partitioned into shards, stepped in windows.

One engine clock across every chip bounds fleet size by one core's event
throughput, and one front-end router would scan the whole fleet per
request.  This module partitions the fleet into **shards** that advance
independently (one shard, the default, is the whole fleet on one clock):

* :func:`partition_fleet` deals chips to shards round-robin (chip ``i``
  → shard ``i % num_shards``), preserving global chip names;
* each :class:`ShardState` owns a private engine, its chips'
  :class:`~repro.serve.simulate.ChipServer` loops, and a shard-local
  routing policy; it advances in **windows** — ``step(requests, until)``
  feeds one window's arrivals, runs its engine exactly to the window
  edge (``Engine.run(until=...)``), and returns a picklable
  :class:`WindowDigest` of the window's latency samples and counters;
* the **coordinator** (:class:`_Coordinator`, built and driven by
  :func:`simulate_cluster_sharded`) holds every piece of between-window
  state — the last digests, per-shard placement and queue room, the
  fleet sketches, the window series, the monitors and the pending
  autoscaler decision.  Its ``window()`` batches one window's arrivals,
  assigns each request to a shard (:data:`SHARD_POLICIES`), steps every
  shard with arrivals, work or a command through the
  :class:`~repro.runtime.executor.ShardPool` actor pool, folds the
  digests' samples into the fleet sketches in shard order, feeds the
  SLO and alert monitors, and makes the window's autoscaler decision;
  ``finish()`` collects each shard's :class:`ShardFinal` and builds the
  :class:`ClusterReport` once.

Chips are dealt round-robin (not in contiguous blocks) so that, with
``num_shards`` dividing the fleet size, shard-level round-robin over
round-robin shards reproduces the one-shard round-robin assignment
*request for request* — the conformance anchor K-shard runs are tested
against.  In-flight batches cross window boundaries naturally because a
shard's engine state persists in its worker process between calls.

Determinism: the arrival trace is generated once by the coordinator
(workload seeds are split with ``numpy.random.SeedSequence.spawn`` —
see :func:`repro.serve.workload.spawn_seeds`), shard assignment is a
pure function of the stream and prior digests, and digests merge in
shard order — so a sharded run's report is independent of worker
scheduling and, for the trace itself, of the shard count.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .. import obs
from ..arch.engine.kernel import Engine
from ..arch.engine.machine import BishopMachine
from ..arch.energy import EnergyModel
from ..serve.profiles import request_profile
from ..serve.report import latency_stats, slo_block
from ..serve.scheduler import SchedulerConfig
from ..serve.simulate import ChipServer, feed_arrivals
from ..serve.sketch import LatencySketch
from ..serve.workload import Request, TenantSpec, arrival_order
from .admission import (
    AdmissionConfig,
    CandidateIndex,
    TenantAdmission,
    eligible_chips,
)
from .autoscale import AutoscaleConfig, ScalingEvent
from .fleet import ChipSpec, FleetSpec, chip_config
from .report import ClusterReport, ShardChipStats, WindowStats, tenant_report
from .routing import make_policy

if TYPE_CHECKING:
    from ..runtime.executor import ShardPool

__all__ = [
    "SHARD_POLICIES",
    "ShardInit",
    "ShardState",
    "ShardingConfig",
    "WindowDigest",
    "auto_window_s",
    "make_shard_state",
    "partition_fleet",
    "simulate_cluster_sharded",
]

SHARD_POLICIES = ("round_robin", "least_backlog")

# Give up if this many consecutive windows pass with busy shards making
# zero progress — a stalled shard engine is a bug, not a backlog.
_STALL_WINDOWS = 10_000


@dataclass(frozen=True)
class ShardingConfig:
    """How a fleet is sharded and windowed.

    ``window_s`` is the coordination quantum: routing across shards and
    autoscaling happen only at window edges, so smaller windows track
    load faster while larger ones amortize per-window dispatch cost.
    ``jobs`` sizes the actor pool (``1`` = run shards inline, ``0`` =
    one worker per core).  One shard is the whole fleet on one engine.
    """

    num_shards: int = 1
    window_s: float = 0.25
    jobs: int = 1
    shard_policy: str = "round_robin"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        if not (math.isfinite(self.window_s) and self.window_s > 0):
            raise ValueError(
                f"window_s must be positive and finite, got {self.window_s}"
            )
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0")
        if self.shard_policy not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {self.shard_policy!r};"
                f" options {sorted(SHARD_POLICIES)}"
            )


def auto_window_s(window_ms: float, span_s: float, windows: int) -> float:
    """Coordination window in seconds: ``window_ms`` when positive, and
    ``span_s / windows`` when ``0`` (auto); negative values are rejected."""
    if window_ms < 0:
        raise ValueError(f"window_ms must be >= 0 (0 = auto), got {window_ms:g}")
    if window_ms > 0:
        return window_ms * 1e-3
    return max(span_s / windows, 1e-9)


def partition_fleet(
    fleet: FleetSpec, num_shards: int
) -> list[tuple[tuple[int, ChipSpec], ...]]:
    """Deal chips to shards round-robin, keeping global indices.

    Chip ``i`` goes to shard ``i % num_shards``; the returned entries
    carry ``(global_index, spec)`` so shards name chips globally
    (``chip7`` is ``chip7`` in any sharding).  Interleaving — rather
    than contiguous blocks — is what makes shard-level round-robin
    compose with chip-level round-robin into the global round-robin
    order when ``num_shards`` divides the fleet size.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if num_shards > len(fleet):
        raise ValueError(
            f"cannot split {len(fleet)} chips into {num_shards} shards"
        )
    shards: list[list[tuple[int, ChipSpec]]] = [[] for _ in range(num_shards)]
    for index, spec in enumerate(fleet.chips):
        shards[index % num_shards].append((index, spec))
    return [tuple(shard) for shard in shards]


# ----------------------------------------------------------------------
# The shard actor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardInit:
    """Picklable construction payload of one shard (actor factory input)."""

    shard: int
    chip_names: tuple[str, ...]
    chip_kinds: tuple[str, ...]
    chip_models: tuple[tuple[str, ...] | None, ...]
    workload_models: tuple[str, ...]
    policy: str
    scheduler: SchedulerConfig
    queue_capacity: int | None
    bs_t: int
    bs_n: int
    seed: int
    passes: str | None
    tenants: tuple[TenantSpec, ...] = ()


@dataclass(frozen=True)
class WindowDigest:
    """One shard's window summary — everything the coordinator consumes.

    ``latency`` and ``wait`` are the raw samples of **this window's
    completions only**, in completion order; the coordinator inserts
    them with ``add_many`` into the cumulative fleet sketches and the
    window sketch, the same insert a shard-side sketch would make, so
    the fleet statistics are bit-identical to merging per-shard window
    sketches.  Payload bytes scale with the window's completions (9
    bytes a sample pickled), not with the run length: a few-sample
    digest pickles to ~400 bytes, where two 2,533-bin sketches cost a
    fixed ~41 KB (20.6 KB each) — the break-even is ~2.3k samples per
    sketch.
    """

    shard: int
    until_s: float
    window_served: int
    window_shed: int
    served: int                   # cumulative
    shed: int                     # cumulative
    delivered: int                # cumulative requests fed to this shard
    pending: int                  # queued across chips at window end
    inflight: int
    outstanding_s: float          # estimated work on accepting chips
    accepting_chips: int
    hosted_models: tuple[str, ...]
    latency: tuple[float, ...]    # this window's latency samples (s)
    wait: tuple[float, ...]       # and queue waits (s), same order
    applied: tuple[tuple[str, str | None], ...] = ()   # command acks
    wall_s: float = 0.0           # worker wall time spent in this step
    tenant_served: dict[str, int] = field(default_factory=dict)  # this window

    @property
    def busy(self) -> bool:
        return self.pending > 0 or self.inflight > 0


@dataclass(frozen=True)
class ShardFinal:
    """End-of-run shard summary: per-chip counters for the fleet report."""

    shard: int
    served: int
    shed: int
    delivered: int
    shed_by_model: dict[str, int]
    last_finish_s: float
    chips: tuple[ShardChipStats, ...]
    # Multi-tenant runs: this shard's cumulative per-tenant latency
    # sketches (mergeable across shards), sheds, and service seconds.
    tenant_latency: dict[str, LatencySketch] = field(default_factory=dict)
    tenant_shed: dict[str, int] = field(default_factory=dict)
    tenant_service_s: dict[str, float] = field(default_factory=dict)


class ShardState:
    """One shard's private simulator, living in one worker process.

    The ``recorder`` seam of :class:`ChipServer` points back at the
    shard, so completions stream into per-window latency/wait sample
    buffers instead of accumulating ``ServedRequest`` lists — a shard's
    memory footprint is bounded by its in-flight window, not the run
    length.

    A window's digest reads only the **live** chips: those enqueued into
    since they were last seen idle with ``outstanding_s == 0.0``.  Every
    other chip has nothing queued or in flight and exactly ``0.0``
    outstanding work, so skipping it leaves each sum unchanged (adding
    ``0.0`` is exact).  Accepting chips and their per-model host counts
    are tallies, kept on add and drain, and a chip's queue depth is two
    counters (``admitted - dispatched``).  The front door routes the
    same way: a least-key policy takes its minimum in one pass over the
    live chips and one idle host per chip kind
    (:meth:`CandidateIndex.least
    <repro.cluster.admission.CandidateIndex.least>`).  A step allocates
    no sketch: the digest carries the window's samples.
    """

    def __init__(self, init: ShardInit):
        self.init = init
        self.engine = Engine()
        self.policy = make_policy(init.policy)
        self.chips: list[ChipServer] = []
        self.served = 0
        self.shed = 0
        self.delivered = 0
        self.shed_by_model: dict[str, int] = {}
        self.last_finish_s = 0.0
        # Tenant quotas are enforced per shard (shards admit independently
        # between coordination windows); sketches are cumulative and merge
        # exactly across shards at finalize.
        self.tenant_admission = TenantAdmission(init.tenants)
        self.tenant_latency: dict[str, LatencySketch] = {
            spec.name: LatencySketch() for spec in init.tenants
        }
        self.tenant_shed: dict[str, int] = {}
        self._window_latencies: list[float] = []
        self._window_waits: list[float] = []
        self._window_served = 0
        self._window_shed = 0
        self._window_tenant_served: dict[str, int] = {}
        self._slots: dict[ChipServer, int] = {}   # chip -> fleet position
        self._index = CandidateIndex(self.chips, init.queue_capacity)
        self._route_scanned = 0                  # chips inspected this step
        self._accepting = 0
        self._hosts: dict[str, int] = {}          # model -> accepting hosts
        for name, kind, models in zip(
            init.chip_names, init.chip_kinds, init.chip_models
        ):
            hosted = (
                tuple(init.workload_models)
                if models is None
                else tuple(m for m in models if m in init.workload_models)
            )
            self._add_chip(name, kind, hosted)

    def _add_chip(
        self, name: str, kind: str, models: tuple[str, ...]
    ) -> ChipServer:
        init = self.init
        config = chip_config(kind, init.bs_t, init.bs_n)
        profiles = {
            model: request_profile(
                model, seed=init.seed, config=config, passes=init.passes
            )
            for model in models
        }
        chip = ChipServer(
            self.engine,
            BishopMachine(self.engine, name=name),
            profiles,
            init.scheduler,
            name=name,
            kind=kind,
            queue_capacity=init.queue_capacity,
            recorder=self,
            tenants=init.tenants,
        )
        self._slots[chip] = len(self.chips)
        self.chips.append(chip)
        self._index.settled(len(self.chips) - 1)
        self._count_accepting(chip, 1)
        return chip

    def _count_accepting(self, chip: ChipServer, sign: int) -> None:
        self._accepting += sign
        for model in chip.profiles:
            self._hosts[model] = self._hosts.get(model, 0) + sign

    # -- ChipServer recorder seam -----------------------------------------
    def observe(
        self,
        request: Request,
        start_s: float,
        finish_s: float,
        batch_size: int,
        chip: str,
    ) -> None:
        self._window_latencies.append(finish_s - request.arrival_s)
        self._window_waits.append(start_s - request.arrival_s)
        self._window_served += 1
        self.served += 1
        if finish_s > self.last_finish_s:
            self.last_finish_s = finish_s
        if request.tenant:
            sketch = self.tenant_latency.setdefault(
                request.tenant, LatencySketch()
            )
            sketch.add(finish_s - request.arrival_s)
            self._window_tenant_served[request.tenant] = (
                self._window_tenant_served.get(request.tenant, 0) + 1
            )
        self.tenant_admission.release(request)

    # -- window advance ----------------------------------------------------
    def _deliver(self, request: Request) -> None:
        """Admit and route one arrival, or shed it."""
        chip = None
        if self.tenant_admission.admit(request):
            chip = self._route(request)
            if chip is None:
                self.tenant_admission.release(request)
        if chip is None:
            self.shed += 1
            self._window_shed += 1
            self.shed_by_model[request.model] = (
                self.shed_by_model.get(request.model, 0) + 1
            )
            if request.tenant:
                self.tenant_shed[request.tenant] = (
                    self.tenant_shed.get(request.tenant, 0) + 1
                )
        else:
            chip.enqueue(request)
            self._index.enqueued(self._slots[chip])
        self.delivered += 1

    def _route(self, request: Request) -> ChipServer | None:
        """The policy's chip for ``request``, or ``None`` to shed."""
        if self.policy.scans_fleet:
            self._route_scanned += len(self.chips)
            return self.policy.choose(request, eligible_chips(request, self.chips))
        chip, scanned = self._index.least(self.policy.key, request.model)
        self._route_scanned += scanned
        return chip

    def _apply(self, command: tuple) -> tuple[str, str | None]:
        action, at_s = command[:2]
        # A shard with no work is not stepped, so its clock may trail the
        # window start the command was decided for: catch it up first.
        self.engine.run(until=at_s)
        if action == "add":
            _, _, kind, name = command
            chip = self._add_chip(name, kind, tuple(self.init.workload_models))
            return ("add", chip.name)
        if action == "drain":
            victim = self._drainable_victim()
            if victim is None:
                return ("drain", None)
            victim.accepting = False
            self._index.drained(self._slots[victim])
            self._count_accepting(victim, -1)
            victim.close()
            return ("drain", victim.name)
        raise ValueError(f"unknown shard command {command!r}")

    def _drainable_victim(self) -> ChipServer | None:
        """Least-loaded accepting chip whose models stay covered in-shard
        (ties go to the earliest chip in fleet order)."""
        hosts = self._hosts
        victim = None
        for chip in self.chips:
            if (
                chip.accepting
                and all(hosts[model] > 1 for model in chip.profiles)
                and (victim is None or chip.outstanding_s < victim.outstanding_s)
            ):
                victim = chip
        return victim

    def step(
        self,
        requests: tuple[Request, ...],
        until: float,
        commands: tuple[tuple, ...] = (),
    ) -> WindowDigest:
        """Advance this shard exactly to ``until``; returns the digest.

        Commands (autoscaler add/drain decisions from the coordinator,
        ``(action, at_s, ...)``) apply at the window start ``at_s``,
        before any of the window's arrivals.
        """
        wall_start = time.perf_counter()
        self._window_latencies = []
        self._window_waits = []
        self._window_served = 0
        self._window_shed = 0
        self._window_tenant_served = {}
        self._route_scanned = 0
        applied = tuple(self._apply(command) for command in commands)
        with obs.span(
            "cluster.shard.step", cat="cluster",
            shard=self.init.shard, arrivals=len(requests),
        ):
            if requests:
                self.engine.schedule(0.0, partial(
                    feed_arrivals, self.engine, tuple(requests), 0, self._deliver,
                ))
            self.engine.run(until=until)
        chips, index = self.chips, self._index
        live = index.live
        pending = inflight = 0
        outstanding = 0.0
        full: dict[str, int] = {}   # models of accepting chips with no queue room
        scanned = len(live)
        capacity = self.init.queue_capacity
        for position in sorted(live):
            chip = chips[position]
            depth = chip.admitted - chip.dispatched   # chip.queue_depth
            busy = chip.inflight
            work = chip.outstanding_s
            pending += depth
            inflight += busy
            if chip.accepting:
                outstanding += work
                if capacity is not None and depth >= capacity:
                    for model in chip.profiles:
                        full[model] = full.get(model, 0) + 1
            # With no lane running, the pool holds no preempted entry, so
            # it is empty exactly when nothing waits for dispatch.
            if work == 0.0 and busy == 0 and depth == 0:
                index.settled(position)
        obs.inc("cluster.shard.steps")
        obs.inc("cluster.digest.chips_scanned", scanned)
        obs.inc("cluster.route.chips_scanned", self._route_scanned)
        return WindowDigest(
            shard=self.init.shard,
            until_s=until,
            window_served=self._window_served,
            window_shed=self._window_shed,
            served=self.served,
            shed=self.shed,
            delivered=self.delivered,
            pending=pending,
            inflight=inflight,
            outstanding_s=outstanding,
            accepting_chips=self._accepting,
            hosted_models=tuple(sorted(
                model for model, count in self._hosts.items()
                if count > full.get(model, 0)
            )),
            latency=tuple(self._window_latencies),
            wait=tuple(self._window_waits),
            applied=applied,
            wall_s=time.perf_counter() - wall_start,
            tenant_served=self._window_tenant_served,
        )

    def finalize(self) -> ShardFinal:
        """End-of-run per-chip counters (called once, after the last step).

        Tears the shard's chips and engine down afterwards: a fleet's
        resources and recorder links form reference cycles that only a
        full collection would otherwise free.
        """
        obs.inc(
            "serve.scheduler.selects",
            sum(chip.queue.selects for chip in self.chips),
        )
        obs.inc(
            "serve.scheduler.continued",
            sum(chip.queue.continued for chip in self.chips),
        )
        for resource in self.engine.resources.values():
            resource._integrate()
        chips = tuple(
            ShardChipStats(
                name=chip.name or "chip",
                kind=chip.kind,
                models=tuple(sorted(chip.profiles)),
                requests_served=chip.served_count,
                mean_batch_size=chip.mean_batch_size,
                busy_s={
                    unit: resource.stats.busy_s
                    for unit, resource in chip.machine.resources.items()
                },
                dynamic_energy_pj=chip.dynamic_energy_pj,
                started_s=chip.started_s,
                accepting=chip.accepting,
                drained_s=chip.drained_s,
            )
            for chip in self.chips
        )
        tenant_service: dict[str, float] = {}
        for chip in self.chips:
            for tenant, service in chip.tenant_service_s.items():
                if tenant:
                    tenant_service[tenant] = (
                        tenant_service.get(tenant, 0.0) + service
                    )
        final = ShardFinal(
            shard=self.init.shard,
            served=self.served,
            shed=self.shed,
            delivered=self.delivered,
            shed_by_model=dict(self.shed_by_model),
            last_finish_s=self.last_finish_s,
            chips=chips,
            tenant_latency=dict(self.tenant_latency),
            tenant_shed=dict(self.tenant_shed),
            tenant_service_s=tenant_service,
        )
        for chip in self.chips:
            chip.teardown()
        self.engine.teardown()
        return final


def make_shard_state(init: ShardInit) -> ShardState:
    """ShardPool actor factory (``repro.cluster.sharding:make_shard_state``)."""
    return ShardState(init)




# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
def simulate_cluster_sharded(
    requests: list[Request],
    fleet: FleetSpec,
    scheduler: SchedulerConfig | None = None,
    policy: str = "least_work",
    admission: AdmissionConfig | None = None,
    autoscale: AutoscaleConfig | None = None,
    sharding: ShardingConfig | None = None,
    *,
    bs_t: int = 2,
    bs_n: int = 4,
    seed: int = 0,
    energy: EnergyModel | None = None,
    passes: str | None = None,
    slo_ms: float | None = None,
    slo_target: float = 0.99,
    alerts: bool = False,
    tenants: tuple[TenantSpec, ...] = (),
) -> ClusterReport:
    """Serve ``requests`` on ``fleet``; returns the cluster report.

    Chips are partitioned into ``sharding.num_shards`` independent
    engines (default one: the whole fleet on one clock) coordinated at
    ``sharding.window_s`` boundaries on the actor pool.  ``policy``
    (``round_robin`` / ``least_work`` / ``sparsity``) routes *within* a
    shard; ``sharding.shard_policy`` routes *across* shards.  The
    optional ``autoscale`` control loop makes one decision per window
    with a due tick, on digest pressure; without an explicit
    ``sharding`` the window is ``autoscale.interval_s``, so each tick
    lands on a window edge.

    With ``slo_ms`` an :class:`~repro.obs.slo.SLOMonitor` runs
    *streaming* in the coordinator loop — each window's merged latency
    sketch feeds live attainment, error-budget, and multi-window
    burn-rate evaluation (``slo_target``), and the report carries the
    attainment series plus budget/alert record.  With ``alerts`` the
    :class:`~repro.obs.monitor.Monitor` detector set additionally
    watches the window stream for queue growth, shedding, saturation,
    and latency drift; all alert transitions land in ``report.alerts``.
    """
    scheduler = scheduler or SchedulerConfig()
    admission = admission or AdmissionConfig()
    if sharding is None:
        sharding = (
            ShardingConfig(window_s=autoscale.interval_s)
            if autoscale is not None
            else ShardingConfig()
        )
    # Imported here: repro.runtime imports the harness registry, which
    # imports this package — runtime access must be deferred to call time.
    from ..runtime.executor import ShardPool

    stream = arrival_order(requests)
    models = tuple(sorted({r.model for r in stream}))
    if models:
        fleet.validate_placement(models)
    shards = partition_fleet(fleet, sharding.num_shards)
    inits = [
        ShardInit(
            shard=index,
            chip_names=tuple(f"chip{i}" for i, _ in shard),
            chip_kinds=tuple(spec.kind for _, spec in shard),
            chip_models=tuple(spec.models for _, spec in shard),
            workload_models=models,
            policy=policy,
            scheduler=scheduler,
            queue_capacity=admission.queue_capacity,
            bs_t=bs_t,
            bs_n=bs_n,
            seed=seed,
            passes=passes,
            tenants=tuple(tenants),
        )
        for index, shard in enumerate(shards)
    ]
    jobs = sharding.jobs if sharding.jobs else (os.cpu_count() or 1)
    with obs.span(
        "cluster.sharded", cat="cluster",
        shards=len(shards), chips=len(fleet), requests=len(stream),
    ), ShardPool(
        min(jobs, len(shards)), "repro.cluster.sharding:make_shard_state"
    ) as pool:
        coordinator = _Coordinator(
            pool, stream, inits, sharding, autoscale,
            estimates=_service_estimates(
                fleet, models, bs_t, bs_n, seed, passes
            ),
            static_pj_per_s=(energy or EnergyModel()).static_pj(1.0),
            slo_ms=slo_ms,
            slo_target=slo_target,
            alerts=alerts,
        )
        while not coordinator.done:
            coordinator.window()
        return coordinator.finish()


class _Coordinator:
    """The fleet's window loop and everything it keeps between windows:
    :meth:`window` steps one window, :meth:`finish` builds the report.

    Shard routing (:meth:`_assign`): ``round_robin`` cycles the eligible
    shards per request — with interleaved partitioning and chip-level
    round-robin this reproduces the one-shard round-robin assignment
    exactly (the conformance mode).  ``least_backlog`` sends each request
    to the eligible shard with the least estimated outstanding work per
    accepting chip, where the estimate is the last digest's outstanding
    plus this window's assignments so far.  Eligible shards host the
    model with queue room at the last window edge; when none has room,
    every shard the model is placed on is eligible, and the shard's
    front door admits or sheds at arrival time — a queue-full snapshot
    goes stale within the window.
    """

    def __init__(
        self,
        pool: ShardPool,
        stream: list[Request],
        inits: list[ShardInit],
        sharding: ShardingConfig,
        autoscale: AutoscaleConfig | None,
        *,
        estimates: dict[str, float],
        static_pj_per_s: float,
        slo_ms: float | None,
        slo_target: float,
        alerts: bool,
    ):
        self.pool = pool
        self.stream = stream
        self.inits = inits
        self.sharding = sharding
        self.autoscale = autoscale
        self.estimates = estimates          # model → single-request seconds
        self.static_pj_per_s = static_pj_per_s
        self.models = inits[0].workload_models
        # Models each shard's chips host (grown by added replicas), and the
        # subset with queue room at the last window edge (from digests).
        self.placed: list[set[str]] = [
            {
                model
                for chip_models in init.chip_models
                for model in (
                    chip_models if chip_models is not None else self.models
                )
                if model in self.models
            }
            for init in inits
        ]
        self.hosted = [set(shard_models) for shard_models in self.placed]
        self.accepting = [len(init.chip_names) for init in inits]
        self.initial_chips = sum(self.accepting)
        self.digests: dict[int, WindowDigest] = {}
        self.busy: set[int] = set()       # shards with work at the last edge
        self.position = 0                 # next arrival to batch
        self.index = 0                    # next window
        self.turn = 0                     # round_robin shard cursor
        self.windows: list[WindowStats] = []
        self.scaling_events: list[ScalingEvent] = []
        self.latency = LatencySketch()
        self.wait = LatencySketch()
        self.decision: _Decision | None = None   # awaiting its shard's ack
        self.next_chip = self.initial_chips
        self.next_scale_check = autoscale.interval_s if autoscale else None
        self.stalled = 0
        # Streaming analysis: the SLO monitor consumes each window's merged
        # sketch as the coordinator produces it (exactly equivalent to the
        # post-hoc pass — sketch merges are exact); the detector monitor
        # watches the fleet-aggregated window stats.
        self.slo_monitor = (
            obs.SLOMonitor(
                obs.SLOObjective(slo_ms=float(slo_ms), target=slo_target)
            )
            if slo_ms is not None
            else None
        )
        self.monitor = obs.Monitor() if alerts else None

    @property
    def done(self) -> bool:
        """Every arrival fed, no shard busy, and at least one window run."""
        return (
            self.position >= len(self.stream)
            and not self.busy
            and self.index > 0
        )

    def window(self) -> None:
        """Step one coordination window and fold its digests in."""
        index, busy, decision = self.index, self.busy, self.decision
        start_s = index * self.sharding.window_s
        until = (index + 1) * self.sharding.window_s
        stream, position = self.stream, self.position
        while position < len(stream) and stream[position].arrival_s < until:
            position += 1
        batch = stream[self.position:position]
        self.position = position
        arrivals_done = position >= len(stream)
        per_shard = self._assign(batch)
        commands = {decision.shard: (decision.command,)} if decision else {}
        step_shards = sorted(busy | set(per_shard) | set(commands))
        digests, hosted, accepting = self.digests, self.hosted, self.accepting
        with obs.span(
            "cluster.window", cat="cluster",
            window=index, shards=len(step_shards), arrivals=len(batch),
        ):
            futures = {
                shard: self.pool.submit(
                    shard,
                    self.inits[shard],
                    "step",
                    tuple(per_shard.get(shard, ())),
                    until,
                    commands.get(shard, ()),
                )
                for shard in step_shards
            }
            window_latency = LatencySketch()
            window_served = 0
            window_shed = 0
            tenant_served: dict[str, int] = {}
            progressed = False
            for shard in step_shards:
                digest = futures[shard].result()
                digests[shard] = digest
                # Per-worker window wall time, merged coordinator-side
                # (workers on a process pool can't share the registry).
                obs.observe("cluster.shard_window_s", digest.wall_s)
                if digest.latency:
                    self.latency.add_many(digest.latency)
                    self.wait.add_many(digest.wait)
                    window_latency.add_many(digest.latency)
                window_served += digest.window_served
                window_shed += digest.window_shed
                for tenant, count in digest.tenant_served.items():
                    tenant_served[tenant] = tenant_served.get(tenant, 0) + count
                hosted[shard] = set(digest.hosted_models)
                accepting[shard] = digest.accepting_chips
                if digest.window_served or digest.window_shed:
                    progressed = True
                for action, chip_name in digest.applied:
                    if chip_name is None:
                        continue
                    if action == "add":
                        self.placed[shard].update(self.models)
                    self.scaling_events.append(ScalingEvent(
                        t_s=start_s,
                        action=action,
                        chip=chip_name,
                        pressure=decision.pressure,
                        accepting_chips=decision.accepting_after,
                    ))
        self.decision = None
        obs.inc("serve.shed", window_shed)
        backlog = sum(d.pending + d.inflight for d in digests.values())
        slo = (
            self.slo_monitor.observe_window(
                index, start_s, until, window_latency
            )
            if self.slo_monitor is not None
            else None
        )
        monitor = self.monitor
        stats = WindowStats(
            index=index,
            start_s=start_s,
            end_s=until,
            arrivals=len(batch),
            served=window_served,
            shed=window_shed,
            backlog=backlog,
            p99_ms=(
                window_latency.percentile(99.0) * 1e3
                if window_latency.count
                else 0.0
            ),
            mean_ms=window_latency.mean_s * 1e3,
            slo_attainment=slo.attainment if slo else None,
            pressure=(
                self._pressure(self.sharding.window_s)
                if monitor is not None
                else None
            ),
            pending=(
                sum(d.pending for d in digests.values())
                if monitor is not None
                else None
            ),
            budget_remaining=slo.budget_remaining if slo else None,
            burn_rate=slo.burn_rate if slo else None,
            tenant_served=tenant_served,
        )
        self.windows.append(stats)
        if monitor is not None:
            monitor.observe_window(stats)
        autoscale = self.autoscale
        if (
            autoscale is not None
            and not arrivals_done
            and self.next_scale_check <= until
        ):
            # Every tick due by this edge sees the same digests: one
            # decision, applied at the next window's start.
            while self.next_scale_check <= until:
                self.next_scale_check += autoscale.interval_s
            self.decision = self._autoscale_decision(until)
        if busy and not progressed and not batch:
            self.stalled += 1
            if self.stalled > _STALL_WINDOWS:
                raise RuntimeError(
                    f"sharded cluster simulation stalled at window {index}:"
                    f" busy shards {sorted(busy)} made no progress in"
                    f" {self.stalled} windows"
                    f" ({sum(d.served for d in digests.values())} served,"
                    f" backlog {backlog})"
                )
        else:
            self.stalled = 0
        self.busy = {s for s, digest in digests.items() if digest.busy}
        self.index += 1

    def _assign(self, requests: list[Request]) -> dict[int, list[Request]]:
        """Split one window's ``requests`` across shards."""
        digests, hosted, placed = self.digests, self.hosted, self.placed
        accepting, estimates = self.accepting, self.estimates
        shards = range(len(self.inits))
        round_robin = self.sharding.shard_policy == "round_robin"
        per_shard: dict[int, list[Request]] = {}
        backlog = {
            shard: digests[shard].outstanding_s if shard in digests else 0.0
            for shard in shards
        }
        for request in requests:
            eligible = [
                shard for shard in shards if request.model in hosted[shard]
            ] or [
                shard for shard in shards if request.model in placed[shard]
            ]
            if round_robin:
                shard = eligible[self.turn % len(eligible)]
                self.turn += 1
            else:
                shard = min(
                    eligible,
                    key=lambda s: (backlog[s] / max(1, accepting[s]), s),
                )
            backlog[shard] += estimates.get(request.model, 0.0)
            per_shard.setdefault(shard, []).append(request)
        return per_shard

    def _pressure(self, period_s: float) -> float:
        """Outstanding work on accepting chips per accepting chip, in units
        of ``period_s`` (1.0 ≡ every chip backlogged by a full period)."""
        chips = sum(self.accepting)
        if not chips:
            return 0.0
        outstanding = sum(d.outstanding_s for d in self.digests.values())
        return outstanding / (chips * period_s)

    def _autoscale_decision(self, at_s: float) -> _Decision | None:
        """One control-loop decision on window-edge digests, or ``None``.

        Pressure is normalized by the *autoscale interval*: add a
        replica to the shard with the fewest accepting chips under high
        pressure, drain from the least-loaded shard with at least two
        accepting chips under low pressure (a shard's last accepting chip
        hosts models no other chip of the shard does, so it can never
        drain; the shard itself picks — and may refuse — the
        placement-safe victim).
        """
        config, accepting = self.autoscale, self.accepting
        digests = self.digests
        total = sum(accepting)
        pressure = self._pressure(config.interval_s)
        if pressure > config.high_pressure and total < config.max_chips:
            shard = min(range(len(accepting)), key=lambda s: (accepting[s], s))
            command = ("add", at_s, config.kind, f"chip{self.next_chip}")
            self.next_chip += 1
            return _Decision(shard, command, pressure, total + 1)
        if pressure < config.low_pressure and total > config.min_chips:
            drainable = [s for s, count in enumerate(accepting) if count >= 2]
            if not drainable:
                return None
            shard = min(
                drainable,
                key=lambda s: (
                    digests[s].outstanding_s if s in digests else 0.0, s
                ),
            )
            return _Decision(shard, ("drain", at_s), pressure, total - 1)
        return None

    def finish(self) -> ClusterReport:
        """Collect every shard's :class:`ShardFinal`; build the report.

        Latency statistics come from the fleet's merged
        :class:`~repro.serve.sketch.LatencySketch` (bounded-error
        percentiles, exact count/mean/max), per-chip rows from the
        shards' :class:`ShardChipStats` counters, and sheds from the
        shards' front doors.
        """
        futures = [
            self.pool.submit(shard, init, "finalize")
            for shard, init in enumerate(self.inits)
        ]
        finals: list[ShardFinal] = [future.result() for future in futures]
        tenants = self.inits[0].tenants
        served = sum(final.served for final in finals)
        shed = sum(final.shed for final in finals)
        shed_by_model: dict[str, int] = {}
        tenant_latency: dict[str, LatencySketch] = {
            spec.name: LatencySketch() for spec in tenants
        }
        tenant_shed: dict[str, int] = {}
        tenant_service: dict[str, float] = {}
        for final in finals:
            for model, count in final.shed_by_model.items():
                shed_by_model[model] = shed_by_model.get(model, 0) + count
            for tenant, sketch in final.tenant_latency.items():
                merged = tenant_latency.setdefault(tenant, LatencySketch())
                merged.update(sketch)
            for tenant, count in final.tenant_shed.items():
                tenant_shed[tenant] = tenant_shed.get(tenant, 0) + count
            for tenant, service in final.tenant_service_s.items():
                tenant_service[tenant] = (
                    tenant_service.get(tenant, 0.0) + service
                )
        stream = self.stream
        if served + shed != len(stream):  # pragma: no cover - invariant
            raise RuntimeError(
                f"sharded simulation lost requests: {served} served +"
                f" {shed} shed != {len(stream)} offered"
            )

        horizon = max((final.last_finish_s for final in finals), default=0.0)
        span = stream[-1].arrival_s - stream[0].arrival_s if stream else 0.0
        chip_stats = sorted(
            (chip for final in finals for chip in final.chips),
            key=lambda c: c.name,
        )
        chips = {
            chip.name: chip.report(horizon, self.static_pj_per_s)
            for chip in chip_stats
        }
        alert_events = sorted(
            [
                *(self.slo_monitor.alerts if self.slo_monitor else ()),
                *(self.monitor.alerts if self.monitor else ()),
            ],
            key=lambda e: (e.window if e.window is not None else -1, e.rule),
        )
        slo = None
        if self.slo_monitor is not None:
            slo = slo_block(self.latency, self.slo_monitor.objective.slo_ms)
            # The streaming monitor's extras (budget, burn-rate rules,
            # alert transitions) layered over the post-hoc block.  The
            # attainment/violations keys stay post-hoc — the streaming
            # values agree exactly (sketch merges are exact integer
            # addition), which tests assert rather than assume.
            summary = self.slo_monitor.summary()
            slo.update({
                key: summary[key]
                for key in (
                    "target", "budget", "rules", "alerts",
                    "alerts_fired", "active_rules",
                )
            })
        stats = latency_stats(self.latency)
        return ClusterReport(
            num_requests=len(stream),
            served=served,
            shed=shed,
            offered_rps=(len(stream) - 1) / span if span > 0 else 0.0,
            horizon_s=horizon,
            throughput_rps=served / horizon if horizon > 0 else 0.0,
            latency_percentiles_ms=stats.percentiles_ms,
            latency_mean_ms=stats.mean_ms,
            latency_max_ms=stats.max_ms,
            queue_wait_mean_ms=self.wait.mean_s * 1e3,
            policy=self.inits[0].policy,
            queue_capacity=self.inits[0].queue_capacity,
            initial_chips=self.initial_chips,
            final_accepting_chips=sum(
                1 for chip in chip_stats if chip.accepting
            ),
            chips=chips,
            shed_by_model=shed_by_model,
            scaling_events=tuple(self.scaling_events),
            dynamic_energy_mj=sum(
                chip.dynamic_energy_pj for chip in chip_stats
            ) * 1e-9,
            static_energy_mj=sum(
                chip.static_energy_mj for chip in chips.values()
            ),
            num_shards=len(self.inits),
            window_s=self.sharding.window_s,
            windows=tuple(self.windows),
            latency_sketch=self.latency,
            slo=slo,
            alerts=tuple(event.to_dict() for event in alert_events),
            tenants=(
                tenant_report(
                    tenants, tenant_latency, tenant_shed, tenant_service
                )
                if tenant_latency
                else {}
            ),
            tenant_sketches=tenant_latency,
        )


def _service_estimates(
    fleet: FleetSpec,
    models: tuple[str, ...],
    bs_t: int,
    bs_n: int,
    seed: int,
    passes: str | None,
) -> dict[str, float]:
    """Per-model single-request latency on the first hosting chip's kind —
    the coordinator's backlog-estimate unit for ``least_backlog``."""
    estimates: dict[str, float] = {}
    for model in models:
        for spec in fleet.chips:
            if spec.models is None or model in spec.models:
                config = chip_config(spec.kind, bs_t, bs_n)
                estimates[model] = request_profile(
                    model, seed=seed, config=config, passes=passes
                ).single_latency_s
                break
    return estimates


class _Decision(NamedTuple):
    """One autoscaler decision, sent to ``shard`` as ``command``."""

    shard: int
    command: tuple
    pressure: float
    accepting_after: int      # accepting chips fleet-wide after the action
