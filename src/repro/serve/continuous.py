"""The chip's ready pool: static and continuous batching.

Admitted requests wait in one indexed :class:`ReadyPool`; each lane of
a :class:`~repro.serve.simulate.ChipServer` takes a group, runs one
quantum, and repeats.  In static mode the quantum is the whole compiled
program and groups come from :func:`~repro.serve.scheduler.take_batch`.
In continuous mode the quantum is one compiled ``Stage`` (a one-layer
:class:`~repro.arch.engine.lanes.SerialReplay`), and *between* stages
the scheduler re-decides what runs next.  That buys three mechanisms for
the price of one boundary:

**Join/leave.**  An execution group is re-formed at every stage boundary
from the requests positioned at the same ``(model, stage)``; new arrivals
enter service at the next boundary instead of waiting for the in-flight
batch to drain, finished requests leave while their peers continue.

**Preemption.**  With ``preempt`` on, a higher-priority request displaces
lower-priority in-flight work at a stage boundary.  The preempted request
checkpoints its completed-stage index (``StageEntry.completed``) and
resumes from exactly that stage later — no completed stage is ever
re-executed (property-tested).  Preemptions are counted per request and
fleet-wide, and surfaced through the obs layer (``serve.preemptions``
counter, ``serve.preempt`` spans).

**Weighted fair queuing.**  With tenants configured, the scheduler picks
the next tenant by minimum virtual service time (cumulative serial
stage-seconds served, divided by the tenant's weight) within the highest
ready priority tier — the classic WFQ rule at stage granularity.

**The indexed pool.**  Every decision costs O(log n) in the pool size n
instead of the several O(n) list scans it once took:

* the *head index* keeps a live count per priority tier and tenant, so
  the top tier is a ``max`` over the tiers with ready work and WFQ a
  ``min`` over that tier's tenants; each ``(tier, tenant)`` bucket is a
  heap on ``(-completed, order)`` whose top is the bucket's head;
* the *peer index* finds the head's group-mates: with joins on a heap on
  ``order`` per ``(model, completed)``; with joins off a heap on
  ``order`` per model over never-started entries (the group's first
  dispatch, and every static ``take_batch``: its head is the lowest
  ``order`` across these heaps) and a member set per cohort;
* the **carry** — the lane's previous group minus its finished members,
  at most ``max_batch`` entries — is never pooled while the lane
  decides: it is checked beside the heaps (carried work wins its
  bucket, and counts as a peer), and only the members left out of the
  new group are inserted afterwards.

Insert is O(log n); discard is O(1) and leaves lazily deleted heap items
that are popped when they surface; ``len``, ``queue_depth`` and
``empty`` are O(1).  The list-scan scheduler this replaced is kept as
the test oracle (``tests/serve/reference_scheduler.py``): a Hypothesis
property and whole serving runs require every decision to be ``==``.

**The continuation test.**  Most boundaries keep their group: the
carry wins the head rule and nothing pooled would enter it.  ``select``
checks that first and then returns the carry as it is, with no pool
traffic.  The argument that this is exactly the general path's result:
a group runs one stage of one model, so its carried members share a
``(model, completed)`` checkpoint and, with joins off, a cohort.  When
the head rule picks ``carry[0]``, the general path's peers are the
first ``max_batch - 1`` by ``order`` of the carried tail plus the pooled
entries at that checkpoint (joins on) or in that cohort (joins off).
A joins-off cohort is fixed when it forms, at most ``max_batch``
entries, and always moves whole, so none of it is pooled.  With joins
on, either none is pooled at the checkpoint, or the carry is full and
the lowest pooled ``order`` comes after the tail's last (or
``max_batch`` is 1 and there are no peers).  Then, if the tail is in
``order`` (``_take`` merges by ``order``, so a lane's carry is), those
peers are the tail itself.  The group is then the carry, so nothing is
preempted or joined, the cohort is unchanged, and each carried entry's
``_resumable`` increment on the way in cancels its decrement on the way
out.
:attr:`~ContinuousBatchScheduler.continued` counts these boundaries.

Degenerate conformance: with a single tenant, one priority tier, and
``allow_join=False`` / ``preempt=False``, stage-quantum selection
reduces exactly to :func:`~repro.serve.scheduler.take_batch` order and
groups stay pinned to completion — the differential tests pin
per-request latencies of the stage quantum against the whole-program
quantum to float precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Iterator

from ..arch.engine.machine import LayerTiming
from .profiles import RequestProfile
from .scheduler import SchedulerConfig
from .workload import Request, TenantSpec

__all__ = [
    "ContinuousBatchScheduler", "ReadyPool", "StageEntry", "stage_serial_s",
]


def stage_serial_s(timing: LayerTiming) -> float:
    """Uncontended makespan of one stage at batch 1 — the WFQ service unit
    (and the work-conservation measure: ``Σ stage_serial_s`` over executed
    stages is invariant under preemption and group re-forming)."""
    return max(timing.compute_s, timing.dram_s(1))


@dataclass(eq=False)
class StageEntry:
    """One admitted request's continuous-scheduling state.

    ``completed`` is the preemption checkpoint: the number of stages this
    request has finished.  A preempted entry re-enters the ready pool and
    resumes at stage ``completed``; ``executed`` records the stage indices
    actually run (each exactly once — the no-re-execution invariant the
    property suite checks).
    """

    request: Request
    total_stages: int
    order: int                       # admission sequence (FIFO tie-break)
    completed: int = 0
    cohort: int | None = None        # execution-group lineage
    started: bool = False            # first stage dispatched
    start_s: float | None = None     # first dispatch time
    finish_s: float | None = None
    preemptions: int = 0
    max_group: int = 0               # largest group this request ran in
    executed: list[int] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.completed >= self.total_stages


def _progress(entry: StageEntry) -> tuple[int, int]:
    # Within a tier/tenant: the most-progressed entry first (drain WIP),
    # then admission order (FIFO).
    return (-entry.completed, entry.order)


class ReadyPool:
    """The chip's ready pool, indexed so each group decision is O(log n).

    Holds the admitted entries that wait for a lane (never-started ones
    and preempted ones); ``len`` and ``bool`` are O(1), and iteration
    follows insertion order, like the list it replaces.
    Two indexes sit over the entries:

    * **head index** (continuous mode) — :attr:`tiers` maps each priority
      tier with ready work to ``{tenant: live count}``, and each
      ``(tier, tenant)`` bucket is a heap on ``(-completed, order)``;
    * **peer index** — with joins on, ``(model, completed)`` → heap on
      ``order``; otherwise ``model`` → heap on ``order`` over
      never-started entries (the static lane draws from these too), and
      ``cohort`` → members.

    The heaps delete lazily: :meth:`discard` only drops the entry from the
    live map, and a heap item whose stamp is not its entry's current one
    is popped when it surfaces.  Entries are keyed by identity and never
    change their keys while pooled (stages run outside the pool).
    """

    def __init__(self, config: SchedulerConfig):
        self._heads = config.continuous
        self._join = config.continuous and config.allow_join
        self._live: dict[StageEntry, int] = {}   # entry -> insertion stamp
        self._stamp = 0
        self.tiers: dict[int, dict[str, int]] = {}
        self._buckets: dict[tuple[int, str], list] = {}
        self._stages: dict[tuple[str, int], list] = {}
        self._fresh: dict[str, list] = {}
        self._cohorts: dict[int, dict[StageEntry, None]] = {}

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __iter__(self) -> Iterator[StageEntry]:
        return iter(self._live)

    def insert(self, entry: StageEntry) -> None:
        self._stamp += 1
        stamp = self._stamp
        self._live[entry] = stamp
        request = entry.request
        if self._heads:
            tenants = self.tiers.setdefault(request.priority, {})
            tenants[request.tenant] = tenants.get(request.tenant, 0) + 1
            heappush(
                self._buckets.setdefault((request.priority, request.tenant), []),
                (-entry.completed, entry.order, stamp, entry),
            )
        if self._join:
            heappush(
                self._stages.setdefault((request.model, entry.completed), []),
                (entry.order, stamp, entry),
            )
        elif entry.cohort is None:
            heappush(
                self._fresh.setdefault(request.model, []),
                (entry.order, stamp, entry),
            )
        else:
            self._cohorts.setdefault(entry.cohort, {})[entry] = None

    def discard(self, entry: StageEntry) -> bool:
        """Remove ``entry`` if pooled; returns whether it was."""
        if self._live.pop(entry, None) is None:
            return False
        request = entry.request
        if self._heads:
            tenants = self.tiers[request.priority]
            tenants[request.tenant] -= 1
            if not tenants[request.tenant]:
                del tenants[request.tenant]
                if not tenants:
                    del self.tiers[request.priority]
        if not self._join and entry.cohort is not None:
            members = self._cohorts[entry.cohort]
            del members[entry]
            if not members:
                del self._cohorts[entry.cohort]
        return True

    def _top(self, heap) -> StageEntry | None:
        """The live entry on top of ``heap`` (stale items popped), if any."""
        live = self._live
        while heap:
            item = heap[0]
            if live.get(item[-1]) == item[-2]:
                return item[-1]
            heappop(heap)
        return None

    def head(self, tier: int, tenant: str) -> StageEntry:
        """The bucket's first entry by ``(-completed, order)``."""
        return self._top(self._buckets[(tier, tenant)])

    def oldest(self) -> StageEntry:
        """The never-started entry with the lowest admission order."""
        oldest = None
        for heap in self._fresh.values():
            entry = self._top(heap)
            if entry is not None and (oldest is None or entry.order < oldest.order):
                oldest = entry
        return oldest

    def stage_top(self, model: str, stage: int) -> StageEntry | None:
        """The pooled entry of ``model`` at checkpoint ``stage`` with the
        lowest admission order, if any (joins on)."""
        heap = self._stages.get((model, stage))
        return self._top(heap) if heap else None

    def take_stage(self, model, stage, skip, k, extra) -> list[StageEntry]:
        """Up to ``k`` entries of ``model`` at checkpoint ``stage``."""
        return self._take(self._stages.get((model, stage), ()), skip, k, extra)

    def take_fresh(self, model, skip, k, extra=()) -> list[StageEntry]:
        """Up to ``k`` never-started entries of ``model``."""
        return self._take(self._fresh.get(model, ()), skip, k, extra)

    def cohort(self, cohort: int) -> Iterable[StageEntry]:
        """The pooled members of ``cohort`` (joins off)."""
        return self._cohorts.get(cohort, ())

    def _take(self, heap, skip, k, extra) -> list[StageEntry]:
        # The first k by admission order from the heap's live entries
        # (except ``skip``) merged with ``extra``, entries held outside
        # the pool.  Taken heap items are popped; the caller discards the
        # taken entries that are pooled.
        extra = sorted(extra, key=lambda e: e.order)
        taken: list[StageEntry] = []
        i = 0
        while len(taken) < k:
            entry = self._top(heap)
            if entry is not None and entry is skip:
                heappop(heap)
            elif i < len(extra) and (entry is None or extra[i].order < entry.order):
                taken.append(extra[i])
                i += 1
            elif entry is None:
                break
            else:
                heappop(heap)
                taken.append(entry)
        return taken


class ContinuousBatchScheduler:
    """Ready pool + group selection for one chip.

    A continuous-mode :class:`~repro.serve.simulate.ChipServer` lane calls
    :meth:`select` at every stage boundary (handing back its previous
    group) and :meth:`stage_done` after executing the chosen stage; a
    static-mode lane takes groups from :attr:`pool` with
    :func:`~repro.serve.scheduler.take_batch` and reports them through
    :meth:`program_done`.  The scheduler owns all ordering decisions, the
    lane owns the engine processes.  :attr:`selects` counts group
    decisions (every :meth:`select`, and every static ``take_batch`` the
    lane reports), :attr:`continued` the selects that the continuation
    test decided.
    """

    def __init__(
        self,
        config: SchedulerConfig,
        profiles: dict[str, RequestProfile],
        tenants: tuple[TenantSpec, ...] = (),
    ):
        self.config = config
        self.profiles = profiles
        self.weights = {t.name: t.weight for t in tenants}
        self.pool = ReadyPool(config)
        self.service_s: dict[str, float] = {t.name: 0.0 for t in tenants}
        self.preemptions = 0
        self.joins = 0
        self.selects = 0
        self.continued = 0       # selects decided by the continuation test
        self._order = 0
        self._resumable = 0      # started (preempted) entries in the pool
        self._next_cohort = 0
        self._serial: dict[str, tuple[float, ...]] = {}

    # -- admission ---------------------------------------------------------
    def add(self, request: Request) -> StageEntry:
        entry = StageEntry(
            request=request,
            total_stages=len(self.profiles[request.model].timings),
            order=self._order,
        )
        self._order += 1
        self.pool.insert(entry)
        return entry

    @property
    def queue_depth(self) -> int:
        """Admission-control depth: pooled requests not yet in service.

        Preempted (started) entries are in-flight work, not queue
        backlog — they don't count against a bounded pending queue.  An
        entry stops counting when it is dispatched (leaves the pool)."""
        return len(self.pool) - self._resumable

    @property
    def empty(self) -> bool:
        return not self.pool

    # -- selection ---------------------------------------------------------
    def _serial_stages(self, model: str) -> tuple[float, ...]:
        cached = self._serial.get(model)
        if cached is None:
            cached = tuple(
                stage_serial_s(t) for t in self.profiles[model].timings
            )
            self._serial[model] = cached
        return cached

    def _pick_head(self, carry: list[StageEntry]) -> StageEntry:
        # With preemption off an in-flight group always continues: only
        # carried work competes.  Otherwise the top tier over pool and
        # carry.  Then WFQ: the least virtual service per weight,
        # ``(service / weight, tenant)``, wins the boundary, and within the
        # tenant carried work continues first (no churn at equal
        # priority), by ``_progress``.  Virtual times are unique per
        # tenant, so one pass over the carry for the least (virtual time,
        # progress) key and one over the top tier's pooled tenants decide.
        tiers = self.pool.tiers
        service, weights = self.service_s, self.weights
        top = None
        if self.config.preempt or not carry:
            top = max(tiers) if tiers else carry[0].request.priority
            for entry in carry:
                if entry.request.priority > top:
                    top = entry.request.priority
        best = best_key = None
        for entry in carry:
            request = entry.request
            if top is None or request.priority == top:
                tenant = request.tenant
                key = (
                    service.get(tenant, 0.0) / weights.get(tenant, 1.0),
                    tenant, -entry.completed, entry.order,
                )
                if best is None or key < best_key:
                    best, best_key = entry, key
        pooled = pooled_key = None
        for tenant in tiers.get(top, ()):
            key = (service.get(tenant, 0.0) / weights.get(tenant, 1.0), tenant)
            if pooled is None or key < pooled_key:
                pooled, pooled_key = tenant, key
        if pooled is not None and (best is None or pooled_key < best_key[:2]):
            return self.pool.head(top, pooled)
        return best

    def select(
        self, prev: list[StageEntry]
    ) -> tuple[list[StageEntry], int, list[StageEntry], int]:
        """Re-form one lane's execution group at a stage boundary.

        ``prev`` is the lane's previous group, in service and out of the
        pool (in any order); its unfinished members (the carry) compete
        beside the pooled entries, so the selection sees every runnable
        request.  Returns ``(group, stage, preempted, joined)``: the
        chosen group (empty when nothing is runnable — the lane exits),
        the stage index to execute, the carried members displaced by
        strictly higher priority, in ``prev`` order (their checkpoint is
        ``completed``), and how many members merged in from other
        in-flight cohorts.  Carried members left out of the group return
        to the pool.
        """
        self.selects += 1
        pool = self.pool
        carry = [e for e in prev if not e.done]
        if not carry and not pool:
            return [], 0, [], 0
        head = self._pick_head(carry)
        if carry and head is carry[0] and self._continues(carry):
            self.continued += 1
            return carry, head.completed, [], 0
        for entry in carry:
            if not pool.discard(entry):
                self._resumable += 1
        stage = head.completed
        group = [head, *self._peers(head, stage, carry)]

        preempted = [
            e for e in carry
            if e not in group and head.request.priority > e.request.priority
        ]
        for entry in preempted:
            entry.preemptions += 1
        self.preemptions += len(preempted)

        cohort = head.cohort
        if cohort is None:
            cohort = self._next_cohort
            self._next_cohort += 1
        joined = sum(
            1 for e in group[1:]
            if stage > 0 and e.cohort is not None and e.cohort != cohort
        )
        self.joins += joined
        for entry in group:
            pool.discard(entry)
            entry.cohort = cohort
            if entry.started:
                self._resumable -= 1
            entry.started = True
        for entry in carry:
            if entry not in group:
                pool.insert(entry)
        return group, stage, preempted, joined

    def _continues(self, carry: list[StageEntry]) -> bool:
        # The continuation test (module docstring): the head rule picked
        # ``carry[0]``; is the general path's group then the carry itself?
        for i in range(2, len(carry)):
            if carry[i - 1].order > carry[i].order:
                return False
        if not self.config.allow_join:
            # A joins-off cohort is fixed when it forms, at most max_batch
            # entries, and every select moves it whole: none of a carried
            # cohort is pooled.
            return True
        head = carry[0]
        top = self.pool.stage_top(head.request.model, head.completed)
        return top is None or (
            len(carry) == self.config.max_batch
            and (len(carry) == 1 or carry[-1].order < top.order)
        )

    def _peers(
        self, head: StageEntry, stage: int, carry: list[StageEntry]
    ) -> list[StageEntry]:
        # Up to max_batch - 1 runnable entries to run ``stage`` with the
        # head, by (-completed, order); carried entries count as runnable.
        k = self.config.max_batch - 1
        model = head.request.model
        if self.config.allow_join:
            extra = [
                e for e in carry
                if e is not head
                and e.request.model == model and e.completed == stage
            ]
            return self.pool.take_stage(model, stage, head, k, extra)
        if head.cohort is None:
            # Group formed once at stage 0 from never-started same-model
            # entries — take_batch semantics, pinned thereafter.
            extra = [
                e for e in carry
                if e is not head and e.cohort is None
                and e.request.model == model
            ]
            return self.pool.take_fresh(model, head, k, extra)
        members = [
            e for e in (*carry, *self.pool.cohort(head.cohort))
            if e is not head and e.cohort == head.cohort
        ]
        members.sort(key=_progress)
        return members[:k]

    # -- completion --------------------------------------------------------
    def stage_done(
        self, group: list[StageEntry], stage: int, now: float
    ) -> list[StageEntry]:
        """Record one executed stage for every group member; returns the
        members that just completed their last stage (they leave the
        group — their peers continue)."""
        # A group runs one stage of one model: one serial-time lookup,
        # credited per member in group order.
        size = len(group)
        serial = self._serial_stages(group[0].request.model)[stage]
        service = self.service_s
        finished = []
        for entry in group:
            if entry.completed != stage:  # pragma: no cover - invariant
                raise RuntimeError(
                    f"request {entry.request.index} executed stage {stage}"
                    f" at checkpoint {entry.completed}"
                )
            entry.executed.append(stage)
            entry.completed += 1
            if entry.max_group < size:
                entry.max_group = size
            tenant = entry.request.tenant
            service[tenant] = service.get(tenant, 0.0) + serial
            if entry.completed >= entry.total_stages:
                entry.finish_s = now
                finished.append(entry)
        return finished

    def program_done(
        self, group: list[StageEntry], now: float
    ) -> list[StageEntry]:
        """Static mode: ``group`` ran the whole program together.  Each
        member's tenant is credited one uncontended request latency;
        returns the group, every member finished."""
        size = len(group)
        for entry in group:
            entry.completed = entry.total_stages
            entry.max_group = size
            entry.finish_s = now
            latency = self.profiles[entry.request.model].single_latency_s
            tenant = entry.request.tenant
            self.service_s[tenant] = self.service_s.get(tenant, 0.0) + latency
        return group
