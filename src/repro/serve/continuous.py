"""The chip's ready pool: static and continuous batching.

Admitted requests wait in one admission-ordered pool; each lane of a
:class:`~repro.serve.simulate.ChipServer` takes a group, runs one
quantum, and repeats.  In static mode the quantum is the whole compiled
program and groups come from :func:`~repro.serve.scheduler.take_batch`.
In continuous mode the quantum is one compiled ``Stage``
(:func:`~repro.arch.engine.machine.stage_process`), and *between* stages
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

Degenerate conformance: with a single tenant, one priority tier, and
``allow_join=False`` / ``preempt=False``, stage-quantum selection
reduces exactly to :func:`~repro.serve.scheduler.take_batch` order and
groups stay pinned to completion — the differential tests pin
per-request latencies of the stage quantum against the whole-program
quantum to float precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.engine.machine import LayerTiming
from .profiles import RequestProfile
from .scheduler import SchedulerConfig
from .workload import Request, TenantSpec

__all__ = ["ContinuousBatchScheduler", "StageEntry", "stage_serial_s"]


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


class ContinuousBatchScheduler:
    """Ready pool + group selection for one chip.

    A continuous-mode :class:`~repro.serve.simulate.ChipServer` lane calls
    :meth:`select` at every stage boundary (handing back its previous
    group) and :meth:`stage_done` after executing the chosen stage; a
    static-mode lane takes groups from :attr:`pool` with
    :func:`~repro.serve.scheduler.take_batch` and reports them through
    :meth:`program_done`.  The scheduler owns all ordering decisions, the
    lane owns the engine processes.
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
        self.pool: list[StageEntry] = []
        self.service_s: dict[str, float] = {t.name: 0.0 for t in tenants}
        self.preemptions = 0
        self.joins = 0
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
        self.pool.append(entry)
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

    def _entry_key(self, entry: StageEntry, carry: set):
        # Within a tier/tenant: continue in-flight work first (avoids
        # churn at equal priority), then the most-progressed entry (drain
        # WIP), then admission order (FIFO).
        return (0 if entry in carry else 1, -entry.completed, entry.order)

    def _pick_head(self, carry: set) -> StageEntry:
        candidates = self.pool
        if self.config.preempt or not carry:
            top = max(e.request.priority for e in candidates)
            candidates = [e for e in candidates if e.request.priority == top]
        else:
            # Preemption off: an in-flight group always continues; only
            # fresh dispatches (empty carry) see the full pool.
            candidates = [e for e in candidates if e in carry]
        tenants = {e.request.tenant for e in candidates}
        if len(tenants) > 1:
            # WFQ: least virtual service per weight wins the boundary.
            tenant = min(
                tenants,
                key=lambda t: (
                    self.service_s.get(t, 0.0) / self.weights.get(t, 1.0), t
                ),
            )
            candidates = [e for e in candidates if e.request.tenant == tenant]
        return min(candidates, key=lambda e: self._entry_key(e, carry))

    def select(
        self, prev: list[StageEntry]
    ) -> tuple[list[StageEntry], int, list[StageEntry], int]:
        """Re-form one lane's execution group at a stage boundary.

        ``prev`` is the lane's previous group (unfinished members return
        to the ready pool first, so the selection sees every runnable
        request).  Returns ``(group, stage, preempted, joined)``: the
        chosen group (empty when the pool is dry — the lane exits), the
        stage index to execute, the ``prev`` members displaced by strictly
        higher priority (their checkpoint is ``completed``), and how many
        members merged in from other in-flight cohorts.
        """
        carry = {e for e in prev if not e.done}
        for entry in carry:
            if entry not in self.pool:
                self.pool.append(entry)
                self._resumable += 1
        if not self.pool:
            return [], 0, [], 0
        head = self._pick_head(carry)
        stage = head.completed
        peers = self._peers(head, stage)
        group = [head] + peers[: self.config.max_batch - 1]

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
            entry.cohort = cohort
            if entry.started:
                self._resumable -= 1
            entry.started = True
            self.pool.remove(entry)
        return group, stage, preempted, joined

    def _peers(self, head: StageEntry, stage: int) -> list[StageEntry]:
        if self.config.allow_join:
            peers = [
                e for e in self.pool
                if e is not head
                and e.request.model == head.request.model
                and e.completed == stage
            ]
        elif head.cohort is None:
            # Group formed once at stage 0 from never-started same-model
            # entries — take_batch semantics, pinned thereafter.
            peers = [
                e for e in self.pool
                if e is not head and e.cohort is None
                and e.request.model == head.request.model
            ]
        else:
            peers = [
                e for e in self.pool
                if e is not head and e.cohort == head.cohort
            ]
        peers.sort(key=lambda e: self._entry_key(e, set()))
        return peers

    # -- completion --------------------------------------------------------
    def stage_done(
        self, group: list[StageEntry], stage: int, now: float
    ) -> list[StageEntry]:
        """Record one executed stage for every group member; returns the
        members that just completed their last stage (they leave the
        group — their peers continue)."""
        size = len(group)
        for entry in group:
            if entry.completed != stage:  # pragma: no cover - invariant
                raise RuntimeError(
                    f"request {entry.request.index} executed stage {stage}"
                    f" at checkpoint {entry.completed}"
                )
            entry.executed.append(stage)
            entry.completed += 1
            entry.max_group = max(entry.max_group, size)
            serial = self._serial_stages(entry.request.model)[stage]
            tenant = entry.request.tenant
            self.service_s[tenant] = self.service_s.get(tenant, 0.0) + serial
        finished = [e for e in group if e.done]
        for entry in finished:
            entry.finish_s = now
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
