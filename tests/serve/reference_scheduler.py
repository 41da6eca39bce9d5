"""List-scan reference scheduler: the oracle for the indexed ready pool.

:class:`ReferenceScheduler` is the continuous scheduler as it was before
the ready pool was indexed: one admission-ordered ``list``, scanned in
full at every stage boundary (a max-priority scan, a tenant set, a
``min`` over the candidates, a peers scan plus a sort, and
``list.remove`` per group member).  :func:`reference_take_batch` is the
matching static-mode list scan.  The only change from that code is the
``carry`` container: a list in ``prev`` order instead of a ``set``, so
``preempted`` comes back in group order rather than in memory-address
order.

The differential tests drive this oracle and
:class:`~repro.serve.continuous.ContinuousBatchScheduler` with the same
operations and require every ``(group, stage, preempted, joined)``
decision to be ``==``.
"""

from __future__ import annotations

from itertools import islice

from repro.serve.continuous import ContinuousBatchScheduler, StageEntry
from repro.serve.workload import Request

__all__ = ["ReferenceScheduler", "reference_take_batch"]


def reference_take_batch(
    pool: list[StageEntry], max_batch: int
) -> list[StageEntry]:
    """Remove and return the next static batch from an admission-ordered
    list: the head entry plus up to ``max_batch - 1`` later entries for
    the same model.  Entries for other models keep their positions."""
    if not pool:
        raise ValueError("no pending requests")
    head = pool[0]
    batch = [head]
    for entry in islice(pool, 1, None):
        if len(batch) == max_batch:
            break
        if entry.request.model == head.request.model:
            batch.append(entry)
    for entry in batch:
        pool.remove(entry)
    return batch


class ReferenceScheduler(ContinuousBatchScheduler):
    """The list-scan ready pool; completion bookkeeping is inherited."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool: list[StageEntry] = []

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
        return len(self.pool) - self._resumable

    @property
    def empty(self) -> bool:
        return not self.pool

    def _entry_key(self, entry: StageEntry, carry: list):
        return (0 if entry in carry else 1, -entry.completed, entry.order)

    def _pick_head(self, carry: list) -> StageEntry:
        candidates = self.pool
        if self.config.preempt or not carry:
            top = max(e.request.priority for e in candidates)
            candidates = [e for e in candidates if e.request.priority == top]
        else:
            candidates = [e for e in candidates if e in carry]
        tenants = {e.request.tenant for e in candidates}
        if len(tenants) > 1:
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
        carry = [e for e in prev if not e.done]
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
        peers.sort(key=lambda e: self._entry_key(e, []))
        return peers
