"""Dispatch policies of the serving simulator.

The scheduler decides *what to dispatch next* when one of the chip's
serving lanes is free; the engine then decides how the dispatched work
contends for cores.  Three axes:

``max_batch``
    Requests for the same model are merged into one batched inference:
    compute scales with batch size, but the layer's weights stream from
    DRAM only once (the classic batching bandwidth amortization).
    ``max_batch=1`` is plain FIFO.
``max_inflight``
    Lanes (concurrent inferences) allowed on the chip.  More than one
    lets requests overlap on different cores (one request's attention
    phase under another's MLP), at the price of queueing on busy cores.
``mode``
    ``"static"`` (the default): the quantum is the whole program.  A
    lane takes its group with :func:`take_batch` — FIFO over the pool,
    blind to priority and tenant — and runs the layer-serial or
    scheduled inference process to completion.  ``"continuous"``: the
    quantum is one compiled ``Stage``; groups are re-formed at every
    stage boundary — requests join and leave in-flight groups, higher
    priority tiers preempt at stage boundaries (``preempt``), and
    preempted requests resume from their checkpointed stage index
    without redoing work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .continuous import ReadyPool, StageEntry

__all__ = ["SCHEDULER_MODES", "SchedulerConfig", "take_batch"]

SCHEDULER_MODES = ("static", "continuous")


@dataclass(frozen=True)
class SchedulerConfig:
    """Dispatch policy of the serving simulator."""

    max_batch: int = 1
    max_inflight: int = 1
    mode: str = "static"
    allow_join: bool = True   # continuous: may requests join in-flight groups?
    preempt: bool = True      # continuous: may priority displace at boundaries?

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.mode not in SCHEDULER_MODES:
            raise ValueError(
                f"unknown scheduler mode {self.mode!r};"
                f" options {sorted(SCHEDULER_MODES)}"
            )

    @property
    def continuous(self) -> bool:
        return self.mode == "continuous"

    @property
    def policy(self) -> str:
        if self.continuous:
            return "continuous"
        return "fifo" if self.max_batch == 1 else "batch"


def take_batch(pool: "ReadyPool", max_batch: int) -> list["StageEntry"]:
    """Remove and return the next static batch from the ready pool: the
    entry with the lowest admission order plus up to ``max_batch - 1``
    later entries for the *same model* (they can share weight streams),
    in admission order.  Entries for other models keep their places.
    """
    if not pool:
        raise ValueError("no pending requests")
    head = pool.oldest()
    batch = [head, *pool.take_fresh(head.request.model, head, max_batch - 1)]
    for entry in batch:
        pool.discard(entry)
    return batch
