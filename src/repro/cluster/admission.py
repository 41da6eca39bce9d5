"""Admission control: bounded per-chip queues, tenant quotas, shedding.

Every chip's pending queue is bounded by ``queue_capacity``; a request is
only routable to chips with a free slot.  When *no* eligible chip exists
— every replica of the model is full (or draining) — the request is shed
at the shard's front door instead of growing an unbounded backlog, and
the cluster report accounts for it (``shed`` count and per-model
breakdown).
``queue_capacity=None`` disables shedding (unbounded queues), which is
what capacity-measurement experiments use.

Multi-tenant runs additionally bound each tenant's **outstanding**
requests (admitted but not yet completed) by its
:class:`~repro.serve.workload.TenantSpec` quota — the
:class:`TenantAdmission` tracker sits in front of chip eligibility, so a
tenant at quota is shed even when chips have room (the contract that
stops one tenant's burst from displacing everyone else's queue slots).

Least-key routing
-----------------
``eligible_chips`` lists every eligible chip of a shard in fleet order,
which ``round_robin`` needs (the k-th eligible chip).  ``least_work``
and ``sparsity`` take the eligible chip with the least key, first in
fleet order on ties, and :meth:`CandidateIndex.least` finds it in one
pass over the chips that can win:

* the **live** chips (enqueued into since they were last seen idle
  with ``outstanding_s == 0.0``), with eligibility checked inline, and
* per chip kind, the lowest-position accepting idle host of the model.

A chip that is not live has nothing queued or in flight, so its queue
has room, and its outstanding work is exactly ``0.0``.  Its key is
``0.0`` (``least_work``) or ``0.0 + service_estimate_s(model)``
(``sparsity``), and the service estimate is the profile of the model
on the chip's kind, so every idle host of one kind has the same key.
The full scan's chip is the lowest-position chip among those with the
least key.  If that chip is live, the pass inspects it.  If it is idle,
no idle host of its kind sits before it (that host would tie and come
first), so it is its kind's first idle host, which the pass inspects
too.  The pass keeps the inspected chip with the least ``(key,
position)``; every chip the full scan would prefer has a smaller key,
or an equal key and a lower position, so it cannot beat the full
scan's chip, and the full scan's chip is kept.  The keys are the
policies' own float expressions, compared with ``<`` and ``==`` as
``min`` compares them.  A chip that went idle mid-window, or whose
outstanding work drifted off ``0.0`` in rounding, stays live and is
judged by its real key.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain

from ..serve.simulate import ChipServer
from ..serve.workload import Request, TenantSpec

__all__ = [
    "AdmissionConfig",
    "CandidateIndex",
    "TenantAdmission",
    "eligible_chips",
]


@dataclass(frozen=True)
class AdmissionConfig:
    """Front-door policy of every shard's router."""

    queue_capacity: int | None = None   # per-chip pending bound; None = unbounded

    def __post_init__(self) -> None:
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None: unbounded)")


class TenantAdmission:
    """Per-tenant outstanding-request quota tracker (front-door side).

    ``admit`` reserves a slot when the tenant is under quota; ``release``
    returns it on completion.  Tenants without a declared quota (or
    requests with no tenant tag) are always admitted.  Each shard's feed
    loop enforces quotas through one of these — with several shards the
    quota is per shard, since shards admit independently between
    coordination windows.
    """

    def __init__(self, tenants: tuple[TenantSpec, ...] = ()):
        self.quotas = {t.name: t.quota for t in tenants if t.quota is not None}
        self.outstanding: dict[str, int] = {t.name: 0 for t in tenants}
        self.shed: dict[str, int] = {}

    def admit(self, request: Request) -> bool:
        tenant = request.tenant
        quota = self.quotas.get(tenant)
        if quota is not None and self.outstanding.get(tenant, 0) >= quota:
            self.shed[tenant] = self.shed.get(tenant, 0) + 1
            return False
        if tenant:
            self.outstanding[tenant] = self.outstanding.get(tenant, 0) + 1
        return True

    def release(self, request: Request) -> None:
        tenant = request.tenant
        if tenant and self.outstanding.get(tenant, 0) > 0:
            self.outstanding[tenant] -= 1


def eligible_chips(request: Request, chips: list[ChipServer]) -> list[ChipServer]:
    """Chips the router may send ``request`` to, in fleet order:
    accepting (not draining), hosting the model, and queue not full."""
    return [
        chip
        for chip in chips
        if chip.accepting and chip.hosts(request.model) and chip.has_queue_capacity()
    ]


class CandidateIndex:
    """A shard's live chips and, per (model, kind), its accepting idle
    hosts in fleet order: the chips a least-key router has to inspect.

    ``chips`` is the shard's fleet-ordered chip list (shared, so chips
    added by the autoscaler are seen), all bounded by ``queue_capacity``;
    the shard reports every change of a chip's state through
    :meth:`enqueued`, :meth:`settled` and :meth:`drained`.
    """

    def __init__(self, chips: list[ChipServer], queue_capacity: int | None = None):
        self.chips = chips
        self.queue_capacity = queue_capacity
        self.live: set[int] = set()
        self._idle: dict[str, dict[str, list[int]]] = {}  # model -> kind -> positions

    def _file(self, position: int) -> None:
        chip = self.chips[position]
        for model in chip.profiles:
            insort(
                self._idle.setdefault(model, {}).setdefault(chip.kind, []),
                position,
            )

    def _unfile(self, position: int) -> None:
        chip = self.chips[position]
        for model in chip.profiles:
            idle = self._idle[model][chip.kind]
            del idle[bisect_left(idle, position)]

    def enqueued(self, position: int) -> None:
        """A request was queued on the chip: it is live."""
        if position not in self.live:
            self.live.add(position)
            self._unfile(position)

    def settled(self, position: int) -> None:
        """The chip is idle with exactly ``0.0`` outstanding work: a new
        chip, or a live one seen so at a step end."""
        self.live.discard(position)
        if self.chips[position].accepting:
            self._file(position)

    def drained(self, position: int) -> None:
        """The chip stopped accepting; it never routes again."""
        if position not in self.live:
            self._unfile(position)

    def least(
        self, key: Callable[[ChipServer, str], float], model: str
    ) -> tuple[ChipServer | None, int]:
        """The eligible chip with the least ``key(chip, model)``, lowest
        position on ties (``None`` if no chip is eligible), and the number
        of chips inspected: every live chip and each kind's first idle
        host of ``model`` (always eligible)."""
        chips, capacity = self.chips, self.queue_capacity
        firsts = [idle[0] for idle in self._idle.get(model, {}).values() if idle]
        best = None
        best_key = best_position = 0
        for position in chain(self.live, firsts):
            chip = chips[position]
            if (
                chip.accepting
                and model in chip.profiles
                and (capacity is None or chip.queue_depth < capacity)
            ):
                value = key(chip, model)
                if (
                    best is None
                    or value < best_key
                    or (value == best_key and position < best_position)
                ):
                    best, best_key, best_position = chip, value, position
        return best, len(self.live) + len(firsts)
