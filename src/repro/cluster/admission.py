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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..serve.simulate import ChipServer
from ..serve.workload import Request, TenantSpec

__all__ = [
    "AdmissionConfig",
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
