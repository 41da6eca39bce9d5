"""The cluster simulation: N Bishop chips behind a front-end router.

One shared :class:`~repro.arch.engine.kernel.Engine` is the **cluster
clock**; every chip is an independent
:class:`~repro.arch.engine.machine.BishopMachine` whose five resources
are registered under the chip's namespace (``chip0.dense_core``, …), so
chips contend only with themselves while all event ordering is globally
deterministic.  Chips may be heterogeneous — each kind's per-model task
graphs are built from its own :class:`~repro.arch.BishopConfig` (core
provisioning and clock), then composed on the shared clock in seconds.

Processes:

* the **router** walks the arrival stream, filters eligible chips
  (placement + admission control), and asks the routing policy to pick
  one — or sheds the request when every replica is full;
* each chip's :class:`~repro.serve.simulate.ChipServer` scheduler
  dispatches batches exactly as in the single-chip simulator (the N=1
  special case);
* the optional **autoscaler** samples queue pressure and adds or drains
  replicas mid-run.
"""

from __future__ import annotations

from .. import obs
from ..arch.engine.kernel import Engine, Hold
from ..arch.engine.machine import BishopMachine
from ..arch.engine.timeline import EngineRun, TimelineEntry, merge_timelines
from ..arch.energy import EnergyModel
from ..serve.profiles import request_profile
from ..serve.scheduler import SchedulerConfig
from ..serve.simulate import ChipServer
from ..serve.workload import Request, TenantSpec
from .admission import (
    AdmissionConfig,
    ShedRecord,
    TenantAdmission,
    eligible_chips,
)
from .autoscale import AutoscaleConfig, Autoscaler
from .fleet import FleetSpec, chip_config
from .report import ClusterReport, build_cluster_report
from .routing import RoutingPolicy, make_policy

__all__ = ["ClusterSimulation", "simulate_cluster"]


class ClusterSimulation:
    """A fleet of Bishop chips serving one arrival stream.

    Parameters
    ----------
    fleet:
        The chips: kinds and model placement (``repro.cluster.fleet``).
    scheduler:
        Per-chip dispatch policy, identical semantics to single-chip
        serving (``max_batch`` / ``max_inflight``).
    policy:
        Routing policy name (``round_robin`` / ``least_work`` /
        ``sparsity``) or a :class:`RoutingPolicy` instance.
    admission:
        Bounded-queue admission control; default unbounded.
    autoscale:
        Reactive replica scaling; default off (fixed fleet).
    bs_t / bs_n / seed:
        Bundle shape and trace seed for per-chip model profiles; ``seed``
        also only enters workload generation upstream, so one seed
        reproduces the whole experiment.
    passes:
        Compiler pass spec for the per-chip programs (``"all"`` /
        ``"none"`` / ``"packing+stratify+schedule"`` …); chips of the
        same kind share one compiled program through the program cache.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        scheduler: SchedulerConfig | None = None,
        policy: str | RoutingPolicy = "least_work",
        admission: AdmissionConfig | None = None,
        autoscale: AutoscaleConfig | None = None,
        *,
        bs_t: int = 2,
        bs_n: int = 4,
        seed: int = 0,
        energy: EnergyModel | None = None,
        record_timeline: bool = False,
        passes: str | None = None,
        tenants: tuple[TenantSpec, ...] = (),
    ):
        self.fleet = fleet
        self.scheduler = scheduler or SchedulerConfig()
        self._policy_spec = policy
        self.admission = admission or AdmissionConfig()
        self.tenants = tuple(tenants)
        self.autoscale = autoscale
        self.bs_t = bs_t
        self.bs_n = bs_n
        self.seed = seed
        self.passes = passes
        self.energy = energy or EnergyModel()
        self.record_timeline = record_timeline

        # Per-run state, (re)initialized by run().
        self.engine: Engine | None = None
        self.chips: list[ChipServer] = []
        self.shed: list[ShedRecord] = []
        self.tenant_admission = TenantAdmission(self.tenants)
        self.arrivals_done = False
        self._resolved = 0
        self._total = 0
        self._models: tuple[str, ...] = ()
        self._timeline: list[TimelineEntry] | None = None

    # -- state the autoscaler consults ------------------------------------
    @property
    def finished(self) -> bool:
        return self._resolved >= self._total

    def add_replica(self, kind: str) -> ChipServer:
        """Join a fully-replicated chip of ``kind`` to the running fleet."""
        return self._add_chip(kind, self._models)

    # -- internals ---------------------------------------------------------
    def _add_chip(self, kind: str, models: tuple[str, ...]) -> ChipServer:
        name = f"chip{len(self.chips)}"
        config = chip_config(kind, self.bs_t, self.bs_n)
        profiles = {
            model: request_profile(
                model, seed=self.seed, config=config, passes=self.passes
            )
            for model in models
        }
        machine = BishopMachine(self.engine, name=name)
        chip = ChipServer(
            self.engine,
            machine,
            profiles,
            self.scheduler,
            name=name,
            kind=kind,
            queue_capacity=self.admission.queue_capacity,
            timeline=self._timeline,
            on_complete=self._on_complete,
            tenants=self.tenants,
        )
        self.chips.append(chip)
        return chip

    def _on_complete(self, batch: list[Request]) -> None:
        self._resolved += len(batch)
        for request in batch:
            self.tenant_admission.release(request)

    def _router(self, stream: list[Request], policy: RoutingPolicy):
        for request in stream:
            gap = request.arrival_s - self.engine.now
            if gap > 0:
                yield Hold(gap)
            chip = None
            if self.tenant_admission.admit(request):
                chip = policy.choose(
                    request, eligible_chips(request, self.chips)
                )
                if chip is None:
                    self.tenant_admission.release(request)
            if chip is None:
                obs.inc("serve.shed")
                self.shed.append(ShedRecord(
                    request.index, request.model, request.arrival_s,
                    tenant=request.tenant,
                ))
                self._resolved += 1
            else:
                chip.enqueue(request)
        self.arrivals_done = True
        for chip in self.chips:
            if not chip.closed:
                chip.close()

    # -- the simulation ----------------------------------------------------
    def run(self, requests: list[Request]) -> ClusterReport:
        """Serve ``requests`` on the fleet; returns the cluster report."""
        with obs.span(
            "cluster.run", cat="cluster",
            chips=len(self.fleet), requests=len(requests),
        ):
            return self._run(requests)

    def _run(self, requests: list[Request]) -> ClusterReport:
        stream = sorted(requests, key=lambda r: (r.arrival_s, r.index))
        self._models = tuple(sorted({r.model for r in stream}))
        if self._models:
            self.fleet.validate_placement(self._models)

        self.engine = Engine()
        self._timeline = [] if self.record_timeline else None
        self.chips = []
        self.shed = []
        self.tenant_admission = TenantAdmission(self.tenants)
        self.arrivals_done = False
        self._resolved = 0
        self._total = len(stream)
        policy = make_policy(self._policy_spec)
        policy.reset()

        for spec in self.fleet.chips:
            self._add_chip(spec.kind, spec.hosted_models(self._models))

        autoscaler = None
        if self.autoscale is not None:
            autoscaler = Autoscaler(self.autoscale, self)
            self.engine.spawn(autoscaler.process(), name="autoscaler")
        self.engine.spawn(self._router(stream, policy), name="router")
        self.engine.run()
        obs.inc(
            "serve.scheduler.selects",
            sum(chip.queue.selects for chip in self.chips),
        )

        if not self.finished:  # pragma: no cover - engine invariant
            raise RuntimeError(
                f"cluster simulation stalled: {self._resolved}/{self._total}"
                " requests resolved"
            )

        run = EngineRun.capture(
            self.engine,
            timeline=merge_timelines(self._timeline) if self._timeline else None,
        )
        served = self._total - len(self.shed)
        # The engine clock may outlive the last completion by one autoscaler
        # tick; the run's makespan is the serving horizon, and its energy
        # honours the EngineRun contract (dynamic + static over the chips'
        # powered spans) so an N=1 run matches the single-chip simulator.
        horizon = max(
            (r.finish_s for chip in self.chips for r in chip.served),
            default=0.0,
        )
        run.makespan_s = horizon
        static_pj_per_s = self.energy.static_pj(1.0)
        run.energy_pj = sum(
            chip.dynamic_energy_pj + static_pj_per_s * chip.active_span_s(horizon)
            for chip in self.chips
        )
        span = stream[-1].arrival_s - stream[0].arrival_s if stream else 0.0
        offered = (self._total - 1) / span if span > 0 else 0.0
        tenant_shed: dict[str, int] = {}
        for record in self.shed:
            if record.tenant:
                tenant_shed[record.tenant] = (
                    tenant_shed.get(record.tenant, 0) + 1
                )
        report = build_cluster_report(
            self.chips,
            self.shed,
            offered_rps=offered,
            policy=policy.name,
            queue_capacity=self.admission.queue_capacity,
            initial_chips=len(self.fleet),
            scaling_events=autoscaler.events if autoscaler else [],
            static_pj_per_s=static_pj_per_s,
            run=run,
            tenants=self.tenants,
            tenant_shed=tenant_shed,
        )
        assert report.served == served  # bookkeeping cross-check
        return report


def simulate_cluster(
    requests: list[Request],
    fleet: FleetSpec,
    scheduler: SchedulerConfig | None = None,
    policy: str | RoutingPolicy = "least_work",
    admission: AdmissionConfig | None = None,
    autoscale: AutoscaleConfig | None = None,
    *,
    bs_t: int = 2,
    bs_n: int = 4,
    seed: int = 0,
    energy: EnergyModel | None = None,
    record_timeline: bool = False,
    passes: str | None = None,
    tenants: tuple[TenantSpec, ...] = (),
) -> ClusterReport:
    """One-call form of :class:`ClusterSimulation` (mirrors
    :func:`repro.serve.simulate_serving`)."""
    return ClusterSimulation(
        fleet,
        scheduler,
        policy,
        admission,
        autoscale,
        bs_t=bs_t,
        bs_n=bs_n,
        seed=seed,
        energy=energy,
        record_timeline=record_timeline,
        passes=passes,
        tenants=tenants,
    ).run(requests)
