"""Parallel experiment executor with content-addressed result caching.

The :class:`ExperimentRunner` fans experiment requests out over a
``concurrent.futures`` process pool.  Cache probes happen in the parent
(cheap disk reads); only misses are submitted to workers.  Workers run an
experiment *by id* — they re-import the registry rather than pickling
callables — so every registered experiment, lambdas included, is
dispatchable.

Results are canonicalized (JSON round-trip) before caching and before
being written as artifacts, so a cached replay is byte-identical to a
fresh run.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .. import obs
from ..harness import EXPERIMENTS, get_experiment
from ..store import package_code_hash
from .artifacts import ArtifactStore, canonical_payload
from .cache import CacheEntry, ResultCache, cache_key, config_hash
from .sweep import expand_grid

__all__ = ["ExperimentRunner", "RunOutcome", "RunSummary", "ShardPool"]


@dataclass(frozen=True)
class RunOutcome:
    """One experiment execution: where the result came from and how long."""

    experiment: str
    params: dict
    status: str  # "ok" | "error"
    cache_hit: bool
    duration_s: float
    result: object | None
    error: str | None = None
    cache_key: str | None = None
    artifact_path: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class RunSummary:
    """Aggregate view of a batch run, as recorded in the manifest."""

    outcomes: tuple[RunOutcome, ...]
    jobs: int
    code_hash: str
    wall_time_s: float
    manifest_path: str | None = None

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def misses(self) -> int:
        return sum(1 for o in self.outcomes if not o.cache_hit and o.ok)

    @property
    def errors(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.outcomes) if self.outcomes else 0.0

    @property
    def ok(self) -> bool:
        return self.errors == 0

    def manifest(self) -> dict:
        return {
            "jobs": self.jobs,
            "code_hash": self.code_hash,
            "wall_time_s": self.wall_time_s,
            "cache": {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
            },
            "runs": [
                {
                    "experiment": o.experiment,
                    "params": o.params,
                    "status": o.status,
                    "cache_hit": o.cache_hit,
                    "duration_s": o.duration_s,
                    "cache_key": o.cache_key,
                    "artifact": o.artifact_path,
                    "error": o.error,
                }
                for o in self.outcomes
            ],
        }


def _manifest_alerts(summary: "RunSummary") -> dict:
    """The ``run-all --alerts`` manifest block.

    Three alert sources fold together: end-of-run metrics-registry
    health rules (:func:`repro.obs.registry_alerts`), one critical event
    per failed experiment, and a rollup of any alerts the experiments'
    own simulated runs recorded in their payloads.
    """
    events: list[obs.AlertEvent] = []
    if obs.registry.active and not obs.registry.is_empty():
        events.extend(obs.registry_alerts(obs.registry.to_dict()))
    for outcome in summary.outcomes:
        if not outcome.ok:
            events.append(obs.AlertEvent(
                rule=f"runtime.failed.{outcome.experiment}",
                kind="fired",
                severity="critical",
                message=(
                    f"experiment {outcome.experiment} failed:"
                    f" {(outcome.error or 'unknown error').splitlines()[-1]}"
                ),
                value=1.0,
                threshold=1.0,
            ))
            continue
        result = outcome.result if isinstance(outcome.result, dict) else {}
        fired = sum(
            1 for alert in result.get("alerts", ())
            if isinstance(alert, dict) and alert.get("kind") == "fired"
        )
        if fired:
            events.append(obs.AlertEvent(
                rule=f"runtime.alerts.{outcome.experiment}",
                kind="fired",
                severity="warning",
                message=(
                    f"{outcome.experiment}: {fired} alert(s) fired in the"
                    " simulated run (see its artifact)"
                ),
                value=float(fired),
                threshold=1.0,
            ))
    return {
        "alerts_fired": len(events),
        "rules": sorted({event.rule for event in events}),
        "events": [event.to_dict() for event in events],
    }


def _execute(name: str, params: dict) -> tuple[str, object, float]:
    """Worker entry point: run one experiment by registry id.

    Returns a ``(status, payload, duration)`` triple instead of raising so
    a failing experiment surfaces as a clean per-run outcome rather than a
    pickled traceback from the pool.
    """
    start = time.perf_counter()
    try:
        experiment = get_experiment(name)
        with obs.span("runtime.experiment", cat="runtime", experiment=name):
            result = canonical_payload(experiment.run(**params))
        return "ok", result, time.perf_counter() - start
    except Exception:
        return "error", traceback.format_exc(), time.perf_counter() - start


def _execute_traced(name: str, params: dict) -> tuple[str, object, float, object]:
    """Telemetry-shipping pool-worker entry point.

    Used instead of :func:`_execute` when the parent has telemetry on:
    the worker enables itself from the environment (set by
    ``obs.enable``), records into fresh buffers, and returns the
    telemetry snapshot as a fourth element for the parent to ingest.
    """
    obs.tracer.reset()
    obs.registry.reset()
    try:
        obs.enable_from_env()
    except ValueError as error:
        return "error", f"telemetry configuration: {error}", 0.0, None
    status, payload, duration = _execute(name, params)
    return status, payload, duration, obs.export_telemetry()


@dataclass
class _Request:
    index: int
    experiment: str
    params: dict
    config_hash: str
    key: str


class ExperimentRunner:
    """Run registry experiments in parallel with on-disk result caching.

    Parameters
    ----------
    artifacts_root:
        Directory for ``<id>.json`` artifacts, ``manifest.json``, and the
        result cache (``<root>/cache``).  ``None`` disables both artifact
        and cache persistence (results are still returned).
    jobs:
        Worker processes for cache misses.  ``1`` runs inline in the
        calling process (deterministic, easy to debug); ``0`` resolves to
        ``os.cpu_count()`` (one worker per core); results are identical
        either way because every experiment seeds its own RNG.
    force:
        Ignore (and overwrite) existing cache entries.
    """

    def __init__(
        self,
        artifacts_root: Path | str | None = "artifacts",
        jobs: int = 1,
        force: bool = False,
        cache: ResultCache | None = None,
    ):
        self.store = ArtifactStore(artifacts_root) if artifacts_root else None
        if cache is None and self.store is not None:
            cache = ResultCache(self.store.root / "cache")
        self.cache = cache
        jobs = int(jobs)
        if jobs == 0:
            jobs = os.cpu_count() or 1
        elif jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        self.jobs = jobs
        self.force = force
        self._code_hash = package_code_hash()

    # -- single-run convenience -------------------------------------------
    def run(self, name: str, params: Mapping[str, object] | None = None) -> RunOutcome:
        return self.run_many([(name, dict(params or {}))]).outcomes[0]

    # -- batch ------------------------------------------------------------
    def run_many(
        self,
        requests: Sequence[tuple[str, Mapping[str, object]]],
        write_artifacts: bool = True,
        store: ArtifactStore | None = None,
    ) -> RunSummary:
        """Run ``(experiment id, param overrides)`` pairs, cache-aware.

        Invalid ids or params raise immediately (before any work runs);
        runtime failures inside an experiment become ``status="error"``
        outcomes instead.
        """
        started = time.perf_counter()
        store = store or self.store
        resolved: list[_Request] = []
        for index, (name, overrides) in enumerate(requests):
            experiment = get_experiment(name)
            params = experiment.resolve_params(overrides)
            cfg_hash = config_hash(params)
            key = cache_key(name, self._code_hash, cfg_hash)
            resolved.append(_Request(index, name, params, cfg_hash, key))

        outcomes: dict[int, RunOutcome] = {}
        misses: list[_Request] = []
        for request in resolved:
            entry = None
            if self.cache is not None and not self.force:
                entry = self.cache.get(request.key, experiment_id=request.experiment)
            if entry is not None:
                outcomes[request.index] = self._finalize(
                    request, "ok", entry.result, 0.0, cache_hit=True,
                    store=store if write_artifacts else None,
                )
            else:
                misses.append(request)

        obs.set_gauge("runtime.queue_depth", len(misses))
        for request, (status, payload, duration, telemetry) in zip(
            misses, self._execute_all(misses)
        ):
            obs.ingest_telemetry(telemetry)
            obs.observe("runtime.experiment_s", duration)
            outcomes[request.index] = self._finalize(
                request, status, payload, duration, cache_hit=False,
                store=store if write_artifacts else None,
            )

        ordered = tuple(outcomes[i] for i in range(len(resolved)))
        return RunSummary(
            outcomes=ordered,
            jobs=self.jobs,
            code_hash=self._code_hash,
            wall_time_s=time.perf_counter() - started,
        )

    def run_all(
        self,
        only: Iterable[str] | None = None,
        smoke: bool = False,
        write_manifest: bool = True,
        alerts: bool = False,
    ) -> RunSummary:
        """Run every registered experiment (or the ``only`` subset).

        With ``smoke=True`` each experiment runs under its cheap
        ``smoke_params`` configuration instead of the paper-faithful
        defaults (used by CI); smoke artifacts and manifest land under
        ``<root>/smoke/`` so they never overwrite the paper results.
        With ``alerts=True`` the manifest gains an ``alerts`` summary:
        end-of-run registry health rules (dropped spans, corrupt cache
        entries) plus one event per failed experiment.
        """
        names = sorted(EXPERIMENTS) if only is None else list(only)
        requests = [
            (name, dict(get_experiment(name).smoke_params) if smoke else {})
            for name in names
        ]
        store = self.store
        if smoke and store is not None:
            store = ArtifactStore(store.root / "smoke")
        summary = self.run_many(requests, store=store)
        if write_manifest and store is not None:
            manifest = summary.manifest()
            # When metrics are on, the registry dump rides along in the
            # manifest so `repro metrics --manifest` can read it back.
            if obs.registry.active and not obs.registry.is_empty():
                manifest["metrics"] = obs.registry.to_dict()
            if alerts:
                manifest["alerts"] = _manifest_alerts(summary)
            path = store.write_manifest(manifest)
            summary = RunSummary(
                outcomes=summary.outcomes,
                jobs=summary.jobs,
                code_hash=summary.code_hash,
                wall_time_s=summary.wall_time_s,
                manifest_path=str(path),
            )
        return summary

    def sweep(
        self, name: str, grid: Mapping[str, Sequence[object]]
    ) -> RunSummary:
        """Cartesian-product parameter sweep of one experiment.

        Writes ``sweeps/<id>.json`` with one ``{params, result}`` record
        per grid point (errors keep their slot, carrying the traceback).
        """
        combos = expand_grid(get_experiment(name), grid)
        summary = self.run_many(
            [(name, combo) for combo in combos], write_artifacts=False
        )
        if self.store is not None:
            self.store.write_sweep(
                name,
                {
                    "experiment": name,
                    "grid": {k: list(v) for k, v in grid.items()},
                    "points": [
                        {
                            "params": o.params,
                            "status": o.status,
                            "result": o.result if o.ok else None,
                            "error": o.error,
                        }
                        for o in summary.outcomes
                    ],
                },
            )
        return summary

    # -- internals --------------------------------------------------------
    def _execute_all(
        self, misses: Sequence[_Request]
    ) -> list[tuple[str, object, float, object]]:
        """Execute cache misses; always yields 4-tuples ending in the
        worker telemetry snapshot (``None`` for inline runs, where spans
        and metrics land directly in the parent's buffers)."""
        if not misses:
            return []
        if self.jobs == 1 or len(misses) == 1:
            return [(*_execute(r.experiment, r.params), None) for r in misses]
        # Pool path: with telemetry on, workers ship their buffers back.
        entry_point = _execute_traced if obs.enabled() else _execute
        results: dict[int, tuple[str, object, float, object]] = {}
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(misses))) as pool:
            futures = {
                pool.submit(entry_point, r.experiment, r.params): i
                for i, r in enumerate(misses)
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    outcome = future.result()
                    if len(outcome) == 3:
                        outcome = (*outcome, None)
                    results[futures[future]] = outcome
        return [results[i] for i in range(len(misses))]

    def _finalize(
        self,
        request: _Request,
        status: str,
        payload: object,
        duration: float,
        cache_hit: bool,
        store: ArtifactStore | None,
    ) -> RunOutcome:
        if status != "ok":
            return RunOutcome(
                experiment=request.experiment,
                params=request.params,
                status="error",
                cache_hit=False,
                duration_s=duration,
                result=None,
                error=str(payload),
                cache_key=request.key,
            )
        artifact_path = None
        if not cache_hit and self.cache is not None:
            self.cache.put(
                request.key,
                CacheEntry(
                    experiment=request.experiment,
                    params=request.params,
                    code_hash=self._code_hash,
                    config_hash=request.config_hash,
                    result=payload,
                ),
            )
        if store is not None:
            artifact_path = str(store.write(request.experiment, payload))
        return RunOutcome(
            experiment=request.experiment,
            params=request.params,
            status="ok",
            cache_hit=cache_hit,
            duration_s=duration,
            result=payload,
            cache_key=request.key,
            artifact_path=artifact_path,
        )


# ----------------------------------------------------------------------
# Stateful actor pool (sharded cluster simulation)
# ----------------------------------------------------------------------
# Worker-process registry of live actors, keyed by (pool tag, actor id).
# concurrent.futures gives no per-task worker pinning, so ShardPool runs
# one single-worker executor per job slot: an actor's calls always land
# in the same process, where its mutable state (a shard's engine, chips,
# queues) persists across calls.
_ACTOR_STATES: dict[tuple[str, int], object] = {}

_POOL_TAGS = itertools.count()


def _actor_call(
    tag: str, factory: str, actor_id: int, init: object,
    method: str, args: tuple,
) -> object:
    """Worker entry point: construct-on-first-use, then dispatch.

    ``factory`` is a ``"module:callable"`` path resolved in the worker —
    actors are never pickled, only their construction payload and the
    per-call arguments are.
    """
    key = (tag, actor_id)
    actor = _ACTOR_STATES.get(key)
    if actor is None:
        module_name, _, attr = factory.partition(":")
        actor = getattr(importlib.import_module(module_name), attr)(init)
        _ACTOR_STATES[key] = actor
    return getattr(actor, method)(*args)


class ShardPool:
    """Affinity-preserving pool of stateful actors over worker processes.

    The :class:`ExperimentRunner` pool above is stateless — any worker
    may run any experiment.  Sharded cluster simulation needs the
    opposite: each shard's simulator state must live in one process for
    the whole run, with the coordinator calling into it window after
    window.  ``ShardPool`` pins actor ``i`` to job slot ``i % jobs``
    (one single-worker process each), so calls to the same actor are
    ordered and state persists; distinct actors advance in parallel.

    ``jobs=1`` runs actors inline in the calling process — deterministic
    and debuggable, and the mode nested runs use (an experiment already
    executing inside an ``ExperimentRunner`` worker defaults to inline
    shards rather than nesting pools).
    """

    def __init__(self, jobs: int, factory: str):
        jobs = int(jobs)
        if jobs == 0:
            jobs = os.cpu_count() or 1
        elif jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if ":" not in factory:
            raise ValueError(
                f"factory must be a 'module:callable' path, got {factory!r}"
            )
        self.jobs = jobs
        self.factory = factory
        self._tag = f"pool{next(_POOL_TAGS)}"
        self._executors: list[ProcessPoolExecutor] = []
        self._started: set[int] = set()
        self._closed = False
        if jobs > 1:
            self._executors = [
                ProcessPoolExecutor(max_workers=1) for _ in range(jobs)
            ]

    @property
    def inline(self) -> bool:
        return not self._executors

    def submit(
        self, actor_id: int, init: object, method: str, *args: object
    ) -> Future:
        """Call ``method(*args)`` on actor ``actor_id``; returns a Future.

        ``init`` is the construction payload, used only on the actor's
        first call in its process.  Inline pools resolve the future
        immediately (exceptions are captured, matching pool semantics).
        """
        if self._closed:
            raise RuntimeError("ShardPool is closed")
        if self.inline:
            future: Future = Future()
            try:
                future.set_result(_actor_call(
                    self._tag, self.factory, actor_id, init, method, args
                ))
            except BaseException as error:  # noqa: BLE001 - future contract
                future.set_exception(error)
            self._started.add(actor_id)
            return future
        executor = self._executors[actor_id % self.jobs]
        self._started.add(actor_id)
        return executor.submit(
            _actor_call, self._tag, self.factory, actor_id, init, method, args
        )

    def close(self) -> None:
        """Tear down worker processes (and any actor state they hold)."""
        if self._closed:
            return
        self._closed = True
        for actor_id in self._started:
            _ACTOR_STATES.pop((self._tag, actor_id), None)
        for executor in self._executors:
            executor.shutdown(wait=True)
        self._executors = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
