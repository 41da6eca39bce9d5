"""Request workloads for the serving simulator.

Arrival processes
-----------------
``poisson_arrivals``
    Memoryless stream at a target rate — the classic open-loop load model.
``bursty_arrivals``
    Hyperexponential inter-arrival gaps: a fraction of gaps is drawn from a
    much faster exponential, producing request bursts while preserving the
    target mean rate (coefficient of variation > 1).
``diurnal_arrivals``
    Non-homogeneous Poisson with a sinusoidal day curve (trough→peak→
    trough over ``period_s``), generated by thinning.
``flash_crowd_arrivals``
    A steady base rate with a rectangular rate spike — the viral-moment
    trace that exercises shedding and autoscaling.
``regional_arrivals``
    A mix of phase-shifted diurnal regions ("follow-the-sun"); each
    region draws from its own ``SeedSequence.spawn`` child so adding or
    reweighting one region never perturbs another region's trace.
``arrival_trace``
    Any of the above by name at a given peak rate, with the trace period
    and flash-crowd spike sized from the stream length.

Determinism: every generator derives its random state from
``numpy.random.SeedSequence(seed)`` children, so a stream is a pure
function of its arguments — the property the sharded cluster simulation
relies on to reproduce one trace regardless of shard count or worker
scheduling.

Model mixes
-----------
A mix string names the Table-2 models a stream draws from, with optional
weights: ``"model4"``, ``"model4:0.7+model2:0.3"``.  ``+`` separates
entries because ``,`` already delimits sweep-axis values on the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..model import MODEL_ZOO

__all__ = [
    "Request",
    "TenantSpec",
    "arrival_order",
    "arrival_trace",
    "assign_priorities",
    "assign_tenants",
    "bursty_arrivals",
    "diurnal_arrivals",
    "dvs_stream_arrivals",
    "flash_crowd_arrivals",
    "parse_model_mix",
    "parse_priority_mix",
    "parse_regions",
    "parse_tenants",
    "poisson_arrivals",
    "regional_arrivals",
    "spawn_seeds",
]


@dataclass(frozen=True)
class Request:
    """One inference request in an arrival stream."""

    index: int
    model: str
    arrival_s: float
    region: str = ""     # originating region ("" for single-region streams)
    tenant: str = ""     # owning tenant ("" for single-tenant streams)
    priority: int = 0    # scheduling tier; higher preempts lower


def arrival_order(requests: Iterable[Request]) -> list[Request]:
    """``requests`` in the order a simulator serves them: by
    ``(arrival_s, index)``.  A non-finite ``arrival_s`` raises
    ``ValueError`` naming the request: NaN has no place in that order,
    and no clock ever reaches it."""
    stream = sorted(requests, key=lambda r: (r.arrival_s, r.index))
    for request in stream:
        if not math.isfinite(request.arrival_s):
            raise ValueError(
                f"request {request.index} has a non-finite arrival_s "
                f"{request.arrival_s}"
            )
    return stream


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving contract: WFQ weight and admission quota.

    ``weight`` sets the tenant's share of chip service time under the
    continuous scheduler's weighted fair queuing; ``quota`` bounds the
    tenant's *outstanding* (admitted but unfinished) requests at the
    cluster front door — ``None`` leaves admission unbounded.
    """

    name: str
    weight: float = 1.0
    quota: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r} weight must be positive")
        if self.quota is not None and self.quota < 1:
            raise ValueError(f"tenant {self.name!r} quota must be >= 1")


def parse_model_mix(mix: str) -> dict[str, float]:
    """Parse ``"model4"`` / ``"model4:0.7+model2:0.3"`` into weights.

    Weights are normalized to sum to 1; entries without an explicit weight
    get weight 1 before normalization.
    """
    weights: dict[str, float] = {}
    for entry in mix.split("+"):
        entry = entry.strip()
        if not entry:
            continue
        name, sep, raw_weight = entry.partition(":")
        name = name.strip()
        if name not in MODEL_ZOO:
            raise ValueError(
                f"unknown model {name!r} in mix {mix!r}; options {sorted(MODEL_ZOO)}"
            )
        if name in weights:
            raise ValueError(f"duplicate model {name!r} in mix {mix!r}")
        weight = float(raw_weight) if sep else 1.0
        if weight <= 0:
            raise ValueError(f"model weight must be positive in {mix!r}")
        weights[name] = weight
    if not weights:
        raise ValueError(f"empty model mix {mix!r}")
    total = sum(weights.values())
    return {name: weight / total for name, weight in weights.items()}


def _materialize(
    gaps: np.ndarray, mix: dict[str, float], rng: np.random.Generator
) -> list[Request]:
    arrivals = np.cumsum(gaps)
    models = rng.choice(list(mix), size=len(gaps), p=list(mix.values()))
    return [
        Request(index=i, model=str(models[i]), arrival_s=float(arrivals[i]))
        for i in range(len(gaps))
    ]


def poisson_arrivals(
    num_requests: int,
    rate_rps: float,
    mix: str | dict[str, float] = "model4",
    seed: int = 0,
) -> list[Request]:
    """Poisson stream: exponential inter-arrival gaps at ``rate_rps``."""
    if num_requests < 1:
        raise ValueError("need at least one request")
    if not 0.0 < rate_rps < np.inf:
        raise ValueError("arrival rate must be positive and finite")
    weights = parse_model_mix(mix) if isinstance(mix, str) else dict(mix)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    return _materialize(gaps, weights, rng)


def bursty_arrivals(
    num_requests: int,
    rate_rps: float,
    mix: str | dict[str, float] = "model4",
    seed: int = 0,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.3,
) -> list[Request]:
    """Bursty stream with the same mean rate as the Poisson one.

    A ``burst_fraction`` share of gaps is exponential at
    ``burst_factor × rate_rps`` (requests arriving back-to-back); the rest
    is stretched so the overall mean gap stays ``1/rate_rps``.
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    if not 0.0 < rate_rps < np.inf:
        raise ValueError("arrival rate must be positive and finite")
    if burst_factor <= 1.0:
        raise ValueError("burst_factor must exceed 1")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    weights = parse_model_mix(mix) if isinstance(mix, str) else dict(mix)
    rng = np.random.default_rng(seed)
    # Mean gap budget: burst gaps spend 1/(burst_factor·λ) each, the slow
    # phase absorbs the remainder so E[gap] = 1/λ exactly.
    fast_rate = burst_factor * rate_rps
    slow_mean = (1.0 / rate_rps - burst_fraction / fast_rate) / (1.0 - burst_fraction)
    in_burst = rng.random(num_requests) < burst_fraction
    gaps = np.where(
        in_burst,
        rng.exponential(1.0 / fast_rate, size=num_requests),
        rng.exponential(slow_mean, size=num_requests),
    )
    return _materialize(gaps, weights, rng)


# ----------------------------------------------------------------------
# Trace-driven workloads (diurnal / flash crowd / regional)
# ----------------------------------------------------------------------
def spawn_seeds(seed, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent child seeds of ``seed``.

    Wraps :meth:`numpy.random.SeedSequence.spawn`: child ``i`` is a pure
    function of ``(seed, i)``, so consumers (shards, regions) draw
    independent streams that are invariant to how many *other* children
    exist or which process draws them.
    """
    if count < 1:
        raise ValueError("need at least one child seed")
    return _seed_sequence(seed).spawn(count)


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def _thinned_arrival_times(
    num_requests: int,
    rate_fn,
    rate_max_rps: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """First ``num_requests`` arrivals of a non-homogeneous Poisson process.

    Thinning: candidates arrive at the envelope rate ``rate_max_rps`` and
    survive with probability ``rate_fn(t) / rate_max_rps``.  Candidates
    are drawn in vectorized chunks, so million-request traces generate in
    milliseconds rather than a Python-level loop per arrival.
    """
    times: list[float] = []
    start = 0.0
    chunk = max(1024, num_requests)
    while len(times) < num_requests:
        gaps = rng.exponential(1.0 / rate_max_rps, size=chunk)
        candidates = start + np.cumsum(gaps)
        accept = rng.random(chunk) * rate_max_rps < rate_fn(candidates)
        times.extend(candidates[accept].tolist())
        start = float(candidates[-1])
    return np.asarray(times[:num_requests])


def _materialize_times(
    times: np.ndarray,
    mix: dict[str, float],
    rng: np.random.Generator,
    region: str = "",
) -> list[Request]:
    models = rng.choice(list(mix), size=len(times), p=list(mix.values()))
    return [
        Request(
            index=i,
            model=str(models[i]),
            arrival_s=float(times[i]),
            region=region,
        )
        for i in range(len(times))
    ]


def diurnal_arrivals(
    num_requests: int,
    peak_rps: float,
    mix: str | dict[str, float] = "model4",
    seed=0,
    *,
    period_s: float = 86.4,
    trough_fraction: float = 0.25,
    phase_s: float = 0.0,
    region: str = "",
) -> list[Request]:
    """Sinusoidal day curve: rate swings trough→peak→trough per period.

    ``rate(t) = peak × (f + (1-f)·(1-cos(2π(t-phase)/period))/2)`` with
    ``f = trough_fraction``; the trough sits at ``t = phase_s``.  The
    default period compresses a day into 86.4 s (1000× time warp), so a
    "day" of traffic stays simulable.
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    if not 0.0 < peak_rps < np.inf:
        raise ValueError("peak rate must be positive and finite")
    if period_s <= 0:
        raise ValueError("period must be positive")
    if not 0.0 < trough_fraction <= 1.0:
        raise ValueError("trough_fraction must be in (0, 1]")
    weights = parse_model_mix(mix) if isinstance(mix, str) else dict(mix)
    arrival_child, model_child = _seed_sequence(seed).spawn(2)

    def rate(t: np.ndarray) -> np.ndarray:
        swing = (1.0 - np.cos(2.0 * np.pi * (t - phase_s) / period_s)) / 2.0
        return peak_rps * (trough_fraction + (1.0 - trough_fraction) * swing)

    times = _thinned_arrival_times(
        num_requests, rate, peak_rps, np.random.default_rng(arrival_child)
    )
    return _materialize_times(
        times, weights, np.random.default_rng(model_child), region
    )


def flash_crowd_arrivals(
    num_requests: int,
    base_rps: float,
    mix: str | dict[str, float] = "model4",
    seed=0,
    *,
    spike_at_s: float = 10.0,
    spike_duration_s: float = 5.0,
    spike_factor: float = 8.0,
) -> list[Request]:
    """Steady base rate with a rectangular ``spike_factor×`` rate spike.

    The viral-moment trace: load jumps to ``spike_factor × base_rps`` for
    ``spike_duration_s`` starting at ``spike_at_s``, then collapses back
    — the backlog it leaves behind is what shedding, autoscaling, and
    SLO-attainment reports are measured against.
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    if not 0.0 < base_rps < np.inf:
        raise ValueError("base rate must be positive and finite")
    if spike_factor < 1.0:
        raise ValueError("spike_factor must be >= 1")
    if spike_at_s < 0 or spike_duration_s <= 0:
        raise ValueError("spike window must be non-negative and non-empty")
    weights = parse_model_mix(mix) if isinstance(mix, str) else dict(mix)
    arrival_child, model_child = _seed_sequence(seed).spawn(2)

    def rate(t: np.ndarray) -> np.ndarray:
        in_spike = (t >= spike_at_s) & (t < spike_at_s + spike_duration_s)
        return base_rps * np.where(in_spike, spike_factor, 1.0)

    times = _thinned_arrival_times(
        num_requests,
        rate,
        base_rps * spike_factor,
        np.random.default_rng(arrival_child),
    )
    return _materialize_times(
        times, weights, np.random.default_rng(model_child)
    )


def parse_regions(spec: str) -> list[tuple[str, float, float]]:
    """Parse ``"us:0.5@0.0+eu:0.3@0.33+apac:0.2@0.66"``.

    Each entry is ``name:weight@phase`` — traffic share and diurnal phase
    as a fraction of the period.  Weights normalize to 1; phase defaults
    to 0 and weight to 1.
    """
    regions: list[tuple[str, float, float]] = []
    for entry in spec.split("+"):
        entry = entry.strip()
        if not entry:
            continue
        name, sep, rest = entry.partition(":")
        name = name.strip()
        if not name:
            raise ValueError(f"empty region name in {spec!r}")
        weight, phase = 1.0, 0.0
        if sep:
            raw_weight, at, raw_phase = rest.partition("@")
            weight = float(raw_weight)
            if at:
                phase = float(raw_phase)
        if weight <= 0:
            raise ValueError(f"region weight must be positive in {spec!r}")
        if not 0.0 <= phase < 1.0:
            raise ValueError(f"region phase must be in [0, 1) in {spec!r}")
        if name in (r[0] for r in regions):
            raise ValueError(f"duplicate region {name!r} in {spec!r}")
        regions.append((name, weight, phase))
    if not regions:
        raise ValueError(f"empty region spec {spec!r}")
    total = sum(weight for _, weight, _ in regions)
    return [(name, weight / total, phase) for name, weight, phase in regions]


def regional_arrivals(
    num_requests: int,
    peak_rps: float,
    regions: str | list[tuple[str, float, float]] = (
        "us:0.5@0.0+eu:0.3@0.33+apac:0.2@0.66"
    ),
    mix: str | dict[str, float] = "model4",
    seed=0,
    *,
    period_s: float = 86.4,
    trough_fraction: float = 0.25,
) -> list[Request]:
    """Follow-the-sun mix: phase-shifted diurnal curves per region.

    ``peak_rps`` is the fleet-level peak; region ``i`` peaks at
    ``weight_i × peak_rps`` with its trough offset by ``phase_i`` of the
    period.  Region ``i`` draws from child ``i`` of the seed
    (:func:`spawn_seeds`), so a region's sub-trace depends only on its
    position and parameters — never on the other regions.  The merged
    stream is re-indexed in arrival order (ties broken by region name).
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    parsed = parse_regions(regions) if isinstance(regions, str) else list(regions)
    children = spawn_seeds(seed, len(parsed))
    # Largest-remainder apportionment: deterministic integer counts that
    # sum to num_requests and track the weights.
    shares = [weight * num_requests for _, weight, _ in parsed]
    counts = [int(share) for share in shares]
    remainders = sorted(
        range(len(parsed)), key=lambda i: (shares[i] - counts[i], i),
        reverse=True,
    )
    for i in remainders[: num_requests - sum(counts)]:
        counts[i] += 1
    merged: list[Request] = []
    for (name, weight, phase), child, count in zip(parsed, children, counts):
        if count < 1:
            continue
        merged.extend(diurnal_arrivals(
            count,
            weight * peak_rps,
            mix,
            child,
            period_s=period_s,
            trough_fraction=trough_fraction,
            phase_s=phase * period_s,
            region=name,
        ))
    merged.sort(key=lambda r: (r.arrival_s, r.region))
    return [
        Request(
            index=i,
            model=request.model,
            arrival_s=request.arrival_s,
            region=request.region,
        )
        for i, request in enumerate(merged)
    ]


def arrival_trace(
    kind: str,
    num_requests: int,
    peak_rps: float,
    mix: str | dict[str, float] = "model4",
    seed=0,
    *,
    period_s: float = 0.0,
    regions: str = "us:0.5@0.0+eu:0.3@0.33+apac:0.2@0.66",
    spike_factor: float = 4.0,
    burst_factor: float = 8.0,
) -> list[Request]:
    """One arrival stream of ``kind`` at a PEAK rate of ``peak_rps``.

    ``poisson`` and ``bursty`` are stationary, so their peak is their mean
    rate.  ``period_s=0`` auto-sizes the diurnal/regional period so the
    trace covers about one full cycle (the diurnal mean rate with the
    default trough fraction 0.25 is ``0.625 x`` peak); the flash-crowd
    spike is placed at fixed fractions of the stream's baseline span.
    """
    if period_s < 0:
        raise ValueError(f"period_s must be >= 0 (0 = auto), got {period_s:g}")
    if kind == "poisson":
        return poisson_arrivals(num_requests, peak_rps, mix, seed)
    if kind == "bursty":
        return bursty_arrivals(
            num_requests, peak_rps, mix, seed, burst_factor=burst_factor
        )
    if period_s == 0:
        period_s = num_requests / (0.625 * peak_rps)
    if kind == "diurnal":
        return diurnal_arrivals(
            num_requests, peak_rps, mix, seed, period_s=period_s
        )
    if kind == "flash_crowd":
        base_rps = peak_rps / spike_factor
        base_span = num_requests / base_rps
        return flash_crowd_arrivals(
            num_requests, base_rps, mix, seed,
            spike_at_s=0.3 * base_span,
            spike_duration_s=0.2 * base_span,
            spike_factor=spike_factor,
        )
    if kind == "regional":
        return regional_arrivals(
            num_requests, peak_rps, regions, mix, seed, period_s=period_s
        )
    raise ValueError(
        f"unknown arrival kind {kind!r};"
        " use poisson|bursty|diurnal|flash_crowd|regional"
    )


# ----------------------------------------------------------------------
# Multi-tenant serving: tenant specs, priority tiers, DVS event streams
# ----------------------------------------------------------------------
def parse_tenants(spec: str) -> tuple[TenantSpec, ...]:
    """Parse ``"gold:3+silver:1"`` / ``"acme:2@16+beta:1@4"``.

    Each entry is ``name[:weight][@quota]`` — WFQ weight (default 1,
    positive float) and admission quota (default none, integer >= 1).
    Weights are *relative* shares and stay un-normalized.  Malformed
    entries are rejected loudly (same contract as the strict env/mix
    parsers): empty names, duplicate tenants, non-positive weights, and
    non-integer or < 1 quotas all raise ``ValueError``.
    """
    tenants: list[TenantSpec] = []
    for entry in spec.split("+"):
        entry = entry.strip()
        if not entry:
            continue
        name, colon, rest = entry.partition(":")
        name = name.strip()
        weight, quota = 1.0, None
        if colon:
            raw_weight, at, raw_quota = rest.partition("@")
            try:
                weight = float(raw_weight)
            except ValueError:
                raise ValueError(
                    f"bad tenant weight {raw_weight!r} in {spec!r}"
                ) from None
            if at:
                try:
                    quota = int(raw_quota)
                except ValueError:
                    raise ValueError(
                        f"bad tenant quota {raw_quota!r} in {spec!r}"
                        " (must be an integer)"
                    ) from None
        elif "@" in name:
            name, _, raw_quota = name.partition("@")
            name = name.strip()
            try:
                quota = int(raw_quota)
            except ValueError:
                raise ValueError(
                    f"bad tenant quota {raw_quota!r} in {spec!r}"
                    " (must be an integer)"
                ) from None
        if not name:
            raise ValueError(f"empty tenant name in {spec!r}")
        if name in (t.name for t in tenants):
            raise ValueError(f"duplicate tenant {name!r} in {spec!r}")
        try:
            tenants.append(TenantSpec(name=name, weight=weight, quota=quota))
        except ValueError as error:
            raise ValueError(f"{error} in {spec!r}") from None
    if not tenants:
        raise ValueError(f"empty tenant spec {spec!r}")
    return tuple(tenants)


def parse_priority_mix(mix: str) -> dict[int, float]:
    """Parse ``"0:0.8+1:0.2"`` into normalized tier probabilities.

    Tiers are non-negative integers (higher = more urgent); weights are
    positive and normalize to 1 (entries without an explicit weight get
    weight 1 first).  Duplicate tiers, negative or fractional tier
    labels, and non-positive weights raise ``ValueError``.
    """
    weights: dict[int, float] = {}
    for entry in mix.split("+"):
        entry = entry.strip()
        if not entry:
            continue
        raw_tier, sep, raw_weight = entry.partition(":")
        try:
            tier = int(raw_tier)
        except ValueError:
            raise ValueError(
                f"bad priority tier {raw_tier!r} in {mix!r} (must be an integer)"
            ) from None
        if tier < 0:
            raise ValueError(f"priority tier must be >= 0 in {mix!r}")
        if tier in weights:
            raise ValueError(f"duplicate priority tier {tier} in {mix!r}")
        try:
            weight = float(raw_weight) if sep else 1.0
        except ValueError:
            raise ValueError(
                f"bad priority weight {raw_weight!r} in {mix!r}"
            ) from None
        if weight <= 0:
            raise ValueError(f"priority weight must be positive in {mix!r}")
        weights[tier] = weight
    if not weights:
        raise ValueError(f"empty priority mix {mix!r}")
    total = sum(weights.values())
    return {tier: weight / total for tier, weight in sorted(weights.items())}


def assign_priorities(
    requests: list[Request], mix: str | dict[int, float], seed=0
) -> list[Request]:
    """Tag each request with a priority tier drawn from ``mix``.

    The draw uses its own :func:`spawn_seeds` child, so the tier sequence
    is a pure function of ``(seed, stream length)`` — re-tagging the same
    stream reproduces identical tiers, and tagging never perturbs the
    arrival trace itself (indices, models, and times are preserved).
    """
    weights = parse_priority_mix(mix) if isinstance(mix, str) else dict(mix)
    rng = np.random.default_rng(spawn_seeds(seed, 1)[0])
    tiers = rng.choice(
        list(weights), size=len(requests), p=list(weights.values())
    )
    return [
        Request(
            index=r.index, model=r.model, arrival_s=r.arrival_s,
            region=r.region, tenant=r.tenant, priority=int(tier),
        )
        for r, tier in zip(requests, tiers)
    ]


def assign_tenants(
    requests: list[Request],
    tenants: str | tuple[TenantSpec, ...],
    seed=0,
) -> list[Request]:
    """Tag each request with a tenant, uniformly across the tenant set.

    Offered load is split *equally* (not by weight): the WFQ fairness
    experiments need every tenant's offered share to exceed its fair
    share, so that served shares are shaped by the scheduler's weights
    rather than by the arrival mix.  Seeded via its own
    :func:`spawn_seeds` child, same determinism contract as
    :func:`assign_priorities`.
    """
    parsed = parse_tenants(tenants) if isinstance(tenants, str) else tuple(tenants)
    if not parsed:
        raise ValueError("need at least one tenant")
    rng = np.random.default_rng(spawn_seeds(seed, 2)[1])
    names = rng.choice([t.name for t in parsed], size=len(requests))
    return [
        Request(
            index=r.index, model=r.model, arrival_s=r.arrival_s,
            region=r.region, tenant=str(name), priority=r.priority,
        )
        for r, name in zip(requests, names)
    ]


def dvs_stream_arrivals(
    num_streams: int,
    ticks_per_stream: int,
    tick_hz: float,
    mix: str | dict[str, float] = "model4",
    seed=0,
    *,
    jitter: float = 0.2,
    tenant_prefix: str = "cam",
    priority: int = 0,
) -> list[Request]:
    """Long-lived event-camera streams emitting inference ticks.

    The paper's DVS workloads are not one-shot requests but continuous
    event streams: each camera accumulates events and emits an inference
    tick roughly every ``1/tick_hz`` seconds (near-periodic, with a
    ``jitter`` fraction of uniform gap noise from scene-dependent event
    density).  Stream ``i`` draws from child ``i`` of the seed
    (:func:`spawn_seeds`), so a camera's tick trace depends only on its
    position and parameters — adding cameras never perturbs existing
    ones, and the merged trace is identical across runs and across
    worker counts.  Each stream serves one model from ``mix`` for its
    whole lifetime (a camera runs one network) and is its own tenant
    (``"<tenant_prefix><i>"``; empty prefix for single-tenant streams).
    """
    if num_streams < 1:
        raise ValueError("need at least one stream")
    if ticks_per_stream < 1:
        raise ValueError("need at least one tick per stream")
    if not 0.0 < tick_hz < np.inf:
        raise ValueError("tick rate must be positive and finite")
    if not 0.0 <= jitter < 1.0:
        raise ValueError("jitter must be in [0, 1)")
    if priority < 0:
        raise ValueError("priority must be >= 0")
    weights = parse_model_mix(mix) if isinstance(mix, str) else dict(mix)
    period = 1.0 / tick_hz
    merged: list[Request] = []
    for stream, child in enumerate(spawn_seeds(seed, num_streams)):
        rng = np.random.default_rng(child)
        model = str(rng.choice(list(weights), p=list(weights.values())))
        # Cameras power up at staggered offsets within one period; tick
        # gaps jitter uniformly around the period with the mean preserved.
        start = float(rng.uniform(0.0, period))
        gaps = period * (
            1.0 + jitter * rng.uniform(-1.0, 1.0, size=ticks_per_stream - 1)
        )
        times = start + np.concatenate(([0.0], np.cumsum(gaps)))
        tenant = f"{tenant_prefix}{stream}" if tenant_prefix else ""
        merged.extend(
            Request(
                index=0, model=model, arrival_s=float(t),
                tenant=tenant, priority=priority,
            )
            for t in times
        )
    merged.sort(key=lambda r: (r.arrival_s, r.tenant))
    return [
        Request(
            index=i, model=r.model, arrival_s=r.arrival_s,
            region=r.region, tenant=r.tenant, priority=r.priority,
        )
        for i, r in enumerate(merged)
    ]
