"""Fleet specification: chip kinds, model placement, and parsing.

A *fleet* is an ordered list of chips.  Each chip has a **kind** — a named
Bishop configuration variant — and an optional **placement**: the subset
of Table-2 models whose weights it hosts.  Kinds extend the paper's
intra-chip heterogeneity (dense/sparse/attention cores) to inter-chip
heterogeneity: a ``sparse_heavy`` chip doubles the sparse-core TTB units
and stratifies more of the workload onto them, so high-sparsity traces
(model2/model5-like) run fastest there, while ``dense_heavy`` trades
sparse units for a wider dense core, which suits low-sparsity traces.
All kinds keep the paper's attention core, spike generator, DRAM
channel, and clock; the total PE budget stays within ~15% of the
Sec.-6.1 chip so fleets compare like-for-like.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..arch import BishopConfig, resolve_overrides
from ..model import MODEL_ZOO
from ..serve.profiles import profile_config, request_profile

__all__ = [
    "CHIP_KINDS",
    "ChipSpec",
    "FleetSpec",
    "chip_config",
    "fleet_capacity_rps",
    "homogeneous_fleet",
    "load_chip_kinds",
    "parse_fleet",
    "register_chip_kind",
]

# Kind name → overrides on the standard serving-chip configuration.
# dense_rows scales the dense core (rows × 32 output features);
# sparse_units counts parallel TTB units; stratify_dense_fraction moves
# the stratification threshold so the workload split matches the silicon.
CHIP_KINDS: dict[str, dict] = {
    "standard": {},
    "sparse_heavy": {
        "sparse_units": 256,
        "stratify_dense_fraction": 0.35,
    },
    "dense_heavy": {
        "sparse_units": 64,
        "dense_rows": 24,
        "stratify_dense_fraction": 0.65,
    },
}


def chip_config(kind: str, bs_t: int = 2, bs_n: int = 4) -> BishopConfig:
    """The :class:`BishopConfig` of one chip kind at a bundle shape.

    ``standard`` is byte-identical to the single-chip serving
    configuration (:func:`repro.serve.profiles.profile_config`), which is
    what makes an N=1 standard fleet reproduce ``simulate_serving``.
    Registered kinds may carry nested ``bundle_spec``/``dram`` dicts (the
    DSE fleet-export format); an explicit ``bundle_spec`` override wins
    over the ``bs_t``/``bs_n`` arguments.
    """
    key = (kind, int(bs_t), int(bs_n))
    cached = _CONFIG_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        overrides = CHIP_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown chip kind {kind!r}; options {sorted(CHIP_KINDS)}"
        ) from None
    base = profile_config(bs_t, bs_n)
    config = resolve_overrides(base, overrides) if overrides else base
    _CONFIG_CACHE[key] = config
    return config


# Memoization over the mutable CHIP_KINDS registry: a 10,000-chip fleet
# has a handful of distinct kinds, so per-kind results are cached and
# invalidated whenever a kind is (re)registered.
_CONFIG_CACHE: dict[tuple[str, int, int], BishopConfig] = {}


def _invalidate_kind_caches() -> None:
    _CONFIG_CACHE.clear()
    _chip_capacity_rps.cache_clear()


def register_chip_kind(name: str, overrides: dict) -> None:
    """Register (or replace) a chip kind from a config-override dict.

    The overrides are validated eagerly — a kind that cannot build a
    valid :class:`BishopConfig` is rejected at registration, not at first
    use deep inside a fleet simulation.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"bad chip kind name {name!r}")
    try:
        resolve_overrides(profile_config(), dict(overrides))
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"chip kind {name!r} has invalid overrides: {error}"
        ) from error
    CHIP_KINDS[name] = dict(overrides)
    _invalidate_kind_caches()


def load_chip_kinds(path: Path | str) -> list[str]:
    """Register every chip kind in a kinds file (``repro dse --export-fleet``).

    Accepts either the DSE export payload (``{"kinds": {name: overrides}}``)
    or a bare ``{name: overrides}`` mapping.  Returns the registered names
    in file order.
    """
    payload = json.loads(Path(path).read_text())
    kinds = payload.get("kinds", payload) if isinstance(payload, dict) else None
    if not isinstance(kinds, dict) or not kinds:
        raise ValueError(f"{path}: expected a JSON object of chip kinds")
    # Validate the whole file before touching the registry: a bad Nth kind
    # must not leave kinds 1..N-1 registered.
    for name, overrides in kinds.items():
        if not isinstance(overrides, dict):
            raise ValueError(f"{path}: kind {name!r} overrides must be an object")
        try:
            resolve_overrides(profile_config(), dict(overrides))
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"{path}: chip kind {name!r} has invalid overrides: {error}"
            ) from error
    names = []
    for name, overrides in kinds.items():
        register_chip_kind(name, overrides)
        names.append(name)
    return names


@dataclass(frozen=True)
class ChipSpec:
    """One chip in a fleet: its kind and the models it hosts.

    ``models=None`` means the chip replicates every model of the workload
    (full replication); a tuple restricts placement — requests for models
    this chip does not host are never routed to it.
    """

    kind: str = "standard"
    models: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHIP_KINDS:
            raise ValueError(
                f"unknown chip kind {self.kind!r}; options {sorted(CHIP_KINDS)}"
            )
        if self.models is not None:
            if not self.models:
                raise ValueError("a chip's placement cannot be empty")
            unknown = [m for m in self.models if m not in MODEL_ZOO]
            if unknown:
                raise ValueError(
                    f"unknown model(s) {unknown} in placement;"
                    f" options {sorted(MODEL_ZOO)}"
                )

    def hosted_models(self, workload_models: tuple[str, ...]) -> tuple[str, ...]:
        """Models this chip serves, resolved against the workload's set."""
        if self.models is None:
            return tuple(workload_models)
        return tuple(m for m in self.models if m in workload_models)


@dataclass(frozen=True)
class FleetSpec:
    """An ordered fleet of chips (order fixes router determinism)."""

    chips: tuple[ChipSpec, ...]

    def __post_init__(self) -> None:
        if not self.chips:
            raise ValueError("a fleet needs at least one chip")

    def __len__(self) -> int:
        return len(self.chips)

    def validate_placement(self, workload_models: tuple[str, ...]) -> None:
        """Every workload model must be hosted by at least one chip."""
        unplaced = [
            model
            for model in workload_models
            if not any(chip.hosted_models((model,)) for chip in self.chips)
        ]
        if unplaced:
            raise ValueError(
                f"model(s) {unplaced} are not placed on any chip; add a"
                " replica hosting them or use models=None (full replication)"
            )


def homogeneous_fleet(size: int, kind: str = "standard") -> FleetSpec:
    """``size`` identical fully-replicated chips of one kind."""
    if size < 1:
        raise ValueError("fleet size must be >= 1")
    return FleetSpec(tuple(ChipSpec(kind=kind) for _ in range(size)))


def fleet_capacity_rps(
    fleet: FleetSpec,
    weights: dict[str, float],
    bs_t: int = 2,
    bs_n: int = 4,
    seed: int = 0,
    passes: str | None = None,
) -> float:
    """Aggregate fleet capacity on a model mix: Σ chips 1/mean-latency.

    Each chip's mean single-request latency is evaluated with *its own*
    configuration over the part of the mix it actually hosts (weights
    renormalized; a chip hosting none of the mix contributes nothing), so
    heterogeneous and placement-restricted fleets are rated fairly.
    Experiments and the CLI derive arrival rates from this
    (``rate = rho × capacity``).  This is a service-rate rating, not an
    exact capacity bound: under heavily skewed placement the achievable
    rate also depends on how the mix balance matches the placement.

    Per-(kind, placement) results are memoized: a 10,000-chip
    homogeneous fleet rates at the cost of one chip, instead of
    recomputing identical profiles per chip.
    """
    mix_items = tuple(sorted(weights.items()))
    return sum(
        _chip_capacity_rps(
            spec.kind, spec.models, mix_items, int(bs_t), int(bs_n),
            int(seed), passes,
        )
        for spec in fleet.chips
    )


@lru_cache(maxsize=None)
def _chip_capacity_rps(
    kind: str,
    placement: tuple[str, ...] | None,
    mix_items: tuple[tuple[str, float], ...],
    bs_t: int,
    bs_n: int,
    seed: int,
    passes: str | None,
) -> float:
    """One chip's rated capacity (1/mean-latency on its hosted mix share).

    Cleared by :func:`_invalidate_kind_caches` whenever the kind registry
    changes, so stale configurations never leak across registrations.
    """
    hosted = {
        model: weight
        for model, weight in mix_items
        if placement is None or model in placement
    }
    share = sum(hosted.values())
    if share == 0.0:
        return 0.0
    config = chip_config(kind, bs_t, bs_n)
    mean_latency = sum(
        (weight / share)
        * request_profile(
            model, seed=seed, config=config, passes=passes
        ).single_latency_s
        for model, weight in hosted.items()
    )
    return 1.0 / mean_latency


def parse_fleet(spec: str) -> FleetSpec:
    """Parse ``"standard:4"`` / ``"dense_heavy:2+sparse_heavy:2"``.

    ``+`` separates entries (``,`` already delimits sweep-axis values on
    the CLI); an entry without a count means one chip of that kind.
    """
    chips: list[ChipSpec] = []
    for entry in spec.split("+"):
        entry = entry.strip()
        if not entry:
            continue
        kind, sep, raw_count = entry.partition(":")
        kind = kind.strip()
        count = int(raw_count) if sep else 1
        if count < 1:
            raise ValueError(f"chip count must be positive in {spec!r}")
        chips.extend(ChipSpec(kind=kind) for _ in range(count))
    if not chips:
        raise ValueError(f"empty fleet spec {spec!r}")
    return FleetSpec(tuple(chips))
