"""SLO objectives, error budgets, and multi-window burn-rate alerting.

An :class:`SLOObjective` states the contract ("``target`` of requests
finish within ``slo_ms``"); the :class:`SLOMonitor` evaluates it
**streaming** — one :meth:`~SLOMonitor.observe_window` call per
coordination window, fed the window's merged
:class:`~repro.serve.sketch.LatencySketch` as the sharded-cluster
coordinator produces it.  Because sketch merges are exact integer count
addition (associative and commutative), the monitor's cumulative
attainment and end-of-run budget consumption are *identical* to the
post-hoc computation on the fleet's total sketch — streaming costs no
accuracy, which the acceptance tests assert with ``==``.

Alerting follows the multi-window burn-rate recipe (Google SRE
workbook): the **burn rate** over a lookback of K windows is the bad
fraction divided by the budget fraction ``1 - target`` (burn 1.0 =
consuming budget exactly at the sustainable rate), and a
:class:`BurnRateRule` fires when *both* its long and short lookbacks
exceed the threshold — the long window rejects blips, the short window
makes the alert clear quickly once the incident ends.  Firing and
clearing go through a two-threshold :class:`Hysteresis` latch, which is
monotone: a pointwise-higher burn series can only be alerting whenever
a lower one is (a hypothesis-tested property).

Everything here is consumed three ways: live in the coordinator loop
(``repro cluster --slo-ms``), offline over saved window series
(``repro slo <artifact>``), and by the detector rule engine in
:mod:`repro.obs.monitor`, which reuses :class:`AlertEvent` and
:class:`Hysteresis`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "AlertEvent",
    "BurnRateRule",
    "DEFAULT_BURN_RULES",
    "Hysteresis",
    "SLOMonitor",
    "SLOObjective",
    "SLOWindowState",
]


@dataclass(frozen=True)
class AlertEvent:
    """One alert transition: a rule firing or clearing.

    Shared by the burn-rate rules here and the window/registry detectors
    in :mod:`repro.obs.monitor`.  ``window``/``t_s`` locate the
    transition in the windowed run (``None`` for end-of-run registry
    rules); ``value`` and ``threshold`` record what tripped the latch.
    """

    rule: str
    kind: str                      # "fired" | "cleared"
    severity: str                  # "critical" | "warning"
    message: str
    value: float
    threshold: float
    window: int | None = None
    t_s: float | None = None

    def to_dict(self) -> dict:
        payload = {
            "rule": self.rule,
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
        }
        if self.window is not None:
            payload["window"] = self.window
        if self.t_s is not None:
            payload["t_s"] = self.t_s
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AlertEvent":
        return cls(
            rule=str(payload["rule"]),
            kind=str(payload["kind"]),
            severity=str(payload.get("severity", "warning")),
            message=str(payload.get("message", "")),
            value=float(payload.get("value", 0.0)),
            threshold=float(payload.get("threshold", 0.0)),
            window=payload.get("window"),
            t_s=payload.get("t_s"),
        )


class Hysteresis:
    """A two-threshold latch: fires at ``value >= fire``, clears below
    ``clear`` (with ``clear <= fire``), holds in between.

    The asymmetric band is what keeps alerts from flapping when the
    signal hovers at the threshold.  The latch is **monotone**: feeding
    a pointwise-greater series can never produce a pointwise-smaller
    active state (inductively: a larger value can only fire earlier and
    clear later) — the hypothesis suite asserts this.
    """

    __slots__ = ("fire", "clear", "active")

    def __init__(self, fire: float, clear: float | None = None):
        clear = fire if clear is None else clear
        if clear > fire:
            raise ValueError(
                f"hysteresis clear level {clear} must be <= fire level {fire}"
            )
        self.fire = float(fire)
        self.clear = float(clear)
        self.active = False

    def update(self, value: float) -> str | None:
        """Advance the latch; returns ``"fired"``/``"cleared"`` on a
        transition, ``None`` otherwise."""
        if not self.active:
            if value >= self.fire:
                self.active = True
                return "fired"
            return None
        if value < self.clear:
            self.active = False
            return "cleared"
        return None


@dataclass(frozen=True)
class SLOObjective:
    """A latency SLO: ``target`` of requests within ``slo_ms``."""

    slo_ms: float
    target: float = 0.99
    name: str = "latency"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slo_ms) and self.slo_ms > 0):
            raise ValueError(
                f"slo_ms must be finite and positive, got {self.slo_ms}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")

    @property
    def slo_s(self) -> float:
        return self.slo_ms * 1e-3

    @property
    def budget_fraction(self) -> float:
        """The allowed bad fraction — the error budget as a rate."""
        return 1.0 - self.target

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "slo_ms": self.slo_ms,
            "target": self.target,
        }


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alert rule.

    Fires when the burn rate over the last ``long_windows`` *and* the
    last ``short_windows`` coordination windows both reach
    ``threshold``; clears (with hysteresis) when the joint signal —
    ``min(long, short)`` — drops below ``clear_below`` (default: half
    the threshold).
    """

    name: str
    threshold: float
    long_windows: int
    short_windows: int
    severity: str = "critical"
    clear_below: float | None = None

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.short_windows < 1 or self.long_windows < self.short_windows:
            raise ValueError("need long_windows >= short_windows >= 1")
        if self.clear_below is not None and self.clear_below > self.threshold:
            raise ValueError("clear_below must be <= threshold")

    @property
    def resolved_clear(self) -> float:
        return (
            self.threshold / 2.0
            if self.clear_below is None
            else self.clear_below
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "threshold": self.threshold,
            "long_windows": self.long_windows,
            "short_windows": self.short_windows,
            "severity": self.severity,
            "clear_below": self.resolved_clear,
        }


#: The default rule pair, scaled to the coordinator's ~32-window runs:
#: a fast-burn page (an incident eating budget ~10x too fast, confirmed
#: over one and four windows) and a slow-burn warning (a sustained 4x
#: overspend).  With ``target=0.99`` the fast rule needs >10% of a
#: window's requests violating — diurnal steady-state never gets there,
#: a flash-crowd overload does within the spike.
DEFAULT_BURN_RULES: tuple[BurnRateRule, ...] = (
    BurnRateRule(
        "slo_fast_burn", threshold=10.0, long_windows=4, short_windows=1,
        severity="critical",
    ),
    BurnRateRule(
        "slo_slow_burn", threshold=4.0, long_windows=12, short_windows=3,
        severity="warning",
    ),
)


@dataclass(frozen=True)
class SLOWindowState:
    """The monitor's view after one window: live attainment + budget."""

    index: int
    start_s: float
    end_s: float
    served: int                       # this window's completions
    good: float                       # of which within SLO (sketch mass)
    attainment: float | None          # this window (None if no completions)
    cumulative_attainment: float      # over everything observed so far
    budget_consumed: float            # fraction of the error budget burned
    budget_remaining: float           # max(0, 1 - consumed): never negative
    burn_rate: float                  # max over rules of min(long, short)
    burn_rates: dict = field(default_factory=dict)   # rule -> (long, short)
    events: tuple[AlertEvent, ...] = ()

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "attainment": self.attainment,
            "cumulative_attainment": self.cumulative_attainment,
            "budget_remaining": self.budget_remaining,
            "burn_rate": self.burn_rate,
        }


class SLOMonitor:
    """Streaming SLO evaluation over a window series.

    Feed each coordination window once, either as a merged latency
    sketch (:meth:`observe_window` — the coordinator's live path, exact)
    or as pre-reduced counts (:meth:`observe_counts` — the offline
    ``repro slo`` replay over saved window rows).  States, alert
    transitions, and the end-of-run :meth:`summary` accumulate on the
    monitor.
    """

    def __init__(
        self,
        objective: SLOObjective,
        rules: tuple[BurnRateRule, ...] | None = None,
    ):
        self.objective = objective
        self.rules = tuple(DEFAULT_BURN_RULES if rules is None else rules)
        self._latches = {
            rule.name: Hysteresis(rule.threshold, rule.resolved_clear)
            for rule in self.rules
        }
        lookback = max((rule.long_windows for rule in self.rules), default=1)
        self._history: deque[tuple[int, float]] = deque(maxlen=lookback)
        self._sketch = None               # lazily adopts incoming geometry
        self._served = 0
        self._good = 0.0
        self.states: list[SLOWindowState] = []
        self.alerts: list[AlertEvent] = []

    # -- feeding ----------------------------------------------------------
    def observe_window(
        self, index: int, start_s: float, end_s: float, sketch
    ) -> SLOWindowState:
        """Consume one window's merged latency sketch (the exact path).

        The sketch is merged into the monitor's cumulative sketch, so
        the cumulative attainment is computed on exactly the bucket
        counts a post-hoc pass over the total sketch would see.
        """
        served = int(sketch.count)
        if self._sketch is None:
            self._sketch = sketch.copy()
        else:
            self._sketch.update(sketch)
        good = sketch.cdf(self.objective.slo_s) * served if served else 0.0
        cumulative = (
            self._sketch.cdf(self.objective.slo_s)
            if self._sketch.count
            else 1.0
        )
        return self._advance(index, start_s, end_s, served, good, cumulative)

    def observe_counts(
        self,
        index: int,
        start_s: float,
        end_s: float,
        served: int,
        good: float,
    ) -> SLOWindowState:
        """Consume one pre-reduced window (offline replay of saved rows)."""
        served = int(served)
        good = min(max(float(good), 0.0), float(served))
        self._served += served
        self._good += good
        cumulative = self._good / self._served if self._served else 1.0
        return self._advance(index, start_s, end_s, served, good, cumulative)

    # -- the shared window step -------------------------------------------
    def _advance(
        self,
        index: int,
        start_s: float,
        end_s: float,
        served: int,
        good: float,
        cumulative_attainment: float,
    ) -> SLOWindowState:
        self._history.append((served, good))
        budget = self.objective.budget_fraction
        consumed = (1.0 - cumulative_attainment) / budget
        remaining = max(0.0, 1.0 - consumed)

        burn_rates: dict[str, tuple[float, float]] = {}
        events: list[AlertEvent] = []
        worst = 0.0
        for rule in self.rules:
            long_burn = self._burn(rule.long_windows)
            short_burn = self._burn(rule.short_windows)
            joint = min(long_burn, short_burn)
            worst = max(worst, joint)
            burn_rates[rule.name] = (long_burn, short_burn)
            transition = self._latches[rule.name].update(joint)
            if transition is not None:
                events.append(AlertEvent(
                    rule=rule.name,
                    kind=transition,
                    severity=rule.severity,
                    message=(
                        f"burn rate {joint:.2f}x over"
                        f" {rule.long_windows}/{rule.short_windows} windows"
                        f" ({'>=' if transition == 'fired' else '<'}"
                        f" {rule.threshold if transition == 'fired' else rule.resolved_clear:g}x"
                        f" of the {self.objective.slo_ms:g} ms budget)"
                    ),
                    value=joint,
                    threshold=(
                        rule.threshold
                        if transition == "fired"
                        else rule.resolved_clear
                    ),
                    window=index,
                    t_s=end_s,
                ))
        self.alerts.extend(events)
        state = SLOWindowState(
            index=index,
            start_s=start_s,
            end_s=end_s,
            served=served,
            good=good,
            attainment=(good / served) if served else None,
            cumulative_attainment=cumulative_attainment,
            budget_consumed=consumed,
            budget_remaining=remaining,
            burn_rate=worst,
            burn_rates=burn_rates,
            events=tuple(events),
        )
        self.states.append(state)
        return state

    def _burn(self, lookback: int) -> float:
        """Burn rate over the last ``lookback`` windows (0 when idle)."""
        window = list(self._history)[-lookback:]
        served = sum(s for s, _ in window)
        if not served:
            return 0.0
        bad = sum(s - g for s, g in window)
        return (bad / served) / self.objective.budget_fraction

    # -- results ----------------------------------------------------------
    @property
    def active_rules(self) -> list[str]:
        return sorted(
            name for name, latch in self._latches.items() if latch.active
        )

    @property
    def fired(self) -> list[AlertEvent]:
        return [event for event in self.alerts if event.kind == "fired"]

    def summary(self) -> dict:
        """The end-of-run SLO block (attainment, budget, alert record)."""
        last = self.states[-1] if self.states else None
        attainment = last.cumulative_attainment if last else 1.0
        served = (
            int(self._sketch.count) if self._sketch is not None
            else self._served
        )
        violations = int(round((1.0 - attainment) * served))
        consumed = last.budget_consumed if last else 0.0
        return {
            "slo_ms": self.objective.slo_ms,
            "target": self.objective.target,
            "attainment": attainment,
            "violations": violations,
            "budget": {
                "fraction": self.objective.budget_fraction,
                "consumed": consumed,
                "remaining": max(0.0, 1.0 - consumed),
            },
            "rules": [rule.to_dict() for rule in self.rules],
            "alerts": [event.to_dict() for event in self.alerts],
            "alerts_fired": len(self.fired),
            "active_rules": self.active_rules,
        }
