"""Sora's concurrency-adaptation policy (paper §3.2, §4) as one pure
function.

The embedded controller (:class:`~repro.core.sora.
ConcurrencyAdaptationFramework`) and the online service
(:class:`~repro.service.control.ControlPlane`) gather evidence their own
way — a simulated sampler and target, or ingested scrapes and spans —
and hand it to the same :func:`decide`, so both loops run one guarded
policy and emit one decision vocabulary. :func:`decide` touches no
environment, sampler or target; evidence that costs work is passed as a
callable and read only on the branches that need it.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from repro.core.scg import ConcurrencyEstimate
from repro.obs.events import TargetDecision

#: Exploration step when the optimum lies beyond the observed range
#: ("we gradually increase the allocation to find a new optimal value").
GROWTH_FACTOR = 1.5
#: Shrink only when the observed concurrency pressed the allocation
#: (``max_Q >= PRESSURE_FRACTION * allocation``): idle pools yield
#: degenerate knees that say nothing about capacity.
PRESSURE_FRACTION = 0.6
#: One step never shrinks below this fraction of the allocation: right
#: after a regime change the window mixes old- and new-regime samples,
#: so a single knee can wildly undershoot.
MAX_SHRINK_FACTOR = 0.25

#: Actuation method of the verdicts reached without an estimate.
_RULE_METHODS = {"saturation-grow": "saturation",
                 "saturation-capped": "saturation",
                 "overload-shed": "overload-shed",
                 "overload-floor": "overload-shed"}


def saturated(concurrency: np.ndarray, allocation: int,
              min_samples: int) -> bool:
    """Whether at least half of the window's busy samples (and at least
    ``min_samples // 2`` of them) sat at ``>= 0.9 x allocation``."""
    busy = concurrency[concurrency > 0]
    if busy.size < min_samples // 2:
        return False
    return bool((busy >= 0.9 * allocation).mean() >= 0.5)


def p90_within(processing: np.ndarray, threshold: float) -> bool:
    """The growth gate: growth only removes admission-queue waiting, so
    it can help only while post-admission processing time (p90) stays
    within the threshold. No evidence means it cannot."""
    if processing.size == 0:
        return False
    return bool(np.percentile(processing, 90) <= threshold)


def decision(target: str, trigger: str, outcome: str, reason: str,
             before: int, after: int, *, threshold: float | None,
             estimate: ConcurrencyEstimate | None = None,
             growth_can_help: bool | None = None,
             curve_points: int = 0) -> TargetDecision:
    """Assemble the audit record of one verdict (an infinite threshold,
    as SCT runs, is recorded as absent; applied verdicts carry a
    ``curve_points``-point snapshot of the fitted curve)."""
    fields: dict[str, _t.Any] = {}
    if estimate is not None:
        knee = estimate.knee
        fields.update(method=estimate.method, samples=estimate.samples,
                      poly_degree=estimate.fit.degree,
                      max_concurrency=estimate.max_concurrency)
        if estimate.fit_r2 == estimate.fit_r2:
            fields["fit_r2"] = round(float(estimate.fit_r2), 4)
        if knee.found:
            fields.update(knee_concurrency=float(knee.knee_x),
                          knee_rate=float(knee.knee_y))
            if knee.prominence == knee.prominence:
                fields["knee_prominence"] = round(float(knee.prominence), 4)
        if outcome == "applied" and curve_points > 0:
            stride = max(1, len(estimate.fit.x) // curve_points)
            fields["curve"] = tuple(
                (round(float(q), 3), round(float(r), 3))
                for q, r in zip(estimate.fit.x[::stride],
                                estimate.fit.y[::stride]))
    return TargetDecision(
        target=target, trigger=trigger, outcome=_t.cast(_t.Any, outcome),
        reason=reason, before=before, after=after,
        threshold=None if threshold == float("inf") else threshold,
        growth_can_help=growth_can_help, **fields)


def decide(target: str, trigger: str, current: int, *, saturated: bool,
           estimate: _t.Callable[[], ConcurrencyEstimate | None],
           growth_can_help: _t.Callable[[], bool | None],
           min_allocation: int, max_allocation: int,
           threshold: float | None, in_force: bool = True,
           curve_points: int = 0) -> TargetDecision:
    """One target's verdict from one window's evidence: ``current`` is
    the allocation in force; ``estimate`` (the scatter model) is never
    called on a ``saturated`` window, and ``growth_can_help`` (the
    :func:`p90_within` gate, or always true without a threshold) only
    by the rules that read it.

    Rules stand down when their evidence is missing. A growth gate
    that answers ``None`` (no processing times observed) leaves the
    saturation and edge rules out and the estimate decides. With
    ``in_force`` false, ``current`` is only the last recommendation,
    not a reported allocation, so every rule that judges the window
    against it (saturation, edge, pressure, shrink cap) stands down.
    """

    def verdict(outcome: str, reason: str, after: int,
                evidence: ConcurrencyEstimate | None = None,
                growth: bool | None = None) -> TargetDecision:
        return decision(target, trigger, outcome, reason, current, after,
                        threshold=threshold, estimate=evidence,
                        growth_can_help=growth, curve_points=curve_points)

    # A pool pinned at its allocation censors the concurrency range, so
    # any knee inside it is unreliable. Steer by where the latency
    # lives instead: healthy processing means the gate itself is the
    # bottleneck — explore upward; processing past the threshold means
    # over-admission is melting the service — shed.
    growth = growth_can_help() if saturated and in_force else None
    if growth is not None:
        if growth:
            new = min(max_allocation, max(
                current + 1, math.ceil(current * GROWTH_FACTOR)))
        else:
            new = max(min_allocation,
                      math.ceil(current * MAX_SHRINK_FACTOR))
        if new != current:
            return verdict("applied", "saturation-grow" if growth
                           else "overload-shed", new, growth=growth)
        return verdict("hold", "saturation-capped" if growth
                       else "overload-floor", current, growth=growth)

    evidence = estimate()
    if evidence is None:
        return verdict("hold", "no-estimate", current)
    max_q = evidence.max_concurrency
    new = evidence.optimal_concurrency
    reason: str = evidence.method
    if in_force and max_q > 0 and new >= 0.9 * max_q:
        # The optimum sits at the edge of the observed range: censored
        # data. If the pool was the ceiling the optimum lies beyond it —
        # explore upward if growth can help, else shed; if demand never
        # filled the pool, the window proves nothing — hold.
        if max_q < 0.9 * current:
            return verdict("hold", "edge-unpressed-hold", current,
                           evidence)
        growth = growth_can_help()
        if growth:
            new = max(current + 1, math.ceil(current * GROWTH_FACTOR))
            reason = "edge-grow"
        elif growth is not None:
            new = math.ceil(current * MAX_SHRINK_FACTOR)
            reason = "edge-shrink"
    if in_force and new < current:
        new = max(new, math.ceil(current * MAX_SHRINK_FACTOR))
    new = max(min_allocation, min(max_allocation, new))
    if (in_force and new < current
            and max_q < PRESSURE_FRACTION * current):
        # The pool never filled: the window cannot justify a shrink.
        return verdict("hold", "idle-hold", current, evidence)
    if new == current:
        return verdict("hold", "unchanged", current, evidence)
    return verdict("applied", reason, new, evidence)


def action_method(verdict: TargetDecision) -> str:
    """How a verdict was reached: the estimate method ("knee" /
    "argmax"), else its saturation rule ("saturation" /
    "overload-shed")."""
    if verdict.method is not None:
        return verdict.method
    return _RULE_METHODS[verdict.reason]
