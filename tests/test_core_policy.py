"""The shared Sora decision policy, against tiny doubles.

:func:`repro.core.policy.decide` is pure, so every rule is checked in
milliseconds from hand-built evidence — no environment, sampler or
target. One table row per verdict reason, plus the max-shrink cap, the
allocation bounds, and the laziness contract (a saturated window never
runs the model; the growth gate is read only where a rule needs it).
"""

import types

import numpy as np
import pytest

from repro.core import policy

MIN, MAX = 2, 64


def estimate(optimal: int, max_q: float, method: str = "knee"):
    """A duck-typed :class:`~repro.core.scg.ConcurrencyEstimate`."""
    grid = np.linspace(1.0, max_q, 8)
    return types.SimpleNamespace(
        optimal_concurrency=optimal, max_concurrency=max_q,
        method=method, samples=40, fit_r2=0.98765,
        fit=types.SimpleNamespace(degree=3, x=grid, y=grid * 2.0),
        knee=types.SimpleNamespace(found=method == "knee",
                                   knee_x=float(optimal),
                                   knee_y=2.0 * optimal,
                                   prominence=0.31234))


def never():
    raise AssertionError("evidence read on a branch that must not")


def verdict(current, *, saturated=False, growth=None, evidence=None):
    """Run the policy; ``growth=None`` / ``evidence=None`` mean the
    branch must not read that evidence."""
    return policy.decide(
        "pool", "periodic", current, saturated=saturated,
        estimate=never if evidence is None else (lambda: evidence),
        growth_can_help=never if growth is None else (lambda: growth),
        min_allocation=MIN, max_allocation=MAX, threshold=0.3,
        curve_points=4)


ROWS = [
    # id, current, saturated, growth, estimate, outcome, reason, after
    ("saturation-grow", 8, True, True, None,
     "applied", "saturation-grow", 12),
    ("saturation-grow-clamped", 50, True, True, None,
     "applied", "saturation-grow", MAX),
    ("saturation-capped", MAX, True, True, None,
     "hold", "saturation-capped", MAX),
    ("overload-shed", 8, True, False, None,
     "applied", "overload-shed", 2),
    ("overload-floor", MIN, True, False, None,
     "hold", "overload-floor", MIN),
    ("edge-unpressed-hold", 20, False, None, estimate(9, 10.0),
     "hold", "edge-unpressed-hold", 20),
    ("edge-grow", 10, False, True, estimate(10, 10.0),
     "applied", "edge-grow", 15),
    ("edge-shrink", 10, False, False, estimate(10, 10.0),
     "applied", "edge-shrink", 3),
    ("idle-hold", 20, False, None, estimate(4, 10.0),
     "hold", "idle-hold", 20),
    ("unchanged", 8, False, None, estimate(8, 20.0),
     "hold", "unchanged", 8),
    ("knee", 8, False, None, estimate(5, 20.0),
     "applied", "knee", 5),
    ("argmax", 8, False, None, estimate(12, 20.0, "argmax"),
     "applied", "argmax", 12),
    ("max-shrink-cap", 40, False, None, estimate(3, 39.0),
     "applied", "knee", 10),
    ("max-clamp", 40, False, None, estimate(100, 200.0),
     "applied", "knee", MAX),
    ("min-clamp", 4, False, None, estimate(1, 20.0),
     "applied", "knee", MIN),
]


@pytest.mark.parametrize(
    "current, saturated, growth, evidence, outcome, reason, after",
    [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_verdict_table(current, saturated, growth, evidence, outcome,
                       reason, after):
    decision = verdict(current, saturated=saturated, growth=growth,
                       evidence=evidence)
    assert (decision.outcome, decision.reason, decision.before,
            decision.after) == (outcome, reason, current, after)
    assert decision.target == "pool" and decision.trigger == "periodic"
    if saturated:
        assert decision.growth_can_help is growth
        assert decision.method is None and decision.samples is None
    else:
        assert decision.method == evidence.method
        assert decision.samples == 40


MISSING_EVIDENCE = [
    # id, current, saturated, in_force, estimate, after
    ("saturated-without-processing", 8, True, True, estimate(5, 8.0), 5),
    ("edge-without-processing", 8, False, True, estimate(10, 10.0), 10),
    ("saturated-without-allocation", 8, True, False, estimate(5, 8.0), 5),
    ("edge-without-allocation", 20, False, False, estimate(9, 10.0), 9),
    ("idle-without-allocation", 20, False, False, estimate(4, 10.0), 4),
    ("uncapped-without-allocation", 40, False, False,
     estimate(3, 39.0), 3),
]


@pytest.mark.parametrize(
    "current, saturated, in_force, evidence, after",
    [row[1:] for row in MISSING_EVIDENCE],
    ids=[row[0] for row in MISSING_EVIDENCE])
def test_rules_stand_down_without_their_evidence(current, saturated,
                                                 in_force, evidence,
                                                 after):
    """A growth gate with no processing times (``None``) leaves the
    saturation and edge rules out; an allocation not in force leaves
    out every rule that judges the window against it. The estimate
    decides, clamped to the bounds."""
    decision = policy.decide(
        "pool", "periodic", current, saturated=saturated,
        estimate=lambda: evidence,
        growth_can_help=(lambda: None) if in_force else never,
        min_allocation=MIN, max_allocation=MAX, threshold=0.3,
        in_force=in_force)
    assert (decision.outcome, decision.reason, decision.before,
            decision.after) == ("applied", "knee", current, after)
    assert decision.growth_can_help is None


def test_no_estimate_holds():
    decision = policy.decide(
        "pool", "periodic", 8, saturated=False, estimate=lambda: None,
        growth_can_help=never, min_allocation=MIN, max_allocation=MAX,
        threshold=0.3)
    assert (decision.outcome, decision.reason, decision.after) == (
        "hold", "no-estimate", 8)
    assert decision.method is None and decision.samples is None


def test_saturated_window_never_runs_the_model():
    decision = verdict(8, saturated=True, growth=True)  # estimate=never
    assert decision.reason == "saturation-grow"


def test_record_fields():
    applied = verdict(8, evidence=estimate(5, 20.0))
    assert applied.threshold == 0.3
    assert applied.knee_concurrency == 5.0 and applied.knee_rate == 10.0
    assert applied.fit_r2 == 0.9877 and applied.knee_prominence == 0.3123
    assert applied.poly_degree == 3 and applied.max_concurrency == 20.0
    assert applied.curve is not None and len(applied.curve) == 4
    hold = verdict(8, evidence=estimate(8, 20.0))
    assert hold.curve is None  # only applied verdicts carry the curve
    sct = policy.decision("pool", "periodic", "hold", "unchanged", 4, 4,
                          threshold=float("inf"))
    assert sct.threshold is None


@pytest.mark.parametrize("reason, method", [
    ("saturation-grow", "saturation"),
    ("saturation-capped", "saturation"),
    ("overload-shed", "overload-shed"),
    ("overload-floor", "overload-shed"),
])
def test_action_method_of_rule_verdicts(reason, method):
    record = policy.decision("pool", "periodic", "hold", reason, 4, 4,
                             threshold=0.3)
    assert policy.action_method(record) == method


def test_action_method_of_estimate_verdicts():
    decision = verdict(10, growth=True, evidence=estimate(10, 10.0))
    assert decision.reason == "edge-grow"
    assert policy.action_method(decision) == "knee"


@pytest.mark.parametrize("busy, allocation, expected", [
    ([8.0] * 6 + [2.0] * 4, 8, True),      # 60% pinned
    ([8.0] * 4 + [2.0] * 6, 8, False),     # 40% pinned
    ([7.2] * 5 + [1.0] * 5, 8, True),      # 0.9 x allocation counts
    ([8.0] * 4, 8, False),                 # too few busy samples
])
def test_saturated(busy, allocation, expected):
    concurrency = np.array(busy + [0.0] * 20)  # idle samples ignored
    assert policy.saturated(concurrency, allocation, 10) is expected


def test_p90_within():
    processing = np.linspace(0.01, 0.10, 10)
    assert policy.p90_within(processing, 0.2)
    assert not policy.p90_within(processing, 0.05)
    assert not policy.p90_within(np.array([]), 1.0)
