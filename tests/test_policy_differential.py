"""Differential test: the embedded controller and the online service
reach the same verdict from the same evidence.

Each case is one window — ``<Q, GP>`` pairs, the allocation in force,
and the gated service's post-admission processing times. The embedded
side gets it through a fake estimator and target handed to
:meth:`ConcurrencyAdaptationFramework._adapt`; the service side gets it
over its ingest API as OpenMetrics scrapes and Jaeger spans. Both must
emit the same decision record (up to the trigger label and the fitted
curve, which only the embedded loop records) on every branch the
service can reach.

Where the service lacks evidence the embedded loop always has — no
trace crossed the pool, or no allocation was scraped — the rules that
need it stand down and the service applies the clamped estimate;
those windows are checked against the scatter model directly.
"""

import types

import numpy as np
import pytest

from repro.core import FrameworkConfig, SoraController
from repro.core.deadline import DeadlinePropagator
from repro.core.scg import ScatterModelConfig, SCGModel
from repro.service import (
    ControlPlane,
    ServiceConfig,
    parse_trace_batch,
    render_snapshot,
)
from repro.tracing.export import export_traces
from repro.tracing.span import Span

SLA = 0.4
MIN_ALLOCATION, MAX_ALLOCATION = 2, 32
SCATTER = ScatterModelConfig(min_samples=30, min_distinct=5, quantum=1.0)
FAST, SLOW = 0.05, 0.6  # processing times under / over the threshold


def rising(q):  # argmax at the edge of the observed range
    return 30.0 * q


def knee(q):  # knee near Q = 5
    return 100.0 * q / (1.0 + (q / 5.0) ** 4) ** 0.25


def plateau(q):  # flat, then falling: no knee, interior argmax
    return 100.0 if q < 8 else 100.0 - 10.0 * (q - 8)


CASES = [
    # reason, levels, curve, allocation, processing (None = no traces)
    ("saturation-grow", [8, 8, 8, 8, 3, 5], knee, 8, FAST),
    ("saturation-capped", [32, 32, 31, 30, 6, 7], knee, 32, FAST),
    ("overload-shed", [8, 8, 8, 8, 3, 5], knee, 8, SLOW),
    ("overload-floor", [2, 2, 2, 1], knee, 2, SLOW),
    ("no-estimate", [1, 2, 3, 4, 5], knee, 20, FAST),
    ("edge-unpressed-hold", list(range(1, 11)), rising, 16, FAST),
    ("edge-grow", list(range(1, 11)), rising, 11, FAST),
    ("edge-shrink", list(range(1, 11)), rising, 11, SLOW),
    ("idle-hold", list(range(1, 13)), knee, 30, FAST),
    ("idle-hold", list(range(1, 13)), knee, 30, None),
    ("unchanged", [1, 2, 3, 4] * 2 + list(range(1, 13)), knee, 5, FAST),
    ("knee", list(range(1, 13)), knee, 12, FAST),
    ("knee", list(range(1, 13)), knee, 12, None),
    ("argmax", list(range(1, 15)), plateau, 14, FAST),
]


def window(levels, curve, samples):
    """``<Q, GP>`` pairs, with goodput at the precision a scrape carries
    (10 significant digits), so both sides see the same floats."""
    concurrency = np.array([levels[i % len(levels)]
                            for i in range(samples)], dtype=float)
    return concurrency, np.array([float(f"{curve(q):.10g}")
                                  for q in concurrency])


def traces(processing):
    """Jaeger batch of front-end -> cart traces; cart's post-admission
    time is ``processing``."""
    roots = []
    for index in range(10):
        arrival = 0.5 * index
        root = Span(trace_id=index + 1, service="front-end",
                    operation="request", arrival=arrival)
        root.started = arrival
        cart = Span(trace_id=index + 1, service="cart", operation="cart",
                    arrival=arrival + 0.01, parent=root)
        cart.started = cart.arrival + 0.002
        cart.departure = cart.started + processing + 0.001 * index
        root.departure = cart.departure + 0.01
        roots.append(root)
    return export_traces(roots)


def service_round(concurrency, rate, allocation, batch):
    """The service's decision and recommendation (``None`` without
    one) for the window."""
    plane = ControlPlane(ServiceConfig(
        sla=SLA, decide_top_k=0, exclude=(),
        min_allocation=MIN_ALLOCATION, max_allocation=MAX_ALLOCATION,
        scatter=SCATTER))
    for index, (q, gp) in enumerate(zip(concurrency, rate)):
        plane.ingest_metrics(render_snapshot(
            float(index + 1), {"cart": 0.9}, {"cart": float(q)},
            {"cart": float(gp)},
            {"cart": allocation} if allocation is not None else None))
    if batch is not None:
        plane.ingest_traces(batch)
    (decision,) = plane.tick(now=float(len(concurrency) + 1)).decisions
    return decision, plane.recommendations.get("cart")


def embedded_adapt(concurrency, rate, allocation, batch):
    """The embedded adapter's decision and actuation method (``None``
    for a hold) for the window."""
    roots = parse_trace_batch(batch) if batch is not None else []
    processing = np.array([
        child.departure - child.started
        for root in roots for child in root.children])
    applied = []
    target = types.SimpleNamespace(
        name="cart", service=types.SimpleNamespace(name="cart"),
        allocation=lambda: allocation, apply=applied.append,
        concurrency_integral=lambda: 0.0,
        completion_latencies=lambda since, until: np.array([]),
        processing_latencies=lambda since, until: processing)
    controller = SoraController(
        types.SimpleNamespace(now=0.0), None, None, [target], sla=SLA,
        config=FrameworkConfig(min_allocation=MIN_ALLOCATION,
                               max_allocation=MAX_ALLOCATION))
    threshold = DeadlinePropagator(SLA).propagate(roots, "cart").threshold
    controller._thresholds["cart"] = threshold
    model = SCGModel(SCATTER)
    controller.estimators["cart"] = types.SimpleNamespace(
        config=types.SimpleNamespace(window=120.0),
        model=model,
        sampler=types.SimpleNamespace(
            pairs=lambda since: (concurrency, rate)),
        estimate_now=lambda: model.estimate(concurrency, rate,
                                            threshold=threshold))
    decision = controller._adapt(target, "periodic")
    if decision.outcome != "applied":
        assert applied == [] and controller.actions == []
        return decision, None
    assert applied == [decision.after]
    return decision, controller.actions[-1].method


@pytest.mark.parametrize(
    "reason, levels, curve, allocation, processing", CASES,
    ids=[f"{case[0]}-{index}" for index, case in enumerate(CASES)])
def test_embedded_and_service_agree(reason, levels, curve, allocation,
                                    processing):
    samples = 10 if reason == "no-estimate" else 40
    concurrency, rate = window(levels, curve, samples)
    batch = traces(processing) if processing is not None else None
    embedded, method = embedded_adapt(concurrency, rate, allocation, batch)
    served, recommendation = service_round(concurrency, rate, allocation,
                                           batch)
    assert embedded.reason == reason
    assert (served.outcome, served.reason, served.before,
            served.after) == (embedded.outcome, embedded.reason,
                              embedded.before, embedded.after)
    recorded = embedded.to_dict()
    recorded.pop("curve", None)
    assert {**served.to_dict(), "trigger": None} == {**recorded,
                                                     "trigger": None}
    # A recommendation exists once the policy had evidence; an applied
    # one names the method the embedded loop actuated with.
    assert (recommendation is None) == (reason == "no-estimate")
    if method is not None:
        assert recommendation.method == method
        assert recommendation.allocation == embedded.after


MISSING_EVIDENCE = [
    # levels, curve, allocation (None = not scraped), processing
    ([8] * 6 + [3, 4, 5, 6, 7], knee, 8, None),  # pinned, metrics only
    (list(range(1, 11)), rising, 11, None),      # edge, metrics only
    ([8] * 6 + [3, 4, 5, 6, 7], knee, None, FAST),  # pinned, no allocation
    (list(range(1, 13)), knee, None, None),      # no allocation, no traces
]


@pytest.mark.parametrize(
    "levels, curve, allocation, processing", MISSING_EVIDENCE,
    ids=["pinned-metrics-only", "edge-metrics-only",
         "pinned-no-allocation", "no-allocation-metrics-only"])
def test_service_without_evidence_applies_the_estimate(levels, curve,
                                                       allocation,
                                                       processing):
    concurrency, rate = window(levels, curve, 40)
    batch = traces(processing) if processing is not None else None
    served, recommendation = service_round(concurrency, rate, allocation,
                                           batch)
    roots = parse_trace_batch(batch) if batch is not None else []
    threshold = DeadlinePropagator(SLA).propagate(roots, "cart").threshold
    estimate = SCGModel(SCATTER).estimate(concurrency, rate,
                                          threshold=threshold)
    expected = max(MIN_ALLOCATION,
                   min(MAX_ALLOCATION, estimate.optimal_concurrency))
    before = allocation if allocation is not None else MIN_ALLOCATION
    assert (served.reason, served.before, served.after) == (
        estimate.method, before, expected)
    assert served.outcome == ("applied" if expected != before else "hold")
    assert served.growth_can_help is None
    assert recommendation.allocation == expected
