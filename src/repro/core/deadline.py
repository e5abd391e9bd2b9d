"""RT Threshold Propagation (SCG phase 2, paper §3.2).

Deadline propagation lets a local service perceive the global SLA: for
critical service :math:`s_i` at depth :math:`i` of the critical path,

.. math:: RTT_{s_i} \\le SLA - \\sum_{k=0}^{i-1} PT_{s_k}

— the global SLA minus the processing time (request + response, i.e.
downstream-excluded self time) of every upstream service on the path.
The upstream budget is measured from the traces in the analysis window,
so the propagated threshold tracks runtime conditions.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.tracing.critical_path import extract_critical_path
from repro.tracing.span import Span


@dataclass(frozen=True)
class PropagatedDeadline:
    """A propagated response-time threshold for one service.

    Attributes:
        service: the critical service.
        sla: global end-to-end SLA (seconds).
        upstream_budget: measured mean upstream processing time.
        threshold: the resulting local RT threshold.
        samples: traces that contributed (service was on their critical
            path).
    """

    service: str
    sla: float
    upstream_budget: float
    threshold: float
    samples: int


def propagate_for_trace(root: Span, service: str,
                        sla: float) -> float | None:
    """Propagated threshold for ``service`` from one trace, or ``None``
    if the service is not on the trace's critical path."""
    path = extract_critical_path(root)
    if service not in path:
        return None
    upstream = path.upstream_of(service)
    budget = sum(span.self_time() for span in upstream)
    return sla - budget


class DeadlinePropagator:
    """Window-level deadline propagation.

    Args:
        sla: end-to-end SLA in seconds.
        floor_fraction: the local threshold never drops below
            ``floor_fraction * sla`` — upstream congestion must not
            starve the critical service's budget entirely.
    """

    def __init__(self, sla: float, floor_fraction: float = 0.1) -> None:
        if sla <= 0:
            raise ValueError(f"sla must be positive, got {sla}")
        if not 0.0 <= floor_fraction < 1.0:
            raise ValueError(
                f"floor_fraction must be in [0, 1), got {floor_fraction}")
        self.sla = sla
        self.floor_fraction = floor_fraction

    def propagate(self, traces: _t.Sequence[Span],
                  service: str) -> PropagatedDeadline:
        """Mean-upstream-budget propagation over a trace window."""
        values = (propagate_for_trace(root, service, self.sla)
                  for root in traces)
        return self.deadline(
            service, [value for value in values if value is not None])

    def deadline(self, service: str,
                 thresholds: _t.Sequence[float]) -> PropagatedDeadline:
        """Window deadline from per-trace thresholds (``sla - upstream
        budget`` of each trace whose critical path crossed ``service``):
        their mean, clamped to ``[floor_fraction * sla, sla]``; the full
        SLA without any (a service with no observed upstreams keeps the
        whole budget)."""
        if not thresholds:
            return PropagatedDeadline(
                service=service, sla=self.sla, upstream_budget=0.0,
                threshold=self.sla, samples=0)
        mean_threshold = float(np.mean(thresholds))
        floor = self.sla * self.floor_fraction
        clamped = min(self.sla, max(floor, mean_threshold))
        return PropagatedDeadline(
            service=service, sla=self.sla,
            upstream_budget=self.sla - mean_threshold,
            threshold=clamped, samples=len(thresholds))
