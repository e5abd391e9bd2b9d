"""Application layer: the online localization → propagation → SCG loop.

:class:`ControlPlane` is the long-lived, transport-free core of the
service. Adapters feed it validated snapshots and trace batches; on
each control round it re-runs the paper's pipeline over its streaming
state:

1. **Localization** — utilization screening plus the streaming-Pearson
   critical-path aggregator
   (:meth:`~repro.core.localization.CriticalServiceLocator.
   locate_from_aggregate`), so the signal survives bounded memory and
   arbitrary trace sampling upstream.
2. **Deadline propagation** — per-trace upstream budgets are folded at
   ingest time into a bounded window, so the per-round threshold is a
   cheap mean even with thousands of candidate services.
3. **Decision** — the Sora policy the embedded controller also runs
   (:func:`repro.core.policy.decide`) over each decided service's
   windowed ``<Q, GP>`` pairs.

Every round appends a :class:`~repro.obs.events.ControlRoundRecord` to
the decision log. ``wall_ms`` is deliberately left unset on these
records: the audit trail must replay byte-identically from the journal,
and wall clocks do not replay. Wall latencies instead feed the
service's *own* observability — a P² sketch and registry histogram of
per-recommendation latency plus an SLO monitor with a burn-rate budget
on the controller itself — exported through the existing OpenMetrics
path.

Determinism contract: given the same sequence of
``ingest_metrics`` / ``ingest_traces`` / ``tick`` calls (with the
times the journal recorded), a fresh plane reproduces the decision
JSONL byte-for-byte.
"""

from __future__ import annotations

import time as _time
import typing as _t
from collections import deque

import numpy as np

from repro.core import policy
from repro.core.deadline import DeadlinePropagator
from repro.core.localization import CriticalServiceLocator
from repro.core.scg import SCGModel
from repro.obs import (
    ControlRoundRecord,
    Observability,
    QuantileSketch,
    SLOMonitor,
    SLOSpec,
    TargetDecision,
    render_openmetrics,
    render_text,
)
from repro.service.domain import (
    IngestError,
    Recommendation,
    SeriesState,
    ServiceConfig,
)
from repro.service.flight import FlightRecorder
from repro.service.ingest import parse_metrics_snapshot, parse_trace_batch
from repro.tracing.analytics import CriticalPathAggregator
from repro.tracing.critical_path import extract_critical_path

__all__ = ["ControlPlane"]

#: Name stamped on every control round the service emits.
CONTROLLER_NAME = "service"


class ControlPlane:
    """Transport-free online controller over streaming telemetry.

    Args:
        config: pipeline tuning (see
            :class:`~repro.service.domain.ServiceConfig`).
        max_records: decision-log ring capacity.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 max_records: int = 4096) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.max_records = max_records
        #: Self-tracing flight recorder (falsy when
        #: ``cfg.flight_rounds == 0`` — every hook below degrades to a
        #: single truthiness check).
        self.flight = FlightRecorder(cfg.flight_rounds)
        #: Decision JSONL lines carried over from a journal checkpoint;
        #: merged (and ring-truncated) into :meth:`decisions_jsonl`.
        self._restored_decisions: list[str] = []
        self.locator = CriticalServiceLocator(
            utilization_threshold=cfg.utilization_threshold,
            exclude=cfg.exclude)
        self.model = SCGModel(cfg.scatter)
        self.propagator = DeadlinePropagator(cfg.sla, cfg.floor_fraction)
        self.analytics = CriticalPathAggregator()
        self.obs = Observability(max_records=max_records)
        self.obs.slo = SLOMonitor(SLOSpec(
            name="service-recommendation",
            latency_threshold=cfg.latency_slo))
        # Expose ingested-trace aggregates through the same OpenMetrics
        # families a simulator run exports (repro_trace_*), exemplars
        # included.
        self.obs.trace_analytics = self.analytics
        self.analytics.latency_histogram = (
            self.obs.registry.histogram("trace.latency"))
        #: Per-recommendation wall latency in seconds (P50/P99).
        self.latency = QuantileSketch((0.5, 0.99))

        self._series: dict[str, SeriesState] = {}
        #: Per-trace ``service -> upstream self-time budget`` and
        #: ``service -> post-admission processing time`` on the critical
        #: path, folded at ingest so a round reads its deadline and
        #: growth evidence here instead of re-walking every trace.
        self._budgets: deque[tuple[dict[str, float], dict[str, float]]] \
            = deque(maxlen=cfg.trace_window)
        self.recommendations: dict[str, Recommendation] = {}
        #: Logical clock: advanced by snapshot timestamps, trace
        #: departures, and control rounds — never by the wall clock.
        self.now = 0.0
        self.rounds = 0
        self.snapshots_ingested = 0
        self.traces_ingested = 0
        self.decisions_made = 0
        self._pending = 0
        self._wall_total = 0.0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Accepted snapshots queued since the last control round."""
        return self._pending

    def ingest_metrics(self, text: str) -> dict:
        """Fold one OpenMetrics snapshot into the per-service state.

        The snapshot is validated in full before any state mutates, so
        a rejection leaves the plane (and therefore the journal/replay
        contract) untouched.

        Raises:
            IngestError: validation failures (propagated from the
                adapter), ``"backpressure"`` when more than
                ``max_pending`` snapshots queued since the last round,
                ``"series-limit"`` when the snapshot would create more
                tracked services than ``max_series`` allows,
                ``"stale-snapshot"`` when the snapshot's time precedes
                a sample already observed for one of its series (the
                per-series clocks must be non-decreasing).
        """
        cfg = self.config
        flight = self.flight
        flight_started = flight.clock() if flight else 0.0
        if self._pending >= cfg.max_pending:
            self.obs.registry.counter("service.rejected").inc()
            raise IngestError(
                "backpressure",
                f"{self._pending} snapshots already queued since the "
                f"last control round (max_pending={cfg.max_pending}); "
                f"retry after the next round")
        snapshot = parse_metrics_snapshot(text, cfg)
        fresh = [name for name in snapshot.series
                 if name not in self._series]
        if len(self._series) + len(fresh) > cfg.max_series:
            self.obs.registry.counter("service.rejected").inc()
            raise IngestError(
                "series-limit",
                f"snapshot would track {len(self._series) + len(fresh)}"
                f" services (max_series={cfg.max_series})")
        now = (snapshot.time if snapshot.time is not None
               else self.now + 1.0)
        # Reject time regressions *before* mutating anything: a partial
        # apply would journal nothing yet leave live state diverged
        # from the journal, breaking replay byte-identity.
        stale = sorted(
            name for name, sample in snapshot.series.items()
            if not (np.isnan(sample.concurrency)
                    or np.isnan(sample.rate))
            and name in self._series
            and self._series[name].snapshots > 0
            and now < self._series[name].updated)
        if stale:
            self.obs.registry.counter("service.rejected").inc()
            latest = max(self._series[name].updated for name in stale)
            raise IngestError(
                "stale-snapshot",
                f"snapshot time {now} precedes already-observed "
                f"samples (latest {latest}) for: {', '.join(stale)}")
        self.now = max(self.now, now)
        for name, sample in snapshot.series.items():
            state = self._series.get(name)
            if state is None:
                state = self._series[name] = SeriesState(name)
            if np.isnan(sample.concurrency) or np.isnan(sample.rate):
                # Utilization-only enrichment: no pair to append.
                if sample.utilization is not None:
                    state.utilization = float(sample.utilization)
                continue
            state.observe(now, sample.concurrency, sample.rate,
                          sample.utilization, sample.allocation)
        self._pending += 1
        self.snapshots_ingested += 1
        if flight:
            flight.note_ingest("metrics", flight_started)
        self.obs.registry.counter("service.snapshots").inc()
        self.obs.registry.gauge("service.series").set(
            float(len(self._series)))
        return {"accepted": True, "time": now,
                "series": sorted(snapshot.series),
                "pending": self._pending}

    def ingest_traces(self, body: str | bytes) -> dict:
        """Fold one Jaeger-shaped trace batch into the aggregates."""
        flight = self.flight
        flight_started = flight.clock() if flight else 0.0
        roots = parse_trace_batch(body)
        for root in roots:
            self.analytics.observe(root)
            path = extract_critical_path(root)
            budgets: dict[str, float] = {}
            processing: dict[str, float] = {}
            upstream = 0.0
            for span in path.spans:
                budgets[span.service] = upstream
                processing[span.service] = (
                    _t.cast(float, span.departure)
                    - _t.cast(float, span.started))
                upstream += span.self_time()
            self._budgets.append((budgets, processing))
            self.now = max(self.now, _t.cast(float, root.departure))
        self.traces_ingested += len(roots)
        if flight:
            flight.note_ingest("traces", flight_started)
        self.obs.registry.counter("service.traces").inc(len(roots))
        return {"accepted": True, "traces": len(roots),
                "observed": self.analytics.traces_observed}

    # ------------------------------------------------------------------
    # Control rounds
    # ------------------------------------------------------------------
    def _threshold(self, service: str) -> float:
        """Propagated RT threshold (:meth:`DeadlinePropagator.deadline`
        over the window traces whose critical path crossed ``service``)."""
        sla = self.config.sla
        return self.propagator.deadline(service, [
            sla - budgets[service] for budgets, _processing in self._budgets
            if service in budgets]).threshold

    def _growth_can_help(self, service: str,
                         threshold: float) -> bool | None:
        """The policy's growth gate over ``service``'s post-admission
        time on the window's critical paths (``None`` when no window
        trace crossed it)."""
        processing = [entry[service] for _budgets, entry in self._budgets
                      if service in entry]
        if not processing:
            return None
        return policy.p90_within(np.array(processing), threshold)

    def _decide(self, service: str, now: float,
                threshold: float) -> TargetDecision:
        """Run the shared policy on one service and record the verdict."""
        cfg = self.config
        state = self._series[service]
        flight = self.flight
        est_started = flight.clock() if flight else 0.0
        started = _time.perf_counter()
        concurrency, rate = state.pairs(now - cfg.window)
        previous = self.recommendations.get(service)
        before = (state.allocation if state.allocation is not None
                  else previous.allocation if previous is not None
                  else cfg.min_allocation)
        # Rules stand down without their evidence: a series with no
        # scraped allocation has no pool to judge the window against,
        # and one no ingested trace crossed has no processing times.
        decision = policy.decide(
            service, "round", before,
            saturated=policy.saturated(concurrency, before,
                                       cfg.scatter.min_samples),
            estimate=lambda: self.model.estimate(concurrency, rate,
                                                 threshold=threshold),
            growth_can_help=lambda: self._growth_can_help(service,
                                                          threshold),
            min_allocation=cfg.min_allocation,
            max_allocation=cfg.max_allocation,
            threshold=threshold, in_force=state.allocation is not None)
        if decision.reason != "no-estimate":
            self.recommendations[service] = Recommendation(
                decision, self.rounds + 1, now)
            self.obs.timeline.record(f"rec.{service}", now,
                                     float(decision.after))
        wall = _time.perf_counter() - started
        self._wall_total += wall
        if flight:
            flight.note_estimate(service, est_started, flight.clock())
        self.latency.observe(wall)
        histogram = self.obs.registry.histogram(
            "service.recommendation.latency")
        histogram.observe(wall)
        # Exemplar: pin the slowest recommendation to the self-trace
        # of the round that produced it, so the `/metrics` scrape links
        # straight into `/debug/rounds/{id}`.
        histogram.link_exemplar(self.rounds + 1, wall, now)
        assert self.obs.slo is not None
        self.obs.slo.observe(now, wall)
        return decision

    def tick(self, now: float | None = None,
             trigger: str = "cadence") -> ControlRoundRecord:
        """Run one control round at logical time ``now``.

        When ``now`` is omitted the round runs at the current logical
        clock. The resolved time is stamped on the returned record —
        journal it, and replay becomes exact.
        """
        cfg = self.config
        if now is None:
            now = self.now
        self.now = max(self.now, now)
        flight = self.flight
        mark_started = flight.clock() if flight else 0.0
        utilizations = {name: state.utilization
                        for name, state in self._series.items()
                        if state.utilization is not None}
        report = self.locator.locate_from_aggregate(
            self.analytics, utilizations)

        # Only services whose source exports pair telemetry can be
        # estimated; utilization-only series still feed screening and
        # correlations but cannot receive a verdict.
        instrumented = {name for name, state in self._series.items()
                        if state.snapshots > 0}
        if cfg.decide_top_k == 0:
            decided = sorted(instrumented)
        else:
            ranked = sorted(
                (name for name in report.correlations
                 if name in instrumented),
                key=lambda name: -report.correlations[name])
            decided = []
            if report.critical_service in instrumented:
                decided.append(
                    _t.cast(str, report.critical_service))
            for name in ranked:
                if len(decided) >= cfg.decide_top_k:
                    break
                if name not in decided:
                    decided.append(name)
        mark_localized = flight.clock() if flight else 0.0

        thresholds = {name: self._threshold(name) for name in decided}
        mark_propagated = flight.clock() if flight else 0.0
        decisions = tuple(self._decide(name, now, thresholds[name])
                          for name in decided)
        mark_decided = flight.clock() if flight else 0.0
        record = ControlRoundRecord(
            time=now, controller=CONTROLLER_NAME, trigger=trigger,
            critical_service=report.critical_service,
            dominant_path=report.dominant_path,
            correlations=report.correlations,
            candidates=report.candidates,
            thresholds=thresholds,
            decisions=decisions,
            traces=self.analytics.traces_observed)
        self.obs.record(record)
        self.rounds += 1
        self.decisions_made += len(decisions)
        self._pending = 0
        for state in self._series.values():
            state.prune(now - 2.0 * cfg.window)
        registry = self.obs.registry
        registry.counter("service.rounds").inc()
        registry.counter("service.decisions").inc(len(decisions))
        registry.gauge("service.pending").set(0.0)
        if self.latency.count:
            registry.gauge("service.recommendation.p50.seconds").set(
                self.latency.quantile(0.5))
            registry.gauge("service.recommendation.p99.seconds").set(
                self.latency.quantile(0.99))
        if self._wall_total > 0.0:
            registry.gauge("service.decisions.per.second").set(
                self.decisions_made / self._wall_total)
        self.obs.timeline.record("service.series", now,
                                 float(len(self._series)))
        if flight:
            flight.record_round(
                round_index=self.rounds, time=now, trigger=trigger,
                critical_service=report.critical_service,
                decisions=[decision.target for decision in decisions],
                started=mark_started, localized=mark_localized,
                propagated=mark_propagated, decided=mark_decided)
            registry.gauge("service.flight.rounds").set(
                float(len(flight)))
        return record

    # ------------------------------------------------------------------
    # Checkpoint / restore (journal compaction)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Exact decision-relevant state, JSON-ready.

        Captures everything the next ``tick`` reads when producing a
        decision record: per-series pair windows, the deadline budget
        window and its processing-time evidence (``processing``, new in
        version 2), current recommendations (the ``before`` baseline),
        counters, the logical clock, and the critical-path aggregator
        (correlations + top-k paths + sketches). Wall-clock artifacts
        (latency sketches, the SLO monitor, the flight recorder) are
        deliberately excluded — they never reach decision records, so
        a restored plane replays the journal tail byte-identically
        without them.
        """
        return {
            "version": 2,
            "now": self.now,
            "rounds": self.rounds,
            "snapshots_ingested": self.snapshots_ingested,
            "traces_ingested": self.traces_ingested,
            "decisions_made": self.decisions_made,
            "pending": self._pending,
            "series": {name: state.state_dict()
                       for name, state in sorted(self._series.items())},
            "budgets": [dict(budgets) for budgets, _ in self._budgets],
            "processing": [dict(processing)
                           for _, processing in self._budgets],
            "recommendations": {
                name: rec.state_dict()
                for name, rec in sorted(self.recommendations.items())},
            "analytics": self.analytics.state_dict(),
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint` (call on a fresh plane). A
        version-1 state predates the processing-time evidence and
        restores without any."""
        version = state.get("version")
        if version not in (1, 2):
            raise ValueError(
                f"unsupported checkpoint version {version!r}")
        cfg = self.config
        self.now = float(state["now"])
        self.rounds = int(state["rounds"])
        self.snapshots_ingested = int(state["snapshots_ingested"])
        self.traces_ingested = int(state["traces_ingested"])
        self.decisions_made = int(state["decisions_made"])
        self._pending = int(state["pending"])
        self._series = {
            name: SeriesState.from_state(name, series_state)
            for name, series_state in state["series"].items()}
        processing = state.get("processing") or [{} for _ in state["budgets"]]
        self._budgets = deque(zip(state["budgets"], processing),
                              maxlen=cfg.trace_window)
        self.recommendations = {
            name: Recommendation.from_state(payload)
            for name, payload in state["recommendations"].items()}
        self.analytics.load_state(state["analytics"])

    def seed_decisions(self, lines: _t.Sequence[str]) -> None:
        """Install decision JSONL lines preserved by a checkpoint.

        The lines prepend the live ring in :meth:`decisions_jsonl`;
        the merged trail is truncated to the last ``max_records``
        lines, matching the ring a never-compacted plane would hold.
        """
        self._restored_decisions = [line for line in lines if line]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def recommendation_dicts(self) -> dict[str, dict]:
        """All current recommendations, JSON-ready, keyed by service."""
        return {name: rec.to_dict()
                for name, rec in sorted(self.recommendations.items())}

    def status(self) -> dict:
        """JSON-ready operational summary (the ``/status`` body)."""
        latency: dict[str, _t.Any] = {"count": self.latency.count}
        if self.latency.count:
            latency.update(
                p50_ms=round(self.latency.quantile(0.5) * 1e3, 3),
                p99_ms=round(self.latency.quantile(0.99) * 1e3, 3),
                mean_ms=round(self.latency.mean * 1e3, 3))
        slo = self.obs.slo
        assert slo is not None
        return {
            "controller": CONTROLLER_NAME,
            "now": self.now,
            "rounds": self.rounds,
            "snapshots": self.snapshots_ingested,
            "traces": self.traces_ingested,
            "series": len(self._series),
            "pending": self._pending,
            "decisions": self.decisions_made,
            "recommendations": len(self.recommendations),
            "recommendation_latency": latency,
            "decisions_per_sec": (
                round(self.decisions_made / self._wall_total, 3)
                if self._wall_total > 0 else None),
            "slo": {
                "name": slo.spec.name,
                "latency_threshold": slo.spec.latency_threshold,
                "objective": slo.spec.objective,
                "compliance": round(slo.compliance(), 6),
                "observed": slo.total,
            },
        }

    def report(self) -> str:
        """Explainability report over the decision log (text)."""
        return render_text(self.obs, title="sora-service")

    def openmetrics(self) -> str:
        """The service's own state as an OpenMetrics exposition."""
        return render_openmetrics(self.obs, now=self.now)

    def decisions_jsonl(self) -> str:
        """The decision trail as JSONL (the persisted audit artifact).

        Checkpoint-restored lines come first, then the live ring; the
        merge keeps only the last ``max_records`` lines so a compacted
        replay matches what an uncompacted plane would have persisted.
        """
        lines = list(self._restored_decisions)
        text = self.obs.decisions.to_jsonl()
        if text:
            lines.extend(text.split("\n"))
        lines = lines[-self.max_records:] if self.max_records else lines
        return "\n".join(lines) + "\n" if lines else ""
