"""Per-layer attribution, measured from outside the program.

The traced runs wrap public entry points of each layer (plus the two
current seams ``ControlPlane._threshold`` and
``ControllerService._persist_decisions``), keep one span per call in
memory, and restore every wrapped attribute afterwards. A target that
no longer exists is reported as an *absent* metric instead of failing
the run, so the benchmark survives refactors that move or merge layers.

Kernel layers (engine, PS-CPU, pools, app handlers, tracing) do their
work in engine callbacks and generator frames that no wrapper around a
public call can see; their ``*.self_share`` numbers come from a
separate profiled pass grouped by module.
"""

from __future__ import annotations

import importlib
import sys
import time
import typing as _t
from dataclasses import dataclass

from perfbench import common

#: The recorded prediction for each per-layer metric of
#: ``BENCHMARK.json`` (which holds the names and units): the
#: end-to-end metric it should move, on which workload, and where it
#: should not move.
PREDICTIONS: dict[str, tuple[str, str, str]] = {
    "sim.events": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "sim.events_per_s": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "sim.self_share": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "resources.cpu.jobs": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "resources.cpu.self_share": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "resources.pool.grants": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "resources.pool.self_share": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "app.requests": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "app.self_share": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "tracing.spans": ("cpu_s, peak_rss_mb", "fig10_sora_firm", "service workloads"),
    "tracing.self_share": ("cpu_s, peak_rss_mb", "fig10_sora_firm", "service workloads"),
    "core.localization.calls": ("cpu_s; round_cpu_ms", "fig10_sora_firm; service_traces", "service_scrape_1k"),
    "core.localization.s": ("cpu_s; round_cpu_ms", "fig10_sora_firm; service_traces", "service_scrape_1k"),
    "core.deadline.s": ("cpu_s", "fig10_sora_firm", "-"),
    "service.deadline.s": ("round_cpu_ms", "service_traces", "-"),
    "core.scg.calls": ("round_cpu_ms, cpu_s", "service_scrape_1k (not gated); service_traces", "fig10_sora_firm"),
    "core.scg.s": ("round_cpu_ms, cpu_s", "service_scrape_1k (not gated); service_traces", "fig10_sora_firm"),
    "analysis.smoothing.fit.calls": ("round_cpu_ms, cpu_s", "service_scrape_1k (not gated); service_traces", "fig10_sora_firm"),
    "analysis.smoothing.fit.s": ("round_cpu_ms, cpu_s", "service_scrape_1k (not gated); service_traces", "fig10_sora_firm"),
    "analysis.kneedle.calls": ("round_cpu_ms, cpu_s", "service_scrape_1k (not gated); service_traces", "fig10_sora_firm"),
    "analysis.kneedle.s": ("round_cpu_ms, cpu_s", "service_scrape_1k (not gated); service_traces", "fig10_sora_firm"),
    "core.sora.rounds": ("cpu_s, round_cpu_ms", "fig10_sora_firm", "service workloads"),
    "core.sora.s": ("cpu_s, round_cpu_ms", "fig10_sora_firm", "service workloads"),
    "autoscalers.firm.rounds": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "autoscalers.firm.s": ("cpu_s", "fig10_sora_firm", "service workloads"),
    "service.control.ingest_metrics.s": ("cpu_s", "service_scrape_1k (not gated); service_traces", "fig10_sora_firm"),
    "service.control.ingest_traces.s": ("ingest_cpu_ms", "service_traces", "fig10_sora_firm"),
    "service.control.tick.s": ("round_cpu_ms", "service workloads", "fig10_sora_firm"),
    "service.decisions": ("round_cpu_ms", "service workloads", "fig10_sora_firm"),
    "service.rejected": ("validity only", "service workloads", "-"),
    "obs.openmetrics.parse.s": ("cpu_s", "service_scrape_1k (not gated); service_traces", "fig10_sora_firm"),
    "obs.openmetrics.render.s": ("metrics_read_p50_ms", "service_scrape_1k (not gated); service_traces", "fig10_sora_firm"),
    "tracing.export.parse.s": ("ingest_cpu_ms", "service_traces", "service_scrape_1k"),
    "tracing.analytics.observe.calls": ("ingest_cpu_ms", "service_traces", "service_scrape_1k"),
    "tracing.analytics.observe.s": ("ingest_cpu_ms", "service_traces", "service_scrape_1k"),
    "tracing.critical_path.s": ("ingest_cpu_ms", "service_traces", "service_scrape_1k"),
    "service.audit.record.calls": ("ingest_cpu_ms, round_cpu_ms, peak_rss_mb", "service_traces", "fig10_sora_firm"),
    "service.audit.record.s": ("ingest_cpu_ms, round_cpu_ms, peak_rss_mb", "service_traces", "fig10_sora_firm"),
    "service.audit.record.bytes": ("peak_rss_mb", "service_traces", "-"),
    "service.audit.persist.s": ("round_cpu_ms", "service_traces", "fig10_sora_firm"),
    "service.wait_p90_ms": ("ingest_ms, read_ms", "service_traces", "-"),
    "loadgen.late_p90_ms": ("validity only", "service workloads", "-"),
    "workload.quiet_share": ("validity only", "service_scrape_1k (not gated)", "-"),
    "bench.trace_overhead_pct": ("validity only", "all", "-"),
    "round_ms": ("latency of round_cpu_ms (not gated: wake-up and steal noise)", "all", "-"),
    "ingest_ms": ("latency of ingest_cpu_ms (not gated: wake-up and steal noise)", "all", "-"),
    "read_ms": ("itself (not gated: too noisy on a shared host)", "all", "-"),
    "wall_s": ("with cpu_s (untraced DES simulation; service replay)", "all", "-"),
    "scrape_p50_ms": ("end-to-end (untraced)", "service workloads", "-"),
    "scrape_p90_ms": ("end-to-end (untraced)", "service workloads", "-"),
    "trace_batch_p50_ms": ("end-to-end (untraced)", "service_traces", "-"),
    "trace_batch_p90_ms": ("end-to-end (untraced)", "service_traces", "-"),
    "metrics_read_p50_ms": ("end-to-end (untraced)", "service workloads", "-"),
    "failed_frac": ("end-to-end (untraced)", "service workloads", "-"),
    "sim_goodput_rps": ("outcome (exact per seed)", "fig10_sora_firm", "-"),
    "sim_p99_ms": ("outcome (exact per seed)", "fig10_sora_firm", "-"),
}

#: Metrics read from wrapper spans: metric -> (span name, field).
SPAN_METRICS: dict[str, tuple[str, str]] = {
    "core.localization.calls": ("core.localization", "calls"),
    "core.localization.s": ("core.localization", "seconds"),
    "core.deadline.s": ("core.deadline", "seconds"),
    "service.deadline.s": ("service.deadline", "seconds"),
    "core.scg.calls": ("core.scg", "calls"),
    "core.scg.s": ("core.scg", "seconds"),
    "analysis.smoothing.fit.calls": ("analysis.smoothing.fit", "calls"),
    "analysis.smoothing.fit.s": ("analysis.smoothing.fit", "seconds"),
    "analysis.kneedle.calls": ("analysis.kneedle", "calls"),
    "analysis.kneedle.s": ("analysis.kneedle", "seconds"),
    "core.sora.rounds": ("core.sora", "calls"),
    "core.sora.s": ("core.sora", "seconds"),
    "autoscalers.firm.rounds": ("autoscalers.firm", "calls"),
    "autoscalers.firm.s": ("autoscalers.firm", "seconds"),
    "service.control.ingest_metrics.s": ("service.control.ingest_metrics", "seconds"),
    "service.control.ingest_traces.s": ("service.control.ingest_traces", "seconds"),
    "service.control.tick.s": ("service.control.tick", "seconds"),
    "obs.openmetrics.parse.s": ("obs.openmetrics.parse", "seconds"),
    "obs.openmetrics.render.s": ("obs.openmetrics.render", "seconds"),
    "tracing.export.parse.s": ("tracing.export.parse", "seconds"),
    "tracing.analytics.observe.calls": ("tracing.analytics.observe", "calls"),
    "tracing.analytics.observe.s": ("tracing.analytics.observe", "seconds"),
    "tracing.critical_path.s": ("tracing.critical_path", "seconds"),
    "service.audit.record.calls": ("service.audit.record", "calls"),
    "service.audit.record.s": ("service.audit.record", "seconds"),
    "service.audit.record.bytes": ("service.audit.record", "bytes"),
    "service.audit.persist.s": ("service.audit.persist", "seconds"),
}


@dataclass(frozen=True)
class Hook:
    """One wrapped call site.

    ``target`` is ``"module:Class.attr"`` for a method or
    ``"module:function"`` for a module function. A module function is
    also replaced in every loaded module that bound it by name
    (``from x import f``), so callers that imported it see the wrapper.
    ``size_arg`` names a positional index whose ``len()`` is recorded
    as the span's byte count.
    """

    span: str
    target: str
    size_arg: int | None = None
    label_arg: int | None = None


#: Controller-side calls of the embedded (DES) control loop.
DES_HOOKS = [
    Hook("core.localization", "repro.core.localization:CriticalServiceLocator.locate"),
    Hook("core.localization", "repro.core.localization:CriticalServiceLocator.locate_from_aggregate"),
    Hook("core.deadline", "repro.core.deadline:DeadlinePropagator.propagate"),
    Hook("core.scg", "repro.core.scg:SCGModel.estimate"),
    Hook("analysis.smoothing.fit", "repro.analysis.smoothing:fit_polynomial"),
    Hook("analysis.kneedle", "repro.analysis.kneedle:find_knee"),
    Hook("core.sora", "repro.core.sora:SoraController.control"),
    Hook("autoscalers.firm", "repro.autoscalers.firm:FirmAutoscaler.control"),
]

#: Calls of the online control plane and its HTTP/journal front.
SERVICE_HOOKS = [
    Hook("core.localization", "repro.core.localization:CriticalServiceLocator.locate_from_aggregate"),
    Hook("service.deadline", "repro.service.control:ControlPlane._threshold"),
    Hook("core.scg", "repro.core.scg:SCGModel.estimate"),
    Hook("analysis.smoothing.fit", "repro.analysis.smoothing:fit_polynomial"),
    Hook("analysis.kneedle", "repro.analysis.kneedle:find_knee"),
    Hook("service.control.ingest_metrics", "repro.service.control:ControlPlane.ingest_metrics"),
    Hook("service.control.ingest_traces", "repro.service.control:ControlPlane.ingest_traces"),
    Hook("service.control.tick", "repro.service.control:ControlPlane.tick"),
    Hook("obs.openmetrics.parse", "repro.obs.openmetrics:parse_openmetrics"),
    Hook("obs.openmetrics.render", "repro.obs.openmetrics:render_openmetrics"),
    Hook("tracing.export.parse", "repro.tracing.export:traces_from_jaeger"),
    Hook("tracing.analytics.observe", "repro.tracing.analytics:CriticalPathAggregator.observe"),
    Hook("tracing.critical_path", "repro.tracing.critical_path:extract_critical_path"),
    Hook("service.audit.record", "repro.service.audit:AuditJournal.record", size_arg=3),
    Hook("service.audit.persist", "repro.service.api:ControllerService._persist_decisions"),
    # The request handler span: client latency minus this is the time a
    # request waited for the server's single event loop.
    Hook("service.api.route", "repro.service.api:ControllerService._route", label_arg=2),
]


def _resolve(target: str):
    """``(owner, attr)`` for a hook target, or ``None`` when absent."""
    module_name, _sep, path = target.partition(":")
    try:
        owner: _t.Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Probe:
    """Installs span-recording wrappers and removes them again.

    Spans are ``(name, start, end, size, label)`` tuples kept in memory
    until the run ends. Use as a context manager, or call
    :meth:`install` / :meth:`restore` explicitly.
    """

    def __init__(self, hooks: _t.Sequence[Hook]) -> None:
        self.hooks = list(hooks)
        self.spans: list[tuple[str, float, float, int, _t.Any]] = []
        #: Span names none of whose targets exist in this program.
        self.absent: set[str] = set()
        self._undo: list[tuple[_t.Any, str, bool, _t.Any]] = []

    def _wrapper(self, hook: Hook, original):
        spans = self.spans
        clock = time.perf_counter
        span = hook.span
        size_arg = hook.size_arg
        label_arg = hook.label_arg

        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                size = 0
                if size_arg is not None and len(args) > size_arg \
                        and args[size_arg] is not None:
                    size = len(args[size_arg])
                label = (args[label_arg]
                         if label_arg is not None and len(args) > label_arg
                         else None)
                spans.append((span, started, clock(), size, label))

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", span)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self) -> "Probe":
        present: set[str] = set()
        for hook in self.hooks:
            resolved = _resolve(hook.target)
            if resolved is None:
                continue
            present.add(hook.span)
            owner, attr = resolved
            original = getattr(owner, attr)
            wrapper = self._wrapper(hook, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # Module function: rebind it wherever it was imported by name.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is not None and \
                        namespace.get(attr) is original:
                    self._patch(module, attr, wrapper)
        self.absent = {hook.span for hook in self.hooks} - present
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, value = self._undo.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *_exc) -> None:
        self.restore()


def aggregate(spans: _t.Iterable[_t.Sequence]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and bytes."""
    totals: dict[str, dict[str, float]] = {}
    for name, started, ended, size, _label in spans:
        entry = totals.setdefault(
            name, {"calls": 0, "seconds": 0.0, "bytes": 0})
        entry["calls"] += 1
        entry["seconds"] += ended - started
        entry["bytes"] += size
    return totals


def span_metrics(totals: dict[str, dict[str, float]],
                 absent: set[str]) -> tuple[dict[str, float], list[str]]:
    """Metric values from aggregated spans, plus the absent metric names.

    A span name that was hooked but never called reads 0 (the layer did
    no work on this workload); one whose target no longer exists is
    absent and also reads 0, but is listed.
    """
    values: dict[str, float] = {}
    missing: list[str] = []
    for metric, (span, field) in SPAN_METRICS.items():
        values[metric] = float(totals.get(span, {}).get(field, 0.0))
        if span in absent:
            missing.append(metric)
    return values, missing


#: Module-path fragments of the kernel layers, for the profiled pass.
KERNEL_LAYERS = {
    "sim": "/repro/sim/",
    "resources.cpu": "/repro/resources/cpu.py",
    "resources.pool": "/repro/resources/pool.py",
    "app": "/repro/app/",
    "tracing": "/repro/tracing/",
}


def self_shares(stats: dict) -> dict[str, float]:
    """Share of profiled self time spent in each kernel layer's modules.

    ``stats`` is ``pstats.Stats(...).stats``: ``(file, line, func) ->
    (primitive calls, calls, self time, cumulative time, callers)``.
    """
    total = sum(entry[2] for entry in stats.values()) or 1.0
    shares = {}
    for layer, fragment in KERNEL_LAYERS.items():
        own = sum(entry[2] for (path, _line, _func), entry in stats.items()
                  if fragment in path.replace("\\", "/"))
        shares[layer] = own / total
    return shares


def profiled_calls(stats: dict, fragment: str, function: str) -> int | None:
    """Calls of ``function`` in modules matching ``fragment`` (or None)."""
    found = [entry[1] for (path, _line, func), entry in stats.items()
             if fragment in path.replace("\\", "/") and func == function]
    return sum(found) if found else None


def report(out, values: dict[str, float], absent: _t.Iterable[str]) -> None:
    """Set every per-layer metric on ``out`` (0 when not measured) and
    print them with the recorded predictions and the absent list."""
    absent = sorted(set(absent))
    print(f"{'per-layer metric':<34} {'value':>14}  unit   prediction")
    for name, unit in common.declared_metrics("per_layer"):
        moves, on, still = PREDICTIONS[name]
        value = values.get(name, 0.0)
        out.metric(name, value, unit)
        shown = "absent" if name in absent else f"{value:.6g}"
        print(f"{name:<34} {shown:>14}  {unit:<6} moves {moves} on {on};"
              f" no change on {still}")
    if absent:
        print(f"absent: {', '.join(absent)}")
