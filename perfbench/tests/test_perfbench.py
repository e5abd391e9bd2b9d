"""The benchmark's own tests: reduced-size smoke runs of every workload,
metric names against ``BENCHMARK.json``, and wrapper hygiene.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import common, des, layers, service  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [entry["name"] for entry in SPEC["end_to_end"]]
PER_LAYER = [entry["name"] for entry in SPEC["per_layer"]]


def _emitted(result: common.Result, section: str) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        result.emit(name for name, _unit
                    in common.declared_metrics(section))
    return json.loads(buffer.getvalue().splitlines()[-1])


def _assert_result(payload: dict, names: list[str]) -> None:
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True
    assert payload["attempted"] >= 1
    assert payload["failed"] == 0
    assert list(payload["metrics"]) == names
    units = {entry["name"]: entry["unit"]
             for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in payload["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)


def test_every_per_layer_metric_has_a_prediction():
    assert set(layers.PREDICTIONS) == set(PER_LAYER)
    assert len(PER_LAYER) == len(set(PER_LAYER))
    assert set(layers.SPAN_METRICS) <= set(PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} == {
        "fig10_sora_firm", "service_traces"}


def _bindings(hooks):
    """Identity of every object a hook target currently names."""
    import repro.experiments  # noqa: F401
    import repro.service.api  # noqa: F401

    seen = {}
    for hook in hooks:
        resolved = layers._resolve(hook.target)
        assert resolved is not None, hook.target
        owner, attr = resolved
        seen[(id(owner), attr)] = vars(owner).get(attr)
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is not None and attr in namespace:
                    seen[(id(module), attr)] = namespace[attr]
    return seen


@pytest.mark.parametrize("hooks", [layers.DES_HOOKS, layers.SERVICE_HOOKS],
                         ids=["des", "service"])
def test_wrappers_are_removed_after_the_run(hooks):
    before = _bindings(hooks)
    from repro.core.scg import ScatterCurveModel, SCGModel

    estimate = ScatterCurveModel.estimate
    with layers.Probe(hooks) as probe:
        assert probe.absent == set()
        assert SCGModel.estimate is not estimate
        assert SCGModel.estimate.__wrapped__ is estimate
    assert _bindings(hooks) == before
    assert "estimate" not in vars(SCGModel)
    assert SCGModel.estimate is estimate


def test_missing_targets_are_absent_not_errors():
    hooks = [layers.Hook("core.scg", "repro.core.scg:NoSuchModel.estimate"),
             layers.Hook("core.sora", "repro.core.sora:SoraController.gone"),
             layers.Hook("obs.openmetrics.parse", "repro.no_such_module:f")]
    with layers.Probe(hooks) as probe:
        pass
    assert probe.absent == {"core.scg", "core.sora",
                            "obs.openmetrics.parse"}
    values, absent = layers.span_metrics(layers.aggregate(probe.spans),
                                         probe.absent)
    assert "core.scg.calls" in absent and values["core.scg.calls"] == 0.0


def test_wrapped_calls_are_recorded():
    from repro.analysis.kneedle import find_knee
    from repro.core import scg

    hooks = [layers.Hook("analysis.kneedle",
                         "repro.analysis.kneedle:find_knee")]
    with layers.Probe(hooks) as probe:
        scg.find_knee([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 3.0, 4.0, 4.2, 4.3])
    assert scg.find_knee is find_knee
    totals = layers.aggregate(probe.spans)
    assert totals["analysis.kneedle"]["calls"] == 1


def test_fig10_smoke_untraced():
    payload = _emitted(des.run_workload(3, 1.0, False, duration=60.0),
                       "end_to_end")
    _assert_result(payload, END_TO_END)


def test_fig10_smoke_traced():
    payload = _emitted(des.run_workload(3, 1.0, True, duration=60.0),
                       "per_layer")
    _assert_result(payload, PER_LAYER)
    assert payload["metrics"]["core.sora.rounds"]["value"] >= 1
    assert payload["metrics"]["sim.events"]["value"] > 0


@pytest.mark.parametrize("workload",
                         ["service_scrape_1k", "service_traces"])
def test_service_smoke_untraced(workload, monkeypatch):
    monkeypatch.setattr(service, "SCRAPE_SERIES", 50)
    payload = _emitted(service.run_workload(workload, 5, 3.0, False),
                       "end_to_end")
    _assert_result(payload, END_TO_END)


@pytest.mark.parametrize("workload",
                         ["service_scrape_1k", "service_traces"])
def test_service_smoke_traced(workload, monkeypatch):
    monkeypatch.setattr(service, "SCRAPE_SERIES", 50)
    payload = _emitted(service.run_workload(workload, 5, 3.0, True),
                       "per_layer")
    _assert_result(payload, PER_LAYER)
    metrics = payload["metrics"]
    assert metrics["service.decisions"]["value"] >= 1
    assert metrics["service.control.tick.s"]["value"] > 0


def _reply(kind: str, status: int, latency_s: float) -> service.Reply:
    return service.Reply(kind, "/x", 10.0, 10.0, 10.0, 10.0 + latency_s,
                         status, b"{}")


def test_failed_requests_count_as_missing_every_limit():
    replies = [_reply("tick", 200, 0.5), _reply("tick", 500, 0.001),
               _reply("tick", 0, 0.002)]
    assert replies[0].latency_ms == pytest.approx(500.0)
    assert replies[1].latency_ms == service.FAILED_LATENCY_MS
    summary = service._summarize(replies, service.Session(
        [], [], [], [], "scrape", 1, {}))
    assert summary["round_p50_ms"] == service.FAILED_LATENCY_MS
    assert summary["round_ms"] == common.typical(
        [500.0, service.FAILED_LATENCY_MS, service.FAILED_LATENCY_MS])
    assert summary["round_ms"] > 500.0
    assert summary["round_cpu_ms"] == common.typical(
        [0.0, service.FAILED_LATENCY_MS, service.FAILED_LATENCY_MS])
    assert summary["failed_frac"] == pytest.approx(2 / 3)
    # A kind the workload never sends reads 0, not the timeout.
    assert summary["trace_batch_p50_ms"] == 0.0


def test_a_non_2xx_reply_fails_the_run(tmp_path):
    (tmp_path / "journal.jsonl").write_text("")
    (tmp_path / "decisions.jsonl").write_text('{"decisions": [1]}\n')
    server = type("FakeServer", (), {
        "journal": tmp_path / "journal.jsonl",
        "decisions": tmp_path / "decisions.jsonl"})()
    tick = service.Request("tick", "POST", "/control/tick")
    session = service.Session([], [], [tick], [], "scrape", 1, {})
    out = common.Result()
    with contextlib.redirect_stdout(io.StringIO()):
        service._check_session(out, session, server,
                               [_reply("tick", 500, 0.01)],
                               {"rounds": 1, "decisions": 1})
    assert [f for f in out.failures if f.startswith("every reply is 2xx")]


def test_scrape_inputs_repeat_for_a_seed():
    first = service.scrape_session(7, 3.0, series=20)
    second = service.scrape_session(7, 3.0, series=20)
    other = service.scrape_session(8, 3.0, series=20)
    bodies = [request.body for request in first.writes]
    assert bodies == [request.body for request in second.writes]
    assert bodies != [request.body for request in other.writes]


def test_typical_averages_the_10th_to_60th_percentile_band():
    assert common.typical([5.0]) == 5.0
    values = [float(v) for v in range(1, 11)]
    assert common.typical(values) == pytest.approx((2 + 3 + 4 + 5 + 6) / 5)
    # A slow tail of up to 40 % of the sample does not move it.
    assert common.typical(values[:6] + [1e4] * 4) == common.typical(values)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    reply = subprocess.run(
        [*command, "--workload", "service_traces", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert reply.returncode != 0
    assert '"correct"' not in reply.stdout
