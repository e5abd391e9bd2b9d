"""HTTP layer of the control-plane service.

Exercises :class:`repro.service.ControllerService` over real sockets
with a hand-rolled ``asyncio`` HTTP/1.1 client (the test image has no
async pytest plugin, so every scenario is a coroutine run under
``asyncio.run``): lifecycle happy path, the typed rejection mapping
(400 with the strict parser's taxonomy, 429 + ``Retry-After`` under
back-pressure), self-telemetry round-tripping through the strict
OpenMetrics parser, and on-disk artifact flushing at shutdown.
"""

import asyncio
import json

import numpy as np

from repro.core.scg import ScatterModelConfig
from repro.obs import parse_openmetrics
from repro.service import (
    ControllerService,
    ServiceConfig,
    render_snapshot,
    verify_replay,
)
from repro.tracing.export import export_traces
from repro.tracing.span import Span


def service_config(**overrides) -> ServiceConfig:
    """Service config sized for handfuls of snapshots."""
    defaults = dict(
        exclude=("front-end",),
        scatter=ScatterModelConfig(min_samples=20, min_distinct=4,
                                   quantum=1.0))
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def trace_batch(count: int = 12, start: float = 0.0) -> str:
    """front-end -> cart traces as a Jaeger-shaped document."""
    roots = []
    for index in range(count):
        arrival = start + 0.5 * index
        root = Span(trace_id=index + 1, service="front-end",
                    operation="request", arrival=arrival)
        root.started = arrival
        child = Span(trace_id=index + 1, service="cart",
                     operation="cart", arrival=arrival + 0.01,
                     parent=root)
        child.started = child.arrival + 0.002
        child.departure = child.arrival + 0.2 + 0.01 * (index % 5)
        root.departure = child.departure + 0.01
        roots.append(root)
    return export_traces(roots)


def knee_snapshot(index: int, allocation: int = 5) -> str:
    """One scrape along a saturating goodput curve for cart."""
    rng = np.random.default_rng(100 + index)
    q = 1.0 + (index % 20)
    rate = max(0.0, 30.0 * q / (1.0 + q / 10.0)
               + rng.normal(0.0, 1.5))
    return render_snapshot(float(index + 1),
                           {"cart": 0.92, "front-end": 0.30},
                           {"cart": q}, {"cart": rate},
                           {"cart": allocation})


async def request(port: int, method: str, path: str,
                  body: str | bytes | None = None,
                  content_type: str = "text/plain"
                  ) -> tuple[int, dict, str]:
    """One raw HTTP/1.1 exchange; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = (body.encode("utf-8") if isinstance(body, str)
               else body or b"")
    head = [f"{method} {path} HTTP/1.1", "Host: test",
            "Connection: close"]
    if payload or method == "POST":
        head.append(f"Content-Type: {content_type}")
        head.append(f"Content-Length: {len(payload)}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii")
                 + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_bytes, _sep, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _sep2, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body_bytes.decode("utf-8")


async def started_service(config: ServiceConfig,
                          **kwargs) -> ControllerService:
    """A bound service on an ephemeral port, cadence timer off."""
    service = ControllerService(config, port=0, cadence=0.0, **kwargs)
    await service.start()
    return service


def test_happy_path_serves_scg_recommendation(tmp_path):
    journal = tmp_path / "journal.jsonl"
    decisions = tmp_path / "decisions.jsonl"
    config = service_config()

    async def scenario() -> None:
        service = await started_service(
            config, journal_path=journal, decisions_path=decisions)
        port = service.port
        assert port != 0

        status, _headers, body = await request(port, "GET", "/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"
        status, _headers, body = await request(port, "GET", "/config")
        assert status == 200
        assert json.loads(body)["families"]["rate"] == "sora_goodput"

        # A pool above the observed demand: with trace evidence a
        # window pinned at its allocation is steered by the saturation
        # rule, not by the knee this test checks.
        for index in range(40):
            status, _headers, body = await request(
                port, "POST", "/ingest/openmetrics",
                knee_snapshot(index, allocation=24),
                content_type="application/openmetrics-text")
            assert status == 202, body
        status, _headers, body = await request(
            port, "POST", "/ingest/jaeger", trace_batch(),
            content_type="application/json")
        assert status == 202
        assert json.loads(body)["traces"] == 12

        status, _headers, body = await request(
            port, "POST", "/control/tick")
        assert status == 200
        reply = json.loads(body)
        assert reply["round"]["critical_service"] == "cart"
        rec = reply["recommendations"]["cart"]
        assert rec["method"] in ("knee", "argmax")
        assert rec["allocation"] >= 1

        status, _headers, body = await request(
            port, "GET", "/recommendations/cart")
        assert status == 200
        assert json.loads(body)["service"] == "cart"
        status, _headers, body = await request(port, "GET", "/status")
        payload = json.loads(body)
        assert payload["rounds"] == 1
        assert payload["recommendation_latency"]["count"] >= 1
        assert payload["slo"]["observed"] >= 1

        status, headers, body = await request(
            port, "GET", "/decisions")
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        assert body == service.plane.decisions_jsonl()
        status, _headers, body = await request(port, "GET", "/report")
        assert status == 200 and "sora-service" in body

        status, _headers, body = await request(
            port, "POST", "/admin/shutdown")
        assert status == 200
        await asyncio.wait_for(service.serve_until_shutdown(), 10.0)

    asyncio.run(scenario())
    # Artifacts were flushed at shutdown and replay is byte-exact.
    identical, detail = verify_replay(journal, decisions, config)
    assert identical, detail


def test_rejections_map_ingest_taxonomy_onto_http():
    async def scenario() -> None:
        service = await started_service(service_config())
        port = service.port
        try:
            status, _headers, body = await request(
                port, "POST", "/ingest/openmetrics",
                "sora_concurrency 1\n# EOF\n")
            assert status == 400
            payload = json.loads(body)
            assert payload["error"] == "bad-openmetrics"
            assert "without # TYPE" in payload["detail"]

            status, _headers, body = await request(
                port, "POST", "/ingest/openmetrics",
                "# TYPE sora_concurrency gauge\nsora_concurrency 1\n")
            assert status == 400
            assert ("missing # EOF terminator"
                    in json.loads(body)["detail"])

            status, _headers, body = await request(
                port, "POST", "/ingest/jaeger", "{nope")
            assert status == 400
            assert json.loads(body)["error"] == "bad-json"

            # A time-regressing snapshot is rejected atomically: 400,
            # no state change, not journaled.
            status, _headers, _body = await request(
                port, "POST", "/ingest/openmetrics",
                render_snapshot(10.0, {"cart": 0.5}, {"cart": 1.0},
                                {"cart": 5.0}))
            assert status == 202
            status, _headers, body = await request(
                port, "POST", "/ingest/openmetrics",
                render_snapshot(4.0, {"cart": 0.5}, {"cart": 2.0},
                                {"cart": 6.0}))
            assert status == 400
            assert json.loads(body)["error"] == "stale-snapshot"

            # Rejected payloads never reach state or the journal.
            assert service.plane.snapshots_ingested == 1
            assert len(service.journal) == 1

            status, _headers, body = await request(
                port, "GET", "/nope")
            assert status == 404
            status, _headers, body = await request(
                port, "GET", "/recommendations/ghost")
            assert status == 404
            status, _headers, body = await request(
                port, "DELETE", "/status")
            assert status == 405
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_backpressure_returns_429_with_retry_after():
    async def scenario() -> None:
        service = await started_service(
            service_config(max_pending=2))
        port = service.port
        try:
            snapshot = render_snapshot(1.0, {"cart": 0.5},
                                       {"cart": 1.0}, {"cart": 5.0})
            for _ in range(2):
                status, _headers, _body = await request(
                    port, "POST", "/ingest/openmetrics", snapshot)
                assert status == 202
            status, headers, body = await request(
                port, "POST", "/ingest/openmetrics", snapshot)
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert json.loads(body)["error"] == "backpressure"
            # A control round drains the queue and re-opens ingestion.
            status, _headers, _body = await request(
                port, "POST", "/control/tick")
            assert status == 200
            status, _headers, _body = await request(
                port, "POST", "/ingest/openmetrics", snapshot)
            assert status == 202
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_metrics_endpoint_round_trips_strict_parser():
    async def scenario() -> None:
        service = await started_service(service_config())
        port = service.port
        try:
            for index in range(3):
                await request(port, "POST", "/ingest/openmetrics",
                              knee_snapshot(index))
            await request(port, "POST", "/control/tick")
            status, headers, body = await request(
                port, "GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith(
                "application/openmetrics-text")
            families = parse_openmetrics(body)
            assert "repro_service_snapshots" in families
            assert "repro_service_rounds" in families
            assert "repro_slo_compliance" in families
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_malformed_http_head_is_rejected_not_fatal():
    async def scenario() -> None:
        service = await started_service(service_config())
        port = service.port
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"NOT-EVEN-HTTP\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert b"400" in raw.split(b"\r\n", 1)[0]
            # The server survives and keeps answering.
            status, _headers, _body = await request(
                port, "GET", "/healthz")
            assert status == 200
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_oversized_request_head_returns_413():
    async def scenario() -> None:
        service = await started_service(service_config())
        port = service.port
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                         b"X-Pad: " + b"a" * (80 * 1024)
                         + b"\r\nConnection: close\r\n\r\n")
            try:
                await writer.drain()
            except ConnectionError:
                pass  # server may answer and close mid-send
            raw = await reader.read()
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            assert b"413" in raw.split(b"\r\n", 1)[0]
            status, _headers, _body = await request(
                port, "GET", "/healthz")
            assert status == 200
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_cadence_loop_survives_tick_failure():
    async def scenario() -> None:
        service = ControllerService(service_config(), port=0,
                                    cadence=0.01)
        ticks = []

        def exploding_tick() -> dict:
            ticks.append(1)
            raise RuntimeError("persistence blew up")

        service._tick = exploding_tick  # type: ignore[method-assign]
        await service.start()
        try:
            for _ in range(200):
                if len(ticks) >= 2:
                    break
                await asyncio.sleep(0.01)
            # The loop logged and kept going past the failures...
            assert len(ticks) >= 2
            assert service._cadence_task is not None
            assert not service._cadence_task.done()
            # ...and the HTTP API never stopped serving.
            status, _headers, _body = await request(
                service.port, "GET", "/healthz")
            assert status == 200
        finally:
            # stop() must swallow the task's stored state cleanly.
            await service.stop()

    asyncio.run(scenario())


def test_internal_errors_return_generic_500_body():
    async def scenario() -> None:
        service = await started_service(service_config())
        port = service.port

        def boom() -> dict:
            raise RuntimeError("/secret/path leaked from the server")

        service.plane.status = boom  # type: ignore[method-assign]
        try:
            status, _headers, body = await request(
                port, "GET", "/status")
            assert status == 500
            payload = json.loads(body)
            assert payload == {"error": "internal",
                               "detail": "internal server error"}
            assert "secret" not in body
            status, _headers, _body = await request(
                port, "GET", "/healthz")
            assert status == 200
        finally:
            await service.stop()

    asyncio.run(scenario())
