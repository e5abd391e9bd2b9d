"""Workloads ``service_scrape_1k`` and ``service_traces``: a spawned
``repro serve`` driven over HTTP by an open-loop generator.

Every request body is rendered from the seed before the server starts,
so generation never competes with the server inside the timed window.
The generator is this single-threaded process: one asyncio loop with
two lanes, each holding at most one request in flight. Writes (scrapes,
trace batches, control ticks) share one lane, so the server sees them
in the same order on every run and its decision log is reproducible;
reads (``/recommendations``, ``/metrics``) use the other. Latency is
timed from when a request was *due*, so a stall also charges the
requests queued behind it; ``loadgen.late_p90_ms`` reports how late
the generator itself sent.

Warm-up fills every series' ``<Q, GP>`` window (the service's 120
logical seconds at 2.5 logical seconds per scrape) before timing
starts; its rounds are reported but not timed.

End-to-end metrics (tracing off); ``*_ms`` are typical values
(:func:`perfbench.common.typical`), and the latency percentiles are
printed and reported per layer:

- ``setup_s``: spawn ``repro serve`` until ``/healthz`` answers
  (median of five spawns);
- ``cpu_s``: CPU seconds of the server process over the timed window,
  i.e. the control plane's whole compute for the offered session;
- ``round_cpu_ms``: server on-CPU time of a ``POST /control/tick``;
- ``ingest_cpu_ms``: server on-CPU time of a ``POST /ingest/openmetrics``
  (1000-series scrapes) on ``service_scrape_1k``, of a
  ``POST /ingest/jaeger`` (~100-trace batches) on ``service_traces``;
- ``peak_rss_mb``: VmHWM of the server process.

On-CPU time is the server's ``schedstat`` run time between sending a
request and reading its reply. Latency adds the time the request waited
for the server's loop and for a CPU: wake-ups of idle virtual CPUs and
time the host gives another guest. On a shared host those waits moved
the typical trace-batch latency by 0.26 and the tick latency by 0.33
(quartile spread over ten seeds) while the server's CPU seconds moved
0.09.

The traced run also reports the typical latencies ``round_ms``,
``ingest_ms`` and ``read_ms`` (``GET /recommendations``, the actuator's
poll) as per-layer metrics.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import typing as _t

import numpy as np

from perfbench import common, layers

#: Wall seconds between consecutive timed chunks: a 1000-series scrape,
#: or a 25-service scrape plus a trace batch. A control tick follows
#: every sixth chunk and is due together with the next chunk, which
#: therefore waits for the whole round. Measured on a 2-vCPU VM (ten
#: seeds, medians of the runs), a 1000-series round took 484 ms over
#: HTTP (431-574 ms) and the server used 6.8 s of CPU per 25 s window,
#: so it is about 27 % busy and only the one scrape in six due with a
#: round waits for it. The trace path is ~5x cheaper and runs at twice
#: the rate.
SCRAPE_INTERVAL = 0.5
TRACE_INTERVAL = 0.25
CHUNKS_PER_ROUND = 6
#: Reads: ``/recommendations`` every 0.5 s and ``/metrics`` every fifth
#: chunk, half a chunk after a write is due so reads never race writes
#: for the server loop. Five chunks is coprime with the six-chunk round,
#: so ``/metrics`` polls land at every phase of a round.
READ_EVERY = 0.5
METRICS_EVERY_CHUNKS = 5
#: Logical seconds per scrape: the service's 15 s round cadence over
#: six scrapes. Its 120 s window then holds 43 scrapes.
SCRAPE_STEP = 2.5
#: Warm-up chunks: enough that the first timed round sees a full window.
WARMUP_CHUNKS = 42
SETUP_SPAWNS = 5
REQUEST_TIMEOUT = 30.0
#: Latency charged to a request that failed or timed out: it missed
#: every latency limit, so it counts as at least the whole timeout.
FAILED_LATENCY_MS = REQUEST_TIMEOUT * 1e3

SCRAPE_SERIES = 1000
QUIET_SHARE = 0.2   # stationary share of quiet (series, round) cells
QUIET_STAY = 2 / 3  # a quiet stretch lasts three rounds on average

TRACE_PEAK_USERS = 60
TRACE_MIN_USERS = 30
TRACES_PER_BATCH = 100


@dataclasses.dataclass
class Request:
    kind: str            # scrape | batch | tick | read | metrics
    method: str
    path: str
    body: bytes = b""
    content_type: str = "text/plain"
    offset: float = 0.0  # due time relative to the timed start


@dataclasses.dataclass
class Reply:
    kind: str
    path: str
    due: float
    ready: float         # max(due, lane free): when it could be sent
    sent: float
    done: float
    status: int
    body: bytes
    #: Server on-CPU ms while the request was in flight.
    cpu_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status // 100 == 2

    @property
    def latency_ms(self) -> float:
        measured = (self.done - self.due) * 1e3
        return measured if self.ok else max(measured, FAILED_LATENCY_MS)

    @property
    def cpu_cost_ms(self) -> float:
        """:attr:`cpu_ms`, or at least the timeout for a failed request
        (as :attr:`latency_ms`), so a failing path never reads cheaper."""
        return self.cpu_ms if self.ok else max(self.cpu_ms,
                                               FAILED_LATENCY_MS)


@dataclasses.dataclass
class Session:
    """Pre-rendered inputs of one workload run."""

    serve_flags: list[str]
    warmup: list[Request]
    writes: list[Request]
    reads: list[Request]
    ingest_kind: str
    #: Decisions each round must carry (decided series per round).
    decided_per_round: int
    properties: dict


def _reads(seconds: float, interval: float) -> list[Request]:
    phase = interval / 2
    reads = [Request("read", "GET", "/recommendations", offset=t + phase)
             for t in np.arange(0.0, seconds, READ_EVERY)]
    reads += [Request("metrics", "GET", "/metrics", offset=t + phase)
              for t in np.arange(0.0, seconds,
                                 METRICS_EVERY_CHUNKS * interval)]
    reads.sort(key=lambda request: request.offset)
    return reads


def _tick(offset: float = 0.0) -> Request:
    return Request("tick", "POST", "/control/tick", offset=offset)


def scrape_session(seed: int, seconds: float,
                   series: int = SCRAPE_SERIES) -> Session:
    """1000 series with seeded ``<Q, GP>`` curves; a seeded share goes
    quiet (utilization only, no pair) for stretches of a few rounds."""
    from repro.service import render_snapshot

    rng = np.random.default_rng(seed)
    names = [f"svc{index:04d}" for index in range(series)]
    knee = rng.uniform(4.0, 24.0, series)
    peak = rng.uniform(50.0, 400.0, series)
    noise = rng.uniform(0.02, 0.10, series)
    allocation = {name: int(round(k * 1.5)) for name, k in zip(names, knee)}

    chunks = int(round(seconds / SCRAPE_INTERVAL))
    rounds = -(-chunks // CHUNKS_PER_ROUND)
    quiet = np.zeros((rounds, series), dtype=bool)
    enter = QUIET_SHARE * (1 - QUIET_STAY) / (1 - QUIET_SHARE)
    state = rng.random(series) < QUIET_SHARE
    for index in range(rounds):
        quiet[index] = state
        draw = rng.random(series)
        state = np.where(state, draw < QUIET_STAY, draw < enter)

    def scrape(index: int, silent: np.ndarray) -> Request:
        load = knee * rng.uniform(0.3, 2.0, series)
        ratio = load / knee
        rate = peak * np.minimum(ratio, 1.0) \
            * (1.0 - 0.25 * np.maximum(ratio - 1.0, 0.0)) \
            * (1.0 + noise * rng.standard_normal(series))
        busy = np.minimum(0.99, 0.25 + 0.6 * np.minimum(ratio, 1.0))
        live = [i for i in range(series) if not silent[i]]
        text = render_snapshot(
            SCRAPE_STEP * (index + 1),
            {name: float(value) for name, value in zip(names, busy)},
            {names[i]: float(load[i]) for i in live},
            {names[i]: max(0.0, float(rate[i])) for i in live},
            {names[i]: allocation[names[i]] for i in live})
        return Request("scrape", "POST", "/ingest/openmetrics",
                       text.encode(), "application/openmetrics-text")

    nobody = np.zeros(series, dtype=bool)
    warmup = []
    for index in range(WARMUP_CHUNKS):
        warmup.append(scrape(index, nobody))
        if (index + 1) % CHUNKS_PER_ROUND == 0:
            warmup.append(_tick())
    writes = []
    for chunk in range(chunks):
        request = scrape(WARMUP_CHUNKS + chunk,
                         quiet[chunk // CHUNKS_PER_ROUND])
        request.offset = chunk * SCRAPE_INTERVAL
        writes.append(request)
        if (chunk + 1) % CHUNKS_PER_ROUND == 0:
            writes.append(_tick(request.offset + SCRAPE_INTERVAL))
    sizes = [len(request.body) for request in writes
             if request.kind == "scrape"]
    return Session(
        serve_flags=["--decide-top-k", "0", "--exclude", ""],
        warmup=warmup, writes=writes,
        reads=_reads(seconds, SCRAPE_INTERVAL),
        ingest_kind="scrape", decided_per_round=series,
        properties={"series": series,
                    "scrape_bytes_median": float(np.median(sizes)),
                    "quiet_share": float(quiet.mean()),
                    "offered": _offered(SCRAPE_INTERVAL)})


class _Recorder:
    """Stands in for the HTTP client of :func:`repro.service.drive`,
    keeping every POST instead of sending it."""

    def __init__(self) -> None:
        self.posts: list[tuple[str, bytes]] = []

    def wait_healthy(self) -> dict:
        return {}

    def request(self, method: str, path: str, body=None,
                content_type: str = "text/plain") -> dict:
        if method == "POST":
            data = body.encode() if isinstance(body, str) else body
            self.posts.append((path, data or b""))
        return {"recommendations": {}}


def trace_session(seed: int, seconds: float) -> Session:
    """A ``repro service drive --scenario drift`` session on Social
    Network, pre-rendered: per 2.5 simulated seconds one 25-service
    scrape and one ~100-trace Jaeger batch, a tick every 15 s."""
    from repro.service import drive

    chunks = int(round(seconds / TRACE_INTERVAL))
    steps = WARMUP_CHUNKS + chunks
    recorder = _Recorder()
    drive("http://unused", scenario="drift", duration=steps * SCRAPE_STEP,
          interval=SCRAPE_STEP, tick_every=CHUNKS_PER_ROUND * SCRAPE_STEP,
          seed=seed, peak_users=TRACE_PEAK_USERS,
          min_users=TRACE_MIN_USERS, traces_per_batch=TRACES_PER_BATCH,
          client=_t.cast(_t.Any, recorder))
    warmup: list[Request] = []
    writes: list[Request] = []
    chunk = -1
    kinds = {"/ingest/openmetrics": ("scrape", "application/openmetrics-text"),
             "/ingest/jaeger": ("batch", "application/json"),
             "/control/tick": ("tick", "text/plain")}
    for path, body in recorder.posts:
        kind, content_type = kinds[path]
        if kind == "scrape":
            chunk += 1
        request = Request(kind, "POST", path, body, content_type)
        if chunk < WARMUP_CHUNKS:
            warmup.append(request)
            continue
        request.offset = (chunk - WARMUP_CHUNKS) * TRACE_INTERVAL
        if kind == "tick":
            request.offset += TRACE_INTERVAL
        writes.append(request)
    batches = [len(r.body) for r in writes if r.kind == "batch"]
    return Session(
        serve_flags=[], warmup=warmup,
        writes=writes, reads=_reads(seconds, TRACE_INTERVAL),
        ingest_kind="batch",
        decided_per_round=1,
        properties={"series": 25,
                    "batch_bytes_median": float(np.median(batches)),
                    "quiet_share": 0.0,
                    "offered": _offered(TRACE_INTERVAL)})


def _offered(interval: float) -> str:
    return (f"chunk every {interval:g} s, tick every "
            f"{CHUNKS_PER_ROUND} chunks, /recommendations every "
            f"{READ_EVERY:g} s, /metrics every "
            f"{METRICS_EVERY_CHUNKS * interval:g} s")


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One spawned ``repro serve`` (or the traced entry point), reached
    through the program's own :class:`repro.service.ServiceClient` for
    everything but the timed requests."""

    def __init__(self, directory: pathlib.Path, flags: list[str],
                 spans: pathlib.Path | None = None,
                 cpus: set[int] | None = None) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.journal = directory / "journal.jsonl"
        self.decisions = directory / "decisions.jsonl"
        self.client = None
        port_file = directory / "port"
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--port-file", str(port_file),
                 "--journal", str(self.journal),
                 "--decisions", str(self.decisions), *flags]
        entry = (["-m", "perfbench.traced_serve", str(spans)]
                 if spans is not None else ["-m", "repro.cli"])
        self._log = open(directory / "server.log", "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *entry, *serve], cwd=common.ROOT,
            env=common.child_env(), stdout=self._log,
            stderr=subprocess.STDOUT)
        try:
            if cpus:
                os.sched_setaffinity(self.process.pid, cpus)
            self.port = self._wait_port(port_file)
            self.client = _client(self.port)
            self.client.wait_healthy(attempts=1000, delay=0.005)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_port(self, port_file: pathlib.Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("server exited during start-up")
            text = port_file.read_text().strip() \
                if port_file.exists() else ""
            if text:
                return int(text)
            time.sleep(0.005)
        raise RuntimeError("server never announced its port")

    def status(self) -> dict:
        return self.client.request("GET", "/status")

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.process.pid)

    def cpu_seconds(self) -> float:
        return common.cpu_seconds(self.process.pid)

    def on_cpu_ns(self) -> int:
        return common.on_cpu_ns(self.process.pid)

    def close(self) -> None:
        """Ask for a clean shutdown; kill if it does not come."""
        if self.process.poll() is None:
            if self.client is not None:
                with contextlib.suppress(OSError):
                    self.client.request("POST", "/admin/shutdown")
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _client(port: int):
    import urllib.request

    from repro.service import ServiceClient

    # The server is on loopback: never route to it through an HTTP
    # proxy named in the environment.
    urllib.request.install_opener(
        urllib.request.build_opener(urllib.request.ProxyHandler({})))
    return ServiceClient(f"http://127.0.0.1:{port}", REQUEST_TIMEOUT)


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------
async def _send(port: int, request: Request) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (f"{request.method} {request.path} HTTP/1.1\r\n"
                f"Host: 127.0.0.1\r\n"
                f"Content-Type: {request.content_type}\r\n"
                f"Content-Length: {len(request.body)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        writer.write(head + request.body)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()
    head, _sep, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, body


async def _lane(port: int, requests: list[Request], start: float,
                replies: list[Reply],
                server_cpu_ns: _t.Callable[[], int]) -> None:
    clock = time.perf_counter
    free = start
    for request in requests:
        due = start + request.offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        ready = max(due, free)
        cpu_before = server_cpu_ns()
        sent = clock()
        try:
            status, body = await asyncio.wait_for(
                _send(port, request), REQUEST_TIMEOUT)
        except (OSError, asyncio.TimeoutError, ValueError, IndexError):
            status, body = 0, b""
        free = clock()
        cpu_ms = (server_cpu_ns() - cpu_before) / 1e6
        replies.append(Reply(request.kind, request.path, due, ready, sent,
                             free, status, body, cpu_ms))


async def _drive(server: Server,
                 session: Session) -> tuple[list[Reply], float, float]:
    port = server.port
    for request in session.warmup:
        status, _body = await _send(port, request)
        if status // 100 != 2:
            raise RuntimeError(f"warm-up {request.path} got HTTP {status}")
    for path in ("/recommendations", "/metrics"):
        await _send(port, Request("read", "GET", path))
    replies: list[Reply] = []
    cpu_before = server.cpu_seconds()
    start = time.perf_counter() + 0.05
    await asyncio.gather(
        _lane(port, session.writes, start, replies, server.on_cpu_ns),
        _lane(port, session.reads, start, replies, server.on_cpu_ns))
    return replies, start, server.cpu_seconds() - cpu_before


def run_session(server: Server,
                session: Session) -> tuple[list[Reply], float, float]:
    """Send warm-up, then the timed open-loop schedule; return the
    replies, the timed start and the server's CPU seconds over it."""
    return asyncio.run(_drive(server, session))


# ----------------------------------------------------------------------
# Measurement and checks
# ----------------------------------------------------------------------
def _pct(replies: list[Reply], kind: str, q: float) -> float:
    """Latency percentile of one request kind, a failed request counted
    at :data:`FAILED_LATENCY_MS`; 0 when the workload sends no such
    request."""
    values = [reply.latency_ms for reply in replies if reply.kind == kind]
    return common.percentile(values, q) if values else 0.0


def _typical(replies: list[Reply], kind: str, cpu: bool = False) -> float:
    """Typical latency of one request kind, counted as :func:`_pct`
    does, or with ``cpu`` its typical server on-CPU time."""
    values = [reply.cpu_cost_ms if cpu else reply.latency_ms
              for reply in replies if reply.kind == kind]
    return common.typical(values) if values else 0.0


def _parses(reply: Reply) -> bool:
    from repro.obs import parse_openmetrics

    try:
        if reply.kind == "metrics":
            parse_openmetrics(reply.body.decode("utf-8"))
        else:
            json.loads(reply.body)
    except ValueError:
        return False
    return True


def replay(session: Session, server: Server) -> tuple[bool, str, float]:
    """``repro service replay`` in this process; (identical, detail, s)."""
    from repro import cli

    argv = ["service", "replay", "--journal", str(server.journal),
            "--decisions", str(server.decisions), *session.serve_flags]
    captured = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code == 0, captured.getvalue().strip(), \
        time.perf_counter() - started


def _spawn_measured(directory: pathlib.Path, flags: list[str],
                    cpus: set[int] | None) -> tuple[Server, float]:
    """Spawn the server several times; keep the last, report the median
    spawn-to-healthy time."""
    samples = []
    for index in range(SETUP_SPAWNS - 1):
        probe = Server(directory / f"setup{index}", flags, cpus=cpus)
        samples.append(probe.setup_s)
        probe.close()
    server = Server(directory / "session", flags, cpus=cpus)
    samples.append(server.setup_s)
    return server, common.median(samples)


def _check_session(out: common.Result, session: Session, server: Server,
                   replies: list[Reply], status: dict) -> None:
    from repro.service import verify_chain

    offered = len(session.writes) + len(session.reads)
    out.check(len(replies) == offered,
              f"every timed request got a reply or timed out "
              f"({len(replies)} of {offered})")
    failed = [f"{reply.path} {reply.status or 'timeout'}"
              for reply in replies if not reply.ok]
    out.check(not failed, f"every reply is 2xx ({len(failed)} were not"
              f"{': ' + ', '.join(failed[:5]) if failed else ''})")
    unparsed = [reply.path for reply in replies
                if reply.ok and not _parses(reply)]
    out.check(not unparsed, f"every reply parses ({len(unparsed)} did not)")
    intact, detail = verify_chain(server.journal)
    out.check(intact, f"journal chain: {detail}")
    # Rounds are counted from the ticks sent (the server runs no
    # automatic rounds), not from what the server says it ran.
    rounds = sum(1 for request in session.warmup + session.writes
                 if request.kind == "tick")
    out.check(status["rounds"] == rounds,
              f"/status rounds {status['rounds']} == {rounds} ticks sent")
    expected = rounds * session.decided_per_round
    out.check(status["decisions"] == expected,
              f"service.decisions {status['decisions']} == {rounds} rounds"
              f" x {session.decided_per_round} decided series")
    per_round = [len(json.loads(line).get("decisions", []))
                 for line in server.decisions.read_text().splitlines()
                 if line]
    out.check(per_round == [session.decided_per_round] * rounds,
              f"each of {rounds} persisted rounds decided "
              f"{session.decided_per_round} series")


def _summarize(replies: list[Reply], session: Session) -> dict[str, float]:
    failed = sum(1 for reply in replies if not reply.ok)
    late = [(reply.sent - reply.ready) * 1e3 for reply in replies]
    return {
        "scrape_p50_ms": _pct(replies, "scrape", 50),
        "scrape_p90_ms": _pct(replies, "scrape", 90),
        "trace_batch_p50_ms": _pct(replies, "batch", 50),
        "trace_batch_p90_ms": _pct(replies, "batch", 90),
        "ingest_cpu_ms": _typical(replies, session.ingest_kind, cpu=True),
        "round_cpu_ms": _typical(replies, "tick", cpu=True),
        "ingest_ms": _typical(replies, session.ingest_kind),
        "round_ms": _typical(replies, "tick"),
        "read_ms": _typical(replies, "read"),
        "round_p50_ms": _pct(replies, "tick", 50),
        "read_p50_ms": _pct(replies, "read", 50),
        "metrics_read_p50_ms": _pct(replies, "metrics", 50),
        "failed_frac": failed / max(1, len(replies)),
        "loadgen.late_p90_ms": common.percentile(late, 90) if late else 0.0,
    }


def _wait_p90_ms(replies: list[Reply], spans: list, start: float) -> float:
    """p90 of client latency minus the server's handler span, matching
    requests to handler spans in order per path."""
    handlers: dict[str, list[float]] = {}
    for name, begun, ended, _size, label in spans:
        if name == "service.api.route" and begun >= start:
            handlers.setdefault(label, []).append(ended - begun)
    seen: dict[str, int] = {}
    waits = []
    for reply in sorted(replies, key=lambda reply: reply.sent):
        index = seen.get(reply.path, 0)
        seen[reply.path] = index + 1
        durations = handlers.get(reply.path, [])
        if index < len(durations):
            waits.append(reply.latency_ms - durations[index] * 1e3)
    return common.percentile(waits, 90) if waits else 0.0


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> common.Result:
    common.require_source()
    out = common.Result()
    if name == "service_scrape_1k":
        session = scrape_session(seed, seconds, SCRAPE_SERIES)
    else:
        session = trace_session(seed, seconds)
    props = session.properties
    timed_rounds = sum(1 for r in session.writes if r.kind == "tick")
    warm_rounds = sum(1 for r in session.warmup if r.kind == "tick")
    print(f"{name} seed {seed}: {props['series']} series, "
          f"{len(session.writes)} timed writes ({timed_rounds} rounds), "
          f"{len(session.reads)} timed reads, {warm_rounds} warm-up "
          f"rounds (untimed); offered: {props['offered']}")
    print("input properties: " + ", ".join(
        f"{key} {value:.6g}" for key, value in props.items()
        if isinstance(value, float)))
    directory = common.work_dir(name)
    # Generator and server on different CPUs when there are two: over
    # loopback the scheduler otherwise tends to wake the server on the
    # generator's CPU, and the two then take turns on one core.
    own_cpus = os.sched_getaffinity(0)
    server_cpus = None
    if len(own_cpus) >= 2:
        server_cpus = {max(own_cpus)}
        os.sched_setaffinity(0, {min(own_cpus)})
    try:
        server, setup = _spawn_measured(directory, session.serve_flags,
                                        server_cpus)
        try:
            replies, start, cpu = run_session(server, session)
            status = server.status()
            rss = server.peak_rss_mb()
        finally:
            server.close()
        summary = _summarize(replies, session)
        out.attempted = len(replies)
        out.failed = sum(1 for reply in replies if not reply.ok)
        rejected = sum(1 for reply in replies if reply.status == 429)
        _check_session(out, session, server, replies, status)
        identical, detail, wall = replay(session, server)
        out.check(identical, f"replay: {detail}")
        print(f"wall_s (replay) {wall:.6g}")
        for key in ("round_ms", "ingest_ms", "read_ms", "scrape_p50_ms",
                    "scrape_p90_ms", "trace_batch_p50_ms",
                    "trace_batch_p90_ms", "round_p50_ms", "read_p50_ms",
                    "metrics_read_p50_ms", "failed_frac",
                    "loadgen.late_p90_ms"):
            print(f"{key} {summary[key]:.6g}")
        if summary["loadgen.late_p90_ms"] > 0.1 * summary["ingest_ms"]:
            print("WARNING: generator lateness p90 "
                  f"{summary['loadgen.late_p90_ms']:.3g} ms is over 10% of "
                  f"typical ingest {summary['ingest_ms']:.3g} ms")
        if not trace:
            out.metric("setup_s", setup, "s")
            out.metric("cpu_s", cpu, "s")
            out.metric("round_cpu_ms", summary["round_cpu_ms"], "ms")
            out.metric("ingest_cpu_ms", summary["ingest_cpu_ms"], "ms")
            out.metric("peak_rss_mb", rss, "MB")
            return out

        spans_path = directory / "spans.json"
        traced = Server(directory / "traced", session.serve_flags,
                        spans_path, server_cpus)
        try:
            traced_replies, traced_start, _cpu = run_session(traced, session)
        finally:
            traced.close()
        dump = json.loads(spans_path.read_text())
        out.check(traced.decisions.read_bytes()
                  == server.decisions.read_bytes(),
                  "traced server persisted identical decisions")
        traced_summary = _summarize(traced_replies, session)
        main = "round_ms" if name == "service_scrape_1k" else "ingest_ms"
        values, absent = layers.span_metrics(
            layers.aggregate(dump["spans"]), set(dump["absent"]))
        values.update(summary)
        values["wall_s"] = wall
        values["service.decisions"] = float(status["decisions"])
        values["service.rejected"] = float(rejected)
        values["service.wait_p90_ms"] = _wait_p90_ms(
            traced_replies, dump["spans"], traced_start)
        values["workload.quiet_share"] = props["quiet_share"]
        values["bench.trace_overhead_pct"] = (
            (traced_summary[main] - summary[main]) / summary[main] * 100.0)
        layers.report(out, values, absent)
        return out
    finally:
        os.sched_setaffinity(0, own_cpus)
        common.cleanup(directory)
