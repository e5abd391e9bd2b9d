"""Workload ``fig10_sora_firm``: the paper's Fig. 10 scenario in the DES.

Sock Shop Cart under ``steep_tri_phase`` (240 simulated seconds, 450
peak / 80 minimum users, SLA 400 ms) with the Sora controller adapting
the Cart thread pool and FIRM scaling its CPU. It is the one workload
that runs the simulator kernel and the embedded controller.

End-to-end metrics (tracing off), pooled over every simulation of the
run; ``*_ms`` are typical values (:func:`perfbench.common.typical`):

- ``setup_s``: spawn a fresh interpreter until it has imported the
  program and built the scenario (median of the spawns);
- ``cpu_s``: CPU seconds of this process while it simulates the
  scenario (single-threaded, so close to its wall time, which is
  reported as the per-layer ``wall_s``); median over the simulations;
- ``round_cpu_ms``: on-CPU (thread) time of one embedded Sora control
  round (``SoraController.control``: localize, propagate, estimate,
  apply);
- ``ingest_cpu_ms``: on-CPU time to simulate one slice of two seconds
  of offered load (the DES's unit of ingest);
- ``peak_rss_mb``: VmHWM of the simulating process.

The traced run also reports, per layer, the wall-clock ``round_ms`` and
``ingest_ms`` and ``read_ms``, the time to read a simulation's results
as Fig. 10 shows them (summary row plus the per-interval series).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import pstats
import subprocess
import sys
import time

from perfbench import common, layers

DURATION = 240.0
PEAK_USERS = 450
MIN_USERS = 80
SLA = 0.4
#: Simulations per untraced run, at least; more while they fit in the
#: run's ``--seconds``.
MIN_SIMULATIONS = 2
#: Set-up spawns per run, at least.
SETUP_SPAWNS = 5
#: Set-up spawns after each simulation of a run, so set-up samples are
#: spread over the run.
SPAWNS_PER_SIMULATION = 2
#: Timed reads of the results for the per-layer ``read_ms``.
READS = 50
READ_WARMUP = 10
#: Simulated seconds per ingest sample (121 samples per simulation).
SLICE = 2.0


def build(seed: int, duration: float = DURATION):
    """The Fig. 10 scenario (FIRM + Sora) for one seed."""
    from repro.experiments import sock_shop_cart_scenario
    from repro.workloads import steep_tri_phase

    trace = steep_tri_phase(duration=duration, peak_users=PEAK_USERS,
                            min_users=MIN_USERS)
    return sock_shop_cart_scenario(trace=trace, controller="sora",
                                   autoscaler="firm", sla=SLA, seed=seed)


def _spawn_setup_probe(seed: int) -> float:
    """Seconds from spawning a fresh interpreter to a built scenario
    (the child imports the program, builds, says ``ready``)."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.des", "--setup-probe", str(seed)],
        cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError("DES set-up probe failed")
    return elapsed


def _read_ms(result) -> float:
    """Fastest of :data:`READS` reads of ``result``, in ms.

    The fastest, as ``timeit`` reports a deterministic computation: the
    read is memory-bound numpy work whose time follows the host's
    memory traffic (6-9 ms within one tight loop). The collector is off
    while timing (as in ``timeit``): after a run the heap holds the
    whole simulation, and a full collection landing in one read says
    nothing about the read.
    """
    for _ in range(READ_WARMUP):
        _read(result)
    samples = []
    gc.disable()
    try:
        for _ in range(READS):
            started = time.perf_counter()
            _read(result)
            samples.append((time.perf_counter() - started) * 1e3)
    finally:
        gc.enable()
    return min(samples)


def _sample(seed: int, run: dict, samples: dict[str, list[float]]) -> None:
    """Add one simulation's timings to ``samples``, then time
    :data:`SPAWNS_PER_SIMULATION` set-up spawns."""
    samples["cpu_s"].append(run["cpu_s"])
    samples["rounds_cpu_ms"] += run["rounds_cpu_ms"]
    samples["slices_cpu_ms"] += run["slices_cpu_ms"]
    for _ in range(SPAWNS_PER_SIMULATION):
        samples["setup_s"].append(_spawn_setup_probe(seed))


def outcome_digest(result) -> str:
    """Hash of the simulated outcome: every response time, completion
    time, pool adaptation and scale event. A change that only alters
    speed leaves it unchanged."""
    digest = hashlib.sha256()
    digest.update(result.completion_times.tobytes())
    digest.update(result.response_times.tobytes())
    digest.update(repr(result.adaptation_actions).encode())
    digest.update(repr(result.scale_events).encode())
    return digest.hexdigest()[:16]


def simulate(seed: int, duration: float = DURATION,
             profiler: cProfile.Profile | None = None,
             count_events: bool = False) -> dict:
    """Run the scenario once and return its timings and outcome.

    With ``count_events`` a step monitor (the engine's public observer
    hook) counts every event the engine processes; the slice marks this
    function schedules itself are not counted.
    """
    from repro.experiments import run_scenario

    scenario = build(seed, duration)
    env = scenario.env
    # One mark per slice of simulated time; the marks do nothing to the
    # model, so the outcome digest is the same with or without them.
    # Each mark and round keeps its wall and on-CPU (thread) time.
    marks: list[tuple[float, float]] = []
    stamp = time.perf_counter
    on_cpu = time.thread_time

    def mark() -> None:
        marks.append((stamp(), on_cpu()))

    horizon = duration + 2.0  # run_scenario's default drain
    for index in range(1, int(horizon / SLICE) + 1):
        env.call_at(index * SLICE, mark)
    rounds: list[tuple[float, float]] = []
    controller = scenario.controller
    control = controller.control

    def timed_control() -> None:
        started, cpu_started = stamp(), on_cpu()
        control()
        rounds.append((stamp() - started, on_cpu() - cpu_started))

    controller.control = timed_control
    processed = [0]
    count_events = count_events and hasattr(env, "add_monitor")
    if count_events:
        def monitor(_when, _sequence, _event) -> None:
            processed[0] += 1

        env.add_monitor(monitor)
    if profiler is not None:
        profiler.enable()
    cpu_started = time.process_time()
    started = stamp()
    first = (started, on_cpu())
    result = run_scenario(scenario, duration=duration)
    wall = stamp() - started
    cpu = time.process_time() - cpu_started
    if profiler is not None:
        profiler.disable()
    del controller.control
    if count_events:
        env.remove_monitor(monitor)
    edges = [first] + marks
    app = scenario.app
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "slices_ms": [(b[0] - a[0]) * 1e3 for a, b in zip(edges, edges[1:])],
        "slices_cpu_ms": [(b[1] - a[1]) * 1e3
                          for a, b in zip(edges, edges[1:])],
        "rounds_ms": [r[0] * 1e3 for r in rounds],
        "rounds_cpu_ms": [r[1] * 1e3 for r in rounds],
        "result": result,
        "scenario": scenario,
        "events": processed[0] - len(marks) if count_events else None,
        "completed": sum(log.total for log in app.latency.values()),
        "digest": outcome_digest(result),
    }


def _read(result) -> None:
    """Read what the Fig. 10 panels show: the summary row plus the
    response-time, goodput and probe series."""
    result.summary_row()
    result.response_time_series(interval=10.0)
    result.goodput_series(interval=10.0)
    for name in result.samples:
        result.series(name)


def _check_outcome(out: common.Result, run: dict) -> None:
    result = run["result"]
    app = run["scenario"].app
    out.check(run["completed"] + app.failed_total + app.in_flight
              == app.total_submitted,
              f"conservation: completed {run['completed']} + failed "
              f"{app.failed_total} + in flight {app.in_flight} == "
              f"submitted {app.total_submitted}")
    out.check(len(result.adaptation_actions) >= 1,
              f"Sora adapted the pool ({len(result.adaptation_actions)} "
              f"actions)")
    out.check(len(result.scale_events) >= 1,
              f"FIRM scaled ({len(result.scale_events)} events)")


def _spans_pass(seed: int, duration: float) -> tuple[dict, layers.Probe]:
    """Scenario run with the controller-side calls wrapped."""
    import repro.experiments  # noqa: F401  (bind names before patching)

    with layers.Probe(layers.DES_HOOKS) as probe:
        run = simulate(seed, duration, count_events=True)
    return run, probe


def _pool_grants(app) -> int:
    grants = 0
    for service in app.services.values():
        pools = list(service.client_pools.values())
        pools += [replica.server_pool for replica in service.replicas
                  if replica.server_pool is not None]
        grants += sum(pool.total_granted for pool in pools)
    return grants


def _layer_counts(run: dict) -> tuple[dict[str, float], list[str]]:
    """Public counters of the kernel layers, read after the run; a
    counter the program no longer has is reported absent."""
    app = run["scenario"].app
    readers = {
        "app.requests": lambda: app.total_submitted,
        "resources.pool.grants": lambda: _pool_grants(app),
        "tracing.spans": lambda: sum(1 for root in app.warehouse.traces()
                                     for _span in root.walk()),
    }
    values, absent = {}, []
    for name, read in readers.items():
        try:
            values[name] = float(read())
        except (AttributeError, TypeError):
            values[name] = 0.0
            absent.append(name)
    return values, absent


def run_workload(seed: int, seconds: float, trace: bool,
                 duration: float = DURATION) -> common.Result:
    """One benchmark run.

    Untraced, the scenario is simulated :data:`MIN_SIMULATIONS` times,
    or as often as fits in ``seconds`` if that is more, each time
    followed by its set-up spawns; every simulation must
    give the same outcome digest, and the metrics pool all of them. The
    host's speed drifts over tens of seconds, and one simulation is
    only 8-15 s of it. Traced, it is simulated once plainly, once
    wrapped and once profiled.
    """
    common.require_source()
    out = common.Result()
    began = time.perf_counter()
    plain = simulate(seed, duration)
    result = plain["result"]
    app = plain["scenario"].app
    out.attempted = app.total_submitted
    out.failed = app.failed_total
    _check_outcome(out, plain)
    goodput = result.goodput()
    p99_ms = result.percentile(99) * 1e3
    digest = plain["digest"]
    wall = plain["wall_s"]
    rounds_ms = plain["rounds_ms"]
    print(f"fig10_sora_firm seed {seed}: "
          f"{out.attempted} requests, {len(rounds_ms)} Sora "
          f"rounds, {len(result.adaptation_actions)} pool adaptations, "
          f"{len(result.scale_events)} scale events")
    print(f"outcome digest {digest}  sim_goodput_rps {goodput:.6f} req/s"
          f"  sim_p99_ms {p99_ms:.6f} ms")
    print(f"wall_s {wall:.6g}  round_p50_ms {common.median(rounds_ms):.6g}"
          f"  ingest_p90_ms "
          f"{common.percentile(plain['slices_ms'], 90):.6g}")

    if not trace:
        samples: dict[str, list[float]] = {
            key: [] for key in ("cpu_s", "rounds_cpu_ms", "slices_cpu_ms",
                                "setup_s")}
        _sample(seed, plain, samples)
        # Only one simulation's heap is alive at a time, so the peak RSS
        # is that of one simulation however many a run makes.
        del plain, result, app
        gc.collect()
        while True:
            elapsed = time.perf_counter() - began
            per_simulation = elapsed / len(samples["cpu_s"])
            if len(samples["cpu_s"]) >= MIN_SIMULATIONS \
                    and elapsed + per_simulation > seconds:
                break
            again = simulate(seed, duration)
            out.check(again["digest"] == digest,
                      f"simulation {len(samples['cpu_s']) + 1} reproduces "
                      f"the outcome digest")
            _sample(seed, again, samples)
            del again
            gc.collect()
        while len(samples["setup_s"]) < SETUP_SPAWNS:
            samples["setup_s"].append(_spawn_setup_probe(seed))
        print(f"{len(samples['cpu_s'])} simulations, "
              f"{len(samples['setup_s'])} set-up spawns in "
              f"{time.perf_counter() - began:.1f} s")
        out.metric("setup_s", common.median(samples["setup_s"]), "s")
        out.metric("cpu_s", common.median(samples["cpu_s"]), "s")
        out.metric("round_cpu_ms", common.typical(samples["rounds_cpu_ms"]),
                   "ms")
        out.metric("ingest_cpu_ms", common.typical(samples["slices_cpu_ms"]),
                   "ms")
        out.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
        return out

    counts, absent = _layer_counts(plain)
    counts["read_ms"] = _read_ms(result)
    counts["round_ms"] = common.typical(rounds_ms)
    counts["ingest_ms"] = common.typical(plain["slices_ms"])
    # A live simulation heap slows the cyclic collector in later passes;
    # drop it so the passes below run against the same heap size.
    del plain, result, app
    gc.collect()
    wrapped, probe = _spans_pass(seed, duration)
    out.check(wrapped["digest"] == digest,
              "wrapped run reproduces the outcome digest")
    wrapped_wall = wrapped["wall_s"]
    if wrapped["events"] is None:
        counts["sim.events"] = 0.0
        absent.append("sim.events")
    else:
        counts["sim.events"] = float(wrapped["events"])
    del wrapped
    gc.collect()
    profiler = cProfile.Profile()
    profiled = simulate(seed, duration, profiler=profiler)
    out.check(profiled["digest"] == digest,
              "profiled run reproduces the outcome digest")
    print(f"profiled pass: {profiled['wall_s']:.2f} s "
          f"(untraced {wall:.2f} s)")
    stats = pstats.Stats(profiler).stats

    values, missing = layers.span_metrics(layers.aggregate(probe.spans),
                                          probe.absent)
    absent += missing
    values.update(counts)
    for layer, share in layers.self_shares(stats).items():
        values[f"{layer}.self_share"] = share
    jobs = layers.profiled_calls(stats, "/repro/resources/cpu.py", "submit")
    values["resources.cpu.jobs"] = float(jobs or 0)
    if jobs is None:
        absent.append("resources.cpu.jobs")
    values["sim.events_per_s"] = values["sim.events"] / wall
    if "sim.events" in absent:
        absent.append("sim.events_per_s")
    values["wall_s"] = wall
    values["bench.trace_overhead_pct"] = (wrapped_wall - wall) / wall * 100.0
    values["sim_goodput_rps"] = goodput
    values["sim_p99_ms"] = p99_ms
    layers.report(out, values, absent)
    return out

if __name__ == "__main__":
    if sys.argv[1:2] == ["--setup-probe"]:
        common.require_source()
        build(int(sys.argv[2]))
        print("ready", flush=True)
