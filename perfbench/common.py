"""Shared helpers: source location, statistics, memory, result line."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import typing as _t

#: Repository checkout the benchmark runs from (the parent of this
#: package), and the source tree it measures.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch space for journals, span dumps and server logs. It lives in
#: the checkout (the benchmark touches nothing outside it) and is
#: ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"


def require_source() -> None:
    """Put ``src`` on ``sys.path``; exit non-zero when it is missing.

    A directory holding only the benchmark files has nothing to
    measure, so the benchmark refuses to run there rather than report
    numbers about nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}; "
                         f"run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for spawned Python processes (server, set-up probe)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def work_dir(name: str) -> pathlib.Path:
    """A fresh per-run scratch directory (removed by :func:`cleanup`)."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
        WORK.parent.rmdir()
    except OSError:
        pass  # other runs (or build outputs) still use it


def percentile(values: _t.Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    import numpy as np

    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: _t.Sequence[float]) -> float:
    return percentile(values, 50.0)


#: Percentile band averaged by :func:`typical`.
TYPICAL_BAND = (10.0, 60.0)


def typical(values: _t.Sequence[float]) -> float:
    """Typical value of a latency sample: the mean of the values between
    its 10th and 60th percentile (at least one value).

    The band stays clear of the slow tail. In the service workloads the
    tail is a population of its own (requests queued behind a control
    round, about one in six scrapes, or hit by a full garbage
    collection, about one trace batch in ten), and a median or p90 near
    the boundary between the two populations flips from run to run.
    Averaging half the sample also smooths the rank noise of a median
    of few, unequal samples (the DES's rounds and slices follow the
    load curve).
    """
    if not len(values):
        raise ValueError("typical value of an empty sample")
    ordered = sorted(values)
    low = int(len(ordered) * TYPICAL_BAND[0] / 100.0)
    high = max(low + 1, int(round(len(ordered) * TYPICAL_BAND[1] / 100.0)))
    band = ordered[low:high]
    return float(sum(band)) / len(band)


def on_cpu_ns(pid: int | str = "self") -> int:
    """Nanoseconds all threads of a live process have run on a CPU
    (``/proc/<pid>/task/*/schedstat``, first field)."""
    total = 0
    for task in pathlib.Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread ended between listing and reading
    return total


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU seconds a live process has used so far."""
    text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = text.rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    text = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Result:
    """Metrics of one run plus its correctness verdict."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        """Record one correctness check (printed either way)."""
        print(f"check {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)

    def emit(self, names: _t.Iterable[str]) -> None:
        """Print the one-line JSON result (the last line of output).

        ``names`` is the metric set the mode promises (every end-to-end
        or every per-layer metric of ``BENCHMARK.json``).
        """
        names = list(names)
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        payload = {
            "correct": not self.failures,
            "attempted": int(max(1, self.attempted)),
            "failed": int(self.failed),
            "metrics": {name: {"value": self.metrics[name][0],
                               "unit": self.metrics[name][1]}
                        for name in names},
        }
        sys.stdout.flush()
        print(json.dumps(payload), flush=True)


def declared_metrics(section: str) -> list[tuple[str, str]]:
    """``(name, unit)`` pairs of one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in spec[section]]
