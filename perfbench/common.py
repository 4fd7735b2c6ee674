"""Shared plumbing of the benchmark: paths, reference probes, statistics.

Host-speed normalisation is written once here and used by every
workload.  A *reference probe* is a fixed piece of benchmark-owned work
whose duration tracks how fast this host runs right now.  Each measured
host time is divided by the duration of the probe that brackets it and
multiplied by that probe's frozen *nominal* duration, so a metric reads
in milliseconds (or seconds) on the reference host however fast or slow
the shared machine happens to be during the run.

Two probes exist, matched to the kind of work they bracket:

* :func:`inproc_probe_ms` — a fixed pure-Python plus NumPy loop, for
  operations that run inside the benchmark process and for the serve
  load generator, which runs it between sends;
* :func:`spawn_probe_s` — a fresh interpreter that imports a few stdlib
  modules and NumPy, for cold ``python -m repro`` processes and for
  set-up time, which is dominated by interpreter start and imports.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYTHON = sys.executable

#: Nominal durations of the two probes on the reference host (a 2-core
#: x86-64 sandbox, Python 3.11, NumPy 2.4), frozen so normalised figures
#: stay comparable across commits.  Changing them rescales every
#: normalised metric: do it only together with a new baseline.
INPROC_PROBE_NOMINAL_MS = 2.6
SPAWN_PROBE_NOMINAL_S = 0.29

#: The highest percentile reported as ``tail_ms`` is the one with at
#: least this many samples beyond it.
TAIL_BEYOND = 10

#: Interpreter start, a broad set of stdlib modules (unmarshalling and
#: running many module bodies, as importing a package does) and NumPy.
_SPAWN_PROBE_CODE = (
    "import numpy, json, decimal, email.parser, urllib.parse, http.server, "
    "argparse, asyncio, unittest, xml.etree.ElementTree, logging.handlers, "
    "concurrent.futures, statistics, fractions, dataclasses, inspect, pydoc, "
    "difflib, tarfile, zipfile, csv, pickle"
)

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 5


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def require_sources() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(scratch: Path) -> dict[str, str]:
    """Environment of every child process: the program from ``src``, and
    every cache directory inside the run's scratch space."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(scratch / "xdg-cache")
    env.pop("REPRO_LOG_LEVEL", None)
    return env


class Scratch:
    """A per-run directory inside the checkout, removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


# ---------------------------------------------------------------------- #
# Reference probes
# ---------------------------------------------------------------------- #
_PROBE_MATRIX = np.arange(48 * 48, dtype=np.float64).reshape(48, 48) / 4096.0


def _probe_work() -> float:
    acc = 0
    table: dict[int, int] = {}
    for i in range(3000):
        key = i & 127
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
    m = _PROBE_MATRIX
    for _ in range(12):
        m = np.tanh(m @ _PROBE_MATRIX)
    v = np.arange(2048, dtype=np.float64)
    for _ in range(12):
        v = np.sqrt(v * 1.0001 + 1.0)
    return acc + float(m[0, 0]) + float(v[-1]) + len(table)


def inproc_probe_ms() -> float:
    """Duration of the in-process reference probe, in milliseconds.

    The median of three short repetitions, so one preemption of this
    process by a neighbour does not pass for a slow host.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _probe_work()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples) * 3.0


def spawn_probe_s(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing stdlib modules and NumPy."""
    start = time.perf_counter()
    subprocess.run(
        [PYTHON, "-c", _SPAWN_PROBE_CODE],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


@dataclass
class ProbeLog:
    """Time-stamped probe durations, for bracketing the measurements."""

    nominal: float
    stamps: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.stamps.append(time.perf_counter())
        self.values.append(value)

    def factor(self, start: float, end: float) -> float:
        """Multiply a host time taken between ``start`` and ``end`` by this
        to express it on the reference host: nominal over the mean of the
        last probe before ``start`` and the first after ``end``.

        The host switches between speeds within tens of milliseconds, so
        the probes adjacent to a measurement track it best; medians over
        wider windows were measured to spread more from run to run."""
        if not self.values:
            raise BenchmarkError("no reference probe was taken")
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        picked = [self.values[i] for i in (before, after) if 0 <= i < len(self.values)]
        return self.nominal / (sum(picked) / len(picked))

    def median_factor(self) -> float:
        return self.nominal / statistics.median(self.values)


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def tail_value(samples: list[float]) -> float:
    """The highest sample with at least :data:`TAIL_BEYOND` samples beyond
    it (for fewer than ``TAIL_BEYOND + 1`` samples, the smallest)."""
    ordered = sorted(samples)
    return ordered[max(len(ordered) - 1 - TAIL_BEYOND, 0)]


def tail_percentile(count: int) -> float:
    """Which percentile :func:`tail_value` reads for ``count`` samples."""
    if count <= 1:
        return 0.0
    return 100.0 * max(count - 1 - TAIL_BEYOND, 0) / (count - 1)


@dataclass
class Timing:
    """One timed operation: raw host time and its bracketing window."""

    raw_ms: float
    start: float
    end: float


@dataclass
class WorkloadResult:
    """What one workload run hands back to the entry point."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    #: name -> (normalised value, unit) for the contract's metrics
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: name -> raw (not normalised) value, for the steadiness report
    raw: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def mismatch(self, message: str) -> None:
        self.correct = False
        self.notes.append(f"MISMATCH {message}")


@dataclass
class Op:
    """One operation of a round: the call into the program, timed, and
    the check of its output, untimed.  ``check`` returns a message when
    the output is wrong; a call that raises counts as a failed operation."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def run_rounds(
    make_round: Callable[[int], list[Op]],
    result: WorkloadResult,
    probes: ProbeLog,
    probe: Callable[[], float],
    *,
    seconds: float | None = None,
    rounds: int | None = None,
) -> list[Timing]:
    """Run whole rounds of operations, each bracketed by reference probes.

    With ``seconds``, a new round starts only while the previous round's
    duration still fits before the deadline (at least one round runs), so
    every run attempts whole rounds; with ``rounds``, exactly that many.
    """
    timings: list[Timing] = []
    deadline = time.perf_counter() + (seconds or 0.0)
    last_round = 0.0
    index = 0
    while True:
        started = time.perf_counter()
        if rounds is not None and index >= rounds:
            break
        if rounds is None and index > 0 and started + last_round > deadline:
            break
        for op in make_round(index):
            probes.add(probe())
            result.attempted += 1
            start = time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # a failed operation, counted not fatal
                result.failed += 1
                result.notes.append(f"FAILED {op.kind}: {type(exc).__name__}: {exc}")
                continue
            end = time.perf_counter()
            timings.append(Timing((end - start) * 1e3, start, end))
            problem = op.check(output)
            if problem:
                result.mismatch(f"{op.kind}: {problem}")
        last_round = time.perf_counter() - started
        index += 1
    probes.add(probe())
    return timings


def latency_metrics(
    result: WorkloadResult, timings: list[Timing], probes: ProbeLog, tail_scaling: str
) -> list[float]:
    """Fill ``p50_ms``/``tail_ms`` (normalised and raw); returns the
    samples scaled by the probes around each operation.

    ``p50_ms`` scales every operation by the probes around it.
    ``tail_scaling`` says how ``tail_ms`` is scaled:

    * ``"bracket"``: the same way;
    * ``"quantile"``: the raw tail by the same percentile of the run's
      probes, for operations short enough that each runs within one host
      phase, so the slowest operations met the slowest phases, as the
      slowest probes did;
    * ``"none"``: as measured.
    """
    if not timings:
        raise BenchmarkError("no operation completed")
    raw = [t.raw_ms for t in timings]
    norm = [t.raw_ms * probes.factor(t.start, t.end) for t in timings]
    result.raw["p50_ms"] = statistics.median(raw)
    result.raw["tail_ms"] = tail_value(raw)
    p50 = statistics.median(norm)
    if tail_scaling == "bracket":
        tail = tail_value(norm)
    elif tail_scaling == "quantile":
        ordered = sorted(probes.values)
        share = tail_percentile(len(raw)) / 100.0
        tail = result.raw["tail_ms"] * probes.nominal / ordered[round(share * (len(ordered) - 1))]
    else:
        tail = result.raw["tail_ms"]
    result.metrics["p50_ms"] = (p50, "ms")
    result.metrics["tail_ms"] = (tail, "ms")
    result.notes.append(
        f"{len(norm)} operations; tail_ms is p{tail_percentile(len(norm)):.1f}; "
        f"median probe {statistics.median(probes.values):.4g} "
        f"(nominal {probes.nominal:.4g})"
    )
    return norm


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(
    argv: list[str], env: dict[str, str], scratch: Path
) -> tuple[int, str, str, float]:
    """Run one child to completion: (exit code, stdout, stderr, peak RSS MB).

    The child is reaped with ``wait4`` so its own peak resident memory is
    known, not the maximum over every child this process ever had.
    stderr goes to a file, so reading stdout to its end cannot deadlock.
    """
    err_path = scratch / "child-stderr.txt"
    with open(err_path, "w+") as err_file:
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=err_file, text=True
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return proc.returncode, out, err, usage.ru_maxrss / 1024.0


def emit(result: WorkloadResult) -> None:
    """Print the human-readable lines, then the one-line JSON result."""
    for note in result.notes:
        print(f"# {note}")
    for name, (value, unit) in result.metrics.items():
        raw = result.raw.get(name)
        extra = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"{name:<32} {value:>14.6g} {unit}{extra}")
    print("RAW " + json.dumps(result.raw, sort_keys=True))
    metrics = {}
    for name, (value, unit) in result.metrics.items():
        if not math.isfinite(value):
            raise BenchmarkError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
