"""Benchmark entry point.

    python3 perfbench/run.py --workload {cli_cold,sweep,simulate,serve} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures one workload for about ``S`` seconds
and prints its end-to-end metrics; with ``--trace 1`` it runs every
workload through the per-layer wrappers for a fixed number of rounds and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it (``RAW {...}``) carries the same end-to-end figures
before host-speed normalisation, for ``steadiness.py``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    PYTHON,
    SETUP_REPEATS,
    SPAWN_PROBE_NOMINAL_S,
    BenchmarkError,
    ProbeLog,
    Scratch,
    WorkloadResult,
    child_env,
    emit,
    latency_metrics,
    peak_rss_mb_self,
    require_sources,
    run_child,
    spawn_probe_s,
)

WORKLOADS = ("cli_cold", "sweep", "simulate", "serve")

#: How ``tail_ms`` is scaled by host speed (see ``latency_metrics``)
#: where the probes around each operation are not the steadiest choice
#: (ten runs each, see the README): a sweep operation is short enough to
#: run within one host phase, and serve's tail waits on a 40 ms kernel
#: timer that does not scale with the host.
TAIL_SCALING = {"sweep": "quantile", "serve": "none"}

#: Rounds of each workload in the traced run: enough for every per-layer
#: metric (two CLI rounds, so a store-warm batch is seen), few enough
#: that all four fit in about a minute.
TRACE_ROUNDS = {"cli_cold": 2, "sweep": 6, "simulate": 3, "serve": 3}

_SETUP_CODE = """\
import sys, time
started = time.perf_counter()
import repro
sys.path.insert(0, {bench!r})
from inputs import make_inputs
make_inputs({workload!r}, {seed!r})
print(time.perf_counter() - started)
"""
_WARM_UP_CODE = "import repro, repro.cli, repro.serve.daemon"


def warm_up(env: dict, scratch: Path) -> None:
    """One untimed import, so no timed child pays for compiling bytecode."""
    code, _, err, _ = run_child([PYTHON, "-c", _WARM_UP_CODE], env, scratch)
    if code != 0:
        raise BenchmarkError(f"importing repro failed: {err.strip()[-500:]}")


def import_setup(workload: str, seed: int, env: dict, scratch: Path, result) -> None:
    """``setup_s``: importing ``repro`` and making the inputs, in a fresh
    interpreter; the median of :data:`SETUP_REPEATS` such children,
    normalised by the median of the spawn probes interleaved with them."""
    probes = ProbeLog(nominal=SPAWN_PROBE_NOMINAL_S)
    code = _SETUP_CODE.format(bench=str(Path(__file__).resolve().parent),
                              workload=workload, seed=seed)
    raw = []
    probes.add(spawn_probe_s(env))
    for _ in range(SETUP_REPEATS):
        status, out, err, _ = run_child([PYTHON, "-c", code], env, scratch)
        if status != 0:
            raise BenchmarkError(f"set-up child failed: {err.strip()[-500:]}")
        probes.add(spawn_probe_s(env))
        raw.append(float(out.strip().splitlines()[-1]))
    result.metrics["setup_s"] = (statistics.median(raw) * probes.median_factor(), "s")
    result.raw["setup_s"] = statistics.median(raw)


def run_workload(name, seed, scratch, env, result, *, seconds=None, rounds=None,
                 layers=None, store="cli-store"):
    """One pass of one workload: (timings, probes)."""
    if name == "cli_cold":
        import cli_cold

        return cli_cold.run(seed, result, scratch, env, store,
                            seconds=seconds, rounds=rounds, layers=layers)
    if name == "serve":
        import serve

        return serve.run(seed, result, scratch, env,
                         seconds=seconds, rounds=rounds, layers=layers)
    module = __import__(name)
    return module.run(seed, result, seconds=seconds, rounds=rounds, layers=layers)


def measure(name: str, seed: int, seconds: float, scratch: Path, env: dict) -> WorkloadResult:
    """The end-to-end run of one workload."""
    result = WorkloadResult()
    warm_up(env, scratch)
    if name != "serve":
        import_setup(name, seed, env, scratch, result)
    timings, probes = run_workload(name, seed, scratch, env, result, seconds=seconds)
    norm = latency_metrics(result, timings, probes, TAIL_SCALING.get(name, "bracket"))
    if name != "serve":
        # A serial caller's sustained rate: operations per second of work.
        result.metrics["max_rate_per_s"] = (1e3 * len(norm) / sum(norm), "1/s")
        result.raw["max_rate_per_s"] = 1e3 * len(timings) / sum(t.raw_ms for t in timings)
    if "peak_rss_mb" not in result.metrics:
        result.metrics["peak_rss_mb"] = (peak_rss_mb_self(), "MB")
    result.raw["peak_rss_mb"] = result.metrics["peak_rss_mb"][0]
    order = ("setup_s", "p50_ms", "tail_ms", "max_rate_per_s", "peak_rss_mb")
    result.metrics = {key: result.metrics[key] for key in order}
    return result


def traced(name: str, seed: int, scratch: Path, env: dict) -> WorkloadResult:
    """Every per-layer metric, plus the tracing overhead on ``name``."""
    from tracing import Layers

    result = WorkloadResult()
    layers = Layers()
    warm_up(env, scratch)
    layers.import_breakdown(env)
    traced_p50 = None
    for workload in WORKLOADS:
        timings, probes = run_workload(
            workload, seed, scratch, env, result,
            rounds=TRACE_ROUNDS[workload], layers=layers, store=f"traced-{workload}",
        )
        if workload == name:
            traced_p50 = _p50(timings, probes)
    plain = WorkloadResult()
    timings, probes = run_workload(name, seed, scratch, env, plain,
                                   rounds=TRACE_ROUNDS[name], store="untraced")
    layers.add("obs.traced_over_untraced", traced_p50 / _p50(timings, probes))
    result.attempted += plain.attempted
    result.failed += plain.failed
    result.correct = result.correct and plain.correct
    result.notes += plain.notes
    result.metrics = layers.metrics()
    return result


def _p50(timings, probes) -> float:
    return statistics.median(t.raw_ms * probes.factor(t.start, t.end) for t in timings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_sources()
        with Scratch(args.workload) as scratch:
            env = child_env(scratch)
            if args.trace:
                result = traced(args.workload, args.seed, scratch, env)
            else:
                result = measure(args.workload, args.seed, args.seconds, scratch, env)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
