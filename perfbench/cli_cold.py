"""cli_cold: fresh ``python -m repro`` processes, one at a time.

A round is four invocations: ``compare --model resnet34``, ``decide``,
``compare --model bert_base`` and ``batch`` over the CNN suite against a
persistent decision store.  The run's first ``batch`` fills the store;
every later one reads it.  Importing ``repro`` is most of each
invocation, so this is the workload of the import layer and the store's
read path.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from checks import expect_model, gemm_tuples
from common import (
    PYTHON,
    SPAWN_PROBE_NOMINAL_S,
    Op,
    ProbeLog,
    WorkloadResult,
    run_child,
    run_rounds,
    spawn_probe_s,
)
from inputs import cli_inputs

#: The CLI's defaults, which the command mix relies on.
CLI_SIDE = 128
CLI_DEPTHS = (1, 2, 4)

_COMPARE_TIME = re.compile(r"execution time: conventional ([\d.]+) ms, ArrayFlex ([\d.]+) ms")
_COMPARE_MODES = re.compile(r"layers per pipeline mode: (\{[^}]*\})")
_DECIDE_BEST = re.compile(r"best collapse depth k = (\d+)")
_DECIDE_ROW = re.compile(r"^\s+k=(\d+):\s+([\d.]+) us", re.M)
_BATCH_ROW = re.compile(r"^(\S+)\s+(\d+)x(\d+)\s+([\d.]+)\s+([\d.]+)\s", re.M)
_BATCH_CACHE = re.compile(r"decision cache: (\d+) hits, (\d+) from disk, (\d+) solved")

#: Runs ``repro.cli.main`` like ``python -m repro`` does, and reports how
#: long the import and the command took on its last stderr line.  Used by
#: the traced run only.
TRACED_BOOTSTRAP = """\
import sys, time
started = time.perf_counter()
import repro.cli
imported = time.perf_counter()
code = repro.cli.main(sys.argv[1:])
done = time.perf_counter()
print(f"PERFBENCH {1e3 * (imported - started)} {1e3 * (done - imported)}", file=sys.stderr)
sys.exit(code)
"""


class _Checker:
    """Expected CLI outputs, from the closed forms in :mod:`checks`."""

    def __init__(self) -> None:
        self._models: dict[str, object] = {}
        self.batches_seen = 0

    def model(self, name: str):
        if name not in self._models:
            from repro.workloads import get_workload

            workload = get_workload(name)
            self._models[name] = (
                workload.name,
                expect_model(gemm_tuples(workload), CLI_SIDE, CLI_SIDE, CLI_DEPTHS),
            )
        return self._models[name]

    def check(self, kind: str, argv: list[str], out: str) -> str | None:
        if kind.startswith("compare"):
            return self._compare(argv[argv.index("--model") + 1], out)
        if kind == "decide":
            return self._decide(argv, out)
        return self._batch(out)

    def _compare(self, model: str, out: str) -> str | None:
        _, want = self.model(model)
        times = _COMPARE_TIME.search(out)
        modes = _COMPARE_MODES.search(out)
        if not times or not modes:
            return "compare output lacks the time or mode lines"
        got = (times.group(1), times.group(2))
        expected = (f"{want.conventional_time_ns / 1e6:.3f}", f"{want.time_ns / 1e6:.3f}")
        if got != expected:
            return f"compare {model}: times {got}, expected {expected}"
        if ast.literal_eval(modes.group(1)) != want.histogram():
            return f"compare {model}: modes {modes.group(1)}, expected {want.histogram()}"
        return None

    def _decide(self, argv: list[str], out: str) -> str | None:
        m, n, t = (int(argv[argv.index(flag) + 1]) for flag in ("--m", "--n", "--t"))
        want = expect_model([(m, n, t)], CLI_SIDE, CLI_SIDE, CLI_DEPTHS).layers[0]
        best = _DECIDE_BEST.search(out)
        if not best or int(best.group(1)) != want.k:
            return f"decide chose {best and best.group(1)}, the fastest is k={want.k}"
        from checks import arrayflex_tile_cycles, program_clocks, tile_count

        clocks = program_clocks(CLI_SIDE, CLI_SIDE, CLI_DEPTHS)
        rows = {int(k): value for k, value in _DECIDE_ROW.findall(out)}
        expected = {
            k: f"{arrayflex_tile_cycles(CLI_SIDE, CLI_SIDE, t, k) * tile_count(n, m, CLI_SIDE, CLI_SIDE) * clocks.periods[k] / 1e3:.2f}"
            for k in CLI_DEPTHS
        }
        if rows != expected:
            return f"decide per-k times {rows}, expected {expected}"
        return None

    def _batch(self, out: str) -> str | None:
        from repro.workloads import list_workloads

        self.batches_seen += 1
        rows = {name: (c, f) for name, _, _, c, f in _BATCH_ROW.findall(out)}
        for key in list_workloads("cnn"):
            name, want = self.model(key)
            expected = (f"{want.conventional_time_ns / 1e6:.3f}", f"{want.time_ns / 1e6:.3f}")
            if rows.get(name) != expected:
                return f"batch {name}: {rows.get(name)}, expected {expected}"
        cache = _BATCH_CACHE.search(out)
        if not cache:
            return "batch output lacks the decision-cache line"
        solved = int(cache.group(3))
        if self.batches_seen == 1 and solved == 0:
            return "the first batch of the run solved nothing: the store was not empty"
        if self.batches_seen > 1 and solved != 0:
            return f"a store-warm batch solved {solved} decisions instead of reading them"
        return None


def run(
    seed, result: WorkloadResult, scratch: Path, env: dict, store: str,
    *, seconds=None, rounds=None, layers=None,
):
    """``store`` names this pass's decision-store directory (new, empty)."""
    checker = _Checker()
    round_inputs = cli_inputs(seed, str(scratch / store))
    peak = [0.0]

    def make_op(kind: str, argv: list[str]) -> Op:
        def call():
            head = [PYTHON, "-c", TRACED_BOOTSTRAP] if layers else [PYTHON, "-m", "repro"]
            code, out, err, rss = run_child(head + argv, env, scratch)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.strip()[-300:]}")
            peak[0] = max(peak[0], rss)
            if layers:
                layers.cli_invocation(kind, checker.batches_seen, err)
            return out

        return Op(kind, call, lambda out: checker.check(kind, argv, out))

    round_ops = [make_op(kind, argv) for kind, argv in round_inputs]
    probes = ProbeLog(nominal=SPAWN_PROBE_NOMINAL_S * 1e3)
    timings = run_rounds(
        lambda index: round_ops, result, probes, lambda: spawn_probe_s(env) * 1e3,
        seconds=seconds, rounds=rounds,
    )
    result.metrics["peak_rss_mb"] = (peak[0], "MB")
    return timings, probes
