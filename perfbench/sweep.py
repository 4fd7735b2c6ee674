"""sweep: in-process design-space exploration.

Each operation builds a fresh ``DesignSpaceExplorer`` for one suite,
batch and activity model, explores a slice of 48 design points (12
geometries x four depth menus, below the auto-parallel threshold so it
runs serially) and ranks the same slice again.  The first pass runs the
Eq. (6)/(7) mode search for every layer; the second is answered by the
explorer's decision cache.
"""

from __future__ import annotations

import time

from checks import close, expect_model, gemm_tuples
from common import (
    INPROC_PROBE_NOMINAL_MS,
    Op,
    ProbeLog,
    WorkloadResult,
    inproc_probe_ms,
    run_rounds,
)
from inputs import SWEEP_MENUS, SweepOp, sweep_inputs


class _Expected:
    """Independent per-model (ArrayFlex, conventional) times, memoised."""

    def __init__(self) -> None:
        self._suites: dict[tuple[str, int], list[tuple[str, list]]] = {}
        self._times: dict[tuple, list[tuple[str, float, float]]] = {}

    def models(self, suite: str, batch: int) -> list[tuple[str, list]]:
        key = (suite, batch)
        if key not in self._suites:
            from repro.workloads import get_suite

            self._suites[key] = [
                (w.name, gemm_tuples(w)) for w in get_suite(suite, batch=batch)
            ]
        return self._suites[key]

    def point(self, suite: str, batch: int, point: tuple) -> list[tuple[str, float, float]]:
        key = (suite, batch, point)
        if key not in self._times:
            rows, cols, depths = point
            self._times[key] = [
                (name, e.time_ns, e.conventional_time_ns)
                for name, gemms in self.models(suite, batch)
                for e in [expect_model(gemms, rows, cols, depths)]
            ]
        return self._times[key]


def check_sweep(op: SweepOp, output, expected: _Expected) -> str | None:
    explored, ranked = output
    if [r.point for r in explored] != [_point(p) for p in op.points]:
        return "explore returned points out of order"
    savings: dict[tuple, dict[str, float]] = {}
    for result, point in zip(explored, op.points):
        models = expected.point(op.suite, op.batch, point)
        flex = 0.0
        conv = 0.0
        for name, flex_ns, conv_ns in models:
            flex += flex_ns
            conv += conv_ns
            got = result.per_model_latency_saving[name]
            if not close(got, 1.0 - flex_ns / conv_ns, 1e-9):
                return f"{result.label} {name}: saving {got} != {1.0 - flex_ns / conv_ns}"
        if not close(result.arrayflex_time_ms, flex / 1e6):
            return f"{result.label}: ArrayFlex time {result.arrayflex_time_ms} != {flex / 1e6}"
        if not close(result.conventional_time_ms, conv / 1e6):
            return f"{result.label}: conventional time {result.conventional_time_ms} != {conv / 1e6}"
        savings[point] = result.per_model_latency_saving
    # Adding a depth to a menu never raises a model's latency.
    for rows, cols, small in op.points:
        for big in SWEEP_MENUS:
            if set(small) < set(big):
                for name, saving in savings[(rows, cols, small)].items():
                    if savings[(rows, cols, big)][name] < saving - 1e-12:
                        return f"{rows}x{cols} {name}: menu {big} slower than {small}"
    by_saving = sorted(explored, key=lambda r: r.latency_saving, reverse=True)
    if [(r.point, r.latency_saving) for r in ranked] != [
        (r.point, r.latency_saving) for r in by_saving
    ]:
        return "rank disagrees with explore"
    return None


def _point(point: tuple):
    from repro.core.design_space import DesignPoint

    rows, cols, depths = point
    return DesignPoint(rows=rows, cols=cols, supported_depths=depths)


def run(seed, result: WorkloadResult, *, seconds=None, rounds=None, layers=None):
    """Measure the sweep operations; ``layers`` (traced run only) times
    the backend calls through a proxy passed to the explorer."""
    from repro.core.design_space import DesignSpaceExplorer
    from repro.workloads import get_suite

    ops = sweep_inputs(seed)
    expected = _Expected()
    suites = {(op.suite, op.batch): get_suite(op.suite, batch=op.batch) for op in ops}
    points = {op: [_point(p) for p in op.points] for op in ops}

    def make_op(op: SweepOp) -> Op:
        def call():
            started = time.perf_counter()
            backend = layers.sweep_backend() if layers else None
            explorer = DesignSpaceExplorer(
                suites[(op.suite, op.batch)],
                backend=backend,
                activity_model=op.activity_model,
            )
            explored = explorer.explore(points[op])
            ranked = explorer.rank(points[op], objective="latency_saving")
            if layers:
                layers.end_sweep_op(explorer.backend, time.perf_counter() - started)
            return explored, ranked

        return Op(op.kind, call, lambda output: check_sweep(op, output, expected))

    round_ops = [make_op(op) for op in ops]
    probes = ProbeLog(nominal=INPROC_PROBE_NOMINAL_MS)
    timings = run_rounds(
        lambda index: round_ops, result, probes, inproc_probe_ms,
        seconds=seconds, rounds=rounds,
    )
    return timings, probes

