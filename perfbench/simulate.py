"""simulate: the cycle backend and the functional simulation engine.

Each operation schedules one model of the CNN suite at batch 4 on a
fresh 64x64 ``CycleAccurateBackend`` (the ROADMAP's gate scenario for a
calibrated ``cycle`` backend) and runs one ``SimulationEngine.run_gemm``
on seeded int8 operands.  ``simulate_tiles`` and tiling do the work.
"""

from __future__ import annotations

import time

import numpy as np

from checks import close, expect_model, gemm_tuples
from common import (
    INPROC_PROBE_NOMINAL_MS,
    Op,
    ProbeLog,
    WorkloadResult,
    inproc_probe_ms,
    run_rounds,
)
from inputs import SIM_BATCH, SIM_DEPTHS, SIM_SIDE, SIM_SUITE, GemmOperands, simulate_inputs


def check_schedule(schedule, gemms: list[tuple[int, int, int]]) -> str | None:
    expected = expect_model(gemms, SIM_SIDE, SIM_SIDE, SIM_DEPTHS)
    if len(schedule.layers) != len(expected.layers):
        return f"{len(schedule.layers)} layers, expected {len(expected.layers)}"
    for got, want in zip(schedule.layers, expected.layers):
        if got.collapse_depth != want.k:
            return f"layer {got.index}: k={got.collapse_depth}, fastest is k={want.k}"
        if got.cycles != want.cycles:
            return f"layer {got.index}: {got.cycles} cycles, Eq. (4) gives {want.cycles}"
        if not close(got.execution_time_ns, want.time_ns):
            return f"layer {got.index}: {got.execution_time_ns} ns != {want.time_ns}"
    if not close(schedule.total_time_ns, expected.time_ns):
        return f"total {schedule.total_time_ns} ns != {expected.time_ns}"
    return None


def run(seed, result: WorkloadResult, *, seconds=None, rounds=None, layers=None):
    from repro.backends import CycleAccurateBackend
    from repro.core.config import ArrayFlexConfig
    from repro.sim.engine import SimulationEngine
    from repro.workloads import get_suite

    config = ArrayFlexConfig(rows=SIM_SIDE, cols=SIM_SIDE, supported_depths=SIM_DEPTHS)
    models = {w.name: w for w in get_suite(SIM_SUITE, batch=SIM_BATCH)}
    gemms = {name: gemm_tuples(w) for name, w in models.items()}
    round_inputs = simulate_inputs(seed, list(models))
    products = {
        name: operands.a.astype(np.int64) @ operands.b.astype(np.int64)
        for name, operands in round_inputs
    }

    def make_op(name: str, operands: GemmOperands) -> Op:
        def call():
            started = time.perf_counter()
            schedule = CycleAccurateBackend().schedule_model(models[name], config)
            scheduled = time.perf_counter()
            engine = SimulationEngine(
                SIM_SIDE, SIM_SIDE, collapse_depth=operands.collapse_depth
            )
            output, _ = engine.run_gemm(operands.a, operands.b)
            if layers:
                layers.end_simulate_op(scheduled - started, time.perf_counter() - scheduled)
            return schedule, output

        def check(out) -> str | None:
            schedule, output = out
            problem = check_schedule(schedule, gemms[name])
            if problem is None and not np.array_equal(output, products[name]):
                problem = "run_gemm output differs from the int64 NumPy product"
            return problem

        return Op(name, call, check)

    round_ops = [make_op(name, operands) for name, operands in round_inputs]
    probes = ProbeLog(nominal=INPROC_PROBE_NOMINAL_MS)
    if layers:
        layers.patch_simulate_tiles()
    try:
        timings = run_rounds(
            lambda index: round_ops, result, probes, inproc_probe_ms,
            seconds=seconds, rounds=rounds,
        )
    finally:
        if layers:
            layers.unpatch_simulate_tiles()
    return timings, probes
