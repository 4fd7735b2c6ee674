"""Every input the benchmark feeds the program, made from one seed.

The program only ever receives what these functions return: command
lines, design points, operands and request bodies.  The same seed gives
the same inputs.  The invalid request bodies of the serve mix do not
depend on the seed, so the operations that fail on a named fault are the
same in every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------- #
# cli_cold: the command mix is fixed (the commands a user types most);
# the batch command's store directory is per run.
# ---------------------------------------------------------------------- #
CLI_COMMANDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("compare_resnet34", ("compare", "--model", "resnet34")),
    ("decide", ("decide", "--m", "512", "--n", "2304", "--t", "49")),
    ("compare_bert_base", ("compare", "--model", "bert_base")),
    ("batch", ("batch", "--suite", "cnn")),
)


def cli_inputs(seed: int, store_dir: str) -> list[tuple[str, list[str]]]:
    """One round of cold CLI invocations (``python -m repro`` argv tails)."""
    del seed  # the mix is fixed; kept for the common signature
    round_ = []
    for kind, argv in CLI_COMMANDS:
        if kind == "batch":
            argv = ("--cache-dir", store_dir) + argv
        round_.append((kind, list(argv)))
    return round_


# ---------------------------------------------------------------------- #
# sweep: design points over geometries x depth menus, per explorer kind
# ---------------------------------------------------------------------- #
SWEEP_SIDES = (32, 64, 96, 128, 192, 256)
#: Nested menus, so "adding a depth never raises latency" is checkable
#: inside one slice: (1,2) < (1,2,4) < (1,2,4,8) and (1,4) < (1,2,4).
SWEEP_MENUS = ((1, 2), (1, 4), (1, 2, 4), (1, 2, 4, 8))
SWEEP_SUITES = ("cnn", "transformers")
SWEEP_BATCHES = (1, 4)
SWEEP_ACTIVITY = ("constant", "utilization")
SWEEP_GEOMETRIES_PER_OP = 12


@dataclass(frozen=True)
class SweepOp:
    suite: str
    batch: int
    activity_model: str
    #: (rows, cols, depths) triples; 12 geometries x 4 menus = 48 points,
    #: below the explorer's auto-parallel threshold, so it runs serially
    points: tuple[tuple[int, int, tuple[int, ...]], ...]

    @property
    def kind(self) -> str:
        return f"{self.suite}@bs{self.batch}/{self.activity_model}"


def sweep_inputs(seed: int) -> list[SweepOp]:
    """One round: one explorer per (suite, batch, activity model)."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for suite in SWEEP_SUITES:
        for batch in SWEEP_BATCHES:
            for activity in SWEEP_ACTIVITY:
                geometries = set()
                while len(geometries) < SWEEP_GEOMETRIES_PER_OP:
                    rows, cols = rng.choice(SWEEP_SIDES, size=2)
                    geometries.add((int(rows), int(cols)))
                points = tuple(
                    (rows, cols, menu)
                    for rows, cols in sorted(geometries)
                    for menu in SWEEP_MENUS
                )
                ops.append(SweepOp(suite, batch, activity, points))
    return ops


# ---------------------------------------------------------------------- #
# simulate: the bs4 CNN suite on a 64x64 cycle backend, plus one
# functional run_gemm per model on seeded int8 operands
# ---------------------------------------------------------------------- #
SIM_SIDE = 64
SIM_DEPTHS = (1, 2, 4)
SIM_BATCH = 4
SIM_SUITE = "cnn"


@dataclass(frozen=True)
class GemmOperands:
    a: np.ndarray
    b: np.ndarray
    collapse_depth: int


#: (T, N, M, k) of the run_gemm that goes with each model, in suite order:
#: fixed, so every seed simulates the same work; the seed fills the operands.
SIM_GEMMS = ((64, 256, 128, 2), (96, 320, 192, 4), (48, 192, 96, 1))


def simulate_inputs(seed: int, models: list[str]) -> list[tuple[str, GemmOperands]]:
    """One round: each model with its own GEMM of seeded int8 operands."""
    rng = np.random.default_rng([seed, 2])
    round_ = []
    for name, (t, n, m, depth) in zip(models, SIM_GEMMS, strict=True):
        a = rng.integers(-128, 128, size=(t, n), dtype=np.int8)
        b = rng.integers(-128, 128, size=(n, m), dtype=np.int8)
        round_.append((name, GemmOperands(a, b, depth)))
    return round_


# ---------------------------------------------------------------------- #
# serve: one round of 80 requests; three in four travel on a fresh
# connection, one in four on the keep-alive connection, in pairs sent
# back to back (a session client making two calls in a row)
# ---------------------------------------------------------------------- #
SERVE_ROUND = 80
SERVE_ZOO = ("resnet34", "mobilenet_v1", "convnext_tiny", "bert_base", "vit_b16", "gpt2_decode")
#: Array configurations of the serve mix (rows, cols, depth menu).
SERVE_CONFIGS = (
    (64, 64, (1, 2, 4)),
    (128, 128, (1, 2, 4, 8)),
    (128, 256, (1, 2, 4)),
    (256, 128, (1, 2, 4, 8)),
)
SERVE_ZOO_PER_ROUND = 14

#: Invalid bodies and the status each should get.  All of them should be
#: rejected with 400; the first seven hit faults the daemon has today
#: (see the README), the last three are rejected correctly.
INVALID_BODIES: tuple[tuple[str, str], ...] = (
    ("nonfinite_dim", '{"v": 1, "model": [[64, 64, Infinity]]}'),
    ("nonfinite_rows", '{"v": 1, "model": "resnet34", "config": {"rows": Infinity}}'),
    ("unknown_model", '{"v": 1, "model": "no_such_model"}'),
    ("float_dim", '{"v": 1, "model": [[64, 64, 10.5]]}'),
    ("bool_dim", '{"v": 1, "model": [[64, 64, true]]}'),
    ("string_dim", '{"v": 1, "model": [[64, 64, "12"]]}'),
    ("nan_timeout", '{"v": 1, "model": "resnet34", "timeout": NaN}'),
    ("bad_json", '{"v": 1, "model": '),
    ("unknown_field", '{"v": 1, "model": "resnet34", "bogus": 1}'),
    ("negative_dim", '{"v": 1, "model": [[64, -3, 10]]}'),
)
EXPECTED_INVALID_STATUS = 400


@dataclass(frozen=True)
class ServeRequest:
    position: int
    #: "zoo", "custom" or "invalid:<name>"
    kind: str
    keepalive: bool
    body: bytes

    @property
    def burst(self) -> bool:
        """Due together with the request before it (the second call of a
        keep-alive pair)."""
        return self.position % 8 == 4


def serve_style(position: int) -> bool:
    """True when the request travels on the keep-alive connection."""
    return position % 8 in (3, 4)


def _invalid_position(position: int) -> bool:
    # Positions 1, 9, 17, ...: always fresh connections, spread evenly.
    return position % 8 == 1


def serve_inputs(seed: int, round_index: int) -> list[ServeRequest]:
    """The requests of one round: 10 invalid bodies, 14 zoo requests and
    56 custom GEMM lists.

    Zoo requests cycle, in a seeded order, through the same 12 bodies (6
    models x 2 configurations, every fourth asking for the conventional
    baseline), so repeats hit dedup and the decision cache.  Custom lists
    take their sizes (2 to 6 GEMMs), configuration and ``totals_only``
    flag in turn, and seeded dims that are new in every round, so they
    miss and write the store.  Every seed thus asks for the same amount
    of work.  With this mix the median latency falls inside the custom
    requests' cluster and the tail inside the stalled keep-alive calls,
    away from any boundary.
    """
    zoo_pool = [
        (model, config) for model in SERVE_ZOO for config in SERVE_CONFIGS[:2]
    ]
    order = np.random.default_rng([seed, 3]).permutation(len(zoo_pool))
    rng = np.random.default_rng([seed, 4, round_index])
    requests = []
    invalid = iter(INVALID_BODIES)
    zoo = custom = 0
    for position in range(SERVE_ROUND):
        keepalive = serve_style(position)
        if _invalid_position(position):
            name, body = next(invalid)
            requests.append(
                ServeRequest(position, f"invalid:{name}", keepalive, body.encode())
            )
            continue
        if (zoo + custom) % 5 == 0:
            index = round_index * SERVE_ZOO_PER_ROUND + zoo
            model, config = zoo_pool[order[index % len(zoo_pool)]]
            payload = {"v": 1, "model": model, "config": _config(config)}
            if index % 4 == 3:
                payload["conventional"] = True
            kind = "zoo"
            zoo += 1
        else:
            payload = {
                "v": 1,
                "model": [
                    [int(rng.integers(16, 1025)), int(rng.integers(16, 1025)),
                     int(rng.integers(1, 513))]
                    for _ in range(2 + custom % 5)
                ],
                "config": _config(SERVE_CONFIGS[custom % len(SERVE_CONFIGS)]),
                "model_name": f"custom-{round_index}-{position}",
            }
            if custom % 3 == 2:
                payload["totals_only"] = True
            kind = "custom"
            custom += 1
        requests.append(
            ServeRequest(position, kind, keepalive, json.dumps(payload).encode())
        )
    return requests


def _config(config: tuple[int, int, tuple[int, ...]]) -> dict:
    rows, cols, depths = config
    return {"rows": rows, "cols": cols, "depths": list(depths)}


def make_inputs(workload: str, seed: int) -> object:
    """Everything a workload prepares before its first operation (what
    ``setup_s`` times, together with importing ``repro``)."""
    from repro.workloads import get_suite

    if workload == "cli_cold":
        return cli_inputs(seed, "store")
    if workload == "sweep":
        ops = sweep_inputs(seed)
        suites = {(op.suite, op.batch): get_suite(op.suite, batch=op.batch) for op in ops}
        return ops, suites
    if workload == "simulate":
        models = get_suite(SIM_SUITE, batch=SIM_BATCH)
        return models, simulate_inputs(seed, [m.name for m in models])
    raise ValueError(f"no import-time set-up for {workload!r}")
