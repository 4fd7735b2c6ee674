"""Run-to-run spread of every end-to-end metric, raw and normalised.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads cli_cold sweep ...] [--seconds S]

Repeats each workload with a new seed per run, one run at a time, and
prints for each end-to-end metric the spread of its values (the distance
between the first and third quartile over the median) before and after
host-speed normalisation, next to the bound ``BENCHMARK.json`` gives it.
The normalised spread is what the bound is checked against; the raw one
shows what normalising gained.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        normalised: dict[str, list[float]] = {name: [] for name in bounds}
        raw: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for run in range(args.runs):
            seed = args.first_seed + run
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            raws = json.loads(lines[-2].removeprefix("RAW "))
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect", file=sys.stderr)
                return 1
            shares.add((result["failed"], result["attempted"]))
            for name in bounds:
                normalised[name].append(result["metrics"][name]["value"])
                raw[name].append(raws[name])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.5g} (raw {raws[name]:.5g})"
                for name in bounds
            ), flush=True)
        ratios = {f / a for f, a in shares}
        print(f"\n{workload}: failed/attempted {sorted(shares)} -> "
              f"{'one share' if len(ratios) == 1 else 'SHARES DIFFER'}")
        print(f"{'metric':<16}{'raw median':>12}{'median':>12}{'raw spread':>12}"
              f"{'spread':>10}{'bound':>8}")
        for name, bound in bounds.items():
            values = normalised[name]
            print(f"{name:<16}{statistics.median(raw[name]):>12.5g}"
                  f"{statistics.median(values):>12.5g}"
                  f"{spread(raw[name]):>12.4f}{spread(values):>10.4f}{bound:>8.3f}"
                  + ("" if name == "setup_s" or spread(values) <= bound / 3 else "  <- above a third of the bound"))
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
