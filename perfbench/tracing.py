"""Per-layer measurements for the traced run.

Everything here is benchmark code around the program's public entry
points; none of it is active in an end-to-end run.  Layers are timed at
their boundaries from the outside:

* a timing proxy passed as ``DesignSpaceExplorer(backend=...)`` splits a
  sweep operation into workload lowering, backend totals (mode search
  and decision cache) and the explorer's own time;
* a wrapper around ``CycleAccurateSystolicArray.simulate_tiles``, set for
  the traced simulate pass only, counts tiles and MACs and times them;
* a bootstrap running ``repro.cli.main`` times each cold command apart
  from its import;
* the serve protocol and ``SchedulingService.submit`` are timed in this
  process on the same bodies the daemon received;
* ``python -X importtime`` breaks the import down;
* ``GET /metrics`` gives the daemon's dedup and decision-cache counters.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from collections import defaultdict

from common import PYTHON

#: Per-layer metric -> (unit, reduction over its samples).  Times are
#: medians; counts are means per operation over whole rounds, so they
#: repeat exactly for a seed.
PER_LAYER: dict[str, tuple[str, str]] = {
    "import.repro_ms": ("ms", "median"),
    "import.networkx_ms": ("ms", "median"),
    "import.repro_self_ms": ("ms", "median"),
    "cli.main_ms.compare_resnet34": ("ms", "median"),
    "cli.main_ms.decide": ("ms", "median"),
    "cli.main_ms.compare_bert_base": ("ms", "median"),
    "cli.batch_cold_ms": ("ms", "median"),
    "cli.batch_warm_ms": ("ms", "median"),
    "workloads.lower_ms": ("ms", "median"),
    "backends.totals_ms": ("ms", "median"),
    "backends.layer_decisions": ("count", "mean"),
    "backends.decision_hits": ("count", "mean"),
    "core.explore_self_ms": ("ms", "median"),
    "sim.cycle_schedule_ms": ("ms", "median"),
    "sim.tile_batch_ms": ("ms", "median"),
    "sim.tiles": ("count", "mean"),
    "sim.macs": ("count", "mean"),
    "sim.run_gemm_ms": ("ms", "median"),
    "serve.decode_us": ("us", "median"),
    "serve.encode_us": ("us", "median"),
    "serve.submit_ms": ("ms", "median"),
    "serve.fresh_conn_ms": ("ms", "median"),
    "serve.keepalive_ms": ("ms", "median"),
    "serve.dedup_hits": ("count", "mean"),
    "serve.decision_hits": ("count", "mean"),
    "serve.decision_misses": ("count", "mean"),
    "serve.lateness_ms": ("ms", "p99"),
    "obs.traced_over_untraced": ("ratio", "median"),
}


class TimingBackend:
    """Forwards to a batched backend, timing lowering and totals apart.

    The explorer only asks for totals; lowering the workload here and
    handing the backend the GEMM list gives the same numbers, because
    the backend would lower it the same way itself.
    """

    name = "batched"

    def __init__(self) -> None:
        from repro.backends import BatchedCachedBackend

        self.inner = BatchedCachedBackend()
        self.lower_s = 0.0
        self.totals_s = 0.0

    def schedule_model_totals(self, model, config, model_name=None, conventional=False):
        from repro.core.metrics import resolve_workload

        started = time.perf_counter()
        gemms, name = resolve_workload(model, model_name)
        lowered = time.perf_counter()
        totals = self.inner.schedule_model_totals(
            gemms, config, model_name=name, conventional=conventional
        )
        self.lower_s += lowered - started
        self.totals_s += time.perf_counter() - lowered
        return totals

    def schedule_layer(self, gemm, config, index=1):
        return self.inner.schedule_layer(gemm, config, index=index)

    def schedule_model(self, model, config, model_name=None):
        return self.inner.schedule_model(model, config, model_name=model_name)

    def schedule_model_conventional(self, model, config, model_name=None):
        return self.inner.schedule_model_conventional(model, config, model_name=model_name)


class Layers:
    """Collects per-layer samples during the traced passes."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._tiles = 0
        self._macs = 0
        self._tile_s = 0.0
        self._original = None

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    # sweep ------------------------------------------------------------- #
    def sweep_backend(self) -> TimingBackend:
        return TimingBackend()

    def end_sweep_op(self, backend: TimingBackend, wall_s: float) -> None:
        info = backend.inner.cache_info()
        self.add("workloads.lower_ms", backend.lower_s * 1e3)
        self.add("backends.totals_ms", backend.totals_s * 1e3)
        self.add("core.explore_self_ms", (wall_s - backend.lower_s - backend.totals_s) * 1e3)
        self.add("backends.layer_decisions", info["hits"] + info["misses"] + info["store_hits"])
        self.add("backends.decision_hits", info["hits"])

    # simulate ---------------------------------------------------------- #
    def patch_simulate_tiles(self) -> None:
        from repro.sim.systolic_sim import CycleAccurateSystolicArray

        original = CycleAccurateSystolicArray.simulate_tiles
        self._original = original
        layers = self

        def simulate_tiles(array, a_tiles, b_tiles):
            started = time.perf_counter()
            results = original(array, a_tiles, b_tiles)
            layers._tile_s += time.perf_counter() - started
            layers._tiles += len(results)
            layers._macs += sum(
                len(a) * len(a[0]) * r.output.shape[1] for a, r in zip(a_tiles, results)
            )
            return results

        CycleAccurateSystolicArray.simulate_tiles = simulate_tiles

    def unpatch_simulate_tiles(self) -> None:
        from repro.sim.systolic_sim import CycleAccurateSystolicArray

        CycleAccurateSystolicArray.simulate_tiles = self._original

    def end_simulate_op(self, schedule_s: float, run_gemm_s: float) -> None:
        self.add("sim.cycle_schedule_ms", schedule_s * 1e3)
        self.add("sim.run_gemm_ms", run_gemm_s * 1e3)
        self.add("sim.tile_batch_ms", self._tile_s * 1e3)
        self.add("sim.tiles", self._tiles)
        self.add("sim.macs", self._macs)
        self._tiles = self._macs = 0
        self._tile_s = 0.0

    # cli_cold ---------------------------------------------------------- #
    def cli_invocation(self, kind: str, batches_before: int, stderr: str) -> None:
        line = [ln for ln in stderr.splitlines() if ln.startswith("PERFBENCH ")][-1]
        main_ms = float(line.split()[2])
        if kind == "batch":
            name = "cli.batch_cold_ms" if batches_before == 0 else "cli.batch_warm_ms"
        else:
            name = f"cli.main_ms.{kind}"
        self.add(name, main_ms)

    # serve ------------------------------------------------------------- #
    def serve_inprocess(self, decode_s: float, submit_s: float, encode_s: float) -> None:
        self.add("serve.decode_us", decode_s * 1e6)
        self.add("serve.submit_ms", submit_s * 1e3)
        self.add("serve.encode_us", encode_s * 1e6)

    def serve_http(self, base, metrics: dict) -> None:
        for item in base:
            self.add("serve.lateness_ms", item.lateness * 1e3)
            if item.error or item.request.kind.startswith("invalid:"):
                continue
            # A keep-alive pair's first call follows an idle gap and is
            # answered like a fresh one; the second reuses a connection
            # busy a moment ago, which is where the stall shows.
            if not item.request.keepalive:
                self.add("serve.fresh_conn_ms", item.latency_ms)
            elif item.request.burst:
                self.add("serve.keepalive_ms", item.latency_ms)
        service = metrics.get("service", {})
        self.add("serve.dedup_hits", service.get("deduplicated", 0))
        self.add("serve.decision_hits", service.get("hits", 0))
        self.add("serve.decision_misses", service.get("misses", 0))

    # import ------------------------------------------------------------ #
    def import_breakdown(self, env: dict, repeats: int = 3) -> None:
        """``-X importtime`` of ``import repro`` in fresh interpreters."""
        for _ in range(repeats):
            proc = subprocess.run(
                [PYTHON, "-X", "importtime", "-c", "import repro"],
                env=env, capture_output=True, text=True, check=True,
            )
            repro_ms = networkx_ms = self_us = 0.0
            for line in proc.stderr.splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                fields = line[len("import time:"):].split("|")
                try:
                    own, cumulative = int(fields[0]), int(fields[1])
                except ValueError:
                    continue  # the header line
                module = fields[2].strip()
                if module == "repro":
                    repro_ms = cumulative / 1e3
                elif module == "networkx":
                    networkx_ms = cumulative / 1e3
                if module == "repro" or module.startswith("repro."):
                    self_us += own
            self.add("import.repro_ms", repro_ms)
            self.add("import.networkx_ms", networkx_ms)
            self.add("import.repro_self_ms", self_us / 1e3)

    # ------------------------------------------------------------------ #
    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name, (unit, how) in PER_LAYER.items():
            values = self.samples.get(name)
            if not values:
                raise RuntimeError(f"per-layer metric {name} was not measured")
            if how == "median":
                value = statistics.median(values)
            elif how == "mean":
                value = statistics.fmean(values)
            else:
                value = sorted(values)[min(len(values) - 1, int(0.99 * len(values)))]
            out[name] = (float(value), unit)
        return out
