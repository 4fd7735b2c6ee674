"""Correctness checks computed apart from the program.

The cycle counts come from the paper's closed forms, written out here
again rather than imported: Eq. (1)/(2) for the fixed pipeline and
Eq. (3)/(4) for a k-collapsed one.  The only figures taken from the
program are the clock period of each pipeline mode (its timing model,
which these checks do not try to re-derive) and the GEMM lists its
workload registry lowers each model to.  The chosen mode of every layer
must be the fastest supported depth at those clocks, ties going to the
shallower mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

#: Relative tolerance on times (ns): cycles are exact integers, times are
#: the same products and sums the program forms, up to summation order.
REL_TOL = 1e-12


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def arrayflex_tile_cycles(rows: int, cols: int, t: int, k: int) -> int:
    """Eq. (3): L(k) = R + R/k + C/k + T - 2 (partial groups round up)."""
    return rows + ceil_div(rows, k) + ceil_div(cols, k) + t - 2


def conventional_tile_cycles(rows: int, cols: int, t: int) -> int:
    """Eq. (1): L = 2R + C + T - 2."""
    return 2 * rows + cols + t - 2


def tile_count(n: int, m: int, rows: int, cols: int) -> int:
    """The ceil(N/R) * ceil(M/C) tile factor of Eqs. (2) and (4)."""
    return ceil_div(n, rows) * ceil_div(m, cols)


@dataclass(frozen=True)
class Clocks:
    """Per-mode clock periods (ns) of one configuration, as the program's
    timing model reports them."""

    periods: dict[int, float]
    conventional: float


_CLOCKS: dict[tuple, Clocks] = {}


def program_clocks(rows: int, cols: int, depths: tuple[int, ...]) -> Clocks:
    key = (rows, cols, tuple(sorted(depths)))
    clocks = _CLOCKS.get(key)
    if clocks is None:
        from repro.core.clock import ClockModel
        from repro.core.config import ArrayFlexConfig

        model = ClockModel(ArrayFlexConfig(rows=rows, cols=cols, supported_depths=key[2]))
        clocks = Clocks(
            periods={k: model.period_ns(k) for k in key[2]},
            conventional=model.conventional_period_ns(),
        )
        _CLOCKS[key] = clocks
    return clocks


@dataclass(frozen=True)
class Layer:
    k: int
    cycles: int
    time_ns: float


@dataclass(frozen=True)
class ModelExpectation:
    layers: tuple[Layer, ...]
    time_ns: float
    conventional_time_ns: float

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    def histogram(self) -> dict[int, int]:
        return dict(Counter(layer.k for layer in self.layers))


def best_layer(m: int, n: int, t: int, rows: int, cols: int, clocks: Clocks) -> Layer:
    """The fastest supported mode of one GEMM (ties to the smaller k)."""
    tiles = tile_count(n, m, rows, cols)
    best: Layer | None = None
    for k in sorted(clocks.periods):
        cycles = arrayflex_tile_cycles(rows, cols, t, k) * tiles
        time_ns = cycles * clocks.periods[k]
        if best is None or time_ns < best.time_ns - 1e-12:
            best = Layer(k, cycles, time_ns)
    assert best is not None
    return best


def expect_model(
    gemms: list[tuple[int, int, int]], rows: int, cols: int, depths: tuple[int, ...]
) -> ModelExpectation:
    """Expected schedule of a GEMM list ``[(m, n, t), ...]``: per-layer
    mode, Eq. (4) cycles and time, and the Eq. (2) baseline time."""
    clocks = program_clocks(rows, cols, depths)
    layers = tuple(best_layer(m, n, t, rows, cols, clocks) for m, n, t in gemms)
    time_ns = 0.0
    conventional_ns = 0.0
    for (m, n, t), layer in zip(gemms, layers):
        time_ns += layer.time_ns
        conventional_ns += (
            conventional_tile_cycles(rows, cols, t)
            * tile_count(n, m, rows, cols)
            * clocks.conventional
        )
    return ModelExpectation(layers, time_ns, conventional_ns)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def gemm_tuples(workload) -> list[tuple[int, int, int]]:
    """A registry workload's GEMM list as plain ``(m, n, t)`` tuples."""
    return [(g.m, g.n, g.t) for g in workload.gemms()]
