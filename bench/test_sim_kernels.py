"""Microbenchmarks of the simulation-cell kernels on fixed instances of
the simcells grid: evaluation, extraction with a precomputed oracle,
building a cell from its rows, counting and enumerating cells.

These cases sit outside the tier-1 test paths and need pytest-benchmark:

    PYTHONPATH=src python -m pytest bench

With --benchmark-disable each case runs once, as a smoke check; its
timings are not a gate.
"""
import random

import pytest

from polycat import nat, poly, sim
from polycat.fam import Span
from polycat.finset import FinMap, FinSet

pytest.importorskip("pytest_benchmark")

# the grid pair (1, 2) -> (1, 2) over the constant two-state span: 14,400
# cells, so a seeded one stands in for the enumeration
P = poly.single_sorted((1, 2))
LEG = FinMap(FinSet(2), FinSet(1), (0, 0))
SPAN = Span(FinSet(2), LEG, LEG)
# the same pair over the one-state span has 12 cells
ONE = Span(FinSet(1), FinMap(FinSet(1), FinSet(1), (0,)), FinMap(FinSet(1), FinSet(1), (0,)))
CELL = sim.random_cell(random.Random(18), P, P, SPAN)
FAMILIES = tuple(nat.check_families(P)) + tuple(nat.generic_family(P, v)[0] for v in P.shapes)
COMPONENTS = {x: sim.eval_sim(CELL, x) for x in FAMILIES}


def test_eval_sim(benchmark):
    checks = nat.check_families(P)

    def run():
        return [sim.eval_sim(CELL, x) for x in checks]

    assert benchmark(run) == [COMPONENTS[x] for x in checks]


def test_extract_sim(benchmark):
    got = benchmark(sim.extract_sim, COMPONENTS.__getitem__, SPAN, P, P)
    assert got == CELL


def test_cell_from_rows(benchmark):
    assert benchmark(sim._cell, SPAN, P, P, CELL._plan) == CELL


def test_count_sim(benchmark):
    assert benchmark(sim.count_sim, P, P, SPAN) == 14_400


def test_enumerate_sim(benchmark):
    cells = benchmark(sim.enumerate_sim, P, P, ONE)
    assert len(cells) == sim.count_sim(P, P, ONE) == 12
