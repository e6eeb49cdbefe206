"""Microbenchmarks of the kernels that read each direction's position in
its shape's fiber: the isomorphism check, on a diagram that keeps its
sort groups from the first call (poly._by_sort) and on two fresh ones
built for each call, and the component of a container morphism, all on
one shape of 40,000 directions, and the positions of a 10^6-point map,
built afresh for each round.

These cases sit outside the tier-1 test paths and need pytest-benchmark:

    PYTHONPATH=src python -m pytest bench

With --benchmark-disable each case runs once, as a smoke check; its
timings are not a gate.
"""
import random

import pytest

from polycat import fam, nat, poly
from polycat.finset import FinMap, FinSet

pytest.importorskip("pytest_benchmark")

N = 40000
WIDE = poly.single_sorted((N,))
POINT = fam.family_from_fibers(FinSet(1), (1,))
# 10^6 points over 1000 fibers, in a seeded order
TABLE = tuple(random.Random(7).randrange(1000) for _ in range(10**6))


def test_iso_check(benchmark):
    iso = benchmark(poly.iso_check, WIDE, WIDE)
    assert iso.forward.betas == (tuple(range(N)),)


def test_iso_check_cold(benchmark):
    def fresh():
        return (poly.single_sorted((N,)), poly.single_sorted((N,))), {}

    iso = benchmark.pedantic(poly.iso_check, setup=fresh, rounds=5)
    assert iso.forward.betas == (tuple(range(N)),)


def test_eval_dm(benchmark):
    m = nat.identity_dm(WIDE)
    comp = benchmark(nat.eval_dm, m, POINT)
    assert comp.map.table == (0,)


def test_positions(benchmark):
    def fresh():
        return (FinMap(FinSet(len(TABLE)), FinSet(1000), TABLE),), {}

    positions = benchmark.pedantic(FinMap.positions, setup=fresh, rounds=5)
    assert len(positions) == len(TABLE) and max(positions) < len(TABLE)
