"""Microbenchmarks of transformation counting and enumeration: the count
from X^20000 into 1600 copies of X, on diagrams that keep their sort
groups from the first call (poly._by_sort) and on fresh diagrams built
for each call, which group their directions first, and the enumeration
out of the tensor of X^2 + X and X^2 + 1 into X^2 + X + 1, one pair of
the kind the adjunction workload enumerates.

These cases sit outside the tier-1 test paths and need pytest-benchmark:

    PYTHONPATH=src python -m pytest bench

With --benchmark-disable each case runs once, as a smoke check; its
timings are not a gate.
"""
import pytest

from polycat import nat, poly

pytest.importorskip("pytest_benchmark")

WIDE = poly.single_sorted((20000,))
COPIES = poly.single_sorted((1,) * 1600)
TENSOR = poly.tensor(poly.single_sorted((2, 1)), poly.single_sorted((2, 0)))
P3 = poly.single_sorted((2, 1, 0))


def test_count_nat(benchmark):
    # each copy of X takes one of the 20000 directions
    assert benchmark(nat.count_nat, WIDE, COPIES) == 1600 * 20000


def test_count_nat_cold(benchmark):
    def fresh():
        return (poly.single_sorted((20000,)), poly.single_sorted((1,) * 1600)), {}

    assert benchmark.pedantic(nat.count_nat, setup=fresh, rounds=5) == 1600 * 20000


def test_enumerate_dm(benchmark):
    ms = benchmark(nat.enumerate_dm, TENSOR, P3)
    # X^4 has 16 + 4 + 1 tables into X^2 + X + 1, X^2 has 4 + 2 + 1, and
    # the two constant shapes go to the constant one way each
    assert len(ms) == len(set(ms)) == 21 * 7 == nat.count_nat(TENSOR, P3)
