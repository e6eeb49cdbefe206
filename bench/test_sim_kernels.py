"""Microbenchmarks of the simulation-cell kernels on fixed instances of
the simcells grid: evaluation, evaluation of every cell of one instance
over one span (the table slices held in the span's frame serve them
all), extraction with a precomputed oracle, the round trip of every
cell of one instance over one span (the frame held on the span serves
them all) and of one cell over a fresh span (the frame is built anew),
building a cell from its rows, counting cells (on held diagrams and on
fresh ones, whose sort groups are built in the timed call) and
enumerating them (the grid instance's 225 too), drawing four seeded
cells over one span, as a simcells instance over its cell budget does,
one whole op of the simcells workload on the grid instance over a
fresh span (count, enumerate, and round-trip and match every cell, the
frame built anew),
evaluating the zero cell, whose span has no states, through its frame,
building the tensor of two cells, the symmetry of a tensor of grid
diagrams, the identity of that tensor as a container morphism's cell
and the injections and projections of a sum of grid diagrams, the
structural cells built over relations, and composing seeded cells between two-sorted diagrams, whose
rows hold fewer entries than there are shapes.

These cases sit outside the tier-1 test paths and need pytest-benchmark:

    PYTHONPATH=src python -m pytest bench

With --benchmark-disable each case runs once, as a smoke check; its
timings are not a gate.
"""
import random

import pytest

from polycat import nat, poly, randgen, sim, suites
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
# the grid instance (1, 2) -> (0, 1) over the same span: 225 cells
GRID_CELLS = sim.enumerate_sim(P, poly.single_sorted((0, 1)), SPAN)
FAMILIES = tuple(nat.check_families(P)) + tuple(nat.generic_family(P, v)[0] for v in P.shapes)
COMPONENTS = {x: sim.eval_sim(CELL, x) for x in FAMILIES}
# 20 seeded composable pairs of cells, mixed -> mixed -> with_empty, on the
# suites' two-sorted samples: each sort carries some shapes, not all
MIXED, WITH_EMPTY = suites._two_sorted_samples()
_RNG = random.Random(39)
TWO_SORTED = [(randgen.random_sim_cell(_RNG, MIXED, WITH_EMPTY, max_states=3),
               randgen.random_sim_cell(_RNG, MIXED, MIXED, max_states=3)) for _ in range(20)]


def test_eval_sim(benchmark):
    checks = nat.check_families(P)

    def run():
        return [sim.eval_sim(CELL, x) for x in checks]

    assert benchmark(run) == [COMPONENTS[x] for x in checks]


def test_eval_enumeration(benchmark):
    checks = nat.check_families(P)
    fresh = [sim._cell(Span(SPAN.carrier, SPAN.left, SPAN.right), c.src, c.dst, c._plan)
             for c in GRID_CELLS]

    def run():
        return [sim.eval_sim(c, x) for c in GRID_CELLS for x in checks]

    want = [sim.eval_sim(c, x) for c in fresh for x in checks]
    assert benchmark(run) == want


def test_eval_zero_sim(benchmark):
    zero = sim.zero_sim(P, P)
    x = nat.check_families(P)[-1]
    m = benchmark(sim.eval_sim, zero, x)
    assert x.total.size and (m.src.fiber_sizes(), m.dst.fiber_sizes(), m.map.table) == \
        ((0,), (0,), ())


def test_extract_sim(benchmark):
    got = benchmark(sim.extract_sim, COMPONENTS.__getitem__, SPAN, P, P)
    assert got == CELL


def round_trip(c: sim.SimCell, span: Span) -> sim.SimCell:
    return sim.extract_sim(lambda x: sim.eval_sim(c, x), span, c.src, c.dst)


def test_round_trip_warm(benchmark):
    def run():
        return [round_trip(c, SPAN) for c in GRID_CELLS]

    assert benchmark(run) == GRID_CELLS


def test_round_trip_cold(benchmark):
    def run():
        span = Span(SPAN.carrier, SPAN.left, SPAN.right)
        return round_trip(sim._cell(span, P, P, CELL._plan), span)

    assert benchmark(run) == CELL


def test_cell_from_rows(benchmark):
    assert benchmark(sim._cell, SPAN, P, P, CELL._plan) == CELL


def test_count_sim(benchmark):
    assert benchmark(sim.count_sim, P, P, SPAN) == 14_400


def test_count_sim_cold(benchmark):
    # fresh diagrams for each round, so the sort groups are built in the
    # timed call, as at a workload's first count
    def fresh():
        return (poly.single_sorted((1, 2)), poly.single_sorted((1, 2)), SPAN), {}

    assert benchmark.pedantic(sim.count_sim, setup=fresh, rounds=5) == 14_400


def test_enumerate_grid(benchmark):
    cells = benchmark(sim.enumerate_sim, P, poly.single_sorted((0, 1)), SPAN)
    assert cells == GRID_CELLS and len(cells) == 225


def test_simcells_op_fresh_span(benchmark):
    # perfbench's simcells op on the grid instance: count the cells,
    # enumerate them, extract each through its own evaluation and match
    # it to the cell, over a span whose frame is built anew on each call
    q = poly.single_sorted((0, 1))

    def run():
        span = Span(SPAN.carrier, SPAN.left, SPAN.right)
        count = sim.count_sim(P, q, span)
        cells = sim.enumerate_sim(P, q, span)
        matched = all(sim.equivalence_check(round_trip(c, span), c) is not None for c in cells)
        return count, len(cells), matched

    assert benchmark(run) == (225, 225, True)


def test_enumerate_sim(benchmark):
    cells = benchmark(sim.enumerate_sim, P, P, ONE)
    assert len(cells) == sim.count_sim(P, P, ONE) == 12


def test_random_cell(benchmark):
    # a simcells instance over its 256-cell budget draws 4 cells: here
    # from the 14,400 of the grid pair over the two-state span
    def run():
        draws = random.Random(0)
        return [sim.random_cell(draws, P, P, SPAN) for _ in range(4)]

    got = benchmark(run)
    assert got == run() and len(set(got)) == 4


def test_tensor_sim(benchmark):
    # the seeded cell with itself: 4 states, from and to P ⊗ P
    got = benchmark(sim.tensor_sim, CELL, CELL)
    assert got.span.carrier.size == 4 and got.src == got.dst == poly.tensor(P, P)


def test_symmetry_sim(benchmark):
    # from (P ⊗ P) ⊗ P to P ⊗ (P ⊗ P): 8 shapes of up to 8 directions
    pp = poly.tensor(P, P)
    got = benchmark(sim.symmetry_sim, pp, P)
    assert sim.compose_sim(sim.symmetry_sim(P, pp), got) == sim.identity_sim(poly.tensor(pp, P))


def test_from_dm(benchmark):
    # the identity of (P ⊗ P) ⊗ P: 8 shapes and 27 directions
    ppp = poly.tensor(poly.tensor(P, P), P)
    got = benchmark(sim.from_dm, poly.identity_dm(ppp))
    assert dict(got.alpha) == {(0, v): v for v in ppp.shapes} and sim._counts(got) == (8, 27)


def test_plus_structure(benchmark):
    # the four cells of P ⊗ P ⊕ P, of 4 and 2 shapes
    pp = poly.tensor(P, P)

    def run():
        ps = sim.plus_structure(pp, P)
        return [ps.inl, ps.inr, ps.proj1, ps.proj2]

    inl, inr, proj1, proj2 = benchmark(run)
    assert sim.compose_sim(proj1, inl) == sim.identity_sim(pp)
    assert sim.compose_sim(proj2, inr) == sim.identity_sim(P)


def test_compose_two_sorted(benchmark):
    def run():
        return [sim.compose_sim(c2, c1) for c2, c1 in TWO_SORTED]

    got = benchmark(run)
    # the composites' rows hold 44 entries, where states times shapes is 88
    assert sum(len(c.pairs) for c in got) == 44
    assert sum(c.span.carrier.size * c.src.shapes.size for c in got) == 88
