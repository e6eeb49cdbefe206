"""Microbenchmarks of the kernels of the tensor's universal property on
one fixed pair of the tensor-universal grid, X + 1 against X^2 + X: the
coend oracle in sampled mode (|x| = 2 and |x| = 1, where each pairing
entry is a draw below 1 and takes two words on average) and in exact
mode (|x| = 0), in sampled mode at the grid's heaviest pair, 2X^2
against itself, also at |x| = 2, in sampled mode at 1 against X at
|x| = 0 with skeleton bound 12, where most relation draws are skipped
and the relation loop stops at its 8,000-attempt limit, and in exact
mode at X^2 against X at |x| = 1 (300 tuples); the
binaturality check of the comparison map (the squares that theta and
epsilon_naturality_check walk), the comparison map alone at every
argument pair with fibers at most 2, and the whole universal-property
check of the comparison map (theta_check, the workload's theta op), on
that pair and at the grid's heaviest pair, 2X^2 against itself, whose
tensor values at the boxes of 2-point families have 1,024 elements.
epsilon holds the morphism it builds per argument pair on the tensor,
so after the first call test_epsilon times the guarded record reads and
the lookup of held morphisms. test_theta_check_cold times theta_check
on fresh copies of the pair, with no tensor, extension record or held
morphism yet, as a theta op of a freshly set-up universal workload
starts.
Also the currying kernels: the adjunction check on X^2 + X, X^2 + 1 and
X^2 + X + 1, which counts both sides and round-trips all 147 + 147
members (the adjunction workload's triple op), and the curry command,
called in-process, on the example document's 2X, X^2 and
X^3 + X^2 + X + 1 (225 members on each side) and on its
X^3 + X^2 + X + 1, X^2 and X^3 + X^2 + X + 1 (330,225 members on each
side).

These cases sit outside the tier-1 test paths and need pytest-benchmark:

    PYTHONPATH=src python -m pytest bench

With --benchmark-disable each case runs once, as a smoke check; its
timings are not a gate.
"""
from pathlib import Path

import pytest

from polycat import cli, fam, poly, smcc
from polycat.finset import FinSet

pytest.importorskip("pytest_benchmark")

# the grid pair (0, 1) x (1, 2), one of the pairs the universal workload runs
P1, P2 = poly.single_sorted((0, 1)), poly.single_sorted((1, 2))
FAMILIES = list(fam.families_up_to(P1.source, 2))


def coend(n: int, p1=P1, p2=P2):
    x = fam.family_from_fibers(FinSet(1), (n,))
    return smcc.day_coend_oracle(p1, p2, x, 4, samples=400, seed=0)


def test_coend_sampled(benchmark):
    rep = benchmark(coend, 2)
    assert rep.ok and rep.lines[1:] == (
        "mode: factorization with sampled relation checks",
        "sampled tuples reduce to canonical rectangles: yes (400 samples)",
        "separating comparison respects sampled relations: yes (400 samples)",
        "canonical rectangles: 8 (one per extension element: yes)")


def test_coend_sampled_heaviest(benchmark):
    # the grid pair (2, 2) x (2, 2): the most elements at every skeleton size
    square = poly.single_sorted((2, 2))
    rep = benchmark(coend, 2, square, square)
    assert rep.ok and rep.lines == (
        "skeleton 0..4: 72146632 tuples, 42101355552 generating relations",
        "mode: factorization with sampled relation checks",
        "sampled tuples reduce to canonical rectangles: yes (400 samples)",
        "separating comparison respects sampled relations: yes (400 samples)",
        "canonical rectangles: 64 (one per extension element: yes)")


def test_coend_sampled_unit_family(benchmark):
    rep = benchmark(coend, 1)
    assert rep.ok and rep.lines == (
        "skeleton 0..4: 600 tuples, 218600 generating relations",
        "mode: factorization with sampled relation checks",
        "sampled tuples reduce to canonical rectangles: yes (400 samples)",
        "separating comparison respects sampled relations: yes (400 samples)",
        "canonical rectangles: 4 (one per extension element: yes)")


def test_coend_sampled_skipping(benchmark):
    # a relation draw is skipped when its sizes leave no map or no element,
    # so 400 samples take all 20 * 400 attempts and check 274 relations
    one, x = poly.single_sorted((0,)), poly.single_sorted((1,))
    empty = fam.family_from_fibers(FinSet(1), (0,))

    def run():
        return smcc.day_coend_oracle(one, x, empty, 12, samples=400, seed=0)

    rep = benchmark(run)
    assert rep.ok and rep.lines == (
        "skeleton 0..12: 78 tuples, 175057590111132 generating relations",
        "mode: factorization with sampled relation checks",
        "sampled tuples reduce to canonical rectangles: yes (400 samples)",
        "separating comparison respects sampled relations: yes (274 samples)",
        "canonical rectangles: 1 (one per extension element: yes)")


def test_coend_exact(benchmark):
    rep = benchmark(coend, 0)
    assert rep.ok and rep.lines[1:3] == (
        "mode: exact union-find over all tuples",
        "equivalence classes: 2; extension elements: 2")


def test_coend_exact_unit_family(benchmark):
    # the grid pair (2,) x (1,) at |x| = 1: the exact mode at the sizes of
    # the universal round's heaviest exact calls
    rep = benchmark(coend, 1, poly.single_sorted((2,)), poly.single_sorted((1,)))
    assert rep.ok and rep.lines == (
        "skeleton 0..4: 300 tuples, 120520 generating relations",
        "mode: exact union-find over all tuples",
        "equivalence classes: 1; extension elements: 1",
        "each class contains exactly one canonical rectangle: yes")


def test_rho_natural_epsilon(benchmark):
    tens = poly.tensor(P1, P2)

    def run():
        return smcc._check_rho_natural(lambda x, y: smcc.epsilon(P1, P2, x, y),
                                       P1, P2, tens, 2)

    assert benchmark(run) == 30


def test_epsilon(benchmark):
    def run():
        return [smcc.epsilon(P1, P2, x, y) for x in FAMILIES for y in FAMILIES]

    got = benchmark(run)
    assert [m.map.dom.size for m in got] == [0, 2, 6, 0, 4, 12, 0, 6, 18]


def test_theta_check(benchmark):
    tens = poly.tensor(P1, P2)

    def run():
        return smcc.theta_check(P1, P2, tens, lambda x, y: smcc.epsilon(P1, P2, x, y))

    rep = benchmark(run)
    assert rep.ok and rep.lines == (
        "mediating map reproduces rho after the comparison map at 9 argument pairs",
        "128 candidate transformations exceed the sampling limit 8; "
        "uniqueness not sampled")


def test_theta_check_heaviest(benchmark):
    square = poly.single_sorted((2, 2))
    tens = poly.tensor(square, square)

    def run():
        return smcc.theta_check(square, square, tens,
                                lambda x, y: smcc.epsilon(square, square, x, y))

    rep = benchmark(run)
    assert rep.ok and rep.lines == (
        "mediating map reproduces rho after the comparison map at 9 argument pairs",
        "1099511627776 candidate transformations exceed the sampling limit 8; "
        "uniqueness not sampled")


def test_theta_check_cold(benchmark):
    def run(p1, p2):
        return smcc.theta_check(p1, p2, poly.tensor(p1, p2),
                                lambda x, y: smcc.epsilon(p1, p2, x, y))

    def fresh():
        return (poly.single_sorted((0, 1)), poly.single_sorted((1, 2))), {}

    rep = benchmark.pedantic(run, setup=fresh, rounds=5)
    assert rep.ok and rep.lines == (
        "mediating map reproduces rho after the comparison map at 9 argument pairs",
        "128 candidate transformations exceed the sampling limit 8; "
        "uniqueness not sampled")


def test_adjunction_round_trips(benchmark):
    p1, p2, p3 = (poly.single_sorted(a) for a in ((2, 1), (2, 0), (2, 1, 0)))
    rep = benchmark(smcc.adjunction_count_check, p1, p2, p3)
    assert rep.ok and rep.lines[0] == ("transformations out of the tensor: 147; "
                                       "into the internal hom: 147")


LIST_DOC = str(Path(__file__).resolve().parent.parent / "docs" / "examples" / "list.json")


def test_curry_command(benchmark, capsys):
    argv = ["curry", LIST_DOC, "--p1", "two-x", "--p2", "square", "--p3", "list3",
            "--index", "5", "--limit", "1000"]
    assert benchmark(cli.main, argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == ["transformations: 225 out of the tensor, 225 into the hom",
                                    "transformation 5 of 225 curries to 5 of 225",
                                    "uncurrying returns the original transformation"]


def test_curry_command_330225_members(benchmark, capsys):
    argv = ["curry", LIST_DOC, "--p1", "list3", "--p2", "square", "--p3", "list3",
            "--index", "165112", "--limit", "1000000"]
    assert benchmark(cli.main, argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == [
        "transformations: 330225 out of the tensor, 330225 into the hom",
        "transformation 165112 of 330225 curries to 267567 of 330225",
        "uncurrying returns the original transformation"]
