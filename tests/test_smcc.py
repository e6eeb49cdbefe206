"""Tests for the tensor's comparison map and universal property, the
currying adjunction, the coend oracle, the truncated exponential
identity, and double dualization."""
import hashlib
import itertools
import pickle
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycat import cli, fam, finset, nat, poly, randgen, smcc
from polycat.errors import (
    OracleNotNatural,
    ShapeMismatch,
    SizeGuardExceeded,
    ValidationError,
)
from polycat.finset import FinMap, FinSet
from polycat.report import Report

ss = poly.single_sorted


def fams(n, sizes):
    return fam.family_from_fibers(FinSet(n), sizes)


def fmap(a, b, table):
    return FinMap(FinSet(a), FinSet(b), tuple(table))


# ---------------------------------------------------------------------------
# the comparison map


def test_epsilon_single_direction_shapes_is_iso():
    x = fams(1, [2])
    y = fams(1, [2])
    e = smcc.epsilon(ss((1,)), ss((1,)), x, y)
    assert e.src.total.size == 4
    assert e.dst.total.size == 4
    assert e.is_iso()


def test_epsilon_frozen_table():
    # first operand X, second 1 + X, |x| = 2, |y| = 1: the two pairs with
    # the constant right shape collapse
    e = smcc.epsilon(ss((1,)), ss((0, 1)), fams(1, [2]), fams(1, [1]))
    assert e.map.table == (0, 1, 0, 2)


def test_epsilon_collapses_at_constant_operand():
    # X (x) 1 has an empty direction fiber, so the payload forgets x
    e = smcc.epsilon(ss((1,)), ss((0,)), fams(1, [2]), fams(1, [1]))
    assert e.map.table == (0, 0)
    assert not e.is_iso()


def test_epsilon_injective_but_not_surjective_on_squares():
    # value pairs hit only the rectangular payloads of X^2 (x) X^2
    e = smcc.epsilon(ss((2,)), ss((2,)), fams(1, [2]), fams(1, [2]))
    assert e.src.total.size == 16
    assert e.dst.total.size == 256
    assert len(set(e.map.table)) == 16


def test_epsilon_empty_right_family():
    e = smcc.epsilon(ss((1,)), ss((1,)), fams(1, [2]), fams(1, [0]))
    assert e.src.total.size == 0
    assert e.dst.total.size == 0


def test_epsilon_base_mismatch():
    with pytest.raises(ShapeMismatch):
        smcc.epsilon(ss((1,)), ss((1,)), fams(2, [1, 1]), fams(1, [1]))


def test_epsilon_natural_at_bound_two():
    rep = smcc.epsilon_naturality_check(ss((1, 0)), ss((2,)), 2)
    assert rep.ok
    # 5 generating maps per argument, beside the identities of 3 families
    assert rep.lines == ("30 generating squares commute at fiber bound 2",)


def test_epsilon_naturality_multi_sorted():
    src = FinSet(2)
    p1 = poly.PolyDiagram(src, FinSet(2), FinSet(2), src,
                          fmap(2, 2, (1, 0)), fmap(2, 2, (0, 1)),
                          fmap(2, 2, (0, 1)))
    rep = smcc.epsilon_naturality_check(p1, ss((1,)), 1)
    assert rep.ok
    # 4 generators on 2 sorts beside 2 families, 4 families beside 1 generator
    assert rep.lines == ("12 generating squares commute at fiber bound 1",)


def test_epsilon_on_a_two_sorted_pair_whose_box_is_no_block_family():
    # X_1 + X_0 over two sorts, and X_0 X_1 + 1; the box of x = (2, 1) and
    # y = (1, 1) holds the points 0 and 2 over the sort pair (0, 0)
    src = FinSet(2)
    p1 = poly.PolyDiagram(src, FinSet(2), FinSet(2), src,
                          fmap(2, 2, (1, 0)), fmap(2, 2, (0, 1)),
                          fmap(2, 2, (0, 1)))
    p2 = poly.PolyDiagram(src, FinSet(2), FinSet(2), FinSet(1),
                          fmap(2, 2, (0, 1)), fmap(2, 2, (0, 0)),
                          fmap(2, 1, (0, 0)))
    x, y = fams(2, [2, 1]), fams(2, [1, 1])
    bx = fam.box(x, y)
    assert bx != fam.family_from_fibers(bx.base, bx.fiber_sizes())
    index = poly.extension_index(poly.tensor(p1, p2), bx)
    want = tuple(index[(v1 * p2.shapes.size + v2,
                        tuple(t1 * y.total.size + t2 for t1 in pay1 for t2 in pay2))]
                 for v1, pay1 in poly.extension_elements(p1, x)
                 for v2, pay2 in poly.extension_elements(p2, y))
    e = smcc.epsilon(p1, p2, x, y)
    assert e.src == fam.box(poly.eval_extension(p1, x), poly.eval_extension(p2, y))
    assert e.dst == poly.eval_extension(poly.tensor(p1, p2), bx)
    assert e.map.table == want
    # the two payloads of the constant right shape forget x
    assert want == (0, 1, 2, 6, 5, 6)


# ---------------------------------------------------------------------------
# the mediating transformation


def _eps_oracle(p1, p2):
    return lambda x, y: smcc.epsilon(p1, p2, x, y)


def test_theta_of_epsilon_is_identity():
    p1, p2 = ss((1, 0)), ss((2,))
    tens = poly.tensor(p1, p2)
    r = fam.box(fams(1, [2]), fams(1, [1]))
    med = smcc.theta(_eps_oracle(p1, p2), p1, p2, tens, r)
    assert med.map.table == fam.identity_morphism(
        poly.eval_extension(tens, r)).map.table


def test_theta_check_on_epsilon():
    p1, p2 = ss((1, 0)), ss((2,))
    rep = smcc.theta_check(p1, p2, poly.tensor(p1, p2), _eps_oracle(p1, p2),
                           candidate_limit=50)
    assert rep.ok
    assert "1 of 5 candidate transformations" in rep.lines[1]


def test_theta_recovers_container_morphism():
    # rho built from a known container morphism factors back through it
    p1, p2 = ss((1,)), ss((2,))
    tens = poly.tensor(p1, p2)
    target = ss((1, 1))
    members = nat.enumerate_dm(tens, target)
    assert len(members) == 4
    m = members[2]

    def rho(x, y):
        bx = fam.box(x, y)
        return smcc.epsilon(p1, p2, x, y).then(nat.eval_dm(m, bx))

    for sizes in ([1], [2], [3]):
        r = fam.box(fams(1, sizes), fams(1, [2]))
        med = smcc.theta(rho, p1, p2, target, r)
        assert med.map.table == nat.eval_dm(m, r).map.table


def test_mediator_of_a_members_rho_is_the_member():
    # rho = epsilon then m's components, for every member m of small
    # single- and two-sorted hom sets out of the tensor
    rng = random.Random(1)
    members = 0
    for _ in range(12):
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        p1 = randgen.random_diagram(rng, FinSet(k1), FinSet(1), 2, 2)
        p2 = randgen.random_diagram(rng, FinSet(k2), FinSet(1), 2, 2)
        tens = poly.tensor(p1, p2)
        target = randgen.random_diagram(rng, tens.source, tens.target, 3, 2)
        if nat.count_nat(tens, target) > 64:
            continue
        for m in nat.enumerate_dm(tens, target):
            def rho(x, y, m=m):
                return smcc.epsilon(p1, p2, x, y).then(nat.eval_dm(m, fam.box(x, y)))
            assert smcc._mediator(rho, p1, p2, target) == m
            members += 1
    assert members >= 50


def test_theta_check_uniqueness_for_derived_rho():
    p1, p2 = ss((1,)), ss((2,))
    tens = poly.tensor(p1, p2)
    target = ss((1, 1))
    m = nat.enumerate_dm(tens, target)[0]

    def rho(x, y):
        return smcc.epsilon(p1, p2, x, y).then(nat.eval_dm(m, fam.box(x, y)))

    rep = smcc.theta_check(p1, p2, target, rho, candidate_limit=8)
    assert rep.ok
    assert "1 of 4 candidate transformations" in rep.lines[1]


def test_theta_check_reports_a_mediator_probed_beyond_the_naturality_bound():
    # rho is epsilon at fibers up to 2, where naturality is checked, but
    # reads a rotation at the generic family of X^3, so the mediator is the
    # rotation while the one candidate reproducing rho is the identity
    p1, p2 = ss((3,)), ss((1,))
    tens = poly.tensor(p1, p2)
    rotation = next(m for m in nat.enumerate_dm(tens, tens) if m.betas == ((1, 2, 0),))

    def rho(x, y):
        e = smcc.epsilon(p1, p2, x, y)
        return e.then(nat.eval_dm(rotation, fam.box(x, y))) if x.total.size == 3 else e

    assert smcc._mediator(rho, p1, p2, tens) == rotation
    rep = smcc.theta_check(p1, p2, tens, rho, candidate_limit=27)
    assert not rep.ok
    assert rep.lines == (
        "mediating map fails after the comparison map at fibers (2,) and (1,)",
        "1 of 27 candidate transformations satisfy the equation (want exactly 1)",
        "the matching candidate reproduces the mediating components: NO")


def test_theta_rejects_unnatural_oracle():
    p1 = p2 = ss((1,))
    tens = poly.tensor(p1, p2)

    def rho(x, y):
        e = smcc.epsilon(p1, p2, x, y)
        t = list(e.map.table)
        if x.total.size == 2 and len(t) >= 2:
            # swap two elements only at this size
            t[0], t[1] = t[1], t[0]
            e = fam.FamMorphism(e.src, e.dst, FinMap(e.map.dom, e.map.cod,
                                                     tuple(t)))
        return e

    with pytest.raises(OracleNotNatural, match="rho not natural"):
        smcc.theta(rho, p1, p2, tens, fam.box(fams(1, [2]), fams(1, [1])))


def test_theta_rejects_wrong_endpoints():
    # rho is the comparison map on fibers of at most 2, so it passes the
    # naturality check at bound 2; the generic probe of X^3 has three
    # elements, where the identity oracle has the wrong endpoints
    p1, p2 = ss((3,)), ss((1,))
    tens = poly.tensor(p1, p2)
    eps = _eps_oracle(p1, p2)

    def rho(x, y):
        if max(x.fiber_sizes() + y.fiber_sizes()) <= 2:
            return eps(x, y)
        return fam.identity_morphism(x)

    with pytest.raises(ValidationError, match="rho component has the wrong endpoints"):
        smcc.theta(rho, p1, p2, tens, fam.box(fams(1, [1]), fams(1, [1])))


@pytest.mark.parametrize("wrong", ["src", "dst"])
def test_theta_check_refuses_a_component_with_wrong_endpoints_within_the_bound(wrong):
    # X^2 (x) X; at x = (1,) and y = (2,) the box of the values has 2
    # points and the tensor's value at the box has 4, so an identity on
    # either one has the other endpoint wrong. The component is a square's
    # left-hand end where its source is wrong, and a right-hand end where
    # its target is
    p1, p2 = ss((2,)), ss((1,))
    tens = poly.tensor(p1, p2)
    eps = _eps_oracle(p1, p2)

    def rho(x, y):
        e = eps(x, y)
        if (x.fiber_sizes(), y.fiber_sizes()) != ((1,), (2,)):
            return e
        return fam.identity_morphism(e.dst if wrong == "src" else e.src)

    assert eps(fams(1, [1]), fams(1, [2])).src.total.size == 2
    assert eps(fams(1, [1]), fams(1, [2])).dst.total.size == 4
    with pytest.raises(ShapeMismatch,
                       match="^cannot compose family morphisms: endpoints differ$"):
        smcc.theta_check(p1, p2, tens, rho)
    with pytest.raises(ShapeMismatch,
                       match="^cannot compose family morphisms: endpoints differ$"):
        smcc._check_rho_natural(rho, p1, p2, tens, 2)


def test_theta_family_base_mismatch():
    p1 = p2 = ss((1,))
    with pytest.raises(ShapeMismatch):
        smcc.theta(_eps_oracle(p1, p2), p1, p2, poly.tensor(p1, p2),
                   fams(2, [1, 1]))


def test_theta_and_theta_check_refuse_a_target_over_other_sorts_before_asking_rho():
    # X ⊗ X lies over one sort, the identity diagram on two sorts over two
    x, target = ss((1,)), poly.identity_diagram(FinSet(2))
    calls = []

    def rho(a, b):
        calls.append((a, b))
        return smcc.epsilon(x, x, a, b)

    for call in (lambda: smcc.theta_check(x, x, target, rho),
                 lambda: smcc.theta(rho, x, x, target, fams(1, [1]))):
        with pytest.raises(ShapeMismatch,
                           match="^target diagram must share the tensor's sorts$"):
            call()
    assert calls == []


def _all_maps_counterexample(rho, p1, p2, f_diag, bound, keep=lambda m: True):
    """The first pair (f, g) of family morphisms with fibers at most the
    bound, both kept by `keep`, whose naturality square fails; None if
    every such square commutes. Runs over every morphism, independently
    of the generating morphisms that smcc checks."""
    def morphisms(base):
        xs = list(fam.families_up_to(base, bound))
        return [m for x in xs for y in xs for m in fam.hom_enumerate(x, y) if keep(m)]

    for f in morphisms(p1.source):
        for g in morphisms(p2.source):
            lhs = fam.box_morphism(
                poly.extension_map(p1, f), poly.extension_map(p2, g)
            ).then(rho(f.dst, g.dst))
            rhs = rho(f.src, g.src).then(
                poly.extension_map(f_diag, fam.box_morphism(f, g)))
            if lhs.map.table != rhs.map.table:
                return f, g
    return None


def _generators_accept(rho, p1, p2, f_diag, bound):
    try:
        smcc._check_rho_natural(rho, p1, p2, f_diag, bound)
    except OracleNotNatural:
        return False
    return True


def _diagonal_test_oracle(left):
    # X^2 (x) X into 2 X^2 (X (x) X^2 when not left): the payloads p and q of
    # the two arguments go to the payload p x q, at shape 0 when p or q has
    # a repeated entry and at shape 1 otherwise. Injections keep entries
    # apart; a merge on the X^2 argument's fiber can make them equal.
    p1, p2 = (ss((2,)), ss((1,))) if left else (ss((1,)), ss((2,)))
    target = ss((2, 2))

    def rho(x, y):
        ext1, ext2 = poly.eval_extension(p1, x), poly.eval_extension(p2, y)
        bx = fam.box(x, y)
        cod = poly.eval_extension(target, bx)
        index = poly.extension_index(target, bx)
        table = []
        for _, pay1 in poly.extension_elements(p1, x):
            for _, pay2 in poly.extension_elements(p2, y):
                payload = tuple(fam.box_pair(y, t, u) for t in pay1 for u in pay2)
                repeated = len(set(pay1)) < len(pay1) or len(set(pay2)) < len(pay2)
                table.append(index[(0 if repeated else 1, payload)])
        dom = fam.box(ext1, ext2)
        return fam.FamMorphism(dom, cod, FinMap(dom.total, cod.total, tuple(table)))
    return p1, p2, target, rho


@pytest.mark.parametrize("left", [True, False])
def test_theta_catches_rho_natural_on_injections_but_not_on_a_merge(left):
    p1, p2, target, rho = _diagonal_test_oracle(left)
    injective = lambda m: len(set(m.map.table)) == m.map.dom.size
    assert _all_maps_counterexample(rho, p1, p2, target, 2, injective) is None
    f, g = _all_maps_counterexample(rho, p1, p2, target, 2)
    assert not injective(f if left else g)
    with pytest.raises(OracleNotNatural, match="rho not natural"):
        smcc.theta(rho, p1, p2, target, fam.box(fams(1, [2]), fams(1, [1])))
    with pytest.raises(OracleNotNatural, match="rho not natural"):
        smcc.theta_check(p1, p2, target, rho)


def _swapped_at(rho, sizes):
    # rho with the first and last entries of one component swapped
    def wrapped(x, y):
        e = rho(x, y)
        if (x.fiber_sizes(), y.fiber_sizes()) != sizes or e.map.dom.size < 2:
            return e
        t = list(e.map.table)
        t[0], t[-1] = t[-1], t[0]
        return fam.FamMorphism(e.src, e.dst, FinMap(e.map.dom, e.map.cod, tuple(t)))
    return wrapped


def test_rho_check_on_generators_agrees_with_all_maps_on_seeded_instances():
    rng = random.Random(11)
    verdicts = []
    for _ in range(16):
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        p1 = randgen.random_diagram(rng, FinSet(k1), FinSet(1), 2, 2)
        p2 = randgen.random_diagram(rng, FinSet(k2), FinSet(1), 2, 2)
        bound = 2 if k1 == k2 == 1 else 1
        tens = poly.tensor(p1, p2)
        rho = _eps_oracle(p1, p2)
        if rng.random() < 0.5:
            sizes = (tuple(rng.randint(0, bound) for _ in range(k1)),
                     tuple(rng.randint(0, bound) for _ in range(k2)))
            rho = _swapped_at(rho, sizes)
        natural = _all_maps_counterexample(rho, p1, p2, tens, bound) is None
        assert _generators_accept(rho, p1, p2, tens, bound) == natural
        verdicts.append(natural)
    # both verdicts occur, so the agreement is not vacuous
    assert True in verdicts and False in verdicts
    # the diagonal oracles and the oracle of test_theta_rejects_unnatural_oracle
    for left in (True, False):
        p1, p2, target, rho = _diagonal_test_oracle(left)
        assert _all_maps_counterexample(rho, p1, p2, target, 2) is not None
        assert not _generators_accept(rho, p1, p2, target, 2)
    p = ss((1,))
    rho = _swapped_at(_eps_oracle(p, p), ((2,), (1,)))
    assert _all_maps_counterexample(rho, p, p, poly.tensor(p, p), 2) is not None
    assert not _generators_accept(rho, p, p, poly.tensor(p, p), 2)


def test_rho_check_evaluates_rho_once_per_argument_pair():
    p = ss((1,))
    calls = []

    def rho(x, y):
        calls.append((x.fiber_sizes(), y.fiber_sizes()))
        return smcc.epsilon(p, p, x, y)

    assert smcc._check_rho_natural(rho, p, p, poly.tensor(p, p), 2) == 30
    assert sorted(calls) == [((a,), (b,)) for a in range(3) for b in range(3)]


@pytest.mark.parametrize("p1, p2, bound", [
    (ss((1, 0)), ss((2,)), 2),
    (ss((2, 1)), ss((0, 1, 2)), 2),
    (randgen.random_diagram(random.Random(3), FinSet(2), FinSet(1), 2, 2), ss((1, 2)), 1),
])
def test_rho_check_computes_each_factor_action_once(monkeypatch, p1, p2, bound):
    # one action per generating morphism and per identity of each factor,
    # shared by the squares (rebuilding both factor actions in every
    # square makes 2 more calls a square), and no whole tensor action: a
    # square reads it only at rho's image
    extension_map = poly.extension_map
    calls = Counter()

    def counted(p, h):
        calls[p] += 1
        return extension_map(p, h)

    monkeypatch.setattr(poly, "extension_map", counted)
    tens = poly.tensor(p1, p2)
    squares = smcc._check_rho_natural(_eps_oracle(p1, p2), p1, p2, tens, bound)
    xs = list(fam.families_up_to(p1.source, bound))
    ys = list(fam.families_up_to(p2.source, bound))
    fs = fam.generating_morphisms(p1.source, bound)
    gs = fam.generating_morphisms(p2.source, bound)
    assert squares == len(fs) * len(ys) + len(xs) * len(gs)
    assert calls == Counter({p1: len(fs) + len(xs), p2: len(gs) + len(ys)})


def _swapped(e):
    # e, then the swap of the first two points of its codomain's first
    # fiber with two points: a component that is wrong at its pair
    fib = next(fib for fib in e.dst.proj.fibers() if len(fib) >= 2)
    a, b = fib[0], fib[1]
    table = tuple(b if t == a else a if t == b else t for t in e.map.table)
    return fam.FamMorphism(e.src, e.dst, FinMap(e.src.total, e.dst.total, table))


def _record_reads(monkeypatch):
    # the fiber sizes of every extension record read, per diagram, in order
    reads = []
    extension = poly._extension

    def recorded(p, x):
        reads.append((p, x.fiber_sizes()))
        return extension(p, x)

    monkeypatch.setattr(poly, "_extension", recorded)
    return reads


def test_a_rho_wrong_at_one_argument_pair_fails_its_first_square(monkeypatch):
    # rho is the comparison map but at fibers (1,) and (2,), where it swaps
    # two points; the first square through that pair refuses it, after
    # reading the tensor's records at its two boxes, source then target
    p1, p2 = ss((1, 0)), ss((2,))
    tens = poly.tensor(p1, p2)

    def rho(x, y):
        e = smcc.epsilon(p1, p2, x, y)
        return _swapped(e) if (x.fiber_sizes(), y.fiber_sizes()) == ((1,), (2,)) else e

    message = ("rho not natural: counterexample at fibers (1,)->(2,) and "
               "(2,)->(2,), maps (1,) and (0, 1)")
    r = fams(1, [1])
    reads = _record_reads(monkeypatch)
    for check in (lambda: smcc._check_rho_natural(rho, p1, p2, tens, 2),
                  lambda: smcc.theta_check(p1, p2, tens, rho),
                  lambda: smcc.theta(rho, p1, p2, tens, r)):
        reads.clear()
        with pytest.raises(OracleNotNatural) as info:
            check()
        assert str(info.value) == message
        mine = [sizes for p, sizes in reads if p is tens]
        assert len(mine) == 21 and mine[-2:] == [(2,), (4,)]


def test_a_rho_component_with_the_wrong_codomain_fails_the_endpoint_check(monkeypatch):
    # at fibers (1,) and (1,) rho lands in a family one point larger than
    # the tensor's value: the first square that starts there refuses it,
    # once both of the tensor's records at its boxes are read
    p1, p2 = ss((1, 0)), ss((2,))
    tens = poly.tensor(p1, p2)

    def rho(x, y):
        e = smcc.epsilon(p1, p2, x, y)
        if (x.fiber_sizes(), y.fiber_sizes()) != ((1,), (1,)):
            return e
        z = fams(1, [e.dst.total.size + 1])
        return fam.FamMorphism(e.src, z, FinMap(e.src.total, z.total, e.map.table))

    reads = _record_reads(monkeypatch)
    for check in (lambda: smcc._check_rho_natural(rho, p1, p2, tens, 2),
                  lambda: smcc.theta_check(p1, p2, tens, rho)):
        reads.clear()
        with pytest.raises(ShapeMismatch, match="^cannot compose family morphisms: "
                                                "endpoints differ$"):
            check()
        mine = [sizes for p, sizes in reads if p is tens]
        assert len(mine) == 19 and mine[-2:] == [(1,), (2,)]


def test_each_candidate_is_read_up_to_its_first_failing_pair(monkeypatch):
    # rho is the comparison map of X^3 and X but at fiber 3, where it first
    # swaps two points of x: natural at fiber bound 2, but the mediator
    # probes it at X^3's generic family, of fiber 3, so its backward table
    # swaps two directions, which shows first at fibers (2,) and (1,). Of
    # the 27 candidates, 26 fail at some pair and stop there; each reads
    # the tensor's two records at every box it reaches, so the reads pin
    # where every candidate stopped
    p1, p2 = ss((3,)), ss((1,))
    tens = poly.tensor(p1, p2)
    x3 = fams(1, [3])
    swap = fam.FamMorphism(x3, x3, fmap(3, 3, (1, 0, 2)))

    def rho(x, y):
        e = smcc.epsilon(p1, p2, x, y)
        if x.fiber_sizes() != (3,):
            return e
        return e.then(poly.extension_map(tens, fam.box_morphism(swap, fam.identity_morphism(y))))

    rep = smcc.theta_check(p1, p2, tens, rho, candidate_limit=27)
    assert rep.render() == (
        "tensor universal property: FAIL\n"
        "  mediating map fails after the comparison map at fibers (2,) and (1,)\n"
        "  1 of 27 candidate transformations satisfy the equation (want exactly 1)\n"
        "  the matching candidate reproduces the mediating components: NO")
    comps = {(x, y): rho(x, y) for x in fam.families_up_to(p1.source, 3)
             for y in fam.families_up_to(p2.source, 2)}
    reads = _record_reads(monkeypatch)
    assert smcc.theta_check(p1, p2, tens, lambda x, y: comps[x, y],
                            candidate_limit=27) == rep
    mine = Counter(sizes for p, sizes in reads if p is tens)
    assert mine == Counter({(0,): 309, (2,): 132, (1,): 65, (4,): 13, (3,): 2})


def test_a_guard_just_below_a_tensor_box_carrier_refuses_at_that_box(monkeypatch):
    # X^2 with itself: the tensor's value at the box of two 2-point
    # families has 256 elements. With rho's values taken first, the limit
    # 255 trips at the target record of the first square into that box;
    # theta_check's own comparison map trips at the same box earlier
    p = ss((2,))
    tens = poly.tensor(p, p)
    xs = list(fam.families_up_to(p.source, 2))
    comps = {(x, y): smcc.epsilon(p, p, x, y) for x in xs for y in xs}
    message = "^search too large: extension carrier has size 256, guard limit is 255$"
    reads = _record_reads(monkeypatch)
    for check, count in ((lambda: smcc._check_rho_natural(
                              lambda x, y: comps[x, y], p, p, tens, 2), 12),
                         (lambda: smcc.theta_check(
                              p, p, tens, lambda x, y: smcc.epsilon(p, p, x, y)), 9)):
        reads.clear()
        previous = finset.set_guard_limit(255)
        try:
            with pytest.raises(SizeGuardExceeded, match=message):
                check()
        finally:
            finset.set_guard_limit(previous)
        mine = [sizes for q, sizes in reads if q is tens]
        assert len(mine) == count and mine[-2:] == [(2,), (4,)]


def _random_dm(rng, p, q):
    # a uniform shape choice among those every direction can be answered
    # for, then a uniform answer of the same sort per direction; None
    # when some shape of p has no such choice
    p_dirs, q_dirs = p.dir_shape.fibers(), q.dir_shape.fibers()
    p_sort, q_sort = p.dir_sort.table, q.dir_sort.table

    def answers(v, d):
        return [u for u in p_dirs[v] if p_sort[u] == q_sort[d]]

    alpha, betas = [], []
    for v in range(p.shapes.size):
        ws = [w for w in range(q.shapes.size)
              if q.shape_sort.table[w] == p.shape_sort.table[v]
              and all(answers(v, d) for d in q_dirs[w])]
        if not ws:
            return None
        w = rng.choice(ws)
        alpha.append(w)
        betas.append(tuple(rng.choice(answers(v, d)) for d in q_dirs[w]))
    return poly.DiagMorphism(p, q, FinMap(p.shapes, q.shapes, tuple(alpha)), tuple(betas))


@pytest.mark.parametrize("sorts, bound", [(1, 2), (2, 1)])
def test_the_reads_at_an_image_agree_with_the_whole_tables(sorts, bound):
    # the tensor's action on each square's box morphism, read at rho's
    # image, and a random transformation's component at each box, read at
    # the comparison map's image, equal the whole tables of
    # poly.extension_map and nat.eval_dm read there
    rng = random.Random(4800 + sorts)
    base = FinSet(sorts)
    checked = 0
    for _ in range(12):
        p1 = randgen.random_diagram(rng, base, base, 2, 2)
        p2 = randgen.random_diagram(rng, base, base, 2, 2)
        tens = poly.tensor(p1, p2)
        xs = list(fam.families_up_to(base, bound))
        gens = fam.generating_morphisms(base, bound)
        ids = [fam.identity_morphism(x) for x in xs]
        for f, g in [(f, g) for f in gens for g in ids] + [(f, g) for f in ids for g in gens]:
            image = smcc.epsilon(p1, p2, f.src, g.src).map.table
            whole = poly.extension_map(tens, fam.box_morphism(f, g)).map.table
            src = poly._extension(tens, fam.box(f.src, g.src))
            dst = poly._extension(tens, fam.box(f.dst, g.dst))
            got = poly._action_at(dst, finset.product_map(f.map, g.map).table,
                                  [src.elements[t] for t in image])
            assert got == tuple(whole[t] for t in image)
            checked += len(image)
        for _ in range(3):
            m = _random_dm(rng, tens, tens)
            if m is None:
                continue
            for x in xs:
                for y in xs:
                    image = smcc.epsilon(p1, p2, x, y).map.table
                    bx = fam.box(x, y)
                    whole = nat.eval_dm(m, bx).map.table
                    ext = poly._extension(tens, bx)
                    got = nat._component_at(m, ext, [ext.elements[t] for t in image])
                    assert got == tuple(whole[t] for t in image)
                    checked += len(image)
    assert checked > 500


def test_theta_check_evaluates_rho_and_epsilon_once_per_argument_pair(monkeypatch):
    p1, p2 = ss((1, 0)), ss((2,))
    rho_calls, epsilon_calls = Counter(), Counter()
    epsilon = smcc.epsilon

    def counted_epsilon(a, b, x, y):
        epsilon_calls[x.fiber_sizes(), y.fiber_sizes()] += 1
        return epsilon(a, b, x, y)

    def rho(x, y):
        rho_calls[x.fiber_sizes(), y.fiber_sizes()] += 1
        return epsilon(p1, p2, x, y)

    monkeypatch.setattr(smcc, "epsilon", counted_epsilon)
    rep = smcc.theta_check(p1, p2, poly.tensor(p1, p2), rho, candidate_limit=50)
    assert rep.ok
    assert "1 of 5 candidate transformations" in rep.lines[1]
    # the 9 pairs with fibers at most 2, which hold the generic families
    pairs = {((a,), (b,)) for a in range(3) for b in range(3)}
    assert rho_calls == Counter(pairs)
    assert epsilon_calls == Counter(pairs)
    # the cache lives for one call
    smcc.theta_check(p1, p2, poly.tensor(p1, p2), rho, candidate_limit=50)
    assert rho_calls == Counter({pair: 2 for pair in pairs})


def test_theta_evaluates_rho_once_per_argument_pair():
    # X + 1 and X^2: the naturality check asks every pair with fibers at
    # most 2, and the mediator asks again at the generic families (1,) and
    # (0,) of X + 1 and (2,) of X^2, from the same values
    p1, p2 = ss((1, 0)), ss((2,))
    calls = Counter()

    def rho(x, y):
        calls[x.fiber_sizes(), y.fiber_sizes()] += 1
        return smcc.epsilon(p1, p2, x, y)

    r = fam.box(fams(1, [2]), fams(1, [1]))
    first = smcc.theta(rho, p1, p2, poly.tensor(p1, p2), r)
    pairs = {((a,), (b,)) for a in range(3) for b in range(3)}
    assert calls == Counter(pairs)
    # the values are kept for one call only
    again = smcc.theta(rho, p1, p2, poly.tensor(p1, p2), r)
    assert calls == Counter({pair: 2 for pair in pairs})
    assert again == first


def test_epsilon_holds_its_morphism_per_argument_pair():
    p1, p2 = ss((1, 0)), ss((2,))
    x, y = fams(1, [2]), fams(1, [1])
    e = smcc.epsilon(p1, p2, x, y)
    assert smcc.epsilon(p1, p2, x, y) is e
    # factors of the same values, built with the Family constructor, and
    # a second diagram of p2's value find the same morphism
    x2, y2 = fam.Family(x.total, x.base, x.proj), fam.Family(y.total, y.base, y.proj)
    assert x2 is not x and y2 is not y
    assert smcc.epsilon(p1, ss((2,)), x2, y2) is e
    # a first call on a diagram of p1's value builds its own
    other = smcc.epsilon(ss((1, 0)), p2, x, y)
    assert other is not e and other == e


def test_theta_check_builds_the_comparison_map_once_per_argument_pair():
    # rho is the comparison map itself, as in the tensor-universal suite:
    # the 9 argument pairs each build one morphism, which rho and the
    # comparison map then share
    p1, p2 = ss((1, 0)), ss((2,))
    tens = poly.tensor(p1, p2)
    rep = smcc.theta_check(p1, p2, tens, _eps_oracle(p1, p2))
    assert rep.ok
    xs = list(fam.families_up_to(p1.source, 2))
    ys = list(fam.families_up_to(p2.source, 2))
    assert set(tens._epsilon) == {(x, y) for x in xs for y in ys}


def test_held_comparison_maps_equal_fresh_ones_on_seeded_instances():
    rng = random.Random(17)
    sorts = set()
    for _ in range(12):
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        p1 = randgen.random_diagram(rng, FinSet(k1), FinSet(1), 2, 2)
        p2 = randgen.random_diagram(rng, FinSet(k2), FinSet(1), 2, 2)
        sorts.add((k1, k2))
        bound = 2 if k1 == k2 == 1 else 1
        xs = list(fam.families_up_to(p1.source, bound))
        ys = list(fam.families_up_to(p2.source, bound))
        built = {(x, y): smcc.epsilon(p1, p2, x, y) for x in xs for y in ys}
        # copies carry no tensor, no extension record and no held map
        q1, q2 = pickle.loads(pickle.dumps(p1)), pickle.loads(pickle.dumps(p2))
        for (x, y), e in built.items():
            held = smcc.epsilon(p1, p2, x, y)
            fresh = smcc.epsilon(q1, q2, x, y)
            assert held is e and fresh is not e
            assert held == fresh and held.map.table == fresh.map.table
    # one- and two-sorted factors both occur
    assert {1, 2} <= {k for pair in sorts for k in pair}


@pytest.mark.parametrize("limit, size", [
    # p1 = X + 1 has 9 elements at an 8-set, p2 = X^2 has 16 at a 4-set,
    # and their tensor 1025 at the 32-set of their box; the tensor's own
    # carriers sum to 6. The first carrier over the limit is named: p1's,
    # then p2's, then the tensor's
    (7, 9),
    (14, 16),
    (1000, 1025),
])
def test_epsilon_refuses_the_first_carrier_over_the_limit(limit, size):
    want = f"^search too large: extension carrier has size {size}, guard limit is {limit}$"
    x, y = fams(1, [8]), fams(1, [4])
    for warm in (False, True):
        p1, p2 = ss((1, 0)), ss((2,))
        if warm:
            # the morphism is held: a later call still guards every carrier
            smcc.epsilon(p1, p2, x, y)
        old = finset.set_guard_limit(limit)
        try:
            with pytest.raises(SizeGuardExceeded, match=want):
                smcc.epsilon(p1, p2, x, y)
        finally:
            finset.set_guard_limit(old)
        if warm:
            assert smcc.epsilon(p1, p2, x, y).map.dom.size == 9 * 16


def test_a_pickled_tensor_carries_no_held_comparison_map():
    p1, p2 = ss((1, 0)), ss((2,))
    tens = poly.tensor(p1, p2)
    smcc.epsilon(p1, p2, fams(1, [2]), fams(1, [1]))
    assert tens._epsilon
    copy = pickle.loads(pickle.dumps(tens))
    assert copy == tens and "_epsilon" not in vars(copy)


def test_epsilon_check_agrees_with_all_maps_on_seeded_instances(monkeypatch):
    # the check evaluates smcc.epsilon, so patching it in gives the check a
    # deliberately broken comparison map
    epsilon = smcc.epsilon
    rng = random.Random(13)
    verdicts = []
    for _ in range(16):
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        p1 = randgen.random_diagram(rng, FinSet(k1), FinSet(1), 2, 2)
        p2 = randgen.random_diagram(rng, FinSet(k2), FinSet(1), 2, 2)
        bound = 2 if k1 == k2 == 1 else 1
        rho = lambda x, y, p1=p1, p2=p2: epsilon(p1, p2, x, y)
        if rng.random() < 0.5:
            rho = _swapped_at(rho, (tuple(rng.randint(0, bound) for _ in range(k1)),
                                    tuple(rng.randint(0, bound) for _ in range(k2))))
        monkeypatch.setattr(smcc, "epsilon", lambda a, b, x, y, rho=rho: rho(x, y))
        rep = smcc.epsilon_naturality_check(p1, p2, bound)
        natural = _all_maps_counterexample(rho, p1, p2, poly.tensor(p1, p2), bound) is None
        assert rep.ok == natural
        if not natural:
            assert rep.lines[0].startswith("rho not natural: counterexample at fibers (")
        verdicts.append(natural)
    # both verdicts occur, so the agreement is not vacuous
    assert True in verdicts and False in verdicts
    # the swapped comparison map of the rho check above
    p = ss((1,))
    rho = _swapped_at(lambda x, y: epsilon(p, p, x, y), ((2,), (1,)))
    monkeypatch.setattr(smcc, "epsilon", lambda a, b, x, y: rho(x, y))
    assert _all_maps_counterexample(rho, p, p, poly.tensor(p, p), 2) is not None
    rep = smcc.epsilon_naturality_check(p, p, 2)
    assert not rep.ok
    # the coface skipping point 0, beside the identity of a 1-point fiber
    assert rep.lines == ("rho not natural: counterexample at fibers (1,)->(2,) "
                         "and (1,)->(1,), maps (1,) and (0,)",)


# ---------------------------------------------------------------------------
# the currying adjunction


def test_adjunction_identity_case():
    rep = smcc.adjunction_count_check(ss((1,)), ss((1,)), ss((1,)))
    assert rep.ok
    assert "transformations out of the tensor: 1" in rep.lines[0]


def test_adjunction_frozen_four():
    # out of X (x) X^2 there are 4 transformations to 2X, and the internal
    # hom [X^2, 2X] is 4X, receiving 4 from X
    rep = smcc.adjunction_count_check(ss((1,)), ss((2,)), ss((1, 1)))
    assert rep.ok
    assert "transformations out of the tensor: 4; into the internal hom: 4" \
        == rep.lines[0]
    assert "currying round trips on 4 + 4 members: yes" in rep.lines[1]
    hom = poly.hom_single_sorted(ss((2,)), ss((1, 1)))
    assert poly.notation(hom) == "4X"


def test_adjunction_with_constants():
    rep = smcc.adjunction_count_check(ss((2,)), ss((1,)), ss((1, 0)))
    assert rep.ok
    assert "transformations out of the tensor: 3" in rep.lines[0]


def test_curry_round_trip_explicit():
    p1, p2, p3 = ss((2,)), ss((1, 0)), ss((1, 1))
    tens = poly.tensor(p1, p2)
    for m in nat.enumerate_dm(tens, p3):
        c = smcc.curry_dm(m, p1, p2, p3)
        assert c.src == p1
        assert c.dst == poly.hom_single_sorted(p2, p3)
        assert smcc.uncurry_dm(c, p1, p2, p3) == m


def test_uncurry_round_trip_explicit():
    p1, p2, p3 = ss((1, 1)), ss((1,)), ss((2,))
    hom = poly.hom_single_sorted(p2, p3)
    for m in nat.enumerate_dm(p1, hom):
        u = smcc.uncurry_dm(m, p1, p2, p3)
        assert u.src == poly.tensor(p1, p2)
        assert u.dst == p3
        assert smcc.curry_dm(u, p1, p2, p3) == m


@pytest.mark.parametrize("at", range(3), ids=["p1", "p2", "p3"])
def test_currying_refuses_a_multi_sorted_operand_before_the_hom(monkeypatch, at):
    ops = [ss((1,)), ss((2,)), ss((1, 1))]
    ops[at] = poly.identity_diagram(FinSet(2))
    p1, p2, p3 = ops
    calls = []
    tensor, hom_data = poly.tensor, poly.hom_data
    monkeypatch.setattr(poly, "tensor", lambda *ps: calls.append("tensor") or tensor(*ps))
    monkeypatch.setattr(poly, "hom_data", lambda *ps: calls.append("hom") or hom_data(*ps))
    message = "^the currying adjunction is single-sorted only$"
    for call in (lambda: smcc.Currying(p1, p2, p3),
                 lambda: smcc.uncurry_dm(poly.identity_dm(p1), p1, p2, p3),
                 lambda: smcc.adjunction_count_check(p1, p2, p3)):
        with pytest.raises(ValidationError, match=message):
            call()
    assert calls == []
    if at < 2:
        # curry_dm builds the tensor for its own endpoint check first
        tens = poly.tensor(p1, p2)
        calls.clear()
        with pytest.raises(ValidationError, match=message):
            smcc.curry_dm(poly.identity_dm(tens), p1, p2, tens)
        assert calls == ["tensor"]


def test_curry_rejects_wrong_endpoints():
    # X (x) X coincides with X on the nose, so mismatch the codomain
    p1, p2 = ss((1,)), ss((1,))
    m = poly.identity_dm(p1)
    with pytest.raises(ShapeMismatch):
        smcc.curry_dm(m, p1, p2, ss((2,)))
    with pytest.raises(ShapeMismatch):
        smcc.uncurry_dm(m, p1, p2, ss((2,)))


def test_adjunction_random_grid():
    rng = random.Random(20260819)
    one = FinSet(1)
    agreed = 0
    for _ in range(60):
        p1 = randgen.random_diagram(rng, one, one, max_shapes=2, max_fiber=2)
        p2 = randgen.random_diagram(rng, one, one, max_shapes=2, max_fiber=2)
        p3 = randgen.random_diagram(rng, one, one, max_shapes=2, max_fiber=2)
        try:
            rep = smcc.adjunction_count_check(p1, p2, p3)
        except SizeGuardExceeded:
            continue
        assert rep.ok, (poly.notation(p1), poly.notation(p2),
                        poly.notation(p3), rep.lines)
        agreed += 1
    assert agreed >= 40


def test_adjunction_check_builds_the_hom_once(monkeypatch):
    calls = []
    hom_data = poly.hom_data

    def counted(p2, p3):
        calls.append((p2, p3))
        return hom_data(p2, p3)

    monkeypatch.setattr(poly, "hom_data", counted)
    # 4 + 4 members round-tripped, and 65536 + 65536 counted only
    for p1, p2, p3 in ((ss((1,)), ss((2,)), ss((1, 1))), (ss((2, 2)), ss((2, 2)), ss((2, 2)))):
        calls.clear()
        assert smcc.adjunction_count_check(p1, p2, p3).ok
        assert calls == [(p2, p3)]


def _curry_triples(count):
    """Seeded single-sorted triples whose transformations out of the
    tensor number 1 to 64."""
    rng = random.Random(20261018)
    one = FinSet(1)
    triples = []
    while len(triples) < count:
        p1, p2, p3 = (randgen.random_diagram(rng, one, one, max_shapes=2, max_fiber=2)
                      for _ in range(3))
        if 0 < nat.count_nat(poly.tensor(p1, p2), p3) <= 64:
            triples.append((p1, p2, p3))
    return triples


def built(src, dst, tables):
    """The morphism with these (alpha table, betas), checked on construction."""
    return nat.DiagMorphism(src, dst, FinMap(src.shapes, dst.shapes, tables[0]), tables[1])


def test_curry_dm_and_uncurry_dm_equal_the_shared_step():
    for p1, p2, p3 in _curry_triples(30):
        c = smcc.Currying(p1, p2, p3)
        for m in nat.enumerate_dm(c.tensor, p3):
            tables = (m.alpha.table, m.betas)
            curried = built(p1, c.hom, c.curry(tables))
            assert curried.dst is c.hom
            assert smcc.curry_dm(m, p1, p2, p3) == curried
            assert c.uncurry(c.curry(tables)) == tables
        for m in nat.enumerate_dm(p1, c.hom):
            tables = (m.alpha.table, m.betas)
            uncurried = built(c.tensor, p3, c.uncurry(tables))
            assert smcc.uncurry_dm(m, p1, p2, p3) == uncurried
            assert c.curry(c.uncurry(tables)) == tables


# X^2 + X, X^2 + 1 and X^2 + X + 1: 147 transformations on each side, all
# round-tripped
ROUND_TRIP_TRIPLE = (ss((2, 1)), ss((2, 0)), ss((2, 1, 0)))


def _first_entry_moved(transpose, direction):
    """A mutant of a table-level transpose: the first entry of the first
    beta table, where there is one, becomes the given direction."""
    def mutant(tables, *args):
        alpha, betas = transpose(tables, *args)
        if betas and betas[0]:
            betas = ((direction,) + betas[0][1:],) + betas[1:]
        return alpha, betas
    return mutant


@pytest.mark.parametrize("name, direction", [
    # X^2 + X's direction 2 belongs to its shape 1
    ("_curry_tables", 2),
    # the tensor X^4 + X^2 + 2's direction 4 belongs to its shape 2
    ("_uncurry_tables", 4),
])
def test_adjunction_check_refuses_an_invalid_transpose(monkeypatch, name, direction):
    # a transpose outside the other side's enumeration is built, so it is
    # refused by the construction check, with its message
    monkeypatch.setattr(smcc, name, _first_entry_moved(getattr(smcc, name), direction))
    with pytest.raises(ValidationError, match="^beta at shape 0 leaves the direction fiber$"):
        smcc.adjunction_count_check(*ROUND_TRIP_TRIPLE)


def test_adjunction_check_reports_a_transpose_that_merges_two_members(monkeypatch):
    p1, p2, p3 = ss((1,)), ss((2,)), ss((1, 1))
    first, second = [(m.alpha.table, m.betas)
                     for m in nat.enumerate_dm(poly.tensor(p1, p2), p3)[:2]]
    curry_tables = smcc._curry_tables

    def merged(tables, *args):
        return curry_tables(first if tables == second else tables, *args)

    monkeypatch.setattr(smcc, "_curry_tables", merged)
    rep = smcc.adjunction_count_check(p1, p2, p3)
    assert not rep.ok
    assert rep.lines == ("transformations out of the tensor: 4; into the internal hom: 4",
                         "currying round trips on 4 + 4 members: NO",
                         "currying is injective: NO")


def test_adjunction_check_transposes_each_member_once(monkeypatch):
    # the right round trip reads the left one's transposes: every right
    # member is a curried left member, so each side is transposed once
    calls = Counter()
    for name in ("_curry_tables", "_uncurry_tables"):
        def counted(tables, *args, name=name, transpose=getattr(smcc, name)):
            calls[name] += 1
            return transpose(tables, *args)

        monkeypatch.setattr(smcc, name, counted)
    rep = smcc.adjunction_count_check(*ROUND_TRIP_TRIPLE)
    assert rep.ok
    assert rep.lines == ("transformations out of the tensor: 147; into the internal hom: 147",
                         "currying round trips on 147 + 147 members: yes",
                         "currying is injective: yes")
    assert calls == {"_curry_tables": 147, "_uncurry_tables": 147}


def counted_builds(monkeypatch) -> Counter:
    """Counts, from now on, the morphisms assembled unchecked
    (poly._assembled) and those built with the construction check."""
    counts = Counter()
    assembled, check = poly._assembled, poly.DiagMorphism.__post_init__

    def counted_assembled(*args):
        counts["assembled"] += 1
        return assembled(*args)

    def counted_check(self):
        counts["checked"] += 1
        check(self)

    monkeypatch.setattr(poly, "_assembled", counted_assembled)
    monkeypatch.setattr(poly.DiagMorphism, "__post_init__", counted_check)
    return counts


def test_adjunction_check_builds_no_morphism(monkeypatch):
    # both sides are listed as tables, and every transpose is a member
    counts = counted_builds(monkeypatch)
    assert smcc.adjunction_count_check(*ROUND_TRIP_TRIPLE).ok
    assert counts == Counter()
    # the counters see the morphisms that enumerating one side builds
    p1, p2, p3 = ROUND_TRIP_TRIPLE
    assert len(nat.enumerate_dm(poly.tensor(p1, p2), p3)) == 147
    assert counts == Counter(assembled=147)


def test_curry_command_builds_no_morphism(capsys, monkeypatch):
    # the 225-member case of the curry command, in-process
    counts = counted_builds(monkeypatch)
    assert cli.main(["curry", "docs/examples/list.json", "--p1", "two-x", "--p2", "square",
                     "--p3", "list3", "--index", "5", "--limit", "1000"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == \
        "transformation 5 of 225 curries to 5 of 225"
    assert counts == Counter()
    tens = poly.tensor(poly.single_sorted((1, 1)), poly.single_sorted((2,)))
    assert len(nat.enumerate_dm(tens, poly.single_sorted((3, 2, 1, 0)))) == 225
    assert counts == Counter(assembled=225)


def test_adjunction_large_counts_skip_round_trip():
    rep = smcc.adjunction_count_check(ss((2, 2)), ss((2, 2)), ss((2, 2)),
                                      roundtrip_limit=16)
    assert rep.ok
    assert "bijection not enumerated" in rep.lines[-1]


def test_adjunction_prints_counts_of_more_than_4300_digits():
    # X^10 ⊗ X into X^5000, and X^10 into the hom X^5000: 10^5000 each,
    # beyond str()'s digit limit
    rep = smcc.adjunction_count_check(ss((10,)), ss((1,)), ss((5000,)))
    huge = "1" + "0" * 5000
    assert rep.ok
    assert rep.lines == (
        f"transformations out of the tensor: {huge}; into the internal hom: {huge}",
        f"{huge} + {huge} members exceed the round-trip limit 512; bijection not enumerated",
    )


# ---------------------------------------------------------------------------
# the coend oracle


def test_rectangles_decode_tensor_elements():
    # a canonical rectangle of X tensor X^2 is the tensor's element at its
    # one shape pair, with a pairing of its 1 x 2 directions as payload
    tens = poly.tensor(ss((1,)), ss((2,)))
    rects = poly.extension_elements(tens, fams(1, [2]))
    assert len(rects) == 4
    assert all(v == 0 and len(pairing) == 1 * 2 for v, pairing in rects)
    assert [pairing for _, pairing in rects] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_day_oracle_exact_two_classes():
    rep = smcc.day_coend_oracle(ss((1,)), ss((1,)), fams(1, [2]), 2)
    assert rep.ok
    assert "mode: exact union-find over all tuples" in rep.lines
    assert "equivalence classes: 2; extension elements: 2" in rep.lines


def test_day_oracle_exact_constant_operand():
    # a constant left operand leaves one class per shape pair
    rep = smcc.day_coend_oracle(ss((0,)), ss((1,)), fams(1, [2]), 1)
    assert rep.ok
    assert "equivalence classes: 1; extension elements: 1" in rep.lines


def test_day_oracle_empty_family():
    rep = smcc.day_coend_oracle(ss((1,)), ss((1,)), fams(1, [0]), 1)
    assert rep.ok
    assert "equivalence classes: 0; extension elements: 0" in rep.lines


def test_day_oracle_exact_asymmetric():
    rep = smcc.day_coend_oracle(ss((1,)), ss((2,)), fams(1, [1]), 2)
    assert rep.ok
    assert "equivalence classes: 1; extension elements: 1" in rep.lines


def test_day_oracle_sampled_mode_large_case():
    rep = smcc.day_coend_oracle(ss((2, 1)), ss((2, 0)), fams(1, [2]), 4)
    assert rep.ok
    assert "mode: factorization with sampled relation checks" in rep.lines
    assert any("canonical rectangles: 22" in l for l in rep.lines)


def test_day_oracle_sampled_deterministic():
    a = smcc.day_coend_oracle(ss((2, 2)), ss((2, 2)), fams(1, [2]), 4)
    b = smcc.day_coend_oracle(ss((2, 2)), ss((2, 2)), fams(1, [2]), 4)
    assert a.ok and a.lines == b.lines
    c = smcc.day_coend_oracle(ss((2, 2)), ss((2, 2)), fams(1, [2]), 4, seed=7)
    assert c.ok


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_coend_draws_are_randrange_and_choice_draws(seed):
    # the sampled mode's draws must be random.Random's, draw for draw, on
    # every interpreter the suite runs on; both twins draw in one
    # sequence, so a draw taken or skipped out of turn shows up later
    ours, ref = random.Random(seed), random.Random(seed)
    below, below_each = smcc._draws(ours)
    sizes = list(range(1, 71)) + [10 ** 30, 2 ** 64]
    for n in sizes:
        assert below(n) == ref.randrange(n)
    for n in sizes:
        for m in (0, 1, 5):
            assert below_each(n, m) == tuple(ref.randrange(n) for _ in range(m))
    for length in range(1, 41):
        seq = [(length, i) for i in range(length)]
        assert seq[below(len(seq))] == ref.choice(seq)
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, -1, -8])
def test_coend_draws_refuse_an_empty_range(n):
    below, below_each = smcc._draws(random.Random(0))
    with pytest.raises(ValueError):
        random.Random(0).randrange(n)
    with pytest.raises(ValueError):
        below(n)
    with pytest.raises(ValueError):
        below_each(n, 1)
    with pytest.raises(ValueError):
        below_each(n, 3)
    # no draw is asked for, as with zero randrange calls
    assert below_each(n, 0) == ()


@pytest.mark.parametrize("samples", [0, -1])
def test_day_oracle_refuses_fewer_than_one_sample(samples):
    # a sampled mode with no samples would report ok having checked
    # nothing; the refusal comes before any work, even the skeleton guards
    with pytest.raises(ValidationError, match="sample"):
        smcc.day_coend_oracle(ss((2, 2)), ss((2, 2)), fams(1, [2]), 4,
                              samples=samples)
    with pytest.raises(ValidationError, match="sample"):
        smcc.day_coend_oracle(ss((2,)), ss((1,)), fams(1, [2]), 10 ** 6,
                              samples=samples)


# sampled reports at an empty family with a constant operand, recorded
# from the randrange and choice draws: most relation draws are skipped,
# and the counts below the sample count pin the stream
_SKIPPING_REPORTS = [
    ((0,), (1,), 0, "78 tuples, 175057590111132", 274),
    ((0,), (1,), 3, "78 tuples, 175057590111132", 300),
    ((2,), (0,), 0, "650 tuples, 2085483863886292", 291),
    ((2,), (0,), 3, "650 tuples, 2085483863886292", 275),
]


@pytest.mark.parametrize("f1, f2, seed, counts, tried", _SKIPPING_REPORTS)
def test_day_oracle_sampled_reports_keep_their_seeded_draws(f1, f2, seed, counts, tried):
    rep = smcc.day_coend_oracle(ss(f1), ss(f2), fams(1, [0]), 12,
                                samples=400, seed=seed)
    assert rep.render() == (
        "coend oracle: ok\n"
        f"  skeleton 0..12: {counts} generating relations\n"
        "  mode: factorization with sampled relation checks\n"
        "  sampled tuples reduce to canonical rectangles: yes (400 samples)\n"
        f"  separating comparison respects sampled relations: yes ({tried} samples)\n"
        "  canonical rectangles: 1 (one per extension element: yes)")


def test_day_oracle_sampled_mode_draws_through_getrandbits(monkeypatch):
    def refuse(*args):
        raise AssertionError("randrange or choice was called")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    monkeypatch.setattr(random.Random, "choice", refuse)
    rep = smcc.day_coend_oracle(ss((0,)), ss((1,)), fams(1, [0]), 12,
                                samples=400, seed=3)
    assert "separating comparison respects sampled relations: yes (300 samples)" \
        in rep.lines
    rep = smcc.day_coend_oracle(ss((2, 1)), ss((2, 0)), fams(1, [2]), 4)
    assert rep.ok and "mode: factorization with sampled relation checks" in rep.lines


# sampled reports on pairs of the tensor-universal grid at skeleton bound
# 4, and one at an empty family, with a SHA-256 of the generator's state
# after the call. At |x| = 1 and 2 every report reads "(400 samples)",
# so only the state shows a draw taken or skipped out of turn.
_SAMPLED_STREAMS = [
    ((2,), (1, 2), 1, 4, 0, "1200 tuples, 522160", 400, 2,
     "0e745737f4f6cdcd08fa1260467ca9e3b2871d38537b8540421698e485f42a16"),
    ((0, 1), (2, 2), 2, 4, 0, "11457948 tuples, 6881973260", 400, 10,
     "e32a91059f72ca0068bb71cab9c4455b9d4ca7c31d586ada27e74f1a6fef84c5"),
    ((1, 1), (0, 2), 1, 4, 9, "700 tuples, 268880", 400, 4,
     "0447cf0d0b3674b323d1e21ac677b8c6e0a6f64f5f77bd99afbfa769bc9b280c"),
    ((2, 0), (1,), 2, 4, 3, "4861346 tuples, 2908507990", 400, 5,
     "5f6d99a0c92ddad98dbede4b276867f24a2f9028adc3fd36b47d95654b2e867a"),
    ((2, 2), (2, 2), 2, 4, 7, "72146632 tuples, 42101355552", 400, 64,
     "92ba9d4395e8f6b223b314899089caaf9c57448184d74682dc30a95eff89b4d0"),
    ((1,), (0, 1), 0, 12, 5, "78 tuples, 175057590111132", 250, 1,
     "6e0cee7b0a548b169258c48c7a6ee10086e26624e021b1eb26d5b52f154a5c44"),
    # at |x| = 1 every pairing entry is a draw below 1, two words on average
    ((2, 2), (2, 1), 1, 4, 1, "2400 tuples, 1044320", 400, 4,
     "445c15378242a8363ad46f341adc62507e0b4127ae7956c625055f6116134da6"),
    ((2, 1), (2,), 1, 4, 4, "1200 tuples, 522160", 400, 2,
     "c30dd8b8892767a1f9cc9145fff7e5e43398932a72c6bf83de8c02e97b561b83"),
]


@pytest.mark.parametrize("f1, f2, n, s, seed, counts, tried, rects, state",
                         _SAMPLED_STREAMS)
def test_day_oracle_sampled_stream_is_pinned(monkeypatch, f1, f2, n, s, seed, counts,
                                             tried, rects, state):
    made = []

    class Recorded(random.Random):
        def __init__(self, x=None):
            super().__init__(x)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    rep = smcc.day_coend_oracle(ss(f1), ss(f2), fams(1, [n]), s, samples=400, seed=seed)
    assert rep.render() == (
        "coend oracle: ok\n"
        f"  skeleton 0..{s}: {counts} generating relations\n"
        "  mode: factorization with sampled relation checks\n"
        "  sampled tuples reduce to canonical rectangles: yes (400 samples)\n"
        f"  separating comparison respects sampled relations: yes ({tried} samples)\n"
        f"  canonical rectangles: {rects} (one per extension element: yes)")
    [rng] = made
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == state


def test_day_oracle_sampled_stream_at_the_default_sample_count(monkeypatch):
    # the CLI's default of 2000 samples at skeleton bound 3, the largest
    # bound of the queries workload's day-oracle calls
    made = []

    class Recorded(random.Random):
        def __init__(self, x=None):
            super().__init__(x)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    rep = smcc.day_coend_oracle(ss((2, 1)), ss((2, 2)), fams(1, [2]), 3, seed=6)
    assert rep.render() == (
        "coend oracle: ok\n"
        "  skeleton 0..3: 125016 tuples, 7756256 generating relations\n"
        "  mode: factorization with sampled relation checks\n"
        "  sampled tuples reduce to canonical rectangles: yes (2000 samples)\n"
        "  separating comparison respects sampled relations: yes (2000 samples)\n"
        "  canonical rectangles: 40 (one per extension element: yes)")
    [rng] = made
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == (
        "0eff668b7e404e9e53d93f69fbd86bc5ffb8dfbff53225cbefab782b9155116d")


def test_day_oracle_skeleton_too_small():
    with pytest.raises(ValidationError, match="skeleton"):
        smcc.day_coend_oracle(ss((2,)), ss((1,)), fams(1, [1]), 1)


def test_day_oracle_single_sorted_only():
    src = FinSet(2)
    p = poly.PolyDiagram(src, FinSet(0), FinSet(1), src,
                         FinMap(FinSet(0), src, ()),
                         FinMap(FinSet(0), FinSet(1), ()),
                         fmap(1, 2, (0,)))
    with pytest.raises(ValidationError):
        smcc.day_coend_oracle(p, ss((1,)), fams(1, [1]), 1)


def test_day_oracle_wrong_base():
    with pytest.raises(ShapeMismatch):
        smcc.day_coend_oracle(ss((1,)), ss((1,)), fams(2, [1, 1]), 1)


@settings(max_examples=20, deadline=None)
@given(d1=st.integers(0, 2), d2=st.integers(0, 2), n=st.integers(0, 2))
def test_day_oracle_exact_matches_monomials(d1, d2, n):
    # X^d1 (x) X^d2 evaluated at an n-element set has n^(d1*d2) elements
    rep = smcc.day_coend_oracle(ss((d1,)), ss((d2,)), fams(1, [n]),
                                max(d1, d2, 1))
    assert rep.ok
    assert f"extension elements: {n ** (d1 * d2)}" in " ".join(rep.lines)


def _set_values(p, a):
    return [(v, pay) for v in p.shapes
            for pay in itertools.product(range(a), repeat=len(p.shape_fiber(v)))]


def _all_maps_coend_classes(p1, p2, nx, s):
    """Every skeleton tuple (a, b, phi, e1, e2) in the order that
    smcc._coend_exact numbers them, and the smallest number in each
    tuple's class under the relations along every map a -> a2 of the
    skeleton, by a union-find of its own."""
    tuples = [(a, b, phi, e1, e2)
              for a in range(s + 1) for b in range(s + 1)
              for phi in itertools.product(range(nx), repeat=a * b)
              for e1 in _set_values(p1, a) for e2 in _set_values(p2, b)]
    number = {t: k for k, t in enumerate(tuples)}
    parent = list(range(len(tuples)))

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    def union(t, u):
        parent[find(number[t])] = find(number[u])

    for a, a2, b in itertools.product(range(s + 1), repeat=3):
        for f in itertools.product(range(a2), repeat=a):
            for phi2 in itertools.product(range(nx), repeat=a2 * b):
                pulled = tuple(phi2[f[i] * b + j] for i in range(a) for j in range(b))
                for v1, pay1 in _set_values(p1, a):
                    for e2 in _set_values(p2, b):
                        union((a2, b, phi2, (v1, tuple(f[t] for t in pay1)), e2),
                              (a, b, pulled, (v1, pay1), e2))
        for g in itertools.product(range(a2), repeat=b):
            for phi2 in itertools.product(range(nx), repeat=a * a2):
                pulled = tuple(phi2[i * a2 + g[j]] for i in range(a) for j in range(b))
                for e1 in _set_values(p1, a):
                    for v2, pay2 in _set_values(p2, b):
                        union((a, a2, phi2, e1, (v2, tuple(g[t] for t in pay2))),
                              (a, b, pulled, e1, (v2, pay2)))
    return tuples, _smallest_in_class([find(k) for k in range(len(tuples))])


def _smallest_in_class(roots):
    low = {}
    for k, root in enumerate(roots):
        low.setdefault(root, k)
    return [low[root] for root in roots]


def test_coend_union_over_elementary_maps_gives_the_all_maps_classes():
    rng = random.Random(3)
    grid = [(), (0,), (1,), (2,)] + [(a, b) for a in range(3) for b in range(3)]
    checked = 0
    while checked < 12:
        f1, f2 = rng.choice(grid), rng.choice(grid)
        n = rng.randint(0, 2)
        s = rng.randint(max(f1 + f2 + (1,)), 3)
        c1 = [sum(a ** d for d in f1) for a in range(s + 1)]
        c2 = [sum(b ** d for d in f2) for b in range(s + 1)]
        total = sum(n ** (a * b) * c1[a] * c2[b]
                    for a in range(s + 1) for b in range(s + 1))
        if not 30 <= total <= 5000:
            continue
        p1, p2 = ss(f1), ss(f2)
        tuples, want = _all_maps_coend_classes(p1, p2, n, s)
        roots, number = smcc._coend_exact(p1, p2, s, n)
        assert [number(*t) for t in tuples] == list(range(len(tuples)))
        assert _smallest_in_class(roots) == want
        checked += 1


@pytest.mark.parametrize("f1, f2, n, s", [
    ((1,), (2, 1), 0, 2),
    ((1,), (2, 0), 0, 2),
    ((2, 0), (1,), 0, 3),
    ((1,), (1,), 1, 2),
    ((1,), (2, 0), 2, 2),
], ids=["empty-x-no-constant", "empty-x-right-constant", "empty-x-left-constant",
        "x-empty-at-size-0", "x-empty-at-size-0-mixed"])
def test_coend_exact_reads_its_pushes_where_relations_do(f1, f2, n, s):
    # at |x| = 0 only the other side's constant shapes are related, so
    # against X or X² + X no push is read; X has no element at size 0,
    # so its pushes along the cofaces out of 0 are empty
    p1, p2 = ss(f1), ss(f2)
    tuples, want = _all_maps_coend_classes(p1, p2, n, s)
    roots, number = smcc._coend_exact(p1, p2, s, n)
    assert [number(*t) for t in tuples] == list(range(len(tuples)))
    assert _smallest_in_class(roots) == want
    expected = poly.eval_extension(poly.tensor(p1, p2), fams(1, [n])).total.size
    assert sum(1 for k, root in enumerate(roots) if k == root) == expected


# ---------------------------------------------------------------------------
# the truncated exponential identity


def test_bang_extension_depth_zero():
    rep = smcc.bang_extension_check(ss((2,)), fams(1, [2]), 0)
    assert rep.ok
    assert "(1,) vs (1,)" in rep.lines[0]


def test_bang_extension_frozen_identity_functor():
    rep = smcc.bang_extension_check(ss((1,)), fams(1, [2]), 2)
    assert rep.ok
    assert "(1, 2, 4) vs (1, 2, 4)" in rep.lines[0]


def test_bang_extension_two_shapes_singleton_family():
    # both pipelines count 4 at the doubleton multiset: the four length-2
    # shape lists
    rep = smcc.bang_extension_check(ss((1, 1)), fams(1, [1]), 2)
    assert rep.ok
    assert "(1, 2, 4) vs (1, 2, 4)" in rep.lines[0]


def test_bang_extension_two_sorted_endo():
    src = FinSet(2)
    p = poly.PolyDiagram(src, FinSet(2), FinSet(2), src,
                         fmap(2, 2, (1, 0)), fmap(2, 2, (0, 1)),
                         fmap(2, 2, (0, 1)))
    rep = smcc.bang_extension_check(p, fams(2, [2, 1]), 2)
    assert rep.ok
    assert "(1, 1, 2, 1, 4, 4) vs (1, 1, 2, 1, 4, 4)" in rep.lines[0]


def test_bang_extension_mixed_arity_and_empty_family():
    # X + 1 at the empty family: the diagram side counts empty-fiber
    # shape lists, which the naive product-of-values reading misses
    rep = smcc.bang_extension_check(ss((1, 0)), fams(1, [0]), 2)
    assert rep.ok
    assert "(1, 1, 3) vs (1, 1, 3)" in rep.lines[0]
    rep = smcc.bang_extension_check(ss((1, 0)), fams(1, [2]), 2)
    assert rep.ok
    assert "(1, 3, 7) vs (1, 3, 7)" in rep.lines[0]


def test_bang_extension_square_functor():
    # X^2 at |x| = 2, depth 2: the doubleton-multiset block is the Day
    # square with 4 directions, giving 4^4 payloads, not (2^2)^2
    rep = smcc.bang_extension_check(ss((2,)), fams(1, [2]), 2)
    assert rep.ok
    assert "(1, 4, 256) vs (1, 4, 256)" in rep.lines[0]


def test_bang_extension_small_grid():
    rng = random.Random(5)
    one = FinSet(1)
    for _ in range(12):
        p = randgen.random_diagram(rng, one, one, max_shapes=2, max_fiber=2)
        x = randgen.random_family(rng, one, max_fiber=2)
        for k in range(3):
            rep = smcc.bang_extension_check(p, x, k)
            assert rep.ok, (poly.notation(p), x.fiber_sizes(), k, rep.lines)


def test_bang_extension_arithmetic_mode_on_huge_carrier():
    # 2X^2 at |x| = 2, depth 3: 134 million elements at the triple
    # multiset, equal on both sides, never materialized
    rep = smcc.bang_extension_check(ss((2, 2)), fams(1, [2]), 3)
    assert rep.ok
    assert "(1, 8, 1024, 134217728) vs (1, 8, 1024, 134217728)" in rep.lines[0]
    assert "compared arithmetically only" in rep.lines[1]


def test_bang_extension_prints_counts_of_more_than_4300_digits():
    # X^2200 at |x| = 100, depth 1: 100^2200 = 10^4400 elements at the
    # singleton multiset, beyond str()'s digit limit
    rep = smcc.bang_extension_check(ss((2200,)), fams(1, [100]), 1)
    huge = "1" + "0" * 4400
    assert rep.ok
    assert rep.lines[0] == f"fibers over size-at-most-1 multisets: (1, {huge}) vs (1, {huge})"
    assert rep.lines[1] == (f"carrier of {huge[:-1]}1 elements exceeds the materialization "
                            "limit 100000; fiber counts compared arithmetically only")


def test_bang_extension_rejects_non_endo():
    r = fam.Span(FinSet(2), fmap(2, 1, (0, 0)), fmap(2, 2, (0, 1)))
    p = poly.au_lift(r)
    with pytest.raises(ValidationError):
        smcc.bang_extension_check(p, fams(1, [1]), 1)


def test_bang_extension_wrong_base():
    with pytest.raises(ShapeMismatch):
        smcc.bang_extension_check(ss((1,)), fams(2, [1, 1]), 1)


_SHAPE_TUPLES = smcc._shape_tuples


def _blocks_twice(p, bd):
    return [block for block in _SHAPE_TUPLES(p, bd) for _ in range(2)]


def _blocks_on_the_wrong_multiset(p, bd):
    # multiset mi becomes the mirror index, which for X^2 at depth 2 swaps
    # the empty and the doubleton multiset; the blocks stay ascending
    last = len(bd.base_reps) - 1
    return sorted([(last - mi, l) for mi, l in _SHAPE_TUPLES(p, bd)], key=lambda b: b[0])


@pytest.mark.parametrize("mutant, sizes", [
    (_blocks_twice, "(2, 8, 512)"),
    (_blocks_on_the_wrong_multiset, "(256, 4, 1)"),
])
def test_bang_extension_reads_no_when_the_blocks_disagree_fiberwise(monkeypatch, mutant, sizes):
    monkeypatch.setattr(smcc, "_shape_tuples", mutant)
    rep = smcc.bang_extension_check(ss((2,)), fams(1, [2]), 2)
    assert not rep.ok
    assert rep.lines == (
        f"fibers over size-at-most-2 multisets: (1, 4, 256) vs {sizes}",
        "blockwise tensor powers match the exponential fiberwise: NO",
    )


@pytest.mark.parametrize("mutant", [_blocks_twice, _blocks_on_the_wrong_multiset])
def test_exponential_suite_with_disagreeing_blocks_is_a_law_violation(
        monkeypatch, capsys, mutant):
    monkeypatch.setattr(smcc, "_shape_tuples", mutant)
    assert cli.main(["check-laws", "--suite", "exponential", "--seed", "0"]) == 4
    out, err = capsys.readouterr()
    assert out.startswith("exponential identity: FAIL\n")
    assert err == ""


# ---------------------------------------------------------------------------
# double dualization


def test_double_dual_identity_functor():
    rep = smcc.double_dual_report(1, 1)
    assert rep.ok
    assert rep.lines[-1] == "X vs X : ISO"


def test_double_dual_frozen_counterexample():
    rep = smcc.double_dual_report(2, 2)
    assert rep.ok
    assert rep.lines[0] == "diagram: 2X^2"
    assert rep.lines[-1] == "2X^2 vs 16X^4 : NOT ISO"


def test_double_dual_degenerate_isos():
    rep = smcc.double_dual_report(2, 1)
    assert rep.ok
    assert rep.lines[-1] == "2X vs 2X : ISO"
    rep = smcc.double_dual_report(1, 2)
    assert rep.ok
    assert rep.lines[-1] == "X^2 vs X^2 : ISO"


def test_double_dual_empty_sum():
    rep = smcc.double_dual_report(0, 0)
    assert rep.ok
    assert " : ISO" in rep.lines[-1]


def test_double_dual_rejects_negative():
    with pytest.raises(ValidationError):
        smcc.double_dual_report(-1, 2)


def _double_dual_built_first(a_size, b_size):
    """double_dual_report as it reads without the closed-form refusal:
    build both duals, then compare. The sum's shape carrier is guarded
    as it is built."""
    finset.check_guard(a_size, "diagram shape carrier")
    p = ss((b_size,) * a_size)
    pd = poly.dualize(p)
    pdd = poly.dualize(pd)
    ba = b_size ** a_size
    dual, double = poly.arity_counts(pd), poly.arity_counts(pdd)
    dual_ok = pd.shapes.size == ba and set(dual) <= {a_size}
    dd_ok = pdd.shapes.size == a_size ** ba and set(double) <= {ba}
    verdict = "ISO" if poly.iso_check(p, pdd) is not None else "NOT ISO"
    lines = (
        f"diagram: {poly.notation(p)}",
        f"dual: {poly.monomials(dual)} (closed form: {ba} shapes of arity "
        f"{a_size}: {'yes' if dual_ok else 'NO'})",
        f"double dual: {poly.monomials(double)} (closed form: {a_size ** ba} "
        f"shapes of arity {ba}: {'yes' if dd_ok else 'NO'})",
        f"{poly.notation(p)} vs {poly.monomials(double)} : {verdict}",
    )
    return Report("double dualization", bool(dual_ok and dd_ok), lines)


def _outcome(build, *args):
    try:
        rep = build(*args)
    except SizeGuardExceeded as e:
        return "refused", str(e)
    return rep.ok, rep.lines


def test_double_dual_refuses_exactly_where_building_would():
    # a, b and the limit range over cases where either dual's shapes or
    # directions trip first, or nothing trips, zero counts included
    outcomes = Counter()
    for limit in (1, 2, 3, 5, 8, 16, 30, 100, 1000, 10**4, 10**6):
        previous = finset.set_guard_limit(limit)
        try:
            for a, b in itertools.product(range(5), range(7)):
                expected = _outcome(_double_dual_built_first, a, b)
                assert _outcome(smcc.double_dual_report, a, b) == expected, (limit, a, b)
                outcomes[expected[1].split(" has ")[0] if expected[0] == "refused"
                         else "built"] += 1
        finally:
            finset.set_guard_limit(previous)
    assert sum(outcomes.values()) == 385
    assert set(outcomes) == {"built", "search too large: diagram shape carrier",
                             "search too large: hom shape carrier",
                             "search too large: hom direction carrier"}


def test_double_dual_over_the_guard_refuses_before_building():
    # 3X^40 has a dual of 40^3 = 64,000 shapes; refusing its double dual
    # (3^64000 shapes) must not build it
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded) as refused:
        smcc.double_dual_report(3, 40)
    assert time.perf_counter() - start < 0.02
    assert str(refused.value) == ("search too large: hom shape carrier has size "
                                  "more than 1000000, guard limit is 1000000")
