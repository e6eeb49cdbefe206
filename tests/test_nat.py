"""Tests for strong transformations: evaluation, counting, enumeration,
the check families of extraction, and naturality checking.

The brute-force oracle below counts arbitrary component assignments over
all families with small fibers, filtered by naturality; on single-sorted
diagrams whose direction fibers fit under the bound this is the whole
transformation set, computed without the container representation.
"""
import itertools
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from polycat import fam, finset, nat, poly, randgen
from polycat.errors import ShapeMismatch, SizeGuardExceeded, ValidationError
from polycat.finset import FinMap, FinSet


def ss(*sizes: int) -> poly.PolyDiagram:
    return poly.single_sorted(sizes)


def fams(base_size: int, sizes) -> fam.Family:
    return fam.family_from_fibers(FinSet(base_size), tuple(sizes))


def fmap(dom: int, cod: int, table) -> FinMap:
    return FinMap(FinSet(dom), FinSet(cod), tuple(table))


def pick_first() -> nat.DiagMorphism:
    """The square-to-double morphism that keeps the first component."""
    return nat.DiagMorphism(ss(2), ss(1, 1), fmap(1, 2, (0,)), ((0,),))


# -- evaluation ----------------------------------------------------------------


def test_eval_identity_dm():
    p = ss(2, 1)
    x = fams(1, (3,))
    m = nat.eval_dm(nat.identity_dm(p), x)
    assert m.map.table == tuple(range(m.src.total.size))


def test_eval_dm_square_to_double():
    m = pick_first()
    x = fams(1, (3,))
    comp = nat.eval_dm(m, x)
    assert comp.src.total.size == 9 and comp.dst.total.size == 6
    # every payload (a, b) goes to (shape 0, (a,)), hitting 3 of the 6
    assert set(comp.map.table) == {0, 1, 2}


def test_eval_dm_of_a_wide_shape_runs_in_linear_time():
    # a search of each backward answer in its shape's fiber took more
    # than 10 s on a 2-vCPU host
    n = 40000
    m = nat.identity_dm(poly.single_sorted((n,)))
    start = time.perf_counter()
    comp = nat.eval_dm(m, fams(1, (1,)))
    assert time.perf_counter() - start < 1.0
    assert comp.map.table == (0,)


@pytest.mark.parametrize("wide_src, limit, size", [
    # X^2 has 9 elements at a 3-set and X has 3. The source's carrier is
    # guarded first: when both exceed the limit, it is named
    (True, 7, 9),
    (True, 1, 9),
    (False, 7, 9),
    (False, 1, 3),
])
def test_eval_dm_refuses_the_first_carrier_over_the_limit(wide_src, limit, size):
    want = f"^search too large: extension carrier has size {size}, guard limit is {limit}$"
    x = fams(1, (3,))
    for warm in (False, True):
        if wide_src:
            m = nat.DiagMorphism(ss(2), ss(1), fmap(1, 1, (0,)), ((1,),))
        else:
            m = nat.DiagMorphism(ss(1), ss(2), fmap(1, 1, (0,)), ((0, 0),))
        if warm:
            # both records are held: every call still guards both carriers
            nat.eval_dm(m, x)
        old = finset.set_guard_limit(limit)
        try:
            with pytest.raises(SizeGuardExceeded, match=want):
                nat.eval_dm(m, x)
        finally:
            finset.set_guard_limit(old)


def test_eval_dm_base_mismatch():
    with pytest.raises(ShapeMismatch):
        nat.eval_dm(pick_first(), fams(2, (1, 1)))


# -- counting and enumeration ---------------------------------------------------


def test_count_nat_frozen():
    assert nat.count_nat(ss(2), ss(1, 1)) == 4
    assert nat.count_nat(ss(1), ss(2)) == 1
    assert nat.count_nat(ss(1), ss(1, 1, 1, 1)) == 4
    assert nat.count_nat(ss(1, 1), ss(2)) == 1
    for p in [ss(2), ss(1, 1), ss(0, 2)]:
        assert nat.count_nat(p, p) >= 1


def test_count_nat_multisorted():
    p = poly.identity_diagram(FinSet(2))
    assert nat.count_nat(p, p) == 1
    # two sorts, shape sorts force the shape map componentwise
    q = poly.tensor(ss(1), poly.identity_diagram(FinSet(1)))
    assert nat.count_nat(q, q) == 1


def test_count_matches_enumeration():
    grid = [ss(), ss(0), ss(1), ss(2), ss(0, 1), ss(1, 1), ss(1, 2), ss(2, 2)]
    for p in grid:
        for q in grid:
            ms = nat.enumerate_dm(p, q)
            assert len(ms) == nat.count_nat(p, q)
            assert len(set(ms)) == len(ms)


def test_count_nat_mismatch_and_large_counts():
    with pytest.raises(ShapeMismatch):
        nat.count_nat(ss(1), poly.identity_diagram(FinSet(2)))
    # counting is arithmetic: 8^8 and 2^25 shape maps are never walked
    assert nat.count_nat(ss(*([1] * 8)), ss(*([1] * 8))) == 8**8
    assert nat.count_nat(ss(*([1] * 25)), ss(1, 1)) == 2**25


def test_count_and_enumeration_of_wide_pairs_run_in_linear_time():
    # regrouping the source shape's 20000 directions per target shape took
    # 9.3 s at 1600 target shapes on a 2-vCPU host, and 0.03 s here at 16000
    wide = ss(20000)
    start = time.perf_counter()
    n = nat.count_nat(wide, ss(*([1] * 16000)))
    assert time.perf_counter() - start < 0.5
    assert n == 16000 * 20000
    constants = ss(*([0] * 1600))
    start = time.perf_counter()
    ms = nat.enumerate_dm(wide, constants)
    assert time.perf_counter() - start < 0.5
    assert [m.alpha.table for m in ms] == [(w,) for w in range(1600)]
    assert all(m.betas == ((),) for m in ms)


def test_transformations_of_many_shapes_count_and_list_in_linear_time():
    # 20000 constant shapes into 1 + 19999X: one transformation. Counting
    # per pair of shapes took 7.6 s at 4000 shapes on a 2-vCPU host, and
    # enumerating 6.8 s
    for run in (lambda p, q: nat.count_nat(p, q) == 1,
                lambda p, q: [m.alpha.table for m in nat.enumerate_dm(p, q)] == [(0,) * 20000]):
        p, q = ss(*[0] * 20000), ss(0, *[1] * 19999)
        start = time.perf_counter()
        assert run(p, q)
        assert time.perf_counter() - start < 0.5


def test_enumeration_with_no_transformations_lists_no_tables():
    # X^7 has 7^7 backward tables into X^7, but the constant shape has none,
    # so there is no transformation and no table need be listed
    tracemalloc.start()
    try:
        ms = nat.enumerate_dm(ss(7, 0), ss(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ms == []
    assert peak < 10**6


def matching_dirs(p, q, v: int, w: int) -> list[list[int]]:
    """Per direction of q's shape w, the directions of p's shape v with
    its sort."""
    return [[u1 for u1 in p.shape_fiber(v) if p.dir_sort(u1) == q.dir_sort(u2)]
            for u2 in q.shape_fiber(w)]


def shape_maps(p, q):
    """Every sort-compatible shape map, as a table."""
    return itertools.product(*(q.shape_sort.fiber(p.shape_sort(v)) for v in p.shapes))


def shape_map_count(p, q) -> int:
    """The count as a search: a sum over every shape map of the product of
    the matching-direction counts."""
    total = 0
    for alpha in shape_maps(p, q):
        prod = 1
        for v, w in zip(p.shapes, alpha):
            for choices in matching_dirs(p, q, v, w):
                prod *= len(choices)
        total += prod
    return total


def shape_map_enumeration(p, q) -> list:
    """(shape map, backward tables) pairs, shape-map major, then backward
    tables in odometer order."""
    return [
        (alpha, betas)
        for alpha in shape_maps(p, q)
        for betas in itertools.product(*(
            list(itertools.product(*matching_dirs(p, q, v, w)))
            for v, w in zip(p.shapes, alpha)))
    ]


def test_count_and_enumeration_match_shape_map_search_on_random_pairs():
    rng = random.Random(5)
    enumerated = 0
    for _ in range(300):
        src, tgt = FinSet(rng.randint(1, 3)), FinSet(rng.randint(1, 2))
        p = randgen.random_diagram(rng, src, tgt, max_shapes=4, max_fiber=3)
        q = randgen.random_diagram(rng, src, tgt, max_shapes=4, max_fiber=3)
        n = nat.count_nat(p, q)
        assert n == shape_map_count(p, q)
        if n <= 300:
            ms = nat.enumerate_dm(p, q)
            assert [(m.alpha.table, m.betas) for m in ms] == shape_map_enumeration(p, q)
            enumerated += 1
    assert enumerated >= 100



def test_enumerated_transformations_pass_the_full_check():
    # enumerate_dm checks each option once and assembles its members
    # unchecked; every member must be one that construction accepts.
    # Two-sorted pairs seldom admit a transformation, so each drawn pair
    # is also tried reversed and each diagram into itself
    rng = random.Random(20261019)
    checked = {1: 0, 2: 0}
    for max_sorts, draws in ((1, 60), (2, 250)):
        for _ in range(draws):
            p = randgen.random_endo(rng, max_sorts=max_sorts, max_shapes=3, max_fiber=2)
            q = randgen.random_diagram(rng, p.source, p.target, max_shapes=3, max_fiber=2)
            for d1, d2 in ((p, q), (q, p), (p, p)):
                if nat.count_nat(d1, d2) > 400:
                    continue
                for m in nat.enumerate_dm(d1, d2):
                    assert m.src is d1 and m.dst is d2
                    alpha = FinMap(d1.shapes, d2.shapes, m.alpha.table)
                    assert nat.DiagMorphism(d1, d2, alpha, m.betas) == m
                    checked[d1.source.size] += 1
    assert checked[1] >= 2000 and checked[2] >= 500, checked


def test_enumeration_order_is_pinned():
    # X^2 + X (x) X^2 + 1 = X^4 + X^2 + 2 into X^2 + X + 1: shape maps in
    # odometer order, each with its backward tables in odometer order
    ms = nat.enumerate_dm(poly.tensor(ss(2, 1), ss(2, 0)), ss(2, 1, 0))
    assert len(ms) == 147
    runs = [(alpha, len(list(group)))
            for alpha, group in itertools.groupby(m.alpha.table for m in ms)]
    assert runs == [((0, 2, 0, 2), 64), ((0, 2, 1, 2), 32), ((0, 2, 2, 2), 16),
                    ((1, 2, 0, 2), 16), ((1, 2, 1, 2), 8), ((1, 2, 2, 2), 4),
                    ((2, 2, 0, 2), 4), ((2, 2, 1, 2), 2), ((2, 2, 2, 2), 1)]
    assert [ms[i].betas for i in (0, 1, 73, 146)] == [
        ((0, 0), (), (4, 4), ()), ((0, 0), (), (4, 5), ()), ((1, 0), (), (5,), ()),
        ((), (), (), ())]


def test_enumerate_dm_assembles_the_listed_tables_in_order():
    # enumerate_dm is enumerate_tables' members, built as morphisms, in
    # its order, on one-sorted, two-sorted and non-endo pairs
    rng = random.Random(20261020)
    one, two = FinSet(1), FinSet(2)
    draws = {"one-sorted": (one, one), "two-sorted": (two, two), "non-endo": (two, one)}
    listed = {kind: 0 for kind in draws}
    for kind, (src, tgt) in draws.items():
        for _ in range(120):
            p, q = (randgen.random_diagram(rng, src, tgt, max_shapes=3, max_fiber=2)
                    for _ in range(2))
            for d1, d2 in ((p, q), (q, p), (p, p)):
                n = nat.count_nat(d1, d2)
                if n > 300:
                    continue
                tables = nat.enumerate_tables(d1, d2)
                assert len(tables) == n
                assert nat.enumerate_dm(d1, d2) == [
                    nat.DiagMorphism(d1, d2, FinMap(d1.shapes, d2.shapes, alpha), betas)
                    for alpha, betas in tables]
                listed[kind] += n
    assert min(listed.values()) >= 100, listed


def test_enumerate_tables_refuses_as_enumerate_dm_does():
    p, q = poly.tensor(ss(2, 1), ss(2, 0)), ss(2, 1, 0)
    old = finset.set_guard_limit(100)
    try:
        for enumerate_ in (nat.enumerate_tables, nat.enumerate_dm):
            with pytest.raises(SizeGuardExceeded,
                               match="^search too large: transformation enumeration has size "
                                     "147, guard limit is 100$"):
                enumerate_(p, q)
        finset.set_guard_limit(147)
        assert len(nat.enumerate_tables(p, q)) == 147
    finally:
        finset.set_guard_limit(old)
    # no transformation: nothing listed, and no table built
    assert nat.enumerate_tables(ss(7, 0), ss(7)) == []
    assert nat.enumerate_dm(ss(7, 0), ss(7)) == []


def _two_sorted(shape_sorts, dir_shape, dir_sort) -> poly.PolyDiagram:
    two = FinSet(2)
    shapes, dirs = FinSet(len(shape_sorts)), FinSet(len(dir_shape))
    return poly.PolyDiagram(source=two, dirs=dirs, shapes=shapes, target=two,
                            dir_sort=FinMap(dirs, two, tuple(dir_sort)),
                            dir_shape=FinMap(dirs, shapes, tuple(dir_shape)),
                            shape_sort=FinMap(shapes, two, tuple(shape_sorts)))


@pytest.mark.parametrize("p, q, message", [
    # X + X into X, with shape 1's direction listed in shape 0's group
    (ss(1, 1), ss(1), "beta at shape 0 leaves the direction fiber"),
    # a shape reading sorts 0 and 1 into one reading sort 0, with the
    # direction of sort 1 listed among those of sort 0
    (_two_sorted((0,), (0, 0), (0, 1)), _two_sorted((0,), (0,), (0,)),
     "beta at shape 0 does not respect sorts"),
], ids=["off-the-fiber", "wrong-sort"])
def test_enumerate_dm_refuses_a_bad_option(monkeypatch, p, q, message):
    by_sort = poly._by_sort
    kept = [{i: list(us) for i, us in by.items()} for by in by_sort(p)]

    def corrupted(d):
        groups = by_sort(d)
        if d is p:
            # a corrupted copy: the table kept on p stays as it was
            groups = [dict(by) for by in groups]
            groups[0][0] = groups[0][0] + [1]
        return groups

    monkeypatch.setattr(poly, "_by_sort", corrupted)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        nat.enumerate_dm(p, q)
    assert by_sort(p) == kept

REFUSE_EMPTY_CODOMAINS = """
import random
from polycat import randgen
from polycat.errors import ShapeMismatch
from polycat.finset import FinSet
for draw in (lambda rng: randgen.random_finmap(rng, FinSet(2), FinSet(0)),
             lambda rng: randgen.random_diagram(rng, FinSet(1), FinSet(0))):
    try:
        draw(random.Random(0))
    except ShapeMismatch as e:
        print(type(e).__name__, e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_random_maps_into_the_empty_set_are_refused(flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.dirname(nat.__file__) + "/..",
                                                     env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, *flags, "-c", REFUSE_EMPTY_CODOMAINS],
                         capture_output=True, text=True, env=env, check=True)
    # the diagram's shapes are drawn first, so their number varies with the seed
    lines = out.stdout.splitlines()
    assert lines[0] == "ShapeMismatch no map from a set of size 2 to the empty set"
    assert len(lines) == 2 and re.fullmatch(
        r"ShapeMismatch no map from a set of size \d+ to the empty set", lines[1])


def test_random_maps_out_of_the_empty_set_draw_nothing():
    rng = random.Random(0)
    state = rng.getstate()
    assert randgen.random_finmap(rng, FinSet(0), FinSet(0)).table == ()
    assert rng.getstate() == state
    p = randgen.random_diagram(rng, FinSet(0), FinSet(1), max_fiber=0)
    assert p.dirs == FinSet(0) and p.source == FinSet(0)


# -- the check families of extraction --------------------------------------------


def test_check_families_refuse_many_sorts_quickly():
    # 4^10 families with fibers at most 3 exceed the guard limit of 10^6
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded, match="families with bounded fibers"):
        nat.check_families(poly.identity_diagram(FinSet(10)))
    assert time.perf_counter() - start < 1.0


def test_check_families_are_held_and_guarded_on_every_call():
    # 2 sorts: 4^2 = 16 families with fibers at most 3
    p = poly.identity_diagram(FinSet(2))
    first = nat.check_families(p)
    assert len(first) == 16 and first == tuple(fam.families_up_to(p.source, 3))
    assert nat.check_families(p) is first
    old = finset.set_guard_limit(15)
    try:
        with pytest.raises(SizeGuardExceeded, match="families with bounded fibers"):
            nat.check_families(p)
        finset.set_guard_limit(16)
        assert nat.check_families(p) is first
    finally:
        finset.set_guard_limit(old)


# -- naturality checking ----------------------------------------------------------


def test_naturality_of_container_morphisms():
    for m in nat.enumerate_dm(ss(2), ss(1, 1)):
        rep = nat.naturality_check(m, 2)
        assert rep.ok, rep.render()
        # one sort at bound 2: the cofaces 0 -> 1 and 1 -> 2, the
        # codegeneracy 2 -> 1 and the transposition (0 1)
        assert rep.lines == ("4 generating squares commute at fiber bound 2",)


def test_naturality_check_counts_generating_squares_per_sort():
    # each of 2 sorts: 4 generating maps (2 cofaces, 1 codegeneracy and
    # (0 1)), times 3 sizes of the other fiber
    p = poly.identity_diagram(FinSet(2))
    rep = nat.naturality_check(nat.identity_dm(p), 2)
    assert rep.lines == ("24 generating squares commute at fiber bound 2",)
    # bound 1: one coface per sort, times 2 sizes of the other fiber
    rep = nat.naturality_check(nat.identity_dm(p), 1)
    assert rep.lines == ("4 generating squares commute at fiber bound 1",)


def test_naturality_check_evaluates_each_family_once():
    seen = []

    def component(x):
        seen.append(x.fiber_sizes())
        return nat.eval_dm(pick_first(), x)

    f, g = nat.ExtFunctor(ss(2)), nat.ExtFunctor(ss(1, 1))
    assert nat.transformation_check(f, g, component, 2).ok
    assert sorted(seen) == [(0,), (1,), (2,)]


def test_naturality_check_rejects_mixed_oracle():
    p, q = ss(2), ss(1, 1)
    ms = nat.enumerate_dm(p, q)

    def mixed(x: fam.Family) -> fam.FamMorphism:
        pick = ms[0] if x.total.size % 2 == 0 else ms[3]
        return nat.eval_dm(pick, x)

    rep = nat.transformation_check(nat.ExtFunctor(p), nat.ExtFunctor(q), mixed, 2)
    assert not rep.ok
    assert rep.lines[0].startswith("counterexample: fibers (")
    assert "morphism table" in rep.lines[0]


def test_naturality_check_bound_zero_vacuous():
    rep = nat.naturality_check(pick_first(), 0)
    assert rep.ok


def test_composed_functor_protocol():
    p, q = ss(2), ss(1, 1)
    f = nat.ComposedFunctor(nat.ExtFunctor(q), nat.ExtFunctor(p))
    x = fams(1, (2,))
    assert f.on_family(x).fiber_sizes() == \
        poly.eval_extension(q, poly.eval_extension(p, x)).fiber_sizes()
    with pytest.raises(ShapeMismatch):
        nat.ComposedFunctor(nat.ExtFunctor(poly.identity_diagram(FinSet(2))),
                            nat.ExtFunctor(ss(1)))


# -- the generating squares against every square --------------------------------


def _all_maps_counterexample(f, g, component, bound):
    """The first family morphism with fibers at most the bound whose
    naturality square from f to g fails; None if every such square
    commutes. Runs over every morphism, independently of the generating
    morphisms that nat checks."""
    xs = list(fam.families_up_to(f.src_base, bound))
    comps = [component(x) for x in xs]
    for (x, cx), (y, cy) in itertools.product(zip(xs, comps), repeat=2):
        for h in fam.hom_enumerate(x, y):
            if cx.then(g.on_morphism(h)).map.table != f.on_morphism(h).then(cy).map.table:
                return h
    return None


def _bumped_at(m, sizes):
    # the components of m, with the image of the first element moved to
    # the next element of the single-sorted codomain at the family with
    # the given fiber sizes
    def component(x):
        e = nat.eval_dm(m, x)
        if x.fiber_sizes() != sizes or e.map.dom.size == 0 or e.map.cod.size < 2:
            return e
        t = list(e.map.table)
        t[0] = (t[0] + 1) % e.map.cod.size
        return fam.FamMorphism(e.src, e.dst, FinMap(e.map.dom, e.map.cod, tuple(t)))
    return component


def _agree(p, q, component, bound):
    f, g = nat.ExtFunctor(p), nat.ExtFunctor(q)
    natural = _all_maps_counterexample(f, g, component, bound) is None
    assert nat.transformation_check(f, g, component, bound).ok == natural
    return natural


def test_transformation_check_agrees_with_all_maps_on_seeded_instances():
    rng = random.Random(5)
    verdicts = []
    while len(verdicts) < 24:
        sorts = FinSet(rng.randint(1, 2))
        p = randgen.random_diagram(rng, sorts, FinSet(1), 2, 2)
        q = randgen.random_diagram(rng, sorts, FinSet(1), 2, 2)
        if not 0 < nat.count_nat(p, q) <= 64:
            continue
        m = rng.choice(nat.enumerate_dm(p, q))
        bound = 2 if sorts.size == 1 else 1
        component = lambda x, m=m: nat.eval_dm(m, x)
        if rng.random() < 0.5:
            component = _bumped_at(m, tuple(rng.randint(0, bound) for _ in sorts))
        verdicts.append(_agree(p, q, component, bound))
    # both verdicts occur, so the agreement is not vacuous
    assert True in verdicts and False in verdicts


def test_transformation_check_agrees_with_all_maps_on_the_mixed_oracle():
    p, q = ss(2), ss(1, 1)
    ms = nat.enumerate_dm(p, q)

    def mixed(x: fam.Family) -> fam.FamMorphism:
        pick = ms[0] if x.total.size % 2 == 0 else ms[3]
        return nat.eval_dm(pick, x)

    assert not _agree(p, q, mixed, 2)
    assert _agree(p, q, lambda x: nat.eval_dm(ms[3], x), 2)


def test_a_component_that_only_the_transposition_square_refuses():
    # the identity of X but at the 2-point family, where it is the constant
    # map (0, 0): the cofaces 0 -> 1 and 1 -> 2 (into point 0) and the
    # codegeneracy 2 -> 1 accept it, and only the square of (0 1) refuses it
    p = ss(1)
    f = nat.ExtFunctor(p)

    def component(x):
        e = nat.eval_dm(nat.identity_dm(p), x)
        if x.fiber_sizes() != (2,):
            return e
        return fam.FamMorphism(e.src, e.dst, FinMap(e.map.dom, e.map.cod, (0, 0)))

    assert _all_maps_counterexample(f, f, component, 2) is not None
    rep = nat.transformation_check(f, f, component, 2)
    assert rep.lines == ("counterexample: fibers (2,) -> (2,), morphism table (1, 0)",)


# -- brute-force cross-check -------------------------------------------------------


def brute_force_nat_count(p: poly.PolyDiagram, q: poly.PolyDiagram,
                          max_fiber: int, budget: int = 10**5) -> int:
    families = list(fam.families_up_to(FinSet(1), max_fiber))
    evals_p = [poly.eval_extension(p, x) for x in families]
    evals_q = [poly.eval_extension(q, x) for x in families]
    candidates = [fam.hom_enumerate(ep, eq) for ep, eq in zip(evals_p, evals_q)]
    space = 1
    for c in candidates:
        space *= len(c)
    assert space <= budget, "brute-force space exceeds the test budget"
    homs = {}
    actions_p = {}
    actions_q = {}
    for i, x in enumerate(families):
        for j, y in enumerate(families):
            homs[i, j] = fam.hom_enumerate(x, y)
            actions_p[i, j] = [poly.extension_map(p, h) for h in homs[i, j]]
            actions_q[i, j] = [poly.extension_map(q, h) for h in homs[i, j]]
    count = 0
    for combo in itertools.product(*candidates):
        natural = True
        for i in range(len(families)):
            for j in range(len(families)):
                for ph, qh in zip(actions_p[i, j], actions_q[i, j]):
                    if combo[i].then(qh).map.table != ph.then(combo[j]).map.table:
                        natural = False
                        break
                if not natural:
                    break
            if not natural:
                break
        if natural:
            count += 1
    return count


def test_brute_force_matches_count_nat():
    # fiber bound 2 covers the largest direction fiber of these diagrams,
    # so components over the test families determine the transformation
    assert brute_force_nat_count(ss(2), ss(1, 1), 2) == 4
    assert brute_force_nat_count(ss(1), ss(2), 2) == 1
    assert brute_force_nat_count(ss(1, 1), ss(2), 2) == 1
    assert brute_force_nat_count(ss(1), ss(1, 1), 2) == 2
    assert nat.count_nat(ss(1), ss(1, 1)) == 2
