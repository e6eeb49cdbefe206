"""Tests for strong transformations: evaluation, counting, enumeration,
extraction, and naturality checking.

The brute-force oracle below counts arbitrary component assignments over
all families with small fibers, filtered by naturality; on single-sorted
diagrams whose direction fibers fit under the bound this is the whole
transformation set, computed without the container representation.
"""
import itertools
import random

import pytest

from polycat import fam, nat, poly, randgen
from polycat.errors import OracleNotNatural, ShapeMismatch, ValidationError
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


def test_eval_dm_base_mismatch():
    with pytest.raises(ShapeMismatch):
        nat.eval_dm(pick_first(), fams(2, (1, 1)))


def test_eval_respects_composition():
    p, q = ss(2), ss(1, 1)
    swap = nat.DiagMorphism(q, q, fmap(2, 2, (1, 0)), ((0,), (1,)))
    m = pick_first()
    comp = nat.compose_dm(swap, m)
    assert comp.alpha.table == (1,)
    for n in range(4):
        x = fams(1, (n,))
        lhs = nat.eval_dm(comp, x)
        rhs = nat.eval_dm(m, x).then(nat.eval_dm(swap, x))
        assert lhs.map.table == rhs.map.table


def test_compose_dm_identity_and_associativity():
    rng = random.Random(2)
    p, q, r = ss(2, 1), ss(1, 1), ss(1, 0)
    ms1 = nat.enumerate_dm(p, q)
    ms2 = nat.enumerate_dm(q, r)
    ms3 = nat.enumerate_dm(r, r)
    for m in ms1:
        assert nat.compose_dm(nat.identity_dm(q), m) == m
        assert nat.compose_dm(m, nat.identity_dm(p)) == m
    for _ in range(20):
        m1, m2, m3 = rng.choice(ms1), rng.choice(ms2), rng.choice(ms3)
        lhs = nat.compose_dm(m3, nat.compose_dm(m2, m1))
        rhs = nat.compose_dm(nat.compose_dm(m3, m2), m1)
        assert lhs == rhs


def test_compose_dm_mismatch():
    with pytest.raises(ShapeMismatch):
        nat.compose_dm(pick_first(), pick_first())


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


# -- extraction ------------------------------------------------------------------


def test_yoneda_extract_identity():
    p = ss(2, 1)
    m = nat.yoneda_extract(lambda x: fam.identity_morphism(poly.eval_extension(p, x)),
                           p, p)
    assert m == nat.identity_dm(p)


def test_yoneda_extract_roundtrip_injective():
    p, q = ss(2), ss(1, 1)
    members = nat.enumerate_dm(p, q)
    assert len(members) == 4
    extracted = []
    for m in members:
        got = nat.yoneda_extract(lambda x, m=m: nat.eval_dm(m, x), p, q)
        assert got == m
        extracted.append(got)
    assert len(set(extracted)) == 4


def test_yoneda_extract_not_natural():
    p, q = ss(2), ss(1, 1)
    m1, m2 = nat.enumerate_dm(p, q)[0], nat.enumerate_dm(p, q)[3]

    def mixed(x: fam.Family) -> fam.FamMorphism:
        pick = m1 if x.total.size % 2 == 0 else m2
        return nat.eval_dm(pick, x)

    with pytest.raises(OracleNotNatural, match="oracle not natural"):
        nat.yoneda_extract(mixed, p, q)


def test_yoneda_extract_bad_component_endpoints():
    p = ss(2)
    with pytest.raises(ValidationError):
        nat.yoneda_extract(lambda x: fam.identity_morphism(x), p, p)


# -- naturality checking ----------------------------------------------------------


def test_naturality_of_container_morphisms():
    for m in nat.enumerate_dm(ss(2), ss(1, 1)):
        rep = nat.naturality_check(m, 2)
        assert rep.ok, rep.render()


def test_naturality_check_rejects_mixed_oracle():
    p, q = ss(2), ss(1, 1)
    ms = nat.enumerate_dm(p, q)

    def mixed(x: fam.Family) -> fam.FamMorphism:
        pick = ms[0] if x.total.size % 2 == 0 else ms[3]
        return nat.eval_dm(pick, x)

    rep = nat.naturality_check(mixed, 2, p=p, q=q)
    assert not rep.ok
    assert "counterexample" in rep.lines[0]


def test_naturality_check_bound_zero_vacuous():
    rep = nat.naturality_check(pick_first(), 0)
    assert rep.ok


def test_naturality_check_needs_diagrams_for_oracles():
    with pytest.raises(ValidationError):
        nat.naturality_check(lambda x: x, 2)


def test_composed_functor_protocol():
    p, q = ss(2), ss(1, 1)
    f = nat.ComposedFunctor(nat.ExtFunctor(q), nat.ExtFunctor(p))
    x = fams(1, (2,))
    assert f.on_family(x).fiber_sizes() == \
        poly.eval_extension(q, poly.eval_extension(p, x)).fiber_sizes()
    with pytest.raises(ShapeMismatch):
        nat.ComposedFunctor(nat.ExtFunctor(poly.identity_diagram(FinSet(2))),
                            nat.ExtFunctor(ss(1)))


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
