"""Tests for the polynomial diagram calculus.

Expected numbers are computed by hand from the sum-of-monomials reading:
evaluating sums, over each shape, the product of the chosen fiber sizes.
"""
import gc
import itertools
import math
import random
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycat import fam, finset, nat, poly, randgen, sim
from polycat.errors import ShapeMismatch, SizeGuardExceeded, ValidationError
from polycat.fam import Span
from polycat.finset import FinMap, FinSet


def ss(*sizes: int) -> poly.PolyDiagram:
    return poly.single_sorted(sizes)


def fams(base_size: int, sizes) -> fam.Family:
    return fam.family_from_fibers(FinSet(base_size), tuple(sizes))


def fmap(dom: int, cod: int, table) -> FinMap:
    return FinMap(FinSet(dom), FinSet(cod), tuple(table))


def random_diagram(rng: random.Random, src: int, tgt: int, max_shapes: int = 3,
                   max_fiber: int = 2) -> poly.PolyDiagram:
    n_shapes = rng.randint(0, max_shapes)
    fiber_sizes = [rng.randint(0, max_fiber) for _ in range(n_shapes)]
    shapes = FinSet(n_shapes)
    dfam = fam.family_from_fibers(shapes, fiber_sizes)
    dirs = dfam.total
    return poly.PolyDiagram(
        source=FinSet(src),
        dirs=dirs,
        shapes=shapes,
        target=FinSet(tgt),
        dir_sort=FinMap(dirs, FinSet(src), tuple(rng.randrange(src) for _ in dirs)),
        dir_shape=dfam.proj,
        shape_sort=FinMap(shapes, FinSet(tgt), tuple(rng.randrange(tgt) for _ in shapes)),
    )


def random_family(rng: random.Random, base: int, max_fiber: int = 3) -> fam.Family:
    return fams(base, [rng.randint(0, max_fiber) for _ in range(base)])


# -- constructors and notation ------------------------------------------------


def test_notation():
    assert poly.notation(ss()) == "0"
    assert poly.notation(ss(0)) == "1"
    assert poly.notation(ss(1)) == "X"
    assert poly.notation(ss(2)) == "X^2"
    assert poly.notation(ss(1, 1)) == "2X"
    assert poly.notation(ss(2, 2)) == "2X^2"
    assert poly.notation(ss(0, 1, 2, 3)) == "X^3 + X^2 + X + 1"
    assert poly.notation(ss(3, 0, 3, 1)) == "2X^3 + X + 1"


def test_notation_refuses_a_diagram_with_more_sorts():
    # checked by a raise, not an assert, so python -O refuses it too
    with pytest.raises(ValidationError, match="single-sorted"):
        poly.notation(poly.identity_diagram(FinSet(2)))


def test_diagram_validation():
    one = FinSet(1)
    with pytest.raises(ShapeMismatch):
        poly.PolyDiagram(one, FinSet(2), one, one,
                         fmap(2, 2, (0, 1)), fmap(2, 1, (0, 0)), fmap(1, 1, (0,)))


def test_identity_eval():
    p = poly.identity_diagram(FinSet(2))
    x = fams(2, (2, 3))
    assert poly.extension_fiber_sizes(p, x) == (2, 3)
    elems = poly.extension_elements(p, x)
    assert elems == ((0, (0,)), (0, (1,)), (1, (2,)), (1, (3,)), (1, (4,)))


def test_single_sorted_evals():
    x3 = fams(1, (3,))
    assert poly.extension_fiber_sizes(ss(1, 1), x3) == (6,)
    assert poly.extension_fiber_sizes(ss(2), x3) == (9,)
    # truncated list polynomial 1 + X + X^2 + X^3 at a 2-element fiber:
    # 1 + 2 + 4 + 8 = 15
    x2 = fams(1, (2,))
    assert poly.extension_fiber_sizes(ss(0, 1, 2, 3), x2) == (15,)


def test_extension_elements_order():
    p = ss(2)
    x = fams(1, (3,))
    elems = poly.extension_elements(p, x)
    assert len(elems) == 9
    assert elems[0] == (0, (0, 0))
    assert elems[1] == (0, (0, 1))
    assert elems[-1] == (0, (2, 2))
    index = poly.extension_index(p, x)
    assert index[(0, (1, 2))] == 5


def test_extension_map_functoriality():
    p = ss(2, 1)
    x = fams(1, (2,))
    y = fams(1, (3,))
    z = fams(1, (2,))
    h1 = fam.FamMorphism(x, y, fmap(2, 3, (2, 0)))
    h2 = fam.FamMorphism(y, z, fmap(3, 2, (1, 1, 0)))
    lhs = poly.extension_map(p, h1.then(h2))
    rhs = poly.extension_map(p, h1).then(poly.extension_map(p, h2))
    assert lhs.map.table == rhs.map.table
    ident = poly.extension_map(p, fam.identity_morphism(x))
    assert ident.map.table == tuple(range(ident.src.total.size))


@pytest.mark.parametrize("src, dst, limit, size", [
    # X^2 + X has 6 elements at a 2-set and 12 at a 3-set. The source's
    # carrier is guarded first: when both exceed the limit, it is named
    ((2,), (3,), 10, 12),
    ((2,), (3,), 4, 6),
    ((3,), (2,), 10, 12),
    ((3,), (2,), 4, 12),
])
def test_extension_map_refuses_the_first_carrier_over_the_limit(src, dst, limit, size):
    want = f"^search too large: extension carrier has size {size}, guard limit is {limit}$"
    table = (0, 1) if src == (2,) else (0, 1, 1)
    for warm in (False, True):
        p = ss(2, 1)
        h = fam.FamMorphism(fams(1, src), fams(1, dst), fmap(src[0], dst[0], table))
        if warm:
            # both records are held: every call still guards both carriers
            poly.extension_map(p, h)
        old = finset.set_guard_limit(limit)
        try:
            with pytest.raises(SizeGuardExceeded, match=want):
                poly.extension_map(p, h)
        finally:
            finset.set_guard_limit(old)


def test_extension_agreement_batch():
    cases = [
        (poly.identity_diagram(FinSet(2)), fams(2, (2, 3))),
        (ss(0, 1, 2, 3), fams(1, (2,))),
        (ss(), fams(1, (3,))),
    ]
    rng = random.Random(7)
    for _ in range(20):
        src = rng.randint(1, 3)
        tgt = rng.randint(1, 2)
        cases.append((random_diagram(rng, src, tgt), random_family(rng, src)))
    for p, x in cases:
        rep = poly.extension_agreement(p, x)
        assert rep.ok, rep.render()


def test_eval_guard_trips():
    with pytest.raises(SizeGuardExceeded):
        poly.eval_extension(ss(40), fams(1, (3,)))


# -- the extension cache ------------------------------------------------------


def test_extension_lookups_share_one_record():
    p = ss(2, 1)
    x = fams(1, (3,))
    elems = poly.extension_elements(p, x)
    index = poly.extension_index(p, x)
    assert poly.extension_elements(p, x) is elems
    assert poly.extension_index(p, x) is index
    assert poly.eval_extension(p, x) is poly.eval_extension(p, x)
    # a family of the same value built by the constructor, which does not
    # intern, hits the same record by equality
    again = fam.Family(x.total, x.base, x.proj)
    assert again is not x and again == x
    assert poly.extension_elements(p, again) is elems
    assert poly.extension_index(p, again) is index
    # a second request for the block family returns the same object
    assert fams(1, (3,)) is x


def test_extension_guard_is_checked_on_every_cached_access():
    p = ss(2)
    x = fams(1, (3,))
    assert len(poly.extension_elements(p, x)) == 9
    poly.extension_index(p, x)
    old = finset.set_guard_limit(5)
    try:
        for view in (poly.eval_extension, poly.extension_elements, poly.extension_index):
            with pytest.raises(SizeGuardExceeded, match="extension carrier has size 9"):
                view(p, x)
    finally:
        finset.set_guard_limit(old)
    assert len(poly.extension_elements(p, x)) == 9


def test_an_exact_size_of_limit_plus_one_is_quoted_as_it_is():
    # 7 constant shapes make a 7-element carrier at any family: refused at
    # limit 6 with its size, where a count cut at the limit plus one, such
    # as the 7 families of one fiber at most 6, is only "more than 6"
    p, x = ss(*[0] * 7), fams(1, (1,))
    old = finset.set_guard_limit(6)
    try:
        with pytest.raises(SizeGuardExceeded, match="^search too large: extension carrier has "
                                                    "size 7, guard limit is 6$"):
            poly._extension(p, x)
        with pytest.raises(SizeGuardExceeded, match="^search too large: families with bounded "
                                                    "fibers has size more than 6, guard limit"):
            fam.families_up_to(FinSet(1), 6)
        finset.set_guard_limit(7)
        assert len(poly._extension(p, x).elements) == 7
    finally:
        finset.set_guard_limit(old)


def test_a_shape_of_a_million_directions_is_counted_by_one_power():
    # a product over the directions took 12.5 s, and the refusal 12.8 s,
    # on a 2-vCPU host
    p, x = ss(10**6), fams(1, (2,))
    start = time.perf_counter()
    assert poly.extension_fiber_sizes(p, x) == (2**10**6,)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded, match="extension carrier has size more than 10\\^301029,"):
        poly.eval_extension(p, x)
    assert time.perf_counter() - start < 0.5


def test_extension_index_is_read_only():
    index = poly.extension_index(ss(2), fams(1, (3,)))
    with pytest.raises(TypeError):
        index[(0, (1, 2))] = 0
    assert index[(0, (1, 2))] == 5


def test_caches_make_no_reference_cycles():
    # with the cyclic collector off, an object in a cycle would outlive
    # del, and the collector would then find it unreachable. Interned
    # block families may be held by live objects elsewhere (sharing, not
    # a cycle), so death is asserted only for objects nothing can share:
    # diagrams, spans, cells and a family of a size used nowhere else
    gc.collect()
    gc.disable()
    try:
        p = ss(2, 1)
        x = fams(1, (2,))
        poly.extension_index(p, x)
        poly.extension_index(poly.tensor(p, p), fam.box(x, x))
        lone = fams(1, (13,))
        poly.extension_index(p, lone)
        r = Span(FinSet(3), fmap(3, 2, (0, 1, 1)), fmap(3, 2, (0, 0, 1)))
        poly.extension_index(poly.au_lift(r), fams(2, (2, 3)))
        # the generic families and the check families held on a diagram,
        # the evaluation plan kept on a cell, and the frame of evaluation
        # and extraction held on its span, which holds both diagrams
        e = ss(2, 0)
        generic, _ = nat.generic_family(e, 0)
        nat.generic_element(e, 0)
        checks = nat.check_families(e)[-1]
        cell = sim.identity_sim(e)
        extracted = sim.extract_sim(lambda y: sim.eval_sim(cell, y), cell.span, e, e)
        sim.eval_sim(extracted, fams(1, (2,)))
        assert "_generic" in vars(e) and vars(e)["_check_families"][-1] is checks
        span = cell.span
        frame = vars(span)["_frame"]
        assert frame.src is e and frame.dst is e and frame.at and frame.probes
        del frame
        assert "_plan" in vars(cell) and "_plan" in vars(extracted)
        assert "_ext" in vars(p) and lone in vars(p)["_ext"]
        objects = [p, lone, r, e, cell, extracted, span]
        dead = [weakref.ref(o) for o in objects]
        del p, x, lone, r, e, generic, checks, cell, extracted, span, objects
        assert [ref() for ref in dead] == [None] * len(dead)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_au_lift_and_tensor_are_shared():
    r = Span(FinSet(3), fmap(3, 2, (0, 1, 1)), fmap(3, 2, (0, 0, 1)))
    assert poly.au_lift(r) is poly.au_lift(r)
    p1 = random_diagram(random.Random(5), 2, 2)
    t = poly.tensor(p1, ss(2, 1))
    # a value-equal second factor built separately shares the diagram ...
    assert poly.tensor(p1, ss(2, 1)) is t
    # ... which equals the tensor built by a first factor with no cache
    fresh = poly.PolyDiagram(p1.source, p1.dirs, p1.shapes, p1.target,
                             p1.dir_sort, p1.dir_shape, p1.shape_sort)
    assert not hasattr(fresh, "_tensor")
    assert poly.tensor(fresh, ss(2, 1)) == t
    assert poly.tensor(p1, ss(1, 1)) != t


def odometer_elements(p: poly.PolyDiagram, x: fam.Family) -> tuple:
    """The extension's elements from the definition: per target index,
    per shape, every payload counted up like an odometer."""
    xfibs = [[t for t in range(x.total.size) if x.proj.table[t] == i]
             for i in range(x.base.size)]
    out = []
    for j in range(p.target.size):
        for v in range(p.shapes.size):
            if p.shape_sort.table[v] != j:
                continue
            choices = [xfibs[p.dir_sort.table[u]] for u in range(p.dirs.size)
                       if p.dir_shape.table[u] == v]
            if any(not c for c in choices):
                continue
            digits = [0] * len(choices)
            while True:
                out.append((v, tuple(c[d] for c, d in zip(choices, digits))))
                k = len(digits) - 1
                while k >= 0:
                    digits[k] += 1
                    if digits[k] < len(choices[k]):
                        break
                    digits[k] = 0
                    k -= 1
                if k < 0:
                    break
    return tuple(out)


def test_cached_extensions_match_an_odometer_oracle():
    rng = random.Random(11)
    views = ("elements", "index", "eval", "agreement")
    for _ in range(60):
        src, tgt = rng.randint(1, 3), rng.randint(1, 3)
        p = random_diagram(rng, src, tgt, max_shapes=4, max_fiber=3)
        families = [random_family(rng, src) for _ in range(3)]
        # value-equal copies, so some lookups hit a record another family built
        families += [fams(src, x.fiber_sizes()) for x in families]
        calls = [(x, view) for x in families for view in views]
        rng.shuffle(calls)
        for x, view in calls:
            expected = odometer_elements(p, x)
            if view == "elements":
                assert poly.extension_elements(p, x) == expected
            elif view == "index":
                assert dict(poly.extension_index(p, x)) == {e: k for k, e in enumerate(expected)}
            elif view == "eval":
                value = poly.eval_extension(p, x)
                assert value.total.size == len(expected)
                assert value.proj.table == tuple(p.shape_sort.table[v] for v, _ in expected)
            else:
                assert poly.extension_agreement(p, x).ok


# -- composition --------------------------------------------------------------


def test_compose_2x_after_square():
    q = ss(1, 1)
    p = ss(2)
    comp = poly.compose_direct(q, p)
    assert poly.notation(comp) == "2X^2"
    x = fams(1, (3,))
    assert poly.extension_fiber_sizes(comp, x) == (18,)
    rep = poly.compose_witness(q, p, x)
    assert rep.ok, rep.render()


def test_compose_square_after_2x():
    comp = poly.compose_direct(ss(2), ss(1, 1))
    assert poly.notation(comp) == "4X^2"
    assert poly.extension_fiber_sizes(comp, fams(1, (3,))) == (36,)


def test_compose_constants_and_zero():
    assert poly.notation(poly.compose_direct(ss(0), ss(2, 2))) == "1"
    assert poly.notation(poly.compose_direct(ss(1, 1), ss(0))) == "2"
    assert poly.notation(poly.compose_direct(ss(1, 1), ss())) == "0"
    assert poly.notation(poly.compose_direct(ss(), ss(1, 1))) == "0"


def test_compose_shape_mismatch():
    p = poly.identity_diagram(FinSet(2))
    q = ss(1)
    with pytest.raises(ShapeMismatch):
        poly.compose_direct(q, p)


def test_compose_multisorted_frozen():
    # p: one shape over a single target reading both source sorts once;
    # q = X^2. Substituting gives one shape with four directions, so at
    # fibers (2, 3) the value is (2*3)^2 = 36.
    two, one = FinSet(2), FinSet(1)
    p = poly.PolyDiagram(two, two, one, one,
                         fmap(2, 2, (0, 1)), fmap(2, 1, (0, 0)), fmap(1, 1, (0,)))
    q = ss(2)
    comp = poly.compose_direct(q, p)
    assert comp.shapes.size == 1 and comp.dirs.size == 4
    assert poly.extension_fiber_sizes(comp, fams(2, (2, 3))) == (36,)
    assert poly.compose_witness(q, p, fams(2, (2, 3))).ok


def test_compose_guard_trips():
    with pytest.raises(SizeGuardExceeded):
        poly.compose_direct(ss(20), ss(*([1] * 20)))


def test_compose_guard_refuses_a_wide_shape_at_once():
    # 2^20000 composite shapes: the guard's products saturate at the
    # limit, so the refusal takes time linear in the directions
    q, p = ss(20000), ss(1, 1)
    for compose in (poly.compose_direct, poly.compose_structural):
        start = time.perf_counter()
        with pytest.raises(SizeGuardExceeded,
                           match="composite shape carrier has size more than 1000000"):
            compose(q, p)
        assert time.perf_counter() - start < 0.5


def test_compose_guard_checks_the_direction_carrier():
    # X^4 after X^3: one composite shape with 4 * 3 directions
    old = finset.set_guard_limit(11)
    try:
        with pytest.raises(SizeGuardExceeded, match="composite direction carrier"):
            poly.compose_direct(ss(4), ss(3))
        finset.set_guard_limit(12)
        assert poly.compose_direct(ss(4), ss(3)).dirs.size == 12
    finally:
        finset.set_guard_limit(old)


def test_structural_equals_direct_frozen():
    q, p = ss(1, 1), ss(2)
    direct = poly.compose_direct(q, p)
    structural = poly.compose_structural(q, p)
    x = fams(1, (3,))
    assert poly.extension_fiber_sizes(structural, x) == (18,)
    assert poly.iso_check(structural, direct) is not None


def test_structural_equals_direct_random():
    rng = random.Random(11)
    done = 0
    while done < 25:
        mid = rng.randint(1, 2)
        src = rng.randint(1, 2)
        tgt = rng.randint(1, 2)
        p = random_diagram(rng, src, mid)
        q = random_diagram(rng, mid, tgt)
        direct = poly.compose_direct(q, p)
        structural = poly.compose_structural(q, p)
        x = random_family(rng, src)
        assert poly.extension_fiber_sizes(structural, x) == \
            poly.extension_fiber_sizes(direct, x)
        assert poly.compose_witness(q, p, x).ok
        if direct.shapes.size <= 8:
            assert poly.iso_check(structural, direct) is not None
        done += 1


# -- tensor and sum -----------------------------------------------------------


def test_tensor_frozen():
    t = poly.tensor(ss(2), ss(1, 1))
    assert poly.notation(t) == "2X^2"
    assert poly.extension_fiber_sizes(t, fams(1, (3,))) == (18,)
    # direction fibers multiply, so X tensor X^2 collapses to X^2
    assert poly.notation(poly.tensor(ss(1), ss(2))) == "X^2"


def test_tensor_guard_refuses_wide_operands_at_once():
    # 2000 * 2000 directions: refused before any product carrier is built
    p = ss(2000)
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded,
                       match="tensor carrier has size more than 1000000, guard limit"):
        poly.tensor(p, p)
    assert time.perf_counter() - start < 0.5
    # 2X^2 from X^2 and 2X: one sort at each end, 2 shapes, 4 directions
    p1, p2 = ss(2), ss(1, 1)
    old = finset.set_guard_limit(7)
    try:
        with pytest.raises(SizeGuardExceeded, match="tensor carrier has size more than 7"):
            poly.tensor(p1, p2)
        finset.set_guard_limit(8)
        assert poly.notation(poly.tensor(p1, p2)) == "2X^2"
    finally:
        finset.set_guard_limit(old)


def test_tensor_guard_refuses_a_held_tensor_under_a_lowered_limit():
    # 3 * 2 shapes and 6 * 6 directions, 1 sort at each end: 44 in all
    p, q = ss(2, 2, 2), ss(3, 3)
    t = poly.tensor(p, q)
    old = finset.set_guard_limit(3)
    try:
        with pytest.raises(SizeGuardExceeded, match="tensor carrier has size more than 3"):
            poly.tensor(p, q)
        with pytest.raises(SizeGuardExceeded, match="tensor carrier has size more than 3"):
            poly.tensor(ss(2, 2, 2), q)
    finally:
        finset.set_guard_limit(old)
    assert poly.tensor(p, q) is t


def test_single_sorted_refuses_a_negative_arity():
    with pytest.raises(ShapeMismatch, match="fiber sizes must be nonnegative"):
        poly.single_sorted((-1,))
    with pytest.raises(ShapeMismatch, match="fiber sizes must be nonnegative"):
        poly.single_sorted((2, -1, 0))


def test_tensor_unit_literal():
    unit = poly.tensor_unit()
    for p in [ss(2, 1), poly.identity_diagram(FinSet(3)),
              poly.au_lift(Span(FinSet(3), fmap(3, 2, (0, 1, 1)), fmap(3, 2, (0, 0, 1))))]:
        assert poly.tensor(unit, p) == p
        assert poly.tensor(p, unit) == p


def test_tensor_associativity_literal():
    p1 = ss(2)
    p2 = poly.identity_diagram(FinSet(2))
    p3 = ss(1, 0)
    assert poly.tensor(poly.tensor(p1, p2), p3) == poly.tensor(p1, poly.tensor(p2, p3))


def test_tensor_symmetry_single_sorted():
    p1, p2 = ss(2), ss(1, 1)
    assert poly.iso_check(poly.tensor(p1, p2), poly.tensor(p2, p1)) is not None


def test_tensor_symmetry_multisorted():
    rng = random.Random(3)
    p1 = random_diagram(rng, 2, 1)
    p2 = random_diagram(rng, 1, 2)
    t12, t21 = poly.tensor(p1, p2), poly.tensor(p2, p1)

    def swap(a: int, b: int) -> FinMap:
        # pair(x, y) in a-major layout -> pair(y, x) in b-major layout
        return FinMap(FinSet(a * b), FinSet(b * a),
                      tuple((k % b) * a + k // b for k in range(a * b)))

    moved = poly.reindex_diagram(
        t12,
        swap(p1.source.size, p2.source.size),
        swap(p1.target.size, p2.target.size),
    )
    assert moved.source == t21.source and moved.target == t21.target
    assert poly.iso_check(moved, t21) is not None


def test_plus_unit_literal():
    zero = poly.zero_diagram()
    for p in [ss(2, 1), poly.identity_diagram(FinSet(2))]:
        assert poly.plus(zero, p) == p
        assert poly.plus(p, zero) == p


def test_plus_eval_report():
    p1, p2 = ss(2), ss(1, 1)
    x, y = fams(1, (2,)), fams(1, (3,))
    combined = poly.eval_extension(poly.plus(p1, p2), fam.family_sum(x, y))
    assert combined.fiber_sizes() == (4, 6)
    rep = poly.plus_eval_report(p1, p2, x, y)
    assert rep.ok, rep.render()


def test_compose_witness_builds_the_composite_once(monkeypatch):
    calls = []
    compose_data = poly.compose_data

    def counted(q, p):
        calls.append((q, p))
        return compose_data(q, p)

    monkeypatch.setattr(poly, "compose_data", counted)
    q, p = ss(2, 0), ss(1, 3)
    assert poly.compose_witness(q, p, fams(1, (2,))).ok
    assert len(calls) == 1


def test_plus_eval_report_multisorted():
    rng = random.Random(5)
    for _ in range(10):
        p1 = random_diagram(rng, 2, 2)
        p2 = random_diagram(rng, 1, 2)
        x = random_family(rng, 2, 2)
        y = random_family(rng, 1, 2)
        rep = poly.plus_eval_report(p1, p2, x, y)
        assert rep.ok, rep.render()


# -- hom and dualization ------------------------------------------------------


def test_hom_frozen():
    assert poly.notation(poly.hom_single_sorted(ss(1), ss(1))) == "X"
    # X^2 -o 2X: two shape maps, each with 2 backward tables, one
    # direction apiece
    assert poly.notation(poly.hom_single_sorted(ss(2), ss(1, 1))) == "4X"
    # X -o P is P
    assert poly.notation(poly.hom_single_sorted(ss(1), ss(2, 2))) == "2X^2"
    # 2X -o X^2: one shape map, one backward table per shape, 2 + 2 dirs
    assert poly.notation(poly.hom_single_sorted(ss(1, 1), ss(2))) == "X^4"


def test_hom_shape_decodings():
    data = poly.hom_data(ss(2), ss(1, 1))
    assert len(data.shape_reps) == 4
    for f_table, phi in data.shape_reps:
        assert len(f_table) == 1 and f_table[0] in (0, 1)
        assert len(phi) == 1 and phi[0] in ((0,), (1,))
    assert data.diagram.dirs.size == 4


def test_hom_requires_single_sorted():
    with pytest.raises(ValidationError):
        poly.hom_single_sorted(poly.identity_diagram(FinSet(2)), ss(1))


def test_hom_guard_trips():
    with pytest.raises(SizeGuardExceeded):
        poly.hom_single_sorted(ss(*([1] * 10)), ss(*([1] * 10)))


def test_dualize_chain():
    p = ss(2, 2)
    dual = poly.dualize(p)
    assert poly.notation(dual) == "4X^2"
    double = poly.dualize(dual)
    assert poly.notation(double) == "16X^4"
    assert poly.iso_check(p, double) is None


def test_dualize_degenerate():
    assert poly.notation(poly.dualize(ss(1))) == "X"
    assert poly.iso_check(ss(1), poly.dualize(poly.dualize(ss(1)))) is not None
    assert poly.notation(poly.dualize(ss())) == "1"
    assert poly.notation(poly.dualize(ss(0))) == "0"


def _two_pass_hom(p2, p3):
    """The hom as first written: a counting pass over every shape map,
    then a build pass that enumerates every map again, lists the backward
    tables of each first-operand shape and appends each hom shape's
    directions one by one. Returns the two counts and the HomData."""
    a1, a2 = p2.shapes, p3.shapes
    fibers2 = [p2.shape_fiber(v) for v in a1]
    fibers3 = [p3.shape_fiber(w) for w in a2]
    shape_count = dir_count = 0
    for f in itertools.product(a2, repeat=a1.size):
        block, dirs_here = 1, 0
        for v in a1:
            block *= len(fibers2[v]) ** len(fibers3[f[v]])
            dirs_here += len(fibers3[f[v]])
        shape_count += block
        dir_count += block * dirs_here
    shape_reps, dir_shape = [], []
    for f in itertools.product(a2, repeat=a1.size):
        tables = [list(itertools.product(range(len(fibers2[v])), repeat=len(fibers3[f[v]])))
                  for v in a1]
        for phi in itertools.product(*tables):
            c = len(shape_reps)
            shape_reps.append((f, tuple(phi)))
            for v in a1:
                for e in fibers3[f[v]]:
                    dir_shape.append(c)
    shapes, dirs, one = FinSet(len(shape_reps)), FinSet(len(dir_shape)), FinSet(1)
    diagram = poly.PolyDiagram(
        source=one, dirs=dirs, shapes=shapes, target=one,
        dir_sort=FinMap(dirs, one, (0,) * dirs.size),
        dir_shape=FinMap(dirs, shapes, tuple(dir_shape)),
        shape_sort=FinMap(shapes, one, (0,) * shapes.size))
    return shape_count, dir_count, poly.HomData(diagram, tuple(shape_reps))


def _hom_pairs():
    """Seeded operand pairs, with shapes without directions, an empty
    first or second operand, and both empty."""
    rng = random.Random(9)
    pairs = [(ss(), ss()), (ss(2, 0), ss()), (ss(), ss(1, 3)), (ss(0, 0), ss(0, 2)),
             (ss(0, 1), ss(2, 0, 1))]
    for _ in range(60):
        pairs.append((ss(*(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))),
                      ss(*(rng.randint(0, 3) for _ in range(rng.randint(0, 3))))))
    return pairs


def test_hom_counts_in_closed_form_match_the_built_carriers():
    for p2, p3 in _hom_pairs():
        shape_count, dir_count, _ = _two_pass_hom(p2, p3)
        data = poly.hom_data(p2, p3)
        assert (shape_count, dir_count) == (len(data.shape_reps), data.diagram.dirs.size)
        for cap in (1, 2, 7, 10**30):
            assert poly._hom_sizes(poly.arity_counts(p2), poly.arity_counts(p3), cap) == \
                (min(shape_count, cap), min(dir_count, cap))


def test_hom_data_matches_the_two_pass_build():
    for p2, p3 in _hom_pairs():
        assert poly.hom_data(p2, p3) == _two_pass_hom(p2, p3)[2]


def test_the_hom_shapes_are_the_transformations_in_order():
    # the c-th hom shape is the c-th member of enumerate_dm(p2, p3), read
    # as its shape table and its backward tables as positions in the
    # fibers, and its arity is the number of backward entries
    checked = 0
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(200):
            p2, p3 = (ss(*(rng.randint(0, 3) for _ in range(rng.randint(0, 3))))
                      for _ in range(2))
            if nat.count_nat(p2, p3) > 5000:
                continue
            data = poly.hom_data(p2, p3)
            position = p2.dir_shape.positions()
            members = nat.enumerate_dm(p2, p3)
            assert list(data.shape_reps) == [
                (m.alpha.table, tuple(tuple(position[u] for u in beta) for beta in m.betas))
                for m in members]
            assert [len(fiber) for fiber in data.diagram.dir_shape.fibers()] == \
                [sum(map(len, m.betas)) for m in members]
            checked += 1
    assert checked == 591


def test_hom_guards_keep_their_order_at_every_limit():
    # X^2 + X into 2X^2 + 1: 9 shape maps; S = 9 and D = 16 for X^2, S = 3
    # and D = 4 for X, so 9 * 3 = 27 hom shapes and 16 * 3 + 4 * 9 = 84
    # directions; the 9 shape maps alone trip nothing
    p2, p3 = ss(2, 1), ss(2, 2, 0)
    assert _two_pass_hom(p2, p3)[:2] == (27, 84)
    for limit, what in ((8, "hom shape carrier"), (26, "hom shape carrier"),
                        (83, "hom direction carrier"), (84, None)):
        old = finset.set_guard_limit(limit)
        try:
            if what is None:
                assert poly.hom_single_sorted(p2, p3).dirs.size == 84
            else:
                with pytest.raises(SizeGuardExceeded,
                                   match=f"{what} has size more than {limit},"):
                    poly.hom_single_sorted(p2, p3)
        finally:
            finset.set_guard_limit(old)


def test_hom_guards_refuse_a_wide_operand_at_once():
    # 3^200000 hom shapes into the dualizing diagram, and 2^100000 into
    # two shapes: every guard saturates at the limit
    for p2, p3, what in ((ss(*(3,) * 200000), poly.bottom_diagram(), "hom shape carrier"),
                         (ss(*(1,) * 100000), ss(1, 1), "hom shape carrier")):
        start = time.perf_counter()
        with pytest.raises(SizeGuardExceeded,
                           match=f"{what} has size more than 1000000, guard limit"):
            poly.hom_single_sorted(p2, p3)
        assert time.perf_counter() - start < 0.5


def test_hom_with_many_shape_maps_and_one_shape_builds():
    # 2^20 shape maps from 20 constants into 1 + X, but only the map onto
    # the constant has a backward table
    data = poly.hom_data(ss(*(0,) * 20), ss(0, 1))
    assert data.shape_reps == (((0,) * 20, ((),) * 20),)
    assert data.diagram.dirs.size == 0


def test_hom_between_wide_operands_with_one_shape_builds_in_linear_time():
    # n constants into 1 + (n - 1)X: n^n shape maps, one of which has a
    # backward table; a build that lists the images of every shape
    # separately takes n^2 steps.
    n = 200000
    p2, p3 = ss(*(0,) * n), ss(0, *(1,) * (n - 1))
    start = time.perf_counter()
    data = poly.hom_data(p2, p3)
    assert time.perf_counter() - start < 0.5
    assert data.shape_reps == (((0,) * n, ((),) * n),)
    assert data.diagram.dirs.size == 0


def test_hom_enumerates_no_more_shape_maps_than_shapes():
    # the build visits the maps f with n2(v)^n3(f(v)) > 0 at every v; each
    # has a backward table, so it shows among the shapes
    for p2, p3 in _hom_pairs():
        fibers2, fibers3 = p2.dir_shape.fibers(), p3.dir_shape.fibers()
        visited = 1
        for v in p2.shapes:
            visited *= sum(1 for w in p3.shapes if fibers2[v] or not fibers3[w])
        data = poly.hom_data(p2, p3)
        assert len({f for f, _ in data.shape_reps}) == visited <= len(data.shape_reps)


def test_hom_builds_no_backward_table_of_a_map_without_shapes():
    # X^1000 + 1 into X^5: the constant shape has no image, so there are
    # no hom shapes, and the 1000^5 backward tables of X^1000 are never built
    start = time.perf_counter()
    data = poly.hom_data(ss(1000, 0), ss(5))
    assert data.shape_reps == () and data.diagram.dirs.size == 0
    assert time.perf_counter() - start < 0.5


def test_hom_keeps_no_decoding_of_its_directions():
    # the dual of 3X^40: 64,000 shapes with 3 directions each, whose
    # decoding triples alone took about 13 MiB
    p2 = ss(40, 40, 40)
    tracemalloc.start()
    try:
        data = poly.hom_data(p2, poly.bottom_diagram())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (data.diagram.shapes.size, data.diagram.dirs.size) == (64000, 192000)
    assert peak < 20 * 2**20


# -- morphisms and isomorphism search -----------------------------------------


def test_identity_dm_and_iso_self():
    for p in [ss(2, 1), poly.identity_diagram(FinSet(2))]:
        m = poly.identity_dm(p)
        assert m.alpha.table == tuple(range(p.shapes.size))
        iso = poly.iso_check(p, p)
        assert iso is not None


def test_iso_check_permuted():
    iso = poly.iso_check(ss(1, 2, 1), ss(2, 1, 1))
    assert iso is not None
    assert iso.forward.alpha.table == (1, 0, 2)


def test_iso_check_negative():
    assert poly.iso_check(ss(1, 1), ss(2)) is None
    assert poly.iso_check(ss(2, 0), ss(1, 1)) is None


def test_iso_check_respects_sorts():
    # same shape and direction counts, different direction sorts
    two, one = FinSet(2), FinSet(1)
    p1 = poly.PolyDiagram(two, two, one, one,
                          fmap(2, 2, (0, 1)), fmap(2, 1, (0, 0)), fmap(1, 1, (0,)))
    p2 = poly.PolyDiagram(two, two, one, one,
                          fmap(2, 2, (0, 0)), fmap(2, 1, (0, 0)), fmap(1, 1, (0,)))
    assert poly.iso_check(p1, p2) is None
    assert poly.iso_check(p1, p1) is not None


def test_iso_check_many_shapes():
    for n in (9, 12):
        p = ss(*([1] * n))
        assert poly.iso_check(p, p) is not None
    # a search would try the 10! matchings of the unary shapes first
    start = time.perf_counter()
    assert poly.iso_check(ss(*([1] * 10 + [2, 0])), ss(*([1] * 12))) is None
    assert time.perf_counter() - start < 1.0


def test_iso_check_of_a_wide_shape_runs_in_linear_time():
    # in a subprocess, so that a quadratic matching fails on the timeout
    # instead of hanging the suite; a search of each direction among the
    # unmatched ones took more than 10 s on a 2-vCPU host
    script = ("from polycat import poly\n"
              "p = poly.single_sorted((40000,))\n"
              "iso = poly.iso_check(p, p)\n"
              "print(iso.forward.betas == iso.backward.betas == (tuple(range(40000)),))\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=10)
    assert time.perf_counter() - start < 3.0
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_diag_iso_refuses_direction_tables_that_are_not_inverse():
    p = ss(1, 2)
    swap = poly.DiagMorphism(p, p, finset.identity(p.shapes), ((0,), (2, 1)))
    assert poly.DiagIso(swap, swap).forward == swap
    with pytest.raises(ValidationError, match="^direction tables are not mutually inverse$"):
        poly.DiagIso(poly.identity_dm(p), swap)
    with pytest.raises(ValidationError, match="^direction tables are not mutually inverse$"):
        poly.DiagIso(swap, poly.identity_dm(p))


def signatures(p: poly.PolyDiagram) -> list:
    return sorted((p.shape_sort(v), sorted(p.dir_sort(u) for u in p.shape_fiber(v)))
                  for v in p.shapes)


def shuffled(rng: random.Random, p: poly.PolyDiagram) -> poly.PolyDiagram:
    """p with its shapes, and the directions within each shape, renumbered
    at random."""
    order = list(p.shapes)
    rng.shuffle(order)
    fibers = []
    for v in order:
        fiber = list(p.shape_fiber(v))
        rng.shuffle(fiber)
        fibers.append(fiber)
    shapes = FinSet(p.shapes.size)
    dfam = fam.family_from_fibers(shapes, [len(f) for f in fibers])
    return poly.PolyDiagram(
        source=p.source,
        dirs=dfam.total,
        shapes=shapes,
        target=p.target,
        dir_sort=FinMap(dfam.total, p.source,
                        tuple(p.dir_sort(u) for f in fibers for u in f)),
        dir_shape=dfam.proj,
        shape_sort=FinMap(shapes, p.target, tuple(p.shape_sort(v) for v in order)),
    )


def test_iso_check_verdict_is_signature_multiset_equality():
    rng = random.Random(13)
    verdicts = []
    for _ in range(400):
        src, tgt = rng.randint(1, 2), rng.randint(1, 2)
        p1 = random_diagram(rng, src, tgt, max_shapes=3, max_fiber=2)
        p2 = random_diagram(rng, src, tgt, max_shapes=3, max_fiber=2)
        verdict = poly.iso_check(p1, p2) is not None
        assert verdict == (signatures(p1) == signatures(p2))
        verdicts.append(verdict)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_sort_groups_are_built_once_and_left_as_built_by_their_readers():
    # poly._by_sort is the one grouping of directions by sort; nat, sim
    # and the iso check all read the table it keeps on the diagram
    def brute(p):
        return [{i: [u for u in p.shape_fiber(v) if p.dir_sort(u) == i]
                 for i in p.source if i in map(p.dir_sort, p.shape_fiber(v))}
                for v in p.shapes]

    rng = random.Random(42)
    listed = Counter()
    for _ in range(120):
        sorts = FinSet(rng.randint(1, 3))
        p, q = (randgen.random_diagram(rng, sorts, sorts, max_shapes=3, max_fiber=3)
                for _ in range(2))
        for d in (p, q):
            groups = poly._by_sort(d)
            assert groups == brute(d) and poly._by_sort(d) is groups
        span = randgen.random_span(rng, sorts, sorts)
        if nat.count_nat(p, q) <= 500:
            listed["dm"] += len(nat.enumerate_dm(p, q))
        poly.iso_check(p, q)
        listed["iso"] += poly.iso_check(p, p) is not None
        for v in p.shapes:
            nat.generic_family(p, v)
        if sim.count_sim(p, q, span) <= 500:
            listed["sim"] += len(sim.enumerate_sim(p, q, span))
        for d in (p, q):
            assert poly._by_sort(d) == brute(d)
    assert listed["iso"] == 120 and listed["dm"] >= 1000 and listed["sim"] >= 500


def test_iso_check_finds_a_witness_for_every_shuffle():
    rng = random.Random(17)
    for _ in range(200):
        p = random_diagram(rng, rng.randint(1, 3), rng.randint(1, 2),
                           max_shapes=6, max_fiber=3)
        q = shuffled(rng, p)
        iso = poly.iso_check(p, q)
        assert iso is not None
        assert iso.forward.src == p and iso.forward.dst == q
        alpha, betas = poly._compose_dm_tables(iso.backward, iso.forward)
        assert alpha.table == tuple(p.shapes)
        assert betas == tuple(p.shape_fiber(v) for v in p.shapes)


def test_diag_morphism_validation():
    p = ss(1, 2)
    with pytest.raises(ValidationError):
        # alpha must land on a shape whose fiber beta can cover sort-wise
        poly.DiagMorphism(p, p, fmap(2, 2, (1, 0)), ((0,), (1, 2)))
    with pytest.raises(ShapeMismatch):
        poly.DiagMorphism(p, p, fmap(2, 2, (0, 1)), ((0,),))


def _two_sorted_pair() -> poly.PolyDiagram:
    """One sort-0 shape whose two directions have sorts 0 and 1."""
    return poly.PolyDiagram(
        source=FinSet(2), dirs=FinSet(2), shapes=FinSet(1), target=FinSet(1),
        dir_sort=fmap(2, 2, (0, 1)), dir_shape=fmap(2, 1, (0, 0)),
        shape_sort=fmap(1, 1, (0,)))


# X + X^2 (directions 0 | 1 2), the identity on two sorts, and a shape with
# one direction of each of two sorts; each case may break later checks too,
# so the first failing check, in the documented order, is the one reported
_X_X2, _TWO, _PAIR = ss(1, 2), poly.identity_diagram(FinSet(2)), _two_sorted_pair()
_DIAG_MORPHISM_FAULTS = [
    ((_X_X2, _TWO, fmap(3, 2, (0, 0, 0)), ()),
     ShapeMismatch, "morphism endpoints must share source and target"),
    ((_X_X2, _X_X2, fmap(3, 2, (0, 0, 0)), ()),
     ShapeMismatch, "alpha must map src shapes to dst shapes"),
    ((_X_X2, _X_X2, fmap(2, 3, (0, 1)), ((0,), (1, 2))),
     ShapeMismatch, "alpha must map src shapes to dst shapes"),
    ((_TWO, _TWO, fmap(2, 2, (1, 0)), ()),
     ValidationError, "alpha does not respect shape sorts"),
    ((_X_X2, _X_X2, fmap(2, 2, (0, 1)), ((0,),)),
     ShapeMismatch, "one beta table per src shape required"),
    ((_X_X2, _X_X2, fmap(2, 2, (1, 1)), ((0,), (1, 7))),
     ShapeMismatch, "beta table at shape 0 has the wrong length"),
    ((_X_X2, _X_X2, fmap(2, 2, (0, 1)), ((0,), (1,))),
     ShapeMismatch, "beta table at shape 1 has the wrong length"),
    ((_X_X2, _X_X2, fmap(2, 2, (0, 1)), ((1,), (1, 0))),
     ValidationError, "beta at shape 0 leaves the direction fiber"),
    ((_X_X2, _X_X2, fmap(2, 2, (0, 1)), ((0,), (2, 3))),
     ValidationError, "beta at shape 1 leaves the direction fiber"),
    ((_X_X2, _X_X2, fmap(2, 2, (0, 1)), ((0,), (-1, 2))),
     ValidationError, "beta at shape 1 leaves the direction fiber"),
    ((_PAIR, _PAIR, fmap(1, 1, (0,)), ((1, 5),)),
     ValidationError, "beta at shape 0 does not respect sorts"),
    ((_PAIR, _PAIR, fmap(1, 1, (0,)), ((0, 0),)),
     ValidationError, "beta at shape 0 does not respect sorts"),
]


@pytest.mark.parametrize("args, error, message", _DIAG_MORPHISM_FAULTS)
def test_diag_morphism_reports_the_first_failing_check(args, error, message):
    with pytest.raises(error) as info:
        poly.DiagMorphism(*args)
    assert type(info.value) is error and str(info.value) == message


def test_diag_morphism_compose_tables():
    p1, p2 = ss(1, 2, 1), ss(2, 1, 1)
    iso = poly.iso_check(p1, p2)
    assert iso is not None
    alpha, betas = poly._compose_dm_tables(iso.backward, iso.forward)
    assert alpha.table == tuple(range(3))
    assert betas == tuple(p1.shape_fiber(v) for v in p1.shapes)


# -- lists, multisets, truncated exponential ----------------------------------


def test_lists_and_multisets():
    assert poly.lists_up_to(FinSet(2), 2) == \
        ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))
    assert poly.multisets_up_to(FinSet(2), 2) == \
        ((), (0,), (1,), (0, 0), (0, 1), (1, 1))
    assert len(poly.multisets_up_to(FinSet(2), 2)) == 6


def test_bang_carriers():
    data = poly.bang_data(ss(1, 1), 2)
    b = data.diagram
    assert b.source.size == 3 and b.target.size == 3
    assert b.shapes.size == 7 and b.dirs.size == 7
    # shapes over the empty, singleton, and doubleton multisets: 1, 2, 4
    assert tuple(len(b.shape_sort.fiber(j)) for j in b.target) == (1, 2, 4)


def test_bang_eval_frozen():
    # at a singleton fiber the lifted family is all ones, so the value
    # counts shape lists per length: (1, 2, 4)
    b = poly.bang_truncated(ss(1, 1), 2)
    xhat = poly.multiset_power(fams(1, (1,)), 2)
    assert xhat.fiber_sizes() == (1, 1, 1)
    assert poly.extension_fiber_sizes(b, xhat) == (1, 2, 4)

    # the identity polynomial: one shape list and one direction list per
    # length, payloads multiply along the list: (1, 2, 4) at a 2-element
    # fiber
    b2 = poly.bang_truncated(ss(1), 2)
    xhat2 = poly.multiset_power(fams(1, (2,)), 2)
    assert xhat2.fiber_sizes() == (1, 2, 4)
    assert poly.extension_fiber_sizes(b2, xhat2) == (1, 2, 4)


def test_bang_depth_zero():
    b = poly.bang_truncated(ss(1, 1), 0)
    assert b.source.size == 1 and b.shapes.size == 1 and b.dirs.size == 1
    assert poly.extension_fiber_sizes(b, poly.multiset_power(fams(1, (2,)), 0)) == (1,)


def test_bang_multisorted_sorts():
    p = poly.identity_diagram(FinSet(2))
    data = poly.bang_data(p, 2)
    b = data.diagram
    assert b.source.size == 6
    # the shape list (1, 0) sorts to the multiset (0, 1)
    vi = data.shape_reps.index((1, 0))
    mi = data.base_reps.index((0, 1))
    assert b.shape_sort(vi) == mi


def test_bang_validation_and_guard():
    with pytest.raises(ValidationError):
        poly.bang_truncated(poly.PolyDiagram(
            FinSet(2), FinSet(0), FinSet(0), FinSet(1),
            fmap(0, 2, ()), fmap(0, 0, ()), fmap(0, 1, ())), 1)
    with pytest.raises(ValidationError):
        poly.bang_truncated(ss(1), -1)
    with pytest.raises(SizeGuardExceeded):
        poly.bang_truncated(ss(1, 1), 20)


def test_lists_and_multisets_are_guarded_by_entries():
    # 1501 tuples over a one-element set hold 1500 * 1501 / 2 > 10^6 entries
    for build in (poly.lists_up_to, poly.multisets_up_to):
        assert len(build(FinSet(1), 1413)) == 1414
        with pytest.raises(SizeGuardExceeded) as exc:
            build(FinSet(1), 1500)
        assert "entries has size more than 1000000" in str(exc.value)
        assert build(FinSet(0), 10**12) == ((),)


def test_multiset_power_elements():
    x = fams(2, (1, 2))
    m = poly.multiset_power(x, 2)
    assert m.fiber_sizes() == (1, 1, 2, 1, 2, 4)
    elems = poly.multiset_power_elements(x, 2)
    assert elems[0] == (0, ())
    assert (4, (0, 1)) in elems and (4, (0, 2)) in elems
    assert len(elems) == m.total.size
    # the odometer over each multiset's entries, multisets in canonical order
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(0, 3)
        x = fams(n, [rng.randint(0, 3) for _ in range(n)])
        k = rng.randint(0, 3)
        xfibs = x.proj.fibers()
        reps = poly.multisets_up_to(x.base, k)
        expected = [(mi, picks) for mi, m in enumerate(reps)
                    for picks in itertools.product(*[xfibs[i] for i in m])]
        assert poly.multiset_power_elements(x, k) == tuple(expected)
        assert poly.multiset_power(x, k).fiber_sizes() == tuple(
            math.prod(len(xfibs[i]) for i in m) for m in reps)


# -- the sum lift of a span ---------------------------------------------------


def test_au_lift_eval():
    r = Span(FinSet(3), fmap(3, 2, (0, 1, 1)), fmap(3, 2, (0, 0, 1)))
    p = poly.au_lift(r)
    x = fams(2, (2, 3))
    # sums along the span: fiber 0 gets x0 + x1 = 5, fiber 1 gets x1 = 3
    assert poly.extension_fiber_sizes(p, x) == (5, 3)


def test_lift_shapes():
    r = Span(FinSet(3), fmap(3, 2, (0, 1, 1)), fmap(3, 2, (0, 0, 1)))
    au = poly.au_lift(r)
    assert au.shapes.size == 3 and au.dirs.size == 3
    assert poly.extension_agreement(au, fams(2, (2, 2))).ok


# -- properties ---------------------------------------------------------------


@st.composite
def small_single_sorted(draw):
    sizes = draw(st.lists(st.integers(min_value=0, max_value=2), max_size=3))
    return ss(*sizes)


@given(small_single_sorted(), small_single_sorted(),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_tensor_eval_count(p1, p2, n1, n2):
    # a tensor shape is a shape pair and its directions are direction
    # pairs, so the payload count at a box family is (n1*n2)^(d1*d2)
    x, y = fams(1, (n1,)), fams(1, (n2,))
    lhs = poly.extension_fiber_sizes(poly.tensor(p1, p2), fam.box(x, y))
    expected = sum(
        (n1 * n2) ** (len(p1.shape_fiber(v1)) * len(p2.shape_fiber(v2)))
        for v1 in p1.shapes for v2 in p2.shapes
    )
    assert lhs == (expected,)


@given(small_single_sorted(), small_single_sorted(),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_compose_witness_property(q, p, n):
    rep = poly.compose_witness(q, p, fams(1, (n,)))
    assert rep.ok, rep.render()


@given(small_single_sorted(), small_single_sorted())
@settings(max_examples=40, deadline=None)
def test_structural_matches_direct_property(q, p):
    direct = poly.compose_direct(q, p)
    structural = poly.compose_structural(q, p)
    x = fams(1, (2,))
    assert poly.extension_fiber_sizes(direct, x) == \
        poly.extension_fiber_sizes(structural, x)
    if direct.shapes.size <= 8:
        assert poly.iso_check(structural, direct) is not None


def test_compose_bijection_natural():
    # the recorded comparison commutes with the functorial action on
    # every morphism between test families with fibers at most 2
    cases = [(ss(1, 1), ss(2), 1), (ss(2), ss(0, 1), 1)]
    two, one = FinSet(2), FinSet(1)
    p_multi = poly.PolyDiagram(two, two, one, one,
                               fmap(2, 2, (0, 1)), fmap(2, 1, (0, 0)), fmap(1, 1, (0,)))
    cases.append((ss(2), p_multi, 2))
    for q, p, src in cases:
        all_fams = [fams(src, sizes)
                    for sizes in itertools.product(range(3), repeat=src)]
        for x in all_fams:
            for x2 in all_fams:
                for h in fam.hom_enumerate(x, x2):
                    staged = poly.extension_map(q, poly.extension_map(p, h))
                    direct = poly.extension_map(poly.compose_direct(q, p), h)
                    lhs = direct.then(poly.compose_bijection(q, p, x2))
                    rhs = poly.compose_bijection(q, p, x).then(staged)
                    assert lhs.map.table == rhs.map.table
