import dataclasses
import gc
import itertools
import pickle
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from polycat import fam, finset, poly
from polycat.errors import ShapeMismatch, SizeGuardExceeded, ValidationError
from polycat.fam import Family, FamMorphism, family_from_fibers
from polycat.finset import FinMap, FinSet


def fmap(dom, cod, table):
    return FinMap(FinSet(dom), FinSet(cod), tuple(table))


def blocks(base_size, sizes):
    return family_from_fibers(FinSet(base_size), sizes)


# --- families and morphisms --------------------------------------------------


def test_family_from_fibers():
    x = blocks(3, (2, 0, 1))
    assert x.total.size == 3
    assert x.fiber_sizes() == (2, 0, 1)
    assert x.fiber(0) == (0, 1)
    assert x.fiber(1) == ()
    assert x.fiber(2) == (2,)


def test_a_block_family_keeps_its_fiber_sizes():
    x = blocks(3, (2, 0, 1))
    kept = x.fiber_sizes()
    assert kept == tuple(len(x.fiber(b)) for b in range(3)) == (2, 0, 1)
    assert all(x.fiber_sizes() is kept for _ in range(3))
    # a family built with the constructor counts once and keeps the count;
    # neither the kept sizes nor the count is compared or pickled
    y = Family(x.total, x.base, x.proj)
    assert "_sizes" not in y.__dict__
    assert y.fiber_sizes() == kept and y.fiber_sizes() is y.fiber_sizes()
    copied = pickle.loads(pickle.dumps(x))
    assert "_sizes" not in copied.__dict__ and copied == x == y
    assert copied.fiber_sizes() == kept


def test_family_validation():
    with pytest.raises(ShapeMismatch):
        Family(FinSet(2), FinSet(2), fmap(2, 3, (0, 1)))
    with pytest.raises(ShapeMismatch):
        family_from_fibers(FinSet(2), (1,))


def test_morphism_must_commute():
    x = blocks(2, (1, 1))
    y = blocks(2, (1, 1))
    with pytest.raises(ShapeMismatch, match="^morphism does not commute with the projections$"):
        FamMorphism(x, y, fmap(2, 2, (1, 0)))
    m = FamMorphism(x, y, fmap(2, 2, (0, 1)))
    assert m.is_iso()
    z = blocks(2, (2, 1))
    with pytest.raises(ShapeMismatch, match="^morphism does not commute with the projections$"):
        FamMorphism(z, y, fmap(3, 2, (0, 0, 0)))
    assert FamMorphism(z, y, fmap(3, 2, (0, 0, 1))).map.table == (0, 0, 1)


def named_blocks(sizes, labelled: bool) -> Family:
    base = FinSet(len(sizes), tuple(f"b{i}" for i in range(len(sizes))) if labelled else None)
    return family_from_fibers(base, sizes)


@given(st.lists(st.integers(0, 3), max_size=3), st.booleans())
def test_family_hashes_like_a_fresh_equal_family(sizes, labelled):
    x = named_blocks(sizes, labelled)
    fields_hash = hash((x.total, x.base, x.proj))
    assert hash(x) == fields_hash
    keyed = {x: "x"}
    assert hash(x) == fields_hash
    # block families are interned; the constructor builds a fresh equal value
    y = Family(x.total, x.base, x.proj)
    assert y is not x and y == x and hash(y) == hash(x)
    assert keyed[y] == "x"
    # a replaced field gives a new value, hashed as that value
    flipped = FinMap(x.total, x.base, x.proj.table[::-1])
    r = dataclasses.replace(x, proj=flipped)
    assert (r == x) == (flipped.table == x.proj.table)
    assert hash(r) == hash(Family(x.total, x.base, flipped)) == hash((r.total, r.base, flipped))
    copied = pickle.loads(pickle.dumps(x))
    assert "_hash" not in copied.__dict__ and copied == x and hash(copied) == hash(x)


# --- interning of block families --------------------------------------------


@given(st.lists(st.integers(0, 3), max_size=3), st.booleans())
def test_block_families_are_interned(sizes, labelled):
    x = named_blocks(sizes, labelled)
    base = FinSet(x.base.size, x.base.labels)
    assert base is not x.base
    assert family_from_fibers(base, tuple(sizes)) is x
    assert family_from_fibers(base, list(sizes)) is x
    assert family_from_fibers(x.base, sizes) is x


def test_labels_are_part_of_the_intern_key():
    plain = family_from_fibers(FinSet(2), (1, 2))
    ab = family_from_fibers(FinSet(2, ("a", "b")), (1, 2))
    ba = family_from_fibers(FinSet(2, ("b", "a")), (1, 2))
    assert len({id(plain), id(ab), id(ba)}) == 3
    assert plain != ab and ab != ba and plain != ba
    assert family_from_fibers(FinSet(2, ("a", "b")), [1, 2]) is ab
    assert family_from_fibers(FinSet(2), (2, 1)) is not plain


def test_interned_sizes_are_still_validated():
    alive = family_from_fibers(FinSet(2), (1, 1))
    with pytest.raises(ShapeMismatch, match="^one fiber size per base point required$"):
        family_from_fibers(FinSet(2), (1,))
    with pytest.raises(ShapeMismatch, match="^one fiber size per base point required$"):
        family_from_fibers(FinSet(1), (1, 1))
    with pytest.raises(ShapeMismatch, match="^fiber sizes must be nonnegative$"):
        family_from_fibers(FinSet(2), (1, -1))
    with pytest.raises(ShapeMismatch, match="^fiber sizes must be nonnegative$"):
        family_from_fibers(FinSet(2), [-1, 1])
    # a non-integral size is refused whether or not its value is interned
    with pytest.raises(TypeError):
        family_from_fibers(FinSet(2), (1.0, 1))
    assert family_from_fibers(FinSet(2), (1, 1)) is alive


def test_intern_table_holds_families_weakly():
    gc.disable()
    try:
        x = family_from_fibers(FinSet(3), (7, 0, 5))
        x.fiber(0)
        ref = weakref.ref(x)
        del x
        assert ref() is None
        fresh = family_from_fibers(FinSet(3), (7, 0, 5))
        assert fresh.fiber_sizes() == (7, 0, 5)
    finally:
        gc.enable()


def test_pickled_block_family_hits_the_same_extension_record():
    p = poly.single_sorted((2, 1))
    x = family_from_fibers(FinSet(1), (3,))
    ext = poly._extension(p, x)
    copied = pickle.loads(pickle.dumps(x))
    assert copied == x and hash(copied) == hash(x)
    assert poly._extension(p, copied) is ext
    assert family_from_fibers(FinSet(1), (3,)) is x


def test_morphism_needs_common_base():
    x = blocks(1, (2,))
    y = blocks(2, (1, 1))
    with pytest.raises(ShapeMismatch):
        FamMorphism(x, y, fmap(2, 2, (0, 1)))


# --- reindexing functors ------------------------------------------------------


def test_sigma_example():
    f = fmap(2, 1, (0, 0))
    x = blocks(2, (2, 3))
    s = fam.sigma(f, x)
    assert s.fiber_sizes() == (5,)
    assert s.total == x.total


def test_delta_example():
    f = fmap(2, 1, (0, 0))
    y = blocks(1, (3,))
    d = fam.delta(f, y)
    assert d.fiber_sizes() == (3, 3)
    assert fam.delta_pairs(f, y) == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    )


def test_pi_example():
    f = fmap(3, 2, (0, 0, 1))
    x = blocks(3, (2, 3, 1))
    p = fam.pi(f, x)
    assert p.fiber_sizes() == (6, 1)
    secs = fam.pi_sections(f, x)
    assert secs[0] == (0, (0, 2))
    assert len({s for s in secs}) == 7


def test_pi_empty_fiber_gives_singleton():
    # sections over an unhit base point: exactly the empty section
    f = fmap(1, 2, (0,))
    x = blocks(1, (2,))
    p = fam.pi(f, x)
    assert p.fiber_sizes() == (2, 1)


def test_pi_with_empty_input_fiber():
    f = fmap(2, 1, (0, 0))
    x = blocks(2, (0, 3))
    p = fam.pi(f, x)
    assert p.fiber_sizes() == (0,)


def test_pi_guard_refuses_a_wide_fiber_at_once():
    # 3^200000 sections over one point, and a zero fiber that empties a
    # product which passed the limit first
    f = fmap(200000, 1, (0,) * 200000)
    x = blocks(200000, (3,) * 200000)
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded,
                       match="dependent product carrier has size more than 1000000,"):
        fam.pi_sections(f, x)
    assert time.perf_counter() - start < 0.5
    assert fam.pi_sections(fmap(40, 1, (0,) * 40), blocks(40, (3,) * 39 + (0,))) == ()


def test_reindexing_shape_checks():
    f = fmap(2, 1, (0, 0))
    with pytest.raises(ShapeMismatch):
        fam.sigma(f, blocks(1, (2,)))
    with pytest.raises(ShapeMismatch):
        fam.delta(f, blocks(2, (1, 1)))
    with pytest.raises(ShapeMismatch):
        fam.pi(f, blocks(1, (2,)))


# --- homs ---------------------------------------------------------------------


def test_hom_enumerate_example():
    x = blocks(2, (2, 1))
    y = blocks(2, (3, 2))
    homs = fam.hom_enumerate(x, y)
    assert len(homs) == 18
    assert fam.hom_count(x, y) == 18
    assert len({m.map.table for m in homs}) == 18


def test_hom_guard():
    x = blocks(1, (10,))
    y = blocks(1, (10,))
    with pytest.raises(SizeGuardExceeded):
        fam.hom_enumerate(x, y)


def test_hom_guard_saturates_and_the_count_stays_exact():
    # 3^200000 morphisms: the guard refuses at once, the count is exact
    x, y = blocks(2, (200000, 0)), blocks(2, (3, 5))
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded, match="family hom set has size more than 1000000,"):
        fam.hom_enumerate(x, y)
    assert time.perf_counter() - start < 0.5
    assert fam.hom_count(x, y) == 3**200000
    with pytest.raises(ShapeMismatch):
        fam.hom_enumerate(x, blocks(1, (3,)))


def test_hom_empty_cases():
    x = blocks(1, (0,))
    y = blocks(1, (3,))
    assert fam.hom_count(x, y) == 1
    assert fam.hom_count(y, x) == 0
    assert len(fam.hom_enumerate(x, y)) == 1


# --- the presentation by generating maps --------------------------------------


def test_elementary_maps_at_bound_four():
    maps = fam.elementary_maps(4)
    # 10 cofaces, 6 codegeneracies, 6 adjacent transpositions, against the
    # 499 maps between the sets of size 0..4
    assert len(maps) == 22
    assert len(set(maps)) == 22
    assert sum(1 for n, m, _ in maps if m == n + 1) == 10
    assert sum(1 for n, m, _ in maps if m == n - 1) == 6
    assert sum(1 for n, m, _ in maps if m == n) == 6
    for n, m, table in maps:
        assert len(table) == n and all(0 <= t < m for t in table)
        assert max(n, m) <= 4
    assert fam.elementary_maps(0) == []
    assert fam.elementary_maps(1) == [(0, 1, ())]


@pytest.mark.parametrize("sorts, bound", [(s, b) for s in (1, 2) for b in range(4)])
def test_generating_morphisms_compose_to_every_morphism(sorts, bound):
    # close the generators under composition, starting from the identities
    # (the empty composites), and compare with every listed morphism
    base = FinSet(sorts)
    gens: dict[tuple, list] = {}
    for g in fam.generating_morphisms(base, bound):
        assert all(n <= bound for n in g.src.fiber_sizes() + g.dst.fiber_sizes())
        gens.setdefault(g.src.fiber_sizes(), []).append((g.dst.fiber_sizes(), g.map.table))
    families = list(fam.families_up_to(base, bound))
    reached = {(x.fiber_sizes(), x.fiber_sizes(), tuple(range(x.total.size)))
               for x in families}
    frontier = list(reached)
    while frontier:
        step = []
        for src, mid, table in frontier:
            for dst, g in gens.get(mid, ()):
                h = (src, dst, tuple(g[t] for t in table))
                if h not in reached:
                    reached.add(h)
                    step.append(h)
        frontier = step
    every = {(x.fiber_sizes(), y.fiber_sizes(), m.map.table)
             for x in families for y in families for m in fam.hom_enumerate(x, y)}
    assert reached == every


def test_generating_morphisms_counts_and_guard():
    # one sort at bound 2: 2 + 1 + 1 + 1 = 5 maps; two sorts: 5 on each
    # sort's fiber for each of the 3 sizes of the other fiber
    assert len(fam.generating_morphisms(FinSet(1), 2)) == 5
    assert len(fam.generating_morphisms(FinSet(2), 2)) == 30
    assert fam.generating_morphisms(FinSet(0), 2) == []
    with pytest.raises(SizeGuardExceeded, match="generating family morphisms"):
        fam.generating_morphisms(FinSet(20), 2)


def test_families_up_to_is_guarded_when_called():
    assert len(list(fam.families_up_to(FinSet(3), 3))) == 64
    # refused at the call, before a single family is built
    with pytest.raises(SizeGuardExceeded, match="families with bounded fibers"):
        fam.families_up_to(FinSet(20), 1)


# --- pullback squares ----------------------------------------------------------


def test_beck_chevalley_example():
    k = fmap(2, 1, (0, 0))
    f = fmap(2, 1, (0, 0))
    square = fam.square_from_cospan(k, f)
    z = blocks(2, (1, 2))
    rep = fam.beck_chevalley_check(square, z)
    assert rep.ok, rep.render()


def test_non_pullback_square_rejected():
    i2 = FinSet(2)
    with pytest.raises(ValidationError):
        fam.PullbackSquare(
            top=fmap(1, 2, (0,)),
            left=fmap(1, 2, (0,)),
            bottom=fmap(2, 1, (0, 0)),
            right=fmap(2, 1, (0, 0)),
        )
    # non-commuting square
    with pytest.raises(ValidationError):
        fam.PullbackSquare(
            top=finset.identity(i2),
            left=finset.identity(i2),
            bottom=fmap(2, 2, (1, 0)),
            right=finset.identity(i2),
        )


def test_beck_chevalley_across_cospan_grid():
    for ktab in itertools.product(range(2), repeat=2):
        for ftab in itertools.product(range(2), repeat=2):
            square = fam.square_from_cospan(fmap(2, 2, ktab), fmap(2, 2, ftab))
            for zs in itertools.product(range(3), repeat=2):
                rep = fam.beck_chevalley_check(square, blocks(2, zs))
                assert rep.ok, rep.render()


# --- distributivity -------------------------------------------------------------


def test_distributivity_example():
    a = fmap(2, 1, (0, 0))
    b = fmap(3, 2, (0, 0, 1))
    x = blocks(3, (1, 2, 3))
    rep = fam.distributivity_check(a, b, x)
    assert rep.ok, rep.render()
    # both sides enumerate 3 * 3 = 9 elements over the point
    assert "9 elements: yes" in rep.render()


def test_distributivity_sweep():
    for atab in itertools.product(range(2), repeat=2):
        a = fmap(2, 2, atab)
        for btab in itertools.product(range(2), repeat=2):
            b = fmap(2, 2, btab)
            for xs in itertools.product(range(3), repeat=2):
                rep = fam.distributivity_check(a, b, blocks(2, xs))
                assert rep.ok, rep.render()


# --- pointwise constructions ------------------------------------------------------


def test_box_sizes():
    x = blocks(2, (1, 2))
    y = blocks(2, (3, 1))
    b = fam.box(x, y)
    # fibers over pairs (i, j) in pairing order
    assert b.fiber_sizes() == (3, 1, 6, 2)
    assert fam.box_pair(y, 1, 1) == 5


def test_boxes_are_interned():
    x = blocks(2, (1, 2))
    y = blocks(2, (3, 1))
    b = fam.box(x, y)
    assert fam.box(x, y) is b
    # value-equal factors built with the constructor find the same box
    x2 = Family(x.total, x.base, x.proj)
    y2 = Family(FinSet(y.total.size), FinSet(2), fmap(4, 2, y.proj.table))
    assert x2 is not x and y2 is not y
    assert fam.box(x2, y2) is b and fam.box(x, y2) is b
    assert fam.box(y, x) is not b


def test_box_equals_and_hashes_like_a_fresh_product_family():
    # over two sorts, x = (2, 1) and y = (1, 1): the points 0 and 2 of the
    # box lie over the sort pair (0, 0), so the box is no block family
    x, y = blocks(2, (2, 1)), blocks(2, (1, 1))
    b = fam.box(x, y)
    fresh = Family(b.total, b.base, finset.product_map(x.proj, y.proj))
    assert fresh is not b and fresh == b and hash(fresh) == hash(b)
    assert b.proj.table == (0, 1, 0, 1, 2, 3)
    assert b != family_from_fibers(b.base, b.fiber_sizes())
    assert {fresh: "box"}[b] == "box"
    copied = pickle.loads(pickle.dumps(b))
    assert "_hash" not in copied.__dict__
    assert copied == b and hash(copied) == hash(b) and fam.box(x, y) is b


def test_box_table_holds_boxes_weakly():
    x, y = blocks(2, (3, 0)), blocks(3, (1, 4, 1))
    gc.collect()
    before = len(fam._boxes)
    b = fam.box(x, y)
    ref = weakref.ref(b)
    assert len(fam._boxes) == before + 1 and (x, y) in fam._boxes
    del b
    gc.collect()
    assert ref() is None
    assert len(fam._boxes) == before and (x, y) not in fam._boxes
    assert fam.box(x, y).fiber_sizes() == (3, 12, 3, 0, 0, 0)


@pytest.mark.parametrize("box_first", [True, False])
@pytest.mark.parametrize("x_sizes, y_sizes, sizes", [
    ((5,), (7,), (35,)),
    ((1, 5), (7,), (7, 35)),  # the box's table (0, ..., 0, 1, ..., 1) is a block map
])
def test_a_box_that_is_a_block_family_is_the_live_block_family(box_first, x_sizes,
                                                               y_sizes, sizes):
    x, y = blocks(len(x_sizes), x_sizes), blocks(len(y_sizes), y_sizes)
    gc.collect()
    assert (x, y) not in fam._boxes and (FinSet(len(sizes)), sizes) not in fam._blocks
    if box_first:
        b = fam.box(x, y)
        assert family_from_fibers(FinSet(len(sizes)), sizes) is b
    else:
        z = family_from_fibers(FinSet(len(sizes)), sizes)
        assert fam.box(x, y) is z
    assert fam.box(x, y) is family_from_fibers(FinSet(len(sizes)), sizes)


def test_box_morphism():
    x = blocks(1, (2,))
    y = blocks(1, (2,))
    h = FamMorphism(x, y, fmap(2, 2, (1, 0)))
    bm = fam.box_morphism(h, h)
    assert bm.map.table == (3, 2, 1, 0)


def test_family_sum():
    x = blocks(2, (1, 2))
    y = blocks(1, (3,))
    s = fam.family_sum(x, y)
    assert s.base.size == 3
    assert s.fiber_sizes() == (1, 2, 3)


# --- property tests ---------------------------------------------------------------


@settings(max_examples=60)
@given(st.data())
def test_adjunction_hom_counts_match(data):
    nb = data.draw(st.integers(1, 3))
    nc = data.draw(st.integers(1, 3))
    f = fmap(nb, nc, [data.draw(st.integers(0, nc - 1)) for _ in range(nb)])
    x = blocks(nb, [data.draw(st.integers(0, 2)) for _ in range(nb)])
    y = blocks(nc, [data.draw(st.integers(0, 2)) for _ in range(nc)])
    assert fam.hom_count(fam.sigma(f, x), y) == fam.hom_count(x, fam.delta(f, y))
    assert fam.hom_count(fam.delta(f, y), x) == fam.hom_count(y, fam.pi(f, x))


@settings(max_examples=60)
@given(st.data())
def test_delta_and_pi_fiber_formulas(data):
    nb = data.draw(st.integers(1, 3))
    nc = data.draw(st.integers(1, 3))
    f = fmap(nb, nc, [data.draw(st.integers(0, nc - 1)) for _ in range(nb)])
    y = blocks(nc, [data.draw(st.integers(0, 3)) for _ in range(nc)])
    d = fam.delta(f, y)
    ysizes = y.fiber_sizes()
    assert d.fiber_sizes() == tuple(ysizes[f.table[a]] for a in range(nb))
    x = blocks(nb, [data.draw(st.integers(0, 3)) for _ in range(nb)])
    p = fam.pi(f, x)
    xsizes = x.fiber_sizes()
    expected = []
    for b in range(nc):
        n = 1
        for a in f.fiber(b):
            n *= xsizes[a]
        expected.append(n)
    assert p.fiber_sizes() == tuple(expected)
