import dataclasses
import gc
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, strategies as st

from polycat import finset
from polycat.errors import ShapeMismatch, SizeGuardExceeded
from polycat.finset import FinMap, FinSet


def fmap(dom, cod, table):
    return FinMap(FinSet(dom), FinSet(cod), tuple(table))


# --- sets and maps ---------------------------------------------------------


def test_finset_basics():
    s = FinSet(3)
    assert list(s) == [0, 1, 2]
    assert 2 in s and 3 not in s
    assert s.label(1) == "1"
    t = FinSet(2, labels=("a", "b"))
    assert t.label(1) == "b"


def test_finset_rejects_bad_labels():
    with pytest.raises(ShapeMismatch):
        FinSet(2, labels=("a",))
    with pytest.raises(ShapeMismatch):
        FinSet(2, labels=("a", "a"))
    with pytest.raises(ShapeMismatch):
        FinSet(-1)


def test_map_totality_checked():
    with pytest.raises(ShapeMismatch):
        fmap(2, 2, (0,))
    with pytest.raises(ShapeMismatch, match=r"^table entry 1 -> 2 lands outside the codomain$"):
        fmap(2, 2, (0, 2))
    # the first entry outside is named
    with pytest.raises(ShapeMismatch, match=r"^table entry 1 -> 3 lands outside the codomain$"):
        fmap(4, 3, (0, 3, 2, -1))
    with pytest.raises(ShapeMismatch, match=r"^table entry 2 -> -1 lands outside the codomain$"):
        fmap(3, 3, (0, 2, -1))
    with pytest.raises(ShapeMismatch, match=r"^table entry 0 -> 0 lands outside the codomain$"):
        fmap(1, 0, (0,))


# --- the hash contract: a map is hashed once, and like its value ------------


def named_set(n: int, labelled: bool) -> FinSet:
    return FinSet(n, tuple(f"e{i}" for i in range(n)) if labelled else None)


@given(st.integers(0, 4), st.integers(1, 4), st.booleans(), st.data())
def test_map_hashes_like_a_fresh_equal_map(n, m, labelled, data):
    table = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))

    def build():
        return FinMap(named_set(n, labelled), named_set(m, labelled), table)

    f = build()
    fields_hash = hash((named_set(n, labelled), named_set(m, labelled), table))
    assert hash(f) == fields_hash
    # kept, so later lookups do not rehash the table
    assert vars(f)["_hash"] == fields_hash
    keyed = {f: "f"}
    assert hash(f) == fields_hash
    g = build()
    assert g is not f and g == f and hash(g) == hash(f)
    assert keyed[g] == "f"
    # a replaced field gives a new value, hashed as that value
    wider = dataclasses.replace(f, cod=named_set(m + 1, labelled))
    assert wider != f
    assert hash(wider) == hash(FinMap(named_set(n, labelled), named_set(m + 1, labelled), table))
    assert hash(wider) == hash((wider.dom, wider.cod, wider.table))


def test_a_pickled_map_is_hashed_afresh_in_another_process():
    # string labels hash differently under another hash seed, so the
    # cached hash must not travel with the map
    f = FinMap(named_set(2, True), named_set(3, True), (2, 0))
    hash(f)
    assert "_hash" not in pickle.loads(pickle.dumps(f)).__dict__
    check = (
        "import pickle, sys\n"
        "from polycat.finset import FinMap, FinSet\n"
        "f = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = FinMap(FinSet(2, ('e0', 'e1')), FinSet(3, ('e0', 'e1', 'e2')), (2, 0))\n"
        "print(f == fresh and hash(f) == hash(fresh) and {fresh: 1}[f] == 1)\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.dirname(finset.__file__) + "/..",
                                                     env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", check], input=pickle.dumps(f),
                         capture_output=True, env=env, check=True)
    assert out.stdout.strip() == b"True"


def test_a_used_map_pickles_to_the_size_of_a_fresh_one():
    # the cached fibers and positions stay behind, with the hash
    table = tuple(x % 10 for x in range(1000))
    fresh, used = (FinMap(FinSet(1000), FinSet(10), table) for _ in range(2))
    hash(used)
    fibers, positions = used.fibers(), used.positions()
    assert len(pickle.dumps(used)) == len(pickle.dumps(fresh))
    copied = pickle.loads(pickle.dumps(used))
    assert copied == used and (copied.fibers(), copied.positions()) == (fibers, positions)


def test_compose_example():
    f = fmap(3, 2, (0, 0, 1))
    g = fmap(2, 2, (1, 0))  # swap
    assert finset.compose(g, f).table == (1, 1, 0)
    assert f.then(g).table == (1, 1, 0)


def test_compose_mismatch_rejected():
    f = fmap(3, 2, (0, 0, 1))
    with pytest.raises(ShapeMismatch):
        finset.compose(f, f)


def test_fibers():
    f = fmap(3, 2, (0, 0, 1))
    assert f.fiber(0) == (0, 1)
    assert f.fiber(1) == (2,)
    assert f.fibers() == ((0, 1), (2,))


def list_per_point_fibers(f: FinMap) -> tuple[tuple[int, ...], ...]:
    """The fibers built with one list per codomain point."""
    out: list[list[int]] = [[] for _ in range(f.cod.size)]
    for x, y in enumerate(f.table):
        out[y].append(x)
    return tuple(tuple(fiber) for fiber in out)


@given(st.integers(0, 6), st.integers(0, 8), st.data())
def test_fibers_match_the_list_per_point_construction(dom, cod, data):
    table = [data.draw(st.integers(0, cod - 1)) for _ in range(dom)] if cod else []
    f = FinMap(FinSet(len(table)), FinSet(cod), tuple(table))
    assert f.fibers() == list_per_point_fibers(f)
    assert all(type(fiber) is tuple for fiber in f.fibers())


def test_fibers_of_wide_maps_build_in_linear_time():
    # the operands of n constants into 1 + (n - 1)X: no direction into n
    # shapes, and one direction on each shape but the first. Measured at
    # 0.04 s and 1.0 s on a 2-vCPU host; one list per codomain point
    # took 0.55 s on the first. The second builds about 10^6 lists and
    # tuples, so the cyclic collector is paused while the calls are
    # timed: its passes over the rest of the session's heap are no part
    # of the build's cost
    n = 10**6
    shapes = FinSet(n)
    none_hit = FinMap(FinSet(0), shapes, ())
    one_hit = FinMap(FinSet(n - 1), shapes, tuple(range(1, n)))
    gc.disable()
    try:
        start = time.perf_counter()
        fibers = none_hit.fibers()
        none_s = time.perf_counter() - start
        start = time.perf_counter()
        one_fibers = one_hit.fibers()
        one_s = time.perf_counter() - start
    finally:
        gc.enable()
    assert none_s < 0.25
    assert len(fibers) == n and fibers[0] == fibers[-1] == ()
    assert one_s < 2.0
    assert one_fibers[0] == () and one_fibers[1] == (0,) and one_fibers[-1] == (n - 2,)


def test_positions_place_each_point_in_its_fiber():
    # seeded maps, with an empty domain and an empty codomain among them
    rng = random.Random(29)
    maps = [fmap(0, 0, ()), fmap(0, 4, ()), fmap(5, 1, (0,) * 5)]
    for _ in range(300):
        cod = rng.randint(1, 6)
        dom = rng.randint(0, 12)
        maps.append(fmap(dom, cod, [rng.randrange(cod) for _ in range(dom)]))
    for f in maps:
        fibers, positions = f.fibers(), f.positions()
        assert len(positions) == f.dom.size
        assert [fibers[y][k] for y, k in zip(f.table, positions)] == list(f.dom)
        assert f.positions() is positions


def test_bijection_inverse():
    g = fmap(2, 2, (1, 0))
    assert g.is_bijection()
    assert g.inverse().table == (1, 0)
    f = fmap(2, 2, (0, 0))
    assert not f.is_bijection()
    with pytest.raises(ShapeMismatch):
        f.inverse()


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_compose_associative(a, b, c, data):
    f = fmap(a, b, [data.draw(st.integers(0, b - 1)) for _ in range(a)])
    g = fmap(b, c, [data.draw(st.integers(0, c - 1)) for _ in range(b)])
    h = fmap(c, 3, [data.draw(st.integers(0, 2)) for _ in range(c)])
    lhs = finset.compose(h, finset.compose(g, f))
    rhs = finset.compose(finset.compose(h, g), f)
    assert lhs == rhs
    assert finset.compose(f, finset.identity(f.dom)) == f
    assert finset.compose(finset.identity(f.cod), f) == f


# --- pullbacks -------------------------------------------------------------


def test_pullback_of_terminal_cospan():
    f = fmap(2, 1, (0, 0))
    pb = finset.pullback(f, f)
    assert pb.carrier.size == 4
    assert pb.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_pullback_identity_vs_swap():
    i = finset.identity(FinSet(2))
    swap = fmap(2, 2, (1, 0))
    pb = finset.pullback(i, swap)
    assert pb.pairs == ((0, 1), (1, 0))
    carrier, left, right = pb
    assert carrier.size == 2
    assert left.table == (0, 1)
    assert right.table == (1, 0)


def test_pullback_needs_cospan():
    with pytest.raises(ShapeMismatch):
        finset.pullback(fmap(2, 2, (0, 1)), fmap(2, 3, (0, 1)))


def _all_maps(a, b):
    return [fmap(a, b, t) for t in itertools.product(range(b), repeat=a)]


def test_pullback_universal_property_exhaustive():
    # against every cone from test sets of size <= 3
    f = fmap(3, 2, (0, 1, 0))
    g = fmap(2, 2, (1, 0))
    pb = finset.pullback(f, g)
    for n in range(4):
        cone_src = FinSet(n)
        for c1 in _all_maps(n, 3):
            for c2 in _all_maps(n, 2):
                if finset.compose(f, c1).table != finset.compose(g, c2).table:
                    continue
                mediators = [
                    m
                    for m in _all_maps(n, pb.carrier.size)
                    if finset.compose(pb.left, m).table == c1.table
                    and finset.compose(pb.right, m).table == c2.table
                ]
                assert len(mediators) == 1


# --- products, coproducts ---------------------------------------------------


def test_product_coproduct_example():
    prod = finset.product_map(fmap(2, 2, (1, 0)), fmap(3, 2, (0, 0, 1)))
    cop = finset.coproduct(FinSet(2), FinSet(3))
    assert (prod.dom.size, prod.cod.size) == (6, 4)
    # (x1, x2) is x1 * 3 + x2, and goes to f1(x1) * 2 + f2(x2)
    assert prod.table == (2, 2, 3, 0, 0, 1)
    assert cop.carrier.size == 5


def test_coproduct_tagging():
    cop = finset.coproduct(FinSet(2), FinSet(3))
    assert cop.inl.table == (0, 1)
    assert cop.inr.table == (2, 3, 4)
    h = finset.copair(fmap(2, 2, (1, 0)), fmap(3, 2, (0, 0, 1)), cop)
    assert h.table == (1, 0, 0, 0, 1)


def random_map(rng, max_size=3):
    dom, cod = rng.randint(0, max_size), rng.randint(1, max_size)
    return fmap(dom, cod, [rng.randrange(cod) for _ in range(dom)])


def test_product_and_sum_maps_follow_the_pairing_and_tagging_formulas():
    rng = random.Random(0)
    empty = fmap(0, 2, ())
    pairs = [(random_map(rng), random_map(rng)) for _ in range(200)]
    pairs += [(empty, random_map(rng)), (random_map(rng), empty), (empty, empty)]
    for f1, f2 in pairs:
        n2, m2 = f2.dom.size, f2.cod.size
        prod = finset.product_map(f1, f2)
        assert prod.dom == FinSet(f1.dom.size * n2)
        assert prod.cod == FinSet(f1.cod.size * m2)
        assert prod.table == tuple(f1.table[k // n2] * m2 + f2.table[k % n2]
                                   for k in range(f1.dom.size * n2))
        dom = finset.coproduct(f1.dom, f2.dom)
        cod = finset.coproduct(f1.cod, f2.cod)
        assert finset.sum_map(f1, f2) == finset.copair(f1.then(cod.inl), f2.then(cod.inr), dom)


def test_blocks_number_each_block_in_turn():
    m = finset.blocks(FinSet(4), (2, 0, 1, 3))
    assert m.dom == FinSet(6) and m.cod == FinSet(4)
    assert m.table == (0, 0, 2, 3, 3, 3)
    assert m.fibers() == ((0, 1), (), (2,), (3, 4, 5))
    assert finset.blocks(FinSet(2), [0, 0]).table == ()
    assert finset.blocks(FinSet(0), ()).dom == FinSet(0)
    with pytest.raises(ShapeMismatch, match="fiber sizes must be nonnegative"):
        finset.blocks(FinSet(2), (1, -1))
    with pytest.raises(ShapeMismatch, match="one fiber size per codomain point"):
        finset.blocks(FinSet(2), (1,))
    with pytest.raises(TypeError):
        finset.blocks(FinSet(2), (1.0, 1))


# --- map counts and the guard ----------------------------------------------


def test_guard_is_configurable():
    # the 4^2 and 3^2 maps of a two-element set into four and three
    old = finset.set_guard_limit(10)
    try:
        with pytest.raises(SizeGuardExceeded):
            finset.check_guard_product([4, 4], "map space")
        finset.check_guard_product([3, 3], "map space")
        assert finset.guard_limit() == 10
    finally:
        finset.set_guard_limit(old)


def test_guard_message_quotes_huge_sizes_by_magnitude():
    with pytest.raises(SizeGuardExceeded) as exact:
        finset.check_guard(10**100 - 1, "x")
    assert f"has size {10**100 - 1}," in str(exact.value)
    with pytest.raises(SizeGuardExceeded) as huge:
        finset.check_guard(3**64000, "x")
    assert "has size more than 10^30535," in str(huge.value)


def test_guard_sum_stops_adding_once_over_the_limit():
    def terms():
        yield 10**6
        yield 1
        raise AssertionError("summed past the first total over the limit")

    with pytest.raises(SizeGuardExceeded) as exc:
        finset.check_guard_sum(terms(), "x")
    assert str(exc.value) == \
        "search too large: x has size more than 1000000, guard limit is 1000000"
    finset.check_guard_sum([10**6 - 1, 1], "x")


@given(st.lists(st.integers(0, 9), max_size=10), st.integers(0, 2000))
@example([0], 0)
@example([5, 0, 7], 0)
@example([], 0)
@example([10**6, 10**6, 0], 10**6)
def test_saturating_product_is_the_exact_product_cut_at_the_limit(factors, limit):
    cap = limit + 1
    exact = math.prod(factors)
    assert finset.capped_product(factors, cap) == min(exact, cap)
    old = finset.set_guard_limit(limit)
    try:
        if exact > limit:
            with pytest.raises(SizeGuardExceeded) as exc:
                finset.check_guard_product(factors, "x")
            assert str(exc.value) == (f"search too large: x has size more than {limit}, "
                                      f"guard limit is {limit}")
        else:
            finset.check_guard_product(factors, "x")
    finally:
        finset.set_guard_limit(old)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=8),
       st.integers(1, 3000))
@example([(0, 5), (7, 3)], 1)
@example([(10**6, 1), (10**6, 1), (0, 2)], 10**6 + 1)
def test_product_rule_is_the_exact_count_cut_at_the_cap(pairs, cap):
    factors = [s for s, _ in pairs]
    marked = sum(t * math.prod(factors[:i] + factors[i + 1:]) for i, (_, t) in enumerate(pairs))
    assert finset.capped_product_rule(pairs, cap) == (min(math.prod(factors), cap),
                                                      min(marked, cap))


@given(st.integers(0, 12), st.integers(0, 40), st.integers(1, 3000))
@example(0, 0, 1)
@example(2, 0, 1)
@example(1, 10**9, 1)
def test_capped_power_is_the_exact_power_cut_at_the_cap(base, exponent, cap):
    assert finset.capped_power(base, exponent, cap) == min(base**exponent, cap)
