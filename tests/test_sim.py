"""Tests for simulation cells.

The composite-cell formula is checked against honest 2-cell pasting:
evaluate both factor cells, whisker them with the sum-lift functor, and
conjugate by the canonical bijection between the lift of a composite
span and the composite of the lifts. Expected hom counts come from the
product formula: one independent map choice per state.
"""
import functools
import itertools
import pickle
import random
import time

import pytest

from polycat import doc, fam, finset, nat, poly, randgen, sim, smcc, suites
from polycat.errors import (OracleNotNatural, ShapeMismatch,
                            SizeGuardExceeded, ValidationError)
from polycat.fam import FamMorphism, Span
from polycat.finset import FinMap, FinSet


def ss(*sizes: int) -> poly.PolyDiagram:
    return poly.single_sorted(sizes)


def fams(base_size: int, sizes) -> fam.Family:
    return fam.family_from_fibers(FinSet(base_size), tuple(sizes))


def fmap(dom: int, cod: int, table) -> FinMap:
    return FinMap(FinSet(dom), FinSet(cod), tuple(table))


def singleton_span() -> Span:
    one = FinSet(1)
    return Span(one, finset.identity(one), finset.identity(one))


def two_sorted_endo() -> poly.PolyDiagram:
    """Two sorts; one shape per sort; the shape over sort i has a single
    direction of the other sort."""
    two = FinSet(2)
    return poly.PolyDiagram(
        source=two,
        dirs=FinSet(2),
        shapes=FinSet(2),
        target=two,
        dir_sort=fmap(2, 2, (1, 0)),
        dir_shape=fmap(2, 2, (0, 1)),
        shape_sort=fmap(2, 2, (0, 1)),
    )


def list_diagram() -> poly.PolyDiagram:
    return ss(0, 1, 2, 3)


def prefix_cell(drop: int = 1) -> sim.SimCell:
    """List to List over the singleton span: send the n-entry shape to
    the (n - drop)-entry shape and keep the leading directions."""
    p = list_diagram()
    span = singleton_span()
    alpha = {(0, v): max(v - drop, 0) for v in p.shapes}
    beta = {}
    gamma = {}
    for (_, v), w in alpha.items():
        for pos, u in enumerate(p.shape_fiber(w)):
            beta[0, v, u] = p.shape_fiber(v)[pos]
            gamma[0, v, u] = 0
    return sim.SimCell(span, p, p, alpha, beta, gamma)


def relabel_cell(p: poly.PolyDiagram, perm) -> sim.SimCell:
    """Single-sorted shape relabeling along a permutation with matching
    fiber sizes, directions kept positionally."""
    span = singleton_span()
    alpha = {(0, v): perm[v] for v in p.shapes}
    beta = {}
    gamma = {}
    for v in p.shapes:
        for pos, u in enumerate(p.shape_fiber(perm[v])):
            beta[0, v, u] = p.shape_fiber(v)[pos]
            gamma[0, v, u] = 0
    return sim.SimCell(span, p, p, alpha, beta, gamma)


def permute_states(c: sim.SimCell, perm) -> sim.SimCell:
    """The same cell with span states renamed by perm (a bijection given
    as a tuple: new state of old state rho is perm[rho])."""
    carrier = c.span.carrier
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    span = Span(
        carrier,
        FinMap(carrier, c.span.left.cod, tuple(c.span.left(inv[k]) for k in carrier)),
        FinMap(carrier, c.span.right.cod, tuple(c.span.right(inv[k]) for k in carrier)),
    )
    alpha = {(perm[rho], v): w for (rho, v), w in c.alpha.items()}
    beta = {(perm[rho], v, u): b for (rho, v, u), b in c.beta.items()}
    gamma = {(perm[rho], v, u): perm[g] for (rho, v, u), g in c.gamma.items()}
    return sim.SimCell(span, c.src, c.dst, alpha, beta, gamma)


def pasted_composite(c2: sim.SimCell, c1: sim.SimCell, x: fam.Family) -> FamMorphism:
    """The composite component assembled without compose_sim: whisker the
    factors and conjugate by the span-composition bijection."""
    r, s = c1.span, c2.span
    au_r = poly.au_lift(r)
    au_s = poly.au_lift(s)
    pb = finset.pullback(r.right, s.left)
    t_span = Span(pb.carrier, pb.left.then(r.left), pb.right.then(s.right))
    au_t = poly.au_lift(t_span)

    def iota(y: fam.Family) -> FamMorphism:
        dom = poly.eval_extension(au_t, y)
        aur_y = poly.eval_extension(au_r, y)
        aur_index = poly.extension_index(au_r, y)
        cod = poly.eval_extension(au_s, aur_y)
        cod_index = poly.extension_index(au_s, aur_y)
        table = tuple(
            cod_index[(pb.pairs[tau][1], (aur_index[(pb.pairs[tau][0], (t,))],))]
            for tau, (t,) in poly.extension_elements(au_t, y)
        )
        return FamMorphism(dom, cod, FinMap(dom.total, cod.total, table))

    p1x = poly.eval_extension(c1.src, x)
    aur_x = poly.eval_extension(au_r, x)
    pasted = (
        iota(p1x)
        .then(poly.extension_map(au_s, sim.eval_sim(c1, x)))
        .then(sim.eval_sim(c2, aur_x))
        .then(poly.extension_map(c2.dst, iota(x).inverse()))
    )
    return pasted


# -- validation ---------------------------------------------------------------


def test_identity_cell_validates():
    for p in (ss(2, 1), list_diagram(), two_sorted_endo()):
        c = sim.identity_sim(p)
        rep = sim.validate(c)
        assert rep.ok
        assert "four equations" in rep.lines[0]


def test_empty_span_vacuously_valid():
    c = sim.zero_sim(ss(2), ss(1, 1))
    assert sim.validate(c).ok
    assert c.pairs == () and c.triples == ()


def corrupt(c: sim.SimCell, **entries) -> tuple:
    """Copies of c's three tables, with the given entries overwritten
    (alpha, beta and gamma each map keys to new values)."""
    tables = [dict(c.alpha), dict(c.beta), dict(c.gamma)]
    for table, name in zip(tables, ("alpha", "beta", "gamma")):
        table.update(entries.get(name, {}))
    return tuple(tables)


def test_validate_locates_corrupt_gamma():
    c = sim.identity_sim(two_sorted_endo())
    # successor state 1 has right end 1, but direction 0 of shape 0 has sort 1,
    # so corrupt the entry of the OTHER shape: its direction has sort 0
    with pytest.raises(ValidationError) as exc:
        sim.SimCell(c.span, c.src, c.dst, *corrupt(c, gamma={(1, 1, 1): 1}))
    assert "successor state's right end" in str(exc.value)
    assert "(state 1, shape 1, direction 1)" in str(exc.value)


def test_validate_locates_corrupt_beta():
    c = sim.identity_sim(list_diagram())
    # a direction of a different shape
    with pytest.raises(ValidationError) as exc:
        sim.SimCell(c.span, c.src, c.dst, *corrupt(c, beta={(0, 2, 1): 0}))
    assert "leaves the shape's fiber" in str(exc.value)
    assert "(state 0, shape 2, direction 1)" in str(exc.value)


def test_validate_locates_corrupt_beta_sort():
    # one shape with two directions of different sorts: swapping the
    # backward choice keeps the fiber but breaks the sort equation
    two = FinSet(2)
    p1 = poly.PolyDiagram(
        source=two, dirs=FinSet(2), shapes=FinSet(1), target=two,
        dir_sort=fmap(2, 2, (0, 1)), dir_shape=fmap(2, 1, (0, 0)),
        shape_sort=fmap(1, 2, (0,)),
    )
    p2 = poly.PolyDiagram(
        source=two, dirs=FinSet(1), shapes=FinSet(1), target=two,
        dir_sort=fmap(1, 2, (0,)), dir_shape=fmap(1, 1, (0,)),
        shape_sort=fmap(1, 2, (0,)),
    )
    one = FinSet(1)
    span = Span(one, fmap(1, 2, (0,)), fmap(1, 2, (0,)))
    good = sim.SimCell(span, p1, p2, {(0, 0): 0}, {(0, 0, 0): 0}, {(0, 0, 0): 0})
    assert sim.validate(good).ok
    with pytest.raises(ValidationError) as exc:
        sim.SimCell(span, p1, p2, {(0, 0): 0}, {(0, 0, 0): 1}, {(0, 0, 0): 0})
    assert "disagrees with the successor state's left end" in str(exc.value)
    assert "(state 0, shape 0, direction 0)" in str(exc.value)


def test_validate_locates_corrupt_alpha():
    c = sim.identity_sim(two_sorted_endo())
    # shape 1 sits over sort 1, but state 0's right end is sort 0; the
    # direction entries follow the new shape so that only the sort is wrong
    alpha, beta, gamma = corrupt(c, alpha={(0, 0): 1})
    del beta[0, 0, 0], gamma[0, 0, 0]
    beta[0, 0, 1] = 0
    gamma[0, 0, 1] = 1
    with pytest.raises(ValidationError) as exc:
        sim.SimCell(c.span, c.src, c.dst, alpha, beta, gamma)
    assert "assigned shape sits over the wrong sort at (state 0, shape 0)" in str(exc.value)


def test_range_faults_are_found_before_equation_faults():
    c = sim.identity_sim(two_sorted_endo())
    # the pair (0, 0) sits over the wrong sort, as in the test above, and
    # the later triple (1, 1, 1) names a state out of range
    alpha, beta, gamma = corrupt(c, alpha={(0, 0): 1}, gamma={(1, 1, 1): 7})
    del beta[0, 0, 0], gamma[0, 0, 0]
    beta[0, 0, 1] = 0
    gamma[0, 0, 1] = 1
    with pytest.raises(ValidationError,
                       match=r"^state table value out of range at \(1, 1, 1\)$"):
        sim.SimCell(c.span, c.src, c.dst, alpha, beta, gamma)
    # a direction equation fault before it is found after it too
    c = sim.identity_sim(list_diagram())
    with pytest.raises(ValidationError,
                       match=r"^direction table value out of range at \(0, 3, 5\)$"):
        sim.SimCell(c.span, c.src, c.dst, *corrupt(c, beta={(0, 2, 1): 0, (0, 3, 5): 99}))
    # among equation faults, the first triple's
    with pytest.raises(ValidationError, match=r"\(state 0, shape 2, direction 1\)$"):
        sim.SimCell(c.span, c.src, c.dst, *corrupt(c, beta={(0, 2, 1): 0, (0, 3, 5): 0}))


def test_validate_walks_no_table_and_the_plan_is_laid_out_on_construction(monkeypatch):
    c = sim.identity_sim(list_diagram())
    assert "_plan" in vars(c)
    calls = []
    call = FinMap.__call__
    monkeypatch.setattr(FinMap, "__call__", lambda f, x: calls.append(x) or call(f, x))
    rep = sim.validate(c)
    assert calls == []
    assert rep.ok and rep.lines == (
        "4 shape entries and 6 direction entries satisfy all four equations",)


def test_cells_and_their_tables_are_read_only():
    c = sim.identity_sim(list_diagram())
    for table, key, value in ((c.alpha, (0, 0), 1), (c.beta, (0, 2, 1), 0),
                              (c.gamma, (0, 2, 1), 0)):
        with pytest.raises(TypeError):
            table[key] = value
    with pytest.raises(AttributeError):
        c.beta = {}
    assert sim.validate(c).ok
    assert c == sim.identity_sim(list_diagram()) != sim.identity_sim(ss(1))


def test_non_endo_cells_are_validation_errors():
    p = poly.PolyDiagram(
        source=FinSet(1), dirs=FinSet(0), shapes=FinSet(1), target=FinSet(2),
        dir_sort=fmap(0, 1, ()), dir_shape=fmap(0, 1, ()), shape_sort=fmap(1, 2, (0,)),
    )
    with pytest.raises(ValidationError) as exc:
        sim.SimCell(singleton_span(), p, p, {}, {}, {})
    assert str(exc.value) == "simulations relate endo diagrams"


@pytest.mark.parametrize("entry", [
    lambda p, q: sim.SimCell(singleton_span(), p, q, {}, {}, {}),
    lambda p, q: sim.identity_sim(q),
    lambda p, q: sim.extract_sim(lambda x: None, singleton_span(), p, q),
    lambda p, q: sim.count_sim(p, q, singleton_span()),
    lambda p, q: sim.random_cell(random.Random(0), p, q, singleton_span()),
    lambda p, q: sim.enumerate_sim(p, q, singleton_span()),
    lambda p, q: sim.PlusStructure(p, q),
    lambda p, q: randgen.random_sim_cell(random.Random(0), p, q),
], ids=["SimCell", "identity_sim", "extract_sim", "count_sim", "random_cell",
        "enumerate_sim", "PlusStructure", "random_sim_cell"])
def test_non_endo_cells_are_validation_errors_at_every_entry(entry):
    # the same error under python -O, which strips assert statements
    q = poly.PolyDiagram(
        source=FinSet(1), dirs=FinSet(0), shapes=FinSet(1), target=FinSet(2),
        dir_sort=fmap(0, 1, ()), dir_shape=fmap(0, 1, ()), shape_sort=fmap(1, 2, (0,)),
    )
    with pytest.raises(ValidationError) as exc:
        entry(ss(1), q)
    assert str(exc.value) == "simulations relate endo diagrams"


def test_each_cell_is_validated_once(monkeypatch):
    # the one validator checks the equations; evaluation builds no cell
    calls = []
    check = sim.SimCell._settle
    monkeypatch.setattr(sim.SimCell, "_settle",
                        lambda c, *args: calls.append(c) or check(c, *args))
    d = doc.load_document("docs/examples/simulation.json")
    cells = list(d.simulations.values())
    assert len(calls) == len(cells)
    for k in range(10):
        sim.eval_sim(cells[k % len(cells)], d.family("pair"))
    assert len(calls) == len(cells)
    composite = sim.compose_sim(cells[0], cells[1])
    sim.eval_sim(composite, d.family("pair"))
    assert calls[len(cells):] == [composite]


def test_constructor_rejects_bad_tables():
    p = list_diagram()
    span = singleton_span()
    good = sim.identity_sim(p)
    with pytest.raises(ValidationError):
        sim.SimCell(span, p, p, {}, good.beta, good.gamma)
    with pytest.raises(ValidationError):
        bad_alpha = dict(good.alpha)
        bad_alpha[0, 0] = 99
        sim.SimCell(span, p, p, bad_alpha, good.beta, good.gamma)
    with pytest.raises(ValidationError):
        bad_gamma = dict(good.gamma)
        bad_gamma[0, 3, 3] = 5
        sim.SimCell(span, p, p, good.alpha, good.beta, bad_gamma)


# -- rows and tables ----------------------------------------------------------


def built_cells(seed: int, sorts: int) -> list:
    """Cells from every function that makes them, on seeded endo
    diagrams with the given number of sorts, over nonempty spans: all of
    enumerate_sim's on a span of up to 2 states, where they number at
    most 64, random_cell's on one of up to 3, extract_sim's,
    identity_sim's, and composites and sums of them."""
    rng = random.Random(seed)
    base = FinSet(sorts)
    out: list = []
    while len(out) < 150:
        p1, p2 = (randgen.random_diagram(rng, base, base, 3, 2) for _ in range(2))
        span = randgen.random_span(rng, base, base)
        drawn = randgen.random_sim_cell(rng, p1, p2, max_states=3)
        if drawn is None or not 0 < sim.count_sim(p1, p2, span) <= 64:
            continue
        cells = sim.enumerate_sim(p1, p2, span)
        back = randgen.random_sim_cell(rng, p2, p2)
        extracted = [sim.extract_sim(lambda x, c=c: sim.eval_sim(c, x), c.span, p1, p2)
                     for c in (drawn, cells[0])]
        out += cells + [drawn, *extracted, sim.sum_sim(drawn, extracted[0]),
                        sim.identity_sim(p1)]
        if back is not None:
            out.append(sim.compose_sim(back, drawn))
    return out


def built_or_refused(build):
    """The cell built, or the message of the ValidationError raised."""
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


def tables_of(c: sim.SimCell, rows) -> tuple:
    """The three tables that rows of c's shape stand for, read off as the
    definition says. A position past v's fiber stands for a direction
    past src's, None for a direction of src off v's fiber, and a shape
    out of range keeps the keys of the shape it replaced."""
    src_fibers, dst_fibers = c.src.dir_shape.fibers(), c.dst.dir_shape.fibers()
    alpha, beta, gamma = {}, {}, {}
    for (rho, v), (w, moves), (was, _) in zip(sim.cell_pairs(c.span, c.src),
                                              itertools.chain(*rows),
                                              itertools.chain(*c._plan)):
        alpha[rho, v] = w
        fiber = src_fibers[v]
        keyed = w if w in c.dst.shapes else was
        for u, (g, k) in zip(dst_fibers[keyed], moves):
            if k is None:
                beta[rho, v, u] = next(b for b in c.src.dirs if b not in fiber)
            else:
                beta[rho, v, u] = fiber[k] if k < len(fiber) else c.src.dirs.size
            gamma[rho, v, u] = g
    return alpha, beta, gamma


def corrupted_rows(c: sim.SimCell, rng) -> list:
    """c's rows with one to three changes: a shape replaced by another
    with at least as many directions or by one just out of range, a
    direction dropped, or a move's successor or position replaced by
    another, by one just out of range, or (a position) by None."""
    rows = [list(row) for row in c._plan]
    dst_fibers = c.dst.dir_shape.fibers()
    src_fibers = c.src.dir_shape.fibers()
    # a pair's entry sits at its shape's position in the state's row
    position = c.src.shape_sort.positions()
    for _ in range(rng.randint(1, 3)):
        rho, v = rng.choice(c.pairs)
        w, moves = rows[rho][position[v]]
        moves = list(moves)
        kind = rng.choice(("shape", "drop", "move") if moves else ("shape",))
        if kind == "shape":
            w = rng.choice([x for x in range(c.dst.shapes.size + 1)
                            if x == c.dst.shapes.size or len(dst_fibers[x]) >= len(moves)])
        elif kind == "drop":
            moves.pop(rng.randrange(len(moves)))
        else:
            j = rng.randrange(len(moves))
            g, k = moves[j]
            if rng.random() < 0.5:
                g = rng.randrange(c.span.carrier.size + 1)
            else:
                off_fiber = len(src_fibers[v]) < c.src.dirs.size
                k = rng.choice([*range(len(src_fibers[v]) + 1), *[None] * off_fiber])
            moves[j] = (g, k)
        rows[rho][position[v]] = (w, tuple(moves))
    return rows


def test_rows_and_tables_build_the_same_cells():
    rng = random.Random(73)
    faults = set()
    for c in built_cells(67, 1) + built_cells(68, 2):
        again = sim.SimCell(c.span, c.src, c.dst, c.alpha, c.beta, c.gamma)
        assert again == c and again._plan == c._plan
        assert sim.validate(again).lines == sim.validate(c).lines
        for rows in (corrupted_rows(c, rng) for _ in range(3 if c.pairs else 0)):
            from_rows = built_or_refused(lambda: sim._cell(c.span, c.src, c.dst, rows))
            assert from_rows == built_or_refused(
                lambda: sim.SimCell(c.span, c.src, c.dst, *tables_of(c, rows)))
            faults.add(from_rows.split(" at ")[0] if isinstance(from_rows, str) else None)
    # harmless changes and every kind of fault but an entry off the pairs
    assert len(faults) == 9, sorted(map(str, faults))
    # an entry off the pairs, as a row entry and as a table key: state 0
    # sits over sort 0, and shape 1 over sort 1
    c = sim.identity_sim(two_sorted_endo())
    rows = [list(row) for row in c._plan]
    rows[0].append(rows[1][0])
    alpha = {**c.alpha, (0, 1): 1}
    message = "shape table must be indexed by exactly the (state, shape) pairs"
    assert built_or_refused(lambda: sim._cell(c.span, c.src, c.dst, rows)) == message
    assert built_or_refused(lambda: sim.SimCell(c.span, c.src, c.dst, alpha, c.beta,
                                                c.gamma)) == message


def test_cell_refuses_rows_off_the_layout():
    # a row holds one entry per src shape over its state's left end, and
    # the plan one row per state: a row one entry too long or too short,
    # or a plan one row short, is refused before any entry is checked
    message = "shape table must be indexed by exactly the (state, shape) pairs"
    for c in (sim.identity_sim(ss(1, 2)), sim.identity_sim(two_sorted_endo())):
        rows = [list(row) for row in c._plan]
        too_long = [rows[0] + [rows[-1][-1]], *rows[1:]]
        too_short = [rows[0][:-1], *rows[1:]]
        for bad in (too_long, too_short, rows[:-1]):
            assert built_or_refused(lambda: sim._cell(c.span, c.src, c.dst, bad)) == message
        assert sim._cell(c.span, c.src, c.dst, rows) == c


def test_a_round_trip_builds_no_tables():
    # enumerate, extract, compare and evaluate, also over a sum of cells
    # whose states must be matched by the search: no table is ever built
    tables = {"alpha", "beta", "gamma", "pairs", "triples"}
    leg = FinMap(FinSet(2), FinSet(1), (0, 0))
    span = Span(FinSet(2), leg, leg)
    p1, p2 = ss(1, 2), ss(1, 0)
    cells = sim.enumerate_sim(p1, p2, span)[::9]
    for c in cells:
        got = sim.extract_sim(lambda x, c=c: sim.eval_sim(c, x), span, p1, p2)
        assert sim.equivalence_check(got, c) is not None
        sim.eval_sim(got, fams(1, [2]))
        sim.validate(got)
        repr(got)
        assert not tables & (vars(c).keys() | vars(got).keys())
    both, swapped = sim.sum_sim(cells[1], cells[2]), sim.sum_sim(cells[2], cells[1])
    assert both != swapped and sim.equivalence_check(both, swapped) is not None
    assert not tables & (vars(both).keys() | vars(swapped).keys())
    # the tables are built on first read, once
    assert both.beta is both.beta and "beta" in vars(both)


def test_sampled_cells_are_mostly_nontrivial():
    # seeded cells between one-sorted diagrams sit on nonempty spans, and
    # most have direction entries: 58% at this seed, 28% when the span
    # draw allowed the empty span
    rng = random.Random(5)
    cells = []
    while len(cells) < 300:
        p1, p2 = randgen.random_endo(rng, 1, 2, 2), randgen.random_endo(rng, 1, 2, 2)
        c = randgen.random_sim_cell(rng, p1, p2)
        if c is not None:
            cells.append(c)
    assert all(c.span.carrier.size for c in cells)
    assert sum(1 for c in cells if c.triples) >= 0.5 * len(cells)
    # asked for, the empty span is still drawn
    span = randgen.random_span(rng, FinSet(1), FinSet(1), max_states=0)
    assert span.carrier.size == 0


# -- evaluation ---------------------------------------------------------------


def test_eval_identity_cell_is_coherence_iso():
    p = list_diagram()
    c = sim.identity_sim(p)
    x = fams(1, [3])
    m = sim.eval_sim(c, x)
    assert m.is_iso()
    au = poly.au_lift(c.span)
    inner_elems = poly.extension_elements(p, x)
    dom_elems = poly.extension_elements(au, poly.eval_extension(p, x))
    aux_elems = poly.extension_elements(au, x)
    cod_elems = poly.extension_elements(p, poly.eval_extension(au, x))
    for k, (_, (t,)) in enumerate(dom_elems):
        v, h = inner_elems[t]
        w, payload = cod_elems[m(k)]
        assert w == v
        assert tuple(aux_elems[e][1][0] for e in payload) == h


def test_eval_zero_cell_empty_domain():
    c = sim.zero_sim(ss(2), ss(1, 1))
    m = sim.eval_sim(c, fams(1, [3]))
    assert m.src.total.size == 0
    assert m.map.table == ()


def test_eval_base_mismatch():
    c = sim.identity_sim(two_sorted_endo())
    with pytest.raises(ShapeMismatch):
        sim.eval_sim(c, fams(1, [2]))


def test_eval_rejects_invalid_cell():
    # an invalid cell cannot be built, and a built one cannot be corrupted
    c = sim.identity_sim(list_diagram())
    with pytest.raises(ValidationError):
        sim.SimCell(c.span, c.src, c.dst, *corrupt(c, beta={(0, 2, 1): 0}))
    with pytest.raises(TypeError):
        c.beta[0, 2, 1] = 0
    assert sim.eval_sim(c, fams(1, [2])).is_iso()


def test_prefix_cell_valid_and_natural():
    c = prefix_cell()
    assert sim.validate(c).ok
    rep = sim.sim_naturality_check(c, 2)
    assert rep.ok
    # one sort at bound 2: the cofaces 0 -> 1 and 1 -> 2, the
    # codegeneracy 2 -> 1 and the transposition (0 1)
    assert rep.lines == ("4 generating squares commute at fiber bound 2",)


def test_prefix_cell_eval_values():
    p = list_diagram()
    c = prefix_cell()
    x = fams(1, [2])
    m = sim.eval_sim(c, x)
    # the 3-entry list [0,1,0] must map to the 2-entry list [0,1]
    au = poly.au_lift(c.span)
    inner = poly.eval_extension(p, x)
    dom_index = poly.extension_index(au, inner)
    inner_index = poly.extension_index(p, x)
    aux_index = poly.extension_index(au, x)
    cod_index = poly.extension_index(p, poly.eval_extension(au, x))
    src = dom_index[(0, (inner_index[(3, (0, 1, 0))],))]
    expected = cod_index[(2, (aux_index[(0, (0,))], aux_index[(0, (1,))]))]
    assert m(src) == expected


def cell_functors(c: sim.SimCell) -> tuple:
    """The two composite functors between which the cell's components
    are natural, as sim.sim_naturality_check builds them."""
    au = nat.ExtFunctor(poly.au_lift(c.span))
    return (nat.ComposedFunctor(au, nat.ExtFunctor(c.src)),
            nat.ComposedFunctor(nat.ExtFunctor(c.dst), au))


def all_maps_counterexample(f, g, component, bound):
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


def moved_at(c: sim.SimCell, sizes):
    # the cell's components, with the image of the first element that has
    # another element in its fiber moved to that element, at the family
    # with the given fiber sizes
    def component(x):
        e = sim.eval_sim(c, x)
        if x.fiber_sizes() != sizes:
            return e
        proj = e.dst.proj.table
        for k, t in enumerate(e.map.table):
            others = [u for u in range(len(proj)) if proj[u] == proj[t] and u != t]
            if others:
                table = list(e.map.table)
                table[k] = others[0]
                return FamMorphism(e.src, e.dst,
                                   FinMap(e.src.total, e.dst.total, tuple(table)))
        return e
    return component


def test_sim_naturality_catches_broken_component():
    c = prefix_cell()

    def broken(x):
        m = sim.eval_sim(c, x)
        if x.total.size == 2 and x.base.size == 1:
            table = list(m.map.table)
            if len(table) > 1 and m.dst.total.size > 1:
                table[0] = (table[0] + 1) % m.dst.total.size
                return FamMorphism(m.src, m.dst,
                                   FinMap(m.src.total, m.dst.total, tuple(table)))
        return m

    f, g = cell_functors(c)
    rep = nat.transformation_check(f, g, broken, 2)
    assert not rep.ok
    assert "counterexample" in rep.lines[0]
    assert all_maps_counterexample(f, g, broken, 2) is not None


def test_sim_naturality_agrees_with_all_maps_on_seeded_cells():
    rng = random.Random(41)
    verdicts = []
    while len(verdicts) < 16:
        p1 = randgen.random_endo(rng, 2, 2, 2)
        p2 = randgen.random_endo(rng, 2, 2, 2)
        # a nonempty span, so that the components are not all empty
        span = randgen.random_span(rng, p1.source, p2.source)
        c = sim.random_cell(rng, p1, p2, span) if span.carrier.size else None
        if c is None:
            continue
        f, g = cell_functors(c)
        if len(verdicts) % 2:
            component = moved_at(c, (2,) * p1.source.size)
            checked = nat.transformation_check(f, g, component, 2)
        else:
            component = lambda x, c=c: sim.eval_sim(c, x)
            checked = sim.sim_naturality_check(c, 2)
        natural = all_maps_counterexample(f, g, component, 2) is None
        assert checked.ok == natural
        verdicts.append(natural)
    # both verdicts occur, so the agreement is not vacuous
    assert True in verdicts and False in verdicts


# -- composition --------------------------------------------------------------


def test_compose_mismatch():
    with pytest.raises(ShapeMismatch):
        sim.compose_sim(sim.identity_sim(ss(2)), sim.identity_sim(ss(1, 1)))


def test_relabeling_composite_frozen():
    p = ss(1, 1)  # 2X: two shapes, one direction each
    swap = relabel_cell(p, (1, 0))
    composite = sim.compose_sim(swap, swap)
    assert composite.alpha == {(0, 0): 0, (0, 1): 1}
    assert composite.beta == {(0, 0, 0): 0, (0, 1, 1): 1}
    assert composite.gamma == {(0, 0, 0): 0, (0, 1, 1): 0}
    assert equivalence(composite, sim.identity_sim(p)) is not None
    assert equivalence(swap, sim.identity_sim(p)) is None


def test_prefix_composite_drops_two():
    c = prefix_cell()
    cc = sim.compose_sim(c, c)
    assert {v: w for (_, v), w in cc.alpha.items()} == {0: 0, 1: 0, 2: 0, 3: 1}
    double = prefix_cell(drop=2)
    assert equivalence(cc, double) is not None


def test_compose_matches_pasting_frozen_cells():
    c = prefix_cell()
    swap = relabel_cell(list_diagram(), (0, 1, 2, 3))
    composite = sim.compose_sim(c, swap)
    for n in (0, 1, 2, 3):
        x = fams(1, [n])
        assert sim.eval_sim(composite, x).map.table == \
            pasted_composite(c, swap, x).map.table


def test_compose_matches_pasting_random():
    rng = random.Random(7)
    done = 0
    while done < 12:
        p1 = randgen.random_endo(rng, 2, 2, 2)
        p2 = randgen.random_endo(rng, 2, 2, 2)
        p3 = randgen.random_endo(rng, 2, 2, 2)
        c1 = randgen.random_sim_cell(rng, p1, p2)
        c2 = randgen.random_sim_cell(rng, p2, p3)
        if c1 is None or c2 is None:
            continue
        composite = sim.compose_sim(c2, c1)
        for x in itertools.islice(fam.families_up_to(p1.source, 2), 6):
            assert sim.eval_sim(composite, x).map.table == \
                pasted_composite(c2, c1, x).map.table
        done += 1


def test_compose_unit_laws_seeded():
    rng = random.Random(11)
    done = 0
    while done < 50:
        p1 = randgen.random_endo(rng, 2, 2, 2)
        p2 = randgen.random_endo(rng, 2, 2, 2)
        c = randgen.random_sim_cell(rng, p1, p2)
        if c is None:
            continue
        lhs = sim.compose_sim(c, sim.identity_sim(p1))
        rhs = sim.compose_sim(sim.identity_sim(p2), c)
        assert equivalence(lhs, c) is not None
        assert equivalence(rhs, c) is not None
        done += 1


def test_compose_associativity_seeded():
    rng = random.Random(13)
    done = 0
    while done < 50:
        ps = [randgen.random_endo(rng, 2, 2, 2) for _ in range(4)]
        cells = [randgen.random_sim_cell(rng, ps[i], ps[i + 1]) for i in range(3)]
        if any(c is None for c in cells):
            continue
        c1, c2, c3 = cells
        lhs = sim.compose_sim(sim.compose_sim(c3, c2), c1)
        rhs = sim.compose_sim(c3, sim.compose_sim(c2, c1))
        assert equivalence(lhs, rhs) is not None
        done += 1


def eval_from_the_tables(c: sim.SimCell, x: fam.Family) -> tuple[int, ...]:
    """The component's table read off the cell's three tables entry by
    entry, as the definition says."""
    au = poly.au_lift(c.span)
    inner_elems = poly.extension_elements(c.src, x)
    dom_elems = poly.extension_elements(au, poly.eval_extension(c.src, x))
    aux_index = poly.extension_index(au, x)
    cod_index = poly.extension_index(c.dst, poly.eval_extension(au, x))
    table = []
    for rho, (t,) in dom_elems:
        v, h = inner_elems[t]
        w = c.alpha[rho, v]
        fiber = c.src.shape_fiber(v)
        payload = tuple(aux_index[(c.gamma[rho, v, u], (h[fiber.index(c.beta[rho, v, u])],))]
                        for u in c.dst.shape_fiber(w))
        table.append(cod_index[(w, payload)])
    return tuple(table)


def test_eval_plan_agrees_with_the_tables_and_is_kept_on_the_cell():
    families = list(fam.families_up_to(FinSet(2), 2))
    for cells in two_sorted_cells(53, 20):
        for c in cells:
            plan = c._plan
            for x in families:
                assert sim.eval_sim(c, x).map.table == eval_from_the_tables(c, x)
            assert c._plan is plan
    c = prefix_cell()
    assert sim.eval_sim(c, fams(1, [3])).map.table == eval_from_the_tables(c, fams(1, [3]))


def test_used_values_pickle_to_their_fields_and_evaluate_the_same():
    # evaluation leaves read-only views on the cell, the span, the
    # diagrams and their extension records, which do not pickle
    cells = [prefix_cell(), next(iter(two_sorted_cells(53, 1)))[0]]
    for c in cells:
        p, x = c.src, fam.family_from_fibers(c.src.source, (2,) * c.src.source.size)
        fresh = {"cell": pickle.dumps(c), "diagram": pickle.dumps(p)}
        comp = sim.eval_sim(c, x)
        tables = (c.alpha, c.beta, c.gamma, c.pairs, c.triples)
        index = poly.extension_index(p, x)
        poly.tensor(p, c.dst)
        assert pickle.dumps(c) == fresh["cell"]
        assert pickle.dumps(p) == fresh["diagram"]
        copied = pickle.loads(pickle.dumps(c))
        assert copied == c and copied.span == c.span
        assert sim.eval_sim(copied, x) == comp
        assert (copied.alpha, copied.beta, copied.gamma, copied.pairs, copied.triples) == tables
        q = pickle.loads(pickle.dumps(p))
        assert q == p and poly.extension_index(q, x) == index
        ext = pickle.loads(pickle.dumps(poly._extension(p, x)))
        assert (ext.family, ext.elements, ext.index()) == (poly.eval_extension(p, x),
                                                          poly.extension_elements(p, x), index)


def shuffled_family(rng: random.Random, base: FinSet, sizes) -> fam.Family:
    """A family with the given fiber sizes built with the Family
    constructor from a shuffled projection: not a block family, so its
    elements are not numbered fiber by fiber and it is not interned."""
    proj = [b for b, n in enumerate(sizes) for _ in range(n)]
    rng.shuffle(proj)
    total = FinSet(len(proj))
    return fam.Family(total, base, FinMap(total, base, tuple(proj)))


def test_eval_agrees_with_the_tables_at_non_block_families():
    rng = random.Random(67)
    checked = 0
    for sorts in (1, 2):
        base = FinSet(sorts)
        done = 0
        while done < 15:
            p1, p2 = (randgen.random_diagram(rng, base, base, 3, 2) for _ in range(2))
            c = randgen.random_sim_cell(rng, p1, p2, max_states=3)
            if c is None:
                continue
            for _ in range(4):
                x = shuffled_family(rng, base, [rng.randint(0, 3) for _ in base])
                assert sim.eval_sim(c, x).map.table == eval_from_the_tables(c, x)
                checked += 1
            done += 1
    assert checked == 120
    # a block family and a value-equal family built with the constructor
    # find one sum-lift record
    c = two_sorted_cells(71, 1)[0][0]
    block = fams(2, (2, 1))
    copy = fam.Family(block.total, block.base, block.proj)
    assert copy == block and copy is not block
    record = poly._extension(poly.au_lift(c.span), block)
    assert sim.eval_sim(c, block).map.table == eval_from_the_tables(c, block)
    assert sim.eval_sim(c, copy).map.table == eval_from_the_tables(c, copy)
    assert poly._extension(poly.au_lift(c.span), copy) is record


def component_cells(seed: int) -> list:
    """Seeded cells of every kind eval_sim meets, on one and two sorts:
    every fourth enumerated cell of three grid pairs with 1 to 128 cells
    over each constant span of 1 and 2 states, random_cell draws, their
    composites and sums, the zero cell and from_dm of the last container
    morphism listed."""
    rng = random.Random(seed)
    out: list = []
    for states in (1, 2):
        span, done = suites._const_span(states), 0
        while done < 3:
            p1, p2 = rng.choices(suites._grid(), k=2)
            if 0 < sim.count_sim(p1, p2, span) <= 128:
                out += sim.enumerate_sim(p1, p2, span)[::4]
                done += 1
    for sorts in (1, 2):
        base, done = FinSet(sorts), 0
        while done < 6:
            p, q, r = (randgen.random_diagram(rng, base, base, 3, 2) for _ in range(3))
            c, d = randgen.random_sim_cell(rng, p, q), randgen.random_sim_cell(rng, q, r)
            ms = nat.enumerate_dm(p, q)
            if c is None or d is None or not ms:
                continue
            out += [c, d, sim.compose_sim(d, c), sim.sum_sim(c, c), sim.zero_sim(p, r),
                    sim.from_dm(ms[-1])]
            done += 1
    return out


def test_eval_sim_components_pass_the_full_check():
    # eval_sim assembles its components without the constructors' checks;
    # built through them, each component is accepted and equal
    cases = 0
    for c in component_cells(83):
        generic = [nat.generic_family(c.src, v)[0] for v in c.src.shapes]
        for x in (*nat.check_families(c.src), *generic):
            got = sim.eval_sim(c, x)
            assert type(got.map.table) is tuple
            dom, cod = got.src, got.dst
            assert got == FamMorphism(dom, cod, FinMap(dom.total, cod.total, got.map.table))
            cases += 1
    assert cases == 920


def test_eval_sim_builds_no_checked_morphism(monkeypatch):
    cases = [(c, x) for c in component_cells(89) for x in (*nat.check_families(c.src), *(
        nat.generic_family(c.src, v)[0] for v in c.src.shapes))]
    calls: list = []
    for cls in (FamMorphism, FinMap):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            calls.append(name)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    # a first evaluation builds the frame's extension records, whose
    # families hold checked maps, but no morphism
    first = [sim.eval_sim(c, x) for c, x in cases]
    assert "FamMorphism" not in calls
    calls.clear()
    # a later one builds neither
    again = [sim.eval_sim(c, x) for c, x in cases]
    assert calls == [] and again == first and len(again) == 954


# -- container morphisms as cells ---------------------------------------------


def test_from_dm_is_the_cell_over_the_diagonal_span():
    # seeded triples of endo diagrams on equal sorts: from_dm keeps
    # identities and composites on the nose, evaluates as the morphism
    # does, and the cells over the diagonal span number the morphisms
    rng = random.Random(1)
    identities = composites = evaluations = counts = 0
    for _ in range(300):
        p, q, r = (randgen.random_endo(rng, 2, 2, 2) for _ in range(3))
        if not p.source == q.source == r.source:
            continue
        assert sim.from_dm(poly.identity_dm(p)) == sim.identity_sim(p)
        identities += 1
        diagonal = Span(p.source, finset.identity(p.source), finset.identity(p.source))
        assert nat.count_nat(p, q) == sim.count_sim(p, q, diagonal)
        counts += 1
        ms, ns = nat.enumerate_dm(p, q), nat.enumerate_dm(q, r)
        if ms and ns:
            m, n = ms[-1], ns[-1]
            composite = poly.DiagMorphism(m.src, n.dst, *poly._compose_dm_tables(n, m))
            assert sim.from_dm(composite) == \
                sim.compose_sim(sim.from_dm(n), sim.from_dm(m))
            composites += 1
        if ms:
            m = ms[-1]
            c = sim.from_dm(m)
            for x in nat.check_families(p)[:4]:
                by_dm, by_sim = nat.eval_dm(m, x), sim.eval_sim(c, x)
                assert by_dm.map.table == by_sim.map.table
                assert by_dm.src.fiber_sizes() == by_sim.src.fiber_sizes()
                evaluations += 1
    assert (identities, composites, evaluations, counts) == (66, 17, 100, 66)


def test_from_dm_refuses_a_diagram_that_is_not_endo():
    rng = random.Random(2)
    p = randgen.random_diagram(rng, FinSet(1), FinSet(2))
    with pytest.raises(ValidationError, match="^simulations relate endo diagrams$"):
        sim.from_dm(poly.identity_dm(p))


# -- cells over relations -----------------------------------------------------


def test_over_relation_refuses_a_span_that_is_not_a_relation():
    # two states on the ends (0, 0): the successor would not be forced
    p, two = ss(1, 0), FinSet(2)
    legs = FinMap(two, FinSet(1), (0, 0))
    message = "^span is not a relation: states 0 and 1 share ends$"
    with pytest.raises(ValidationError, match=message):
        sim._over_relation(Span(two, legs, legs), p, p, lambda v: (v, range(v)))
    # the ends are checked before the relation
    q = randgen.random_diagram(random.Random(2), FinSet(1), FinSet(2))
    with pytest.raises(ValidationError, match="^simulations relate endo diagrams$"):
        sim._over_relation(Span(two, legs, legs), q, p, lambda v: (v, range(v)))


def test_over_relation_leaves_a_missing_successor_to_the_validator():
    # one state, on the ends (0, 0): shape 0's one direction has sort 1,
    # so its successor would lie over (1, 1), where no state is
    p, one = two_sorted_endo(), FinSet(1)
    leg = FinMap(one, FinSet(2), (0,))
    with pytest.raises(ValidationError, match=r"^state table value out of range at \(0, 0, 0\)$"):
        sim._over_relation(Span(one, leg, leg), p, p, lambda v: (v, [0]))


def structural_references(p1: poly.PolyDiagram, p2: poly.PolyDiagram) -> list:
    """The identity of p1, the symmetry p1 ⊗ p2 -> p2 ⊗ p1 and the sum's
    injections and projections, each built by the public constructor from
    its defining tables on absolute shapes and directions: a tensor pairs
    sorts, shapes and directions (x1, x2) as x1 * |X2| + x2, and a sum
    puts p2's after p1's."""
    n1, n2 = p1.source.size, p2.source.size
    s1, s2, d1, d2 = p1.shapes.size, p2.shapes.size, p1.dirs.size, p2.dirs.size
    sort1, sort2 = p1.dir_sort, p2.dir_sort

    def cell(span, src, dst, shape, back, state):
        alpha, beta, gamma = {}, {}, {}
        for rho, v in sim.cell_pairs(span, src):
            alpha[rho, v] = w = shape(v)
            for u in dst.shape_fiber(w):
                beta[rho, v, u] = back(u)
                gamma[rho, v, u] = state(u)
        return sim.SimCell(span, src, dst, alpha, beta, gamma)

    def span(carrier, left, right):
        return Span(carrier, FinMap(carrier, left[0], left[1]), FinMap(carrier, right[0], right[1]))

    s12, s21 = poly.tensor(p1, p2), poly.tensor(p2, p1)
    sorts12, all1, all2 = s12.source, tuple(range(n1)), tuple(range(n2))
    swap = tuple(i2 * n1 + i1 for i1 in all1 for i2 in all2)
    total = poly.plus(p1, p2)
    inl, inr = all1, tuple(n1 + i for i in all2)
    return [
        cell(span(p1.source, (p1.source, all1), (p1.source, all1)), p1, p1,
             lambda v: v, lambda u: u, sort1),
        cell(span(sorts12, (sorts12, tuple(range(n1 * n2))), (s21.source, swap)), s12, s21,
             lambda v: v % s2 * s1 + v // s2,
             lambda u: u % d1 * d2 + u // d1,
             lambda u: sort1(u % d1) * n2 + sort2(u // d1)),
        cell(span(p1.source, (p1.source, all1), (total.source, inl)), p1, total,
             lambda v: v, lambda u: u, sort1),
        cell(span(p2.source, (p2.source, all2), (total.source, inr)), p2, total,
             lambda v: v + s1, lambda u: u - d1, lambda u: sort2(u - d1)),
        cell(span(p1.source, (total.source, inl), (p1.source, all1)), total, p1,
             lambda v: v, lambda u: u, sort1),
        cell(span(p2.source, (total.source, inr), (p2.source, all2)), total, p2,
             lambda v: v - s1, lambda u: u + d1, sort2),
    ]


def test_structural_cells_are_their_defining_tables():
    # every cell built over a relation equals, on the nose, the one the
    # public constructor builds from its tables, on seeded one- and
    # two-sorted diagrams
    rng = random.Random(0)
    two_sorted = 0
    for _ in range(100):
        p, q = randgen.random_endo(rng, 2, 3, 2), randgen.random_endo(rng, 2, 3, 2)
        ps = sim.plus_structure(p, q)
        built = [sim.identity_sim(p), sim.symmetry_sim(p, q), ps.inl, ps.inr, ps.proj1, ps.proj2]
        assert built == structural_references(p, q)
        two_sorted += p.source.size + q.source.size > 2
    rng = random.Random(1)
    morphisms = two_sorted_morphisms = 0
    for _ in range(100):
        p, q = randgen.random_endo(rng, 2, 3, 2), randgen.random_endo(rng, 2, 3, 2)
        if p.source != q.source:
            continue
        span = Span(p.source, finset.identity(p.source), finset.identity(p.source))
        for m in nat.enumerate_dm(p, q)[:5]:
            tables = {}, {}, {}
            for rho, v in sim.cell_pairs(span, p):
                tables[0][rho, v] = m.alpha(v)
                for u, b in zip(q.shape_fiber(m.alpha(v)), m.betas[v]):
                    tables[1][rho, v, u], tables[2][rho, v, u] = b, p.dir_sort(b)
            assert sim.from_dm(m) == sim.SimCell(span, p, q, *tables)
            morphisms += 1
            two_sorted_morphisms += p.source.size > 1
    assert (two_sorted, morphisms, two_sorted_morphisms) == (70, 72, 15)


# -- extraction ---------------------------------------------------------------


def test_extract_roundtrip_prefix():
    c = prefix_cell()
    got = sim.extract_sim(lambda x: sim.eval_sim(c, x), c.span, c.src, c.dst)
    assert got == c


def test_extract_identity_oracle():
    p = two_sorted_endo()
    c = sim.identity_sim(p)
    got = sim.extract_sim(lambda x: sim.eval_sim(c, x), c.span, p, p)
    assert got == c


def test_extraction_probes_are_kept_on_the_diagram():
    c = prefix_cell()
    p = c.src
    checks = nat.check_families(p)
    generic = [nat.generic_family(p, v) for v in p.shapes]
    assert len(checks) == 4 and checks == tuple(fam.families_up_to(p.source, 3))
    sim.extract_sim(lambda x: sim.eval_sim(c, x), c.span, p, c.dst)
    # block families are interned, so the same Family objects are handed
    # out again and every extension lookup finds them by identity, with
    # their hash already computed
    again = nat.check_families(p)
    assert len(again) == len(checks)
    assert all(a is b for a, b in zip(again, checks))
    for v in p.shapes:
        y, order = nat.generic_family(p, v)
        assert y is generic[v][0] and order == generic[v][1]
        assert "_hash" in vars(y)
    assert all("_hash" in vars(x) for x in checks)


def test_round_trip_lookups_never_compare_distinct_families(monkeypatch):
    # two diagrams over one shared span: the shared sum lift is probed by
    # both source diagrams, each diagram's extensions by both directions.
    # Every family on the way is an interned block family, so each
    # extension lookup stops at the identity check, before __eq__
    p1, p2 = ss(0, 2), ss(1, 1)
    leg = FinMap(FinSet(2), FinSet(1), (0, 0))
    span = Span(FinSet(2), leg, leg)
    cells = [c for src, dst in ((p2, p1), (p1, p1), (p2, p2))
             for c in sim.enumerate_sim(src, dst, span)[:6]]
    assert len(cells) == 18
    calls = []
    original = fam.Family.__eq__

    def eq(self, other):
        calls.append(self is other)
        return original(self, other)

    monkeypatch.setattr(fam.Family, "__eq__", eq)
    for c in cells:
        got = sim.extract_sim(lambda x, c=c: sim.eval_sim(c, x), span, c.src, c.dst)
        assert got == c
    assert calls.count(False) == 0


def test_extract_bijection_on_enumerated_cells():
    p1 = ss(1, 2)
    p2 = ss(2, 0)
    span = singleton_span()
    cells = sim.enumerate_sim(p1, p2, span)
    assert len(cells) > 1
    for c in cells:
        assert sim.validate(c).ok
        got = sim.extract_sim(lambda x, c=c: sim.eval_sim(c, x), span, p1, p2)
        assert got == c


def test_extract_rejects_mixed_oracle():
    p = list_diagram()
    a = sim.identity_sim(p)
    b = prefix_cell()

    def mixed(x):
        if x.total.size >= 2:
            return sim.eval_sim(b, x)
        return sim.eval_sim(a, x)

    with pytest.raises(OracleNotNatural, match="oracle not natural"):
        sim.extract_sim(mixed, a.span, p, p)


def test_extract_bad_endpoints():
    p = list_diagram()
    c = sim.identity_sim(p)

    def wrong(x):
        return fam.identity_morphism(fams(1, [1]))

    with pytest.raises(ValidationError, match="wrong endpoints"):
        sim.extract_sim(wrong, c.span, p, p)


def test_extract_checks_the_endpoints_of_every_compared_component():
    # at the check-only family (3,) the oracle's component keeps the
    # table but lands in a larger codomain: a wrong component all the same
    p = ss(1)
    c = sim.identity_sim(p)
    bigger = fams(1, [4])

    def enlarged(x):
        comp = sim.eval_sim(c, x)
        if x.fiber_sizes() != (3,):
            return comp
        return FamMorphism(comp.src, bigger, FinMap(comp.src.total, bigger.total, comp.map.table))

    assert fams(1, [3]) not in {nat.generic_family(p, v)[0] for v in p.shapes}
    with pytest.raises(ValidationError, match="oracle component has the wrong endpoints"):
        sim.extract_sim(enlarged, c.span, p, p)


def permuted_within_a_fiber(comp: FamMorphism) -> FamMorphism:
    """comp with the images of the first two elements of a source fiber
    swapped: the same endpoints and a valid morphism, with another table."""
    t1, t2 = next(f for f in comp.src.proj.fibers() if len(f) >= 2)[:2]
    table = list(comp.map.table)
    table[t1], table[t2] = table[t2], table[t1]
    assert tuple(table) != comp.map.table
    return FamMorphism(comp.src, comp.dst, FinMap(comp.map.dom, comp.map.cod, tuple(table)))


def test_round_trips_refuse_a_table_permuted_at_the_check_only_family():
    # the round trip compares tables only: at (3,), a check family and no
    # probe's, a component with the right endpoints and a wrong table is
    # refused as unnatural
    p = ss(1)
    assert fams(1, [3]) not in {nat.generic_family(p, v)[0] for v in p.shapes}
    assert fams(1, [3]) in nat.check_families(p)
    c = sim.identity_sim(p)

    def permuted_at_3(x):
        comp = sim.eval_sim(c, x)
        return permuted_within_a_fiber(comp) if x.fiber_sizes() == (3,) else comp

    assert sim.extract_sim(lambda x: sim.eval_sim(c, x), c.span, p, p) == c
    with pytest.raises(OracleNotNatural, match="oracle not natural"):
        sim.extract_sim(permuted_at_3, c.span, p, p)


def recorded(oracle):
    """The oracle with a log of the families it is asked at."""
    asked = []

    def ask(x):
        asked.append(x)
        return oracle(x)

    return ask, asked


def first_requests(families) -> list:
    """The families in the order of their first occurrence."""
    out = []
    for x in families:
        if x not in out:
            out.append(x)
    return out


def probe_then_check_order(span: Span, p: poly.PolyDiagram) -> list:
    """The families a probe per (state, shape) pair and then the round
    trip ask at, repeats kept: one per pair, then the check families."""
    return ([nat.generic_family(p, v)[0] for _, v in sim.cell_pairs(span, p)]
            + list(nat.check_families(p)))


def two_state_span() -> Span:
    leg = FinMap(FinSet(2), FinSet(1), (0, 0))
    return Span(FinSet(2), leg, leg)


@pytest.mark.parametrize("p, calls", [(list_diagram(), 4), (ss(4, 1), 5)],
                         ids=["arities-to-3", "arity-4"])
def test_extract_asks_the_oracle_once_per_family(p, calls):
    # 2 states by every shape: the probes alone would ask 8 and 4 times.
    # The generic families of arities up to 3 are check families too;
    # that of arity 4 is not
    span = two_state_span()
    rng = random.Random(15)
    for _ in range(10):
        c = sim.random_cell(rng, p, p, span)
        oracle, asked = recorded(lambda x, c=c: sim.eval_sim(c, x))
        assert sim.extract_sim(oracle, span, p, p) == c
        assert len(asked) == calls
        assert asked == first_requests(probe_then_check_order(span, p))


def test_extract_asks_once_per_family_on_two_sorted_samples():
    rng = random.Random(15)
    extracted = skipped = 0
    for p1, p2 in itertools.product(suites._two_sorted_samples(), repeat=2):
        for _ in range(4):
            c = randgen.random_sim_cell(rng, p1, p2, max_states=2)
            if c is None:
                skipped += 1
                continue
            oracle, asked = recorded(lambda x, c=c: sim.eval_sim(c, x))
            assert sim.extract_sim(oracle, c.span, p1, p2) == c
            assert len(asked) == len(set(asked))
            assert asked == first_requests(probe_then_check_order(c.span, p1))
            extracted += 1
    # the pair (second sample, first sample) admits no cell on a nonempty span
    assert (extracted, skipped) == (12, 4)


def test_extract_refuses_an_oracle_unnatural_at_a_probed_check_family():
    # the component at (2,), the generic family of the 2-entry shape and a
    # check family, comes from another cell; every other one is the
    # identity's. The answer read at the probe is the one compared
    p = list_diagram()
    a, b = sim.identity_sim(p), prefix_cell()

    def mixed(x):
        return sim.eval_sim(b if x.fiber_sizes() == (2,) else a, x)

    assert fams(1, [2]) in nat.check_families(p)
    oracle, asked = recorded(mixed)
    with pytest.raises(OracleNotNatural, match="oracle not natural"):
        sim.extract_sim(oracle, a.span, p, p)
    assert len(asked) == len(set(asked))


# -- the frame held on a span --------------------------------------------------


def probe_and_check_components(c: sim.SimCell) -> dict:
    """The cell's components at the probe and check families of its src,
    computed once, for an oracle that evaluates nothing."""
    p = c.src
    families = (*nat.check_families(p), *(nat.generic_family(p, v)[0] for v in p.shapes))
    return {y: sim.eval_sim(c, y) for y in families}


def test_a_held_frame_still_checks_the_guard():
    # X + X² over two states: the probe of X² reaches a carrier of 20
    # elements (X + X² at a family of 4), and the round trip one of 42
    # (at 6), from the check family (3,). Once the span holds the frame,
    # a lowered limit refuses them as it would refuse a first call
    p, span = ss(1, 2), two_state_span()
    c = sim.random_cell(random.Random(3), p, p, span)
    components = probe_and_check_components(c)
    assert sim.extract_sim(components.__getitem__, span, p, p) == c
    frame = vars(span)["_frame"]
    assert frame.src is p and frame.dst is p
    old = finset.set_guard_limit(40)
    try:
        # the evaluation, and the round trip after every probe passed
        for call in (lambda: sim.eval_sim(c, fams(1, [3])),
                     lambda: sim.extract_sim(components.__getitem__, span, p, p)):
            with pytest.raises(SizeGuardExceeded,
                               match="extension carrier has size 42, guard limit is 40"):
                call()
        # the probe of X², before the round trip asks anything
        finset.set_guard_limit(18)
        oracle, asked = recorded(components.__getitem__)
        with pytest.raises(SizeGuardExceeded,
                           match="extension carrier has size 20, guard limit is 18"):
            sim.extract_sim(oracle, span, p, p)
        assert asked == [nat.generic_family(p, v)[0] for v in p.shapes]
        finset.set_guard_limit(42)
        assert sim.extract_sim(components.__getitem__, span, p, p) == c
    finally:
        finset.set_guard_limit(old)
    assert vars(span)["_frame"] is frame


def test_a_held_frame_checks_the_guard_as_a_first_call_does(monkeypatch):
    # every guard check of an evaluation and an extraction, with its size
    # and label, in order: over a fresh copy of the span, which holds no
    # frame, and again over the same copy, which now holds one
    checks = []
    original = finset.check_guard

    def recorded(size, what):
        checks.append((size, what))
        original(size, what)

    for module in (fam, poly, nat, sim):
        monkeypatch.setattr(module, "check_guard", recorded)
    for cells in two_sorted_cells(83, 3):
        c = cells[0]
        components = probe_and_check_components(c)
        copy = Span(c.span.carrier, c.span.left, c.span.right)
        c_copy = sim._cell(copy, c.src, c.dst, c._plan)
        seen = []
        for _ in range(2):
            checks.clear()
            for x in nat.check_families(c.src):
                sim.eval_sim(c_copy, x)
            assert sim.extract_sim(components.__getitem__, copy, c.src, c.dst) == c_copy
            seen.append(list(checks))
        assert seen[0] == seen[1]
        assert sum(what == "extension carrier" for _, what in seen[0]) > 100


def cross_sorted_cell() -> sim.SimCell:
    """The one cell from a one-shape diagram on two sorts, whose shape sits
    over sort 0 with a direction of each sort, to the diagram with a shape
    over each sort and one direction of the other sort, over the span of
    the states 0 -> 0 and 0 -> 1: both states pair with the one src shape
    and take dst shapes over different sorts."""
    two = FinSet(2)
    p1 = poly.PolyDiagram(source=two, dirs=FinSet(2), shapes=FinSet(1), target=two,
                          dir_sort=fmap(2, 2, (0, 1)), dir_shape=fmap(2, 1, (0, 0)),
                          shape_sort=fmap(1, 2, (0,)))
    p2 = two_sorted_endo()
    span = Span(two, fmap(2, 2, (0, 0)), fmap(2, 2, (0, 1)))
    (c,) = sim.enumerate_sim(p1, p2, span)
    assert c._plan == (((0, ((1, 0),)),), ((1, ((0, 0),)),))
    return c


def state_one_takes_state_zeros_answer(c: sim.SimCell):
    """An oracle that answers as the cell does, except that at the probe
    of shape 0 it sends state 1's element where state 0's goes: a table
    that mixes the sorts, assembled without the morphism checks."""
    components = probe_and_check_components(c)
    y = nat.generic_family(c.src, 0)[0]
    index = poly.extension_index(poly.au_lift(c.span), poly.eval_extension(c.src, y))
    gen = nat.generic_element(c.src, 0)
    table = list(components[y].map.table)
    table[index[1, (gen,)]] = table[index[0, (gen,)]]
    bad = fam._assembled(components[y].src, components[y].dst, tuple(table))
    return lambda x: bad if x == y else components[x]


def test_a_held_frame_never_reuses_an_entry_checked_for_another_state():
    # the faithful extraction leaves state 0's entry in the frame; the
    # oracle then gives state 1 that same answer, a dst shape over the
    # wrong sort for it. The entry check refuses it each time it is asked,
    # and the faithful oracle is still read back
    c = cross_sorted_cell()
    components = probe_and_check_components(c)
    assert sim.extract_sim(components.__getitem__, c.span, c.src, c.dst) == c
    frame = vars(c.span)["_frame"]
    for _ in range(2):
        with pytest.raises(OracleNotNatural, match="oracle not natural") as exc:
            sim.extract_sim(state_one_takes_state_zeros_answer(c), c.span, c.src, c.dst)
        assert isinstance(exc.value.__cause__, ValidationError)
        assert str(exc.value.__cause__) == ("assigned shape sits over the wrong sort at (state 1,"
                                            " shape 0): got 0, the state's right end is 1")
        assert sim.extract_sim(components.__getitem__, c.span, c.src, c.dst) == c
    assert vars(c.span)["_frame"] is frame


def test_frames_are_found_by_identity():
    # value-equal but distinct diagrams over one span, evaluated in turn;
    # diagrams made and dropped in a loop over one span; and families of
    # other values made and dropped in a loop over one frame, so that an
    # id may be reused: every table is the one read off the cell's tables
    rng = random.Random(89)
    span = two_state_span()
    p, p_copy = ss(1, 2), ss(1, 2)
    assert p == p_copy and p is not p_copy
    c, c_copy = (sim.random_cell(rng, q, q, span) for q in (p, p_copy))
    for x in nat.check_families(p):
        for d in (c, c_copy, c):
            assert sim.eval_sim(d, x).map.table == eval_from_the_tables(d, x)
    one = FinSet(1)
    for _ in range(40):
        q = randgen.random_diagram(rng, one, one, 3, 3)
        d = sim.random_cell(rng, q, q, span)
        if d is None:
            continue
        assert sim.extract_sim(lambda y, d=d: sim.eval_sim(d, y), span, q, q) == d
        del q, d
    # a family built with the constructor and dropped at once: the next
    # one, of another value, is likely to take its place in memory
    blocks = [fams(1, [n]) for n in (1, 2, 3)]
    want = [eval_from_the_tables(c, x) for x in blocks]
    assert len(set(want)) == 3
    for k in range(60):
        block = blocks[k % 3]
        assert sim.eval_sim(c, fam.Family(block.total, block.base, block.proj)).map.table == \
            want[k % 3]


def test_a_frame_is_replaced_by_a_call_over_another_pair():
    span = two_state_span()
    p, q = ss(1, 2), ss(1, 1)
    c = sim.random_cell(random.Random(5), p, q, span)
    d = sim.random_cell(random.Random(5), q, p, span)
    x = fams(1, [2])
    sim.eval_sim(c, x)
    frame = vars(span)["_frame"]
    sim.eval_sim(c, fams(1, [3]))
    assert vars(span)["_frame"] is frame
    assert sim.eval_sim(d, x).map.table == eval_from_the_tables(d, x)
    assert vars(span)["_frame"].src is q and vars(span)["_frame"] is not frame


def test_ends_that_fail_leave_the_held_frame():
    # the span holds the frame of (p, p). An extraction over it to a
    # diagram on other sorts than the right leg's codomain, or to one that
    # is not endo, raises as a first call does, before the oracle is asked,
    # and the span keeps the earlier frame
    p, span = ss(1, 2), two_state_span()
    c = sim.random_cell(random.Random(3), p, p, span)
    assert sim.extract_sim(lambda x: sim.eval_sim(c, x), span, p, p) == c
    frame = vars(span)["_frame"]
    not_endo = poly.PolyDiagram(
        source=FinSet(1), dirs=FinSet(0), shapes=FinSet(1), target=FinSet(2),
        dir_sort=fmap(0, 1, ()), dir_shape=fmap(0, 1, ()), shape_sort=fmap(1, 2, (0,)),
    )
    for q, error, message in (
            (two_sorted_endo(), ShapeMismatch, "span legs must land in the two sort sets"),
            (not_endo, ValidationError, "simulations relate endo diagrams")):
        oracle, asked = recorded(lambda x: sim.eval_sim(c, x))
        with pytest.raises(ValidationError) as exc:
            sim.extract_sim(oracle, span, p, q)
        assert type(exc.value) is error and str(exc.value) == message
        assert asked == []
        assert vars(span)["_frame"] is frame
    assert sim.extract_sim(lambda x: sim.eval_sim(c, x), span, p, p) == c
    assert vars(span)["_frame"] is frame


def test_extracted_and_enumerated_cells_hold_exactly_their_fields():
    # enumerate_sim and extract_sim write a cell's four fields in one go:
    # before any table is read the instance dict holds exactly those, and
    # the cell equals, hashes and pickles like the cell the public
    # constructor builds from the same tables
    p1, p2, span = ss(1, 2), ss(0, 1), two_state_span()
    enumerated = sim.enumerate_sim(p1, p2, span)[::28]
    extracted = [sim.extract_sim(lambda x, c=c: sim.eval_sim(c, x), span, p1, p2)
                 for c in enumerated]
    assert len(extracted) == 9
    for c in (*enumerated, *extracted):
        assert list(vars(c)) == ["span", "src", "dst", "_plan"]
        built = sim.SimCell(c.span, c.src, c.dst, c.alpha, c.beta, c.gamma)
        assert c == built and hash(c) == hash(built)
        assert finset.field_state(c) == finset.field_state(built)
        copied = pickle.loads(pickle.dumps(c))
        assert copied == built and list(vars(copied)) == ["span", "src", "dst", "_plan"]
    assert extracted == enumerated


def slices_at(span: Span, x: fam.Family) -> dict:
    """The (shape, row entry) slices held in the frame's record at x."""
    return vars(span)["_frame"].at[id(x)][-1]


def test_shared_slices_give_the_tables_of_fresh_frames():
    # X + X² -> 1 + X over two states: both src shapes take the entries
    # (0, ()) and (1, ((g, 0),)), with different payloads, and the 225
    # cells share their entries across states and cells. Over the shared
    # span every cell, at every check family, reads the slices the others
    # left; over a fresh copy of the span each reads only its own
    p1, p2, span = ss(1, 2), ss(0, 1), two_state_span()
    cells = sim.enumerate_sim(p1, p2, span)
    assert len(cells) == 225
    checks = nat.check_families(p1)
    for c in cells:
        copy = Span(span.carrier, span.left, span.right)
        fresh = sim._cell(copy, p1, p2, c._plan)
        for x in checks:
            assert sim.eval_sim(c, x) == sim.eval_sim(fresh, x)
    # a slice per src shape and entry that some cell takes
    entries = {(v, e) for c in cells for row in c._plan for v, e in enumerate(row)
               if e is not None}
    assert all(set(slices_at(span, x)) == entries for x in checks if x.total.size)


def test_cells_with_the_same_rows_add_no_slice():
    # a second cell with the same rows, and a round trip's extracted cell,
    # read the slices the first cell's evaluation left, and add none
    p, span = ss(1, 2), two_state_span()
    c = sim.random_cell(random.Random(7), p, p, span)
    checks = nat.check_families(p)
    tables = [sim.eval_sim(c, x).map.table for x in checks]
    held = [dict(slices_at(span, x)) for x in checks]
    assert all(held[1:])
    twin = sim._cell(span, p, p, c._plan)
    assert twin is not c
    assert [sim.eval_sim(twin, x).map.table for x in checks] == tables
    assert [dict(slices_at(span, x)) for x in checks] == held
    components = probe_and_check_components(c)
    assert sim.extract_sim(components.__getitem__, span, p, p) == c
    for x, before in zip(checks, held):
        after = slices_at(span, x)
        assert after == before
        assert all(after[key] is part for key, part in before.items())


def test_warm_slices_still_check_the_guard():
    # X + X² over two states at the check family (3,), whose four carriers
    # have sizes 12, 24, 6 and 42 in the order of their checks: once every
    # slice is held, a limit lowered below any of them refuses with the
    # first carrier above it, as a first call would, and the limit raised
    # again gives the same table
    p, span = ss(1, 2), two_state_span()
    c = sim.random_cell(random.Random(3), p, p, span)
    x = fams(1, [3])
    table = sim.eval_sim(c, x).map.table
    assert sim.eval_sim(c, x).map.table == table
    assert vars(span)["_frame"].at[id(x)][1:5] == (12, 24, 6, 42)
    old = finset.guard_limit()
    try:
        for limit, size in ((10, 12), (22, 24), (5, 12), (40, 42)):
            finset.set_guard_limit(limit)
            with pytest.raises(SizeGuardExceeded,
                               match=f"extension carrier has size {size}, guard limit is {limit}"):
                sim.eval_sim(c, x)
        finset.set_guard_limit(42)
        assert sim.eval_sim(c, x).map.table == table
    finally:
        finset.set_guard_limit(old)


# -- counting and filling ------------------------------------------------------


def options_oracle(p1, p2, span, v, u) -> list:
    """The (state, position) moves that may fill direction u of p2 at a
    (state, shape v) pair, found by scanning every state, state-major:
    the reference for the fill table that sim builds once per call."""
    return [(g, k) for g in span.carrier if span.right(g) == p2.dir_sort(u)
            for k, b in enumerate(p1.shape_fiber(v)) if p1.dir_sort(b) == span.left(g)]


def count_oracle(p1, p2, span) -> int:
    """The cell count as a product of per-pair weights, pair by pair."""
    total = 1
    for rho, v in sim.cell_pairs(span, p1):
        weight = 0
        for w in p2.shape_sort.fiber(span.right(rho)):
            branch = 1
            for u in p2.shape_fiber(w):
                branch *= len(options_oracle(p1, p2, span, v, u))
            weight += branch
        total *= weight
    return total


def choices_oracle(p1, p2, span) -> list:
    """Per (state, shape) pair, in cell_pairs order, every row entry that
    fills it, in the order the sampler and the enumeration use."""
    return [[(w, moves) for w in p2.shape_sort.fiber(span.right(rho))
             for moves in itertools.product(*[options_oracle(p1, p2, span, v, u)
                                              for u in p2.shape_fiber(w)])]
            for rho, v in sim.cell_pairs(span, p1)]


def entries(c: sim.SimCell) -> list:
    """The cell's row entries in cell_pairs order: its rows, concatenated."""
    return list(itertools.chain(*c._plan))


def counting_instances(seed: int, n: int) -> list:
    """Seeded endo pairs on one or two sorts with spans of 0 to 4 states,
    whose legs need not reach every sort."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        base = FinSet(rng.randint(1, 2))
        p1, p2 = (randgen.random_diagram(rng, base, base, 3, 2) for _ in range(2))
        out.append((p1, p2, randgen.random_span(rng, base, base, rng.randint(0, 4))))
    return out


def test_count_sim_agrees_with_the_per_pair_count():
    counts = [sim.count_sim(p1, p2, span) for p1, p2, span in counting_instances(19, 400)]
    assert counts == [count_oracle(*case) for case in counting_instances(19, 400)]
    # the draw reaches zero, one and large counts alike
    assert counts.count(0) > 20 and counts.count(1) > 20 and max(counts) > 10**6


def test_sampler_and_enumeration_fill_pairs_as_before():
    sampled = enumerated = 0
    for seed, (p1, p2, span) in enumerate(counting_instances(190, 300)):
        choices = choices_oracle(p1, p2, span)
        rng, twin = random.Random(seed), random.Random(seed)
        c = sim.random_cell(rng, p1, p2, span)
        want = []
        for options in choices:
            if not options:
                want = None
                break
            want.append(twin.choice(options))
        assert (c if c is None else entries(c)) == want
        assert rng.getstate() == twin.getstate()
        sampled += c is not None and span.carrier.size > 0
        if sim.count_sim(p1, p2, span) <= 64:
            got = [entries(c) for c in sim.enumerate_sim(p1, p2, span)]
            assert got == [list(combo) for combo in itertools.product(*choices)]
            enumerated += len(got)
    assert sampled > 100 and enumerated > 500


def test_count_sim_on_the_identity_span_counts_transformations():
    rng = random.Random(3)
    for _ in range(200):
        p = randgen.random_endo(rng, 2, 3, 2)
        q = randgen.random_diagram(rng, p.source, p.source, 3, 2)
        ident = finset.identity(p.source)
        assert sim.count_sim(p, q, Span(p.source, ident, ident)) == nat.count_nat(p, q)


def test_count_sim_counts_the_grid_enumerations():
    grid, counted = suites._grid(), 0
    for states in range(3):
        span = suites._const_span(states)
        for p1, p2 in itertools.product(grid, repeat=2):
            count = sim.count_sim(p1, p2, span)
            assert count == count_oracle(p1, p2, span)
            if count <= 256:
                assert len(sim.enumerate_sim(p1, p2, span)) == count
                counted += 1
    assert counted > 300


def split_span(span: Span, end: str, p: poly.PolyDiagram, q: poly.PolyDiagram) -> list:
    """The span's states whose end ("left" or "right") lies in the sorts
    of p ⊕ q, as two spans: those over p's sorts, and those over q's,
    with that end renumbered in q's sorts."""
    n, parts = p.source.size, []
    for part, low in ((p, True), (q, False)):
        states = [rho for rho, i in enumerate(getattr(span, end).table) if (i < n) == low]
        carrier, legs = FinSet(len(states)), []
        for name in ("left", "right"):
            leg = getattr(span, name)
            cod, shift = (part.source, 0 if low else n) if name == end else (leg.cod, 0)
            legs.append(FinMap(carrier, cod, tuple([leg.table[rho] - shift for rho in states])))
        parts.append(Span(carrier, *legs))
    return parts


def test_count_sim_is_a_transformation_count_by_yoneda():
    # a cell over R is a transformation from au ∘ p1 to p2 ∘ au, au the
    # span's sum lift: counted through the composites and count_nat, which
    # share no code with count_sim's lifted payload counts
    counted = nonzero = 0
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(200):
            p1, p2 = randgen.random_endo(rng, 2, 2, 2), randgen.random_endo(rng, 2, 2, 2)
            span = randgen.random_span(rng, p1.source, p2.source, 2)
            au = poly.au_lift(span)
            count = sim.count_sim(p1, p2, span)
            assert count == nat.count_nat(poly.compose_direct(au, p1),
                                          poly.compose_direct(p2, au))
            counted += 1
            nonzero += count > 1
    assert counted == 600 and nonzero > 100


def test_fill_entries_are_the_extension_elements_at_the_lifted_family():
    # the fillings of a pair (state over j, shape v), in _pair_choice
    # order, are p2's extension elements over j at au(A_v), A_v v's
    # representing family, each payload entry read as the move that the
    # extraction probe decodes it to
    rng, compared = random.Random(11), 0
    for _ in range(400):
        # up to three shapes of three directions, so that shapes whose
        # directions have the same sorts in another order occur
        p1, p2 = randgen.random_endo(rng, 2, 3, 3), randgen.random_endo(rng, 2, 3, 3)
        # one state per (left sort, right sort) pair, in a drawn order, so
        # that every (shape v, right end j) has a pair and so an entry
        ends = list(itertools.product(p1.source, p2.source))
        rng.shuffle(ends)
        carrier = FinSet(len(ends))
        span = Span(carrier, FinMap(carrier, p1.source, tuple([i for i, _ in ends])),
                    FinMap(carrier, p2.source, tuple([j for _, j in ends])))
        au, (entries, which, fills) = poly.au_lift(span), sim._pair_fills(p1, p2, span)
        position = p1.dir_shape.positions()
        for (rho, v), k in zip(sim.cell_pairs(span, p1), which):
            y, order = nat.generic_family(p1, v)
            moves = [(g, position[order[t]]) for g, (t,) in poly.extension_elements(au, y)]
            elements = poly.extension_elements(p2, poly.eval_extension(au, y))
            j = span.right(rho)
            assert [sim._pair_choice(entries[k], i) for i in range(fills[k])] == [
                (w, tuple([moves[t] for t in payload])) for w, payload in elements
                if p2.shape_sort(w) == j]
            compared += fills[k] > 0
    assert compared > 400


def _constants_into_one_constant(n: int):
    # n constant shapes into 1 + (n-1)X over the one-state identity span:
    # every pair fills only at the constant, so there is one cell
    return ss(*[0] * n), ss(0, *[1] * (n - 1)), singleton_span()


def test_cells_of_many_shapes_count_and_list_in_linear_time():
    # counting per pair of shapes took 20.7 s at n = 4000 on a 2-vCPU host,
    # and listing and drawing per (shape, right end) 34 and 28 s
    for run in (lambda p1, p2, span: sim.count_sim(p1, p2, span) == 1,
                lambda p1, p2, span: len(sim.enumerate_sim(p1, p2, span)) == 1,
                lambda p1, p2, span: sim.random_cell(random.Random(0), p1, p2, span)._plan
                == ((*[(0, ())] * 20000,),)):
        p1, p2, span = _constants_into_one_constant(20000)
        start = time.perf_counter()
        assert run(p1, p2, span)
        assert time.perf_counter() - start < 0.5


def test_count_sim_factors_over_a_sum_of_diagrams():
    # a cell into p ⊕ q is a pair of cells, into p over the states whose
    # right end is a sort of p and into q over the others, as successors
    # stay on their side; out of the sum, split by left end
    rng = random.Random(2)
    counts = []
    for _ in range(400):
        r, p, q = (randgen.random_endo(rng, 2, 3, 2) for _ in range(3))
        pq = poly.plus(p, q)
        into = randgen.random_span(rng, r.source, pq.source, 4)
        span_p, span_q = split_span(into, "right", p, q)
        count = sim.count_sim(r, pq, into)
        assert count == sim.count_sim(r, p, span_p) * sim.count_sim(r, q, span_q)
        out = randgen.random_span(rng, pq.source, r.source, 4)
        span_p, span_q = split_span(out, "left", p, q)
        counts += [count, sim.count_sim(pq, r, out)]
        assert counts[-1] == sim.count_sim(p, r, span_p) * sim.count_sim(q, r, span_q)
    # the draw reaches zero, one and large counts on both sides
    assert counts.count(0) > 50 and counts.count(1) > 50 and max(counts) > 10**9


def test_count_sim_refuses_the_ends_enumerate_sim_refuses():
    # a left leg into a 2-element set for a one-sorted diagram, and a
    # right leg off p2's sorts
    p, two = ss(1), FinSet(2)
    for left, right in ((fmap(2, 2, (0, 1)), fmap(2, 1, (0, 0))),
                        (fmap(2, 1, (0, 0)), fmap(2, 2, (0, 1)))):
        span = Span(two, left, right)
        messages = []
        for call in (sim.count_sim, sim.enumerate_sim,
                     lambda *args: sim.random_cell(random.Random(0), *args)):
            with pytest.raises(ShapeMismatch) as exc:
                call(p, p, span)
            messages.append(str(exc.value))
        assert messages == ["span legs must land in the two sort sets"] * 3


def enumeration_instances(seed: int) -> list:
    """Seeded grid pairs over the constant spans of 0, 1 and 2 states,
    and every pair of the two-sorted samples over seeded spans of 0, 1
    and 2 states, each with at most 256 cells."""
    rng = random.Random(seed)
    grid, two = suites._grid(), FinSet(2)
    out = []
    for states in range(3):
        span = suites._const_span(states)
        out += [(p1, p2, span) for p1, p2 in (rng.choices(grid, k=2) for _ in range(30))]
        for p1, p2 in itertools.product(suites._two_sorted_samples(), repeat=2):
            for _ in range(4):
                carrier = FinSet(states)
                out.append((p1, p2, Span(carrier, randgen.random_finmap(rng, carrier, two),
                                         randgen.random_finmap(rng, carrier, two))))
    return [case for case in out if sim.count_sim(*case) <= 256]


def test_enumerated_cells_pass_the_full_validator():
    # enumeration checks each pair's options once and lays each cell out;
    # the validator that _cell runs accepts every cell and rebuilds it
    listed = 0
    for p1, p2, span in enumeration_instances(30):
        cells = sim.enumerate_sim(p1, p2, span)
        assert len(cells) == sim.count_sim(p1, p2, span)
        for c in cells:
            assert (c.span, c.src, c.dst) == (span, p1, p2)
            assert sim._cell(c.span, c.src, c.dst, c._plan) == c
        listed += len(cells)
    assert listed == 782


def test_enumeration_order_is_pinned():
    # the grid instance (1, 2) -> (0, 1) over the constant two-state span
    span = suites._const_span(2)
    cells = sim.enumerate_sim(ss(1, 2), ss(0, 1), span)
    assert len(cells) == 225
    assert cells[0]._plan == (((0, ()), (0, ())),) * 2
    assert cells[112]._plan == (((1, ((0, 0),)), (1, ((0, 1),))),) * 2
    assert cells[-1]._plan == (((1, ((1, 0),)), (1, ((1, 1),))),) * 2


def test_enumeration_lays_out_the_per_pair_product():
    # the cells in itertools.product order over the pairs' option lists,
    # each laid out by _layout, on seeded pairs of one and two sorts
    rng = random.Random(36)
    listed, mixed = {1: 0, 2: 0}, 0
    for _ in range(300):
        base = FinSet(rng.randint(1, 2))
        p1, p2 = (randgen.random_diagram(rng, base, base, 3, 2) for _ in range(2))
        span = randgen.random_span(rng, base, base, rng.randint(0, 3))
        if sim.count_sim(p1, p2, span) > 256:
            continue
        cells = sim.enumerate_sim(p1, p2, span)
        want = [sim._layout(span, p1, combo)
                for combo in itertools.product(*choices_oracle(p1, p2, span))]
        assert [c._plan for c in cells] == want
        assert all((c.span, c.src, c.dst) == (span, p1, p2) for c in cells)
        listed[base.size] += len(cells)
        mixed += sum(0 < len(row) < p1.shapes.size for c in cells for row in c._plan)
    # a two-sorted row holds entries for the shapes over its state's left
    # end only, so it is shorter than the shape count
    assert listed[1] > 2000 and listed[2] > 80 and mixed > 25, mixed


def test_enumeration_lays_out_no_row_when_a_pair_has_no_filling(monkeypatch):
    # state 0 (0 -> 0) pairs with the src shape over sort 0, and no dst
    # shape sits over sort 0; state 1 (1 -> 1) has 3 pairs of 3 fillings,
    # 27 rows over a limit of 5. Nothing is listed, and no row is built
    two = FinSet(2)
    p1 = poly.PolyDiagram(source=two, dirs=FinSet(6), shapes=FinSet(4), target=two,
                          dir_sort=fmap(6, 2, (1,) * 6),
                          dir_shape=fmap(6, 4, (1, 1, 2, 2, 3, 3)),
                          shape_sort=fmap(4, 2, (0, 1, 1, 1)))
    p2 = poly.PolyDiagram(source=two, dirs=FinSet(1), shapes=FinSet(2), target=two,
                          dir_sort=fmap(1, 2, (1,)), dir_shape=fmap(1, 2, (0,)),
                          shape_sort=fmap(2, 2, (1, 1)))
    ident = finset.identity(two)
    span = Span(two, ident, ident)
    fillings = [len(options) for options in choices_oracle(p1, p2, span)]
    assert fillings == [0, 3, 3, 3] and sim.count_sim(p1, p2, span) == 0

    def no_product(*lists):
        raise AssertionError("rows laid out")

    monkeypatch.setattr(sim, "itertools", type("itertools", (), {"product": no_product}))
    old = finset.set_guard_limit(5)
    try:
        assert sim.enumerate_sim(p1, p2, span) == []
    finally:
        finset.set_guard_limit(old)


def test_enumeration_with_an_empty_pair_lists_nothing_under_the_guard():
    # state 0 (0 -> 0) fills shape A (12 directions of sort 0) with C (3
    # directions of sort 0) in 12³ = 1728 ways; state 1 (1 -> 1) cannot
    # fill B (no directions) with D (one direction). No cell, so nothing
    # is guarded past the cell count, under a limit below 1728
    two = FinSet(2)
    p1 = poly.PolyDiagram(source=two, dirs=FinSet(12), shapes=FinSet(2), target=two,
                          dir_sort=fmap(12, 2, (0,) * 12), dir_shape=fmap(12, 2, (0,) * 12),
                          shape_sort=fmap(2, 2, (0, 1)))
    p2 = poly.PolyDiagram(source=two, dirs=FinSet(4), shapes=FinSet(2), target=two,
                          dir_sort=fmap(4, 2, (0,) * 4), dir_shape=fmap(4, 2, (0, 0, 0, 1)),
                          shape_sort=fmap(2, 2, (0, 1)))
    ident = finset.identity(two)
    span = Span(two, ident, ident)
    assert sim.count_sim(p1, p2, span) == 0
    assert sim.random_cell(random.Random(0), p1, p2, span) is None
    old = finset.set_guard_limit(1000)
    try:
        assert sim.enumerate_sim(p1, p2, span) == []
    finally:
        finset.set_guard_limit(old)
    assert sim.enumerate_sim(p1, p2, span) == []


@pytest.mark.parametrize("bad, message", [
    ((1, 0), "successor state's right end disagrees with the direction sort "
             "at (state 1, shape 1, direction 1)"),
    ((0, 1), "direction table value out of range at (1, 1, 1)"),
], ids=["successor-over-the-wrong-sort", "position-off-the-fiber"])
def test_enumerate_sim_refuses_a_bad_option(monkeypatch, bad, message):
    # over the identity span, the fill table gives the one direction at
    # the pair (state 1, shape 1) a second move: its good one is (0, 0)
    p = two_sorted_endo()
    ident = finset.identity(p.source)
    span = Span(p.source, ident, ident)
    assert [c._plan for c in sim.enumerate_sim(p, p, span)] == [
        (((0, ((1, 0),)),), ((1, ((0, 0),)),))]
    pair_fills = sim._pair_fills

    def with_a_bad_move(p1, p2, span):
        entries, which, fills = pair_fills(p1, p2, span)
        # the pair (state 1, shape 1) gets an entry of its own
        k = sim.cell_pairs(span, p1).index((1, 1))
        bad_entry = [(w, [[*moves, bad] for moves in lists]) for w, lists in entries[which[k]]]
        which = [*which[:k], len(entries), *which[k + 1:]]
        cap = finset.guard_limit() + 1
        return [*entries, bad_entry], which, [*fills, sim._fillings(bad_entry, cap)]

    monkeypatch.setattr(sim, "_pair_fills", with_a_bad_move)
    with pytest.raises(ValidationError) as exc:
        sim.enumerate_sim(p, p, span)
    assert str(exc.value) == message


def test_wide_spans_count_and_refuse_at_once():
    # 20·X² into itself over 50 states: 1000 pairs of 20 · 100² fillings
    p, carrier = ss(*[2] * 20), FinSet(50)
    leg = FinMap(carrier, FinSet(1), (0,) * 50)
    span = Span(carrier, leg, leg)
    start = time.perf_counter()
    assert sim.count_sim(p, p, span) == (20 * 100**2) ** 1000
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded,
                       match="cell search space has size more than 1000000, guard limit"):
        sim.enumerate_sim(p, p, span)
    assert time.perf_counter() - start < 0.5


def test_enumerate_sim_guard():
    # 6 pairs with 6 * 2^2 fillings each: 24^6 cells, counted exactly
    p = ss(*([2] * 6))
    span = singleton_span()
    assert sim.count_sim(p, p, span) == 24**6
    with pytest.raises(SizeGuardExceeded,
                       match="cell search space has size more than 1000000, guard limit"):
        sim.enumerate_sim(p, p, span)


def test_sim_guards_refuse_wide_cells_at_once():
    # 3^2000 fillings of the one pair of X^3 into X^2000, and 2000 pairs
    # of X into 2X with 2 fillings each
    span = singleton_span()
    for call, what in ((lambda: sim.random_cell(random.Random(0), ss(3), ss(2000), span),
                        "cell table options at one \\(state, shape\\) pair"),
                       (lambda: sim.enumerate_sim(ss(*[1] * 2000), ss(1, 1), span),
                        "cell search space")):
        start = time.perf_counter()
        with pytest.raises(SizeGuardExceeded,
                           match=f"{what} has size more than 1000000, guard limit"):
            call()
        assert time.perf_counter() - start < 0.5


def test_random_cell_draws_a_wide_pair_without_listing_it():
    # X³ into X¹² over one state: one pair with 3^12 = 531,441 fillings,
    # drawn by the index rng.choice would draw from their list
    p1, p2, span = ss(3), ss(12), singleton_span()
    rng, twin = random.Random(7), random.Random(7)
    start = time.perf_counter()
    c = sim.random_cell(rng, p1, p2, span)
    assert time.perf_counter() - start < 0.5
    i = twin.randrange(3**12)
    assert rng.getstate() == twin.getstate()
    # the index in itertools.product order: the last direction fastest
    digits = [(i // 3**(11 - n)) % 3 for n in range(12)]
    assert c._plan == (((0, tuple([(0, k) for k in digits])),),)


def test_random_cell_draws_each_pair_in_logarithmic_time():
    # 4,000 copies of X into themselves over one state: 4,000 pairs, each
    # with one block of one filling per target shape. Walking the blocks
    # per pair took 1.6 s on a 2-vCPU host, and count_sim takes 10 ms
    p = ss(*[1] * 4000)
    rng, twin = random.Random(0), random.Random(0)
    start = time.perf_counter()
    c = sim.random_cell(rng, p, p, singleton_span())
    assert time.perf_counter() - start < 0.5
    draws = [twin.randrange(4000) for _ in range(4000)]
    assert rng.getstate() == twin.getstate()
    assert c._plan == (tuple((w, ((0, 0),)) for w in draws),)


def _constant_cell(states: int) -> sim.SimCell:
    # the cell on the constant 1 whose states all sit over the one sort
    p, carrier = ss(0), FinSet(states)
    leg = FinMap(carrier, FinSet(1), (0,) * states)
    return sim.SimCell(Span(carrier, leg, leg), p, p, {(rho, 0): 0 for rho in carrier}, {}, {})


def test_compose_sim_guards_the_pullback_span():
    # two 2000-state cells over one sort: 4 * 10^6 composite states
    c = _constant_cell(2000)
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded,
                       match="composite span carrier has size more than 1000000, guard limit"):
        sim.compose_sim(c, c)
    assert time.perf_counter() - start < 0.5
    c3, c4 = _constant_cell(3), _constant_cell(4)
    old = finset.set_guard_limit(11)
    try:
        with pytest.raises(SizeGuardExceeded, match="composite span carrier has size more than 11"):
            sim.compose_sim(c4, c3)
        finset.set_guard_limit(12)
        assert sim.compose_sim(c4, c3).span.carrier.size == 12
    finally:
        finset.set_guard_limit(old)


# -- equivalence --------------------------------------------------------------


def transported(c: sim.SimCell, c2: sim.SimCell, eps) -> bool:
    """Whether the state bijection eps commutes with both legs and the
    three tables of c agree with those of c2 under it, entry by entry."""
    r, r2 = c.span, c2.span
    return (sorted(eps) == list(r2.carrier)
            and all(r2.left(eps[rho]) == r.left(rho) and r2.right(eps[rho]) == r.right(rho)
                    for rho in r.carrier)
            and all(c2.alpha[eps[rho], v] == w for (rho, v), w in c.alpha.items())
            and all(c2.beta[eps[rho], v, u] == b
                    and c2.gamma[eps[rho], v, u] == eps[c.gamma[rho, v, u]]
                    for (rho, v, u), b in c.beta.items()))


def backtrack_equivalence(c: sim.SimCell, c2: sim.SimCell) -> tuple | None:
    """The reference search: every bijection of span states that commutes
    with both legs, in order, tested on the three tables; the first that
    passes, or None."""
    classes: dict = {}
    for side, r in enumerate((c.span, c2.span)):
        for rho in r.carrier:
            classes.setdefault((r.left(rho), r.right(rho)), ([], []))[side].append(rho)
    if any(len(a) != len(b) for a, b in classes.values()):
        return None
    for images in itertools.product(*(itertools.permutations(b) for _, b in classes.values())):
        eps = [0] * c.span.carrier.size
        for (a, _), image in zip(classes.values(), images):
            for rho, sigma in zip(a, image):
                eps[rho] = sigma
        if transported(c, c2, eps):
            return tuple(eps)
    return None


def equivalence(c: sim.SimCell, c2: sim.SimCell) -> FinMap | None:
    """sim.equivalence_check, with its witness checked on the tables and
    its verdict checked against the reference search on spans of at most
    8 states."""
    eps = sim.equivalence_check(c, c2)
    assert eps is None or transported(c, c2, eps.table)
    if c.span.carrier.size <= 8:
        assert (eps is None) == (backtrack_equivalence(c, c2) is None)
    return eps


def test_equivalence_self_is_identity():
    c = prefix_cell()
    eps = equivalence(c, c)
    assert eps is not None and eps.table == (0,)


def test_equivalence_finds_permutation():
    rng = random.Random(17)
    found = 0
    while found < 10:
        p1 = randgen.random_endo(rng, 2, 2, 2)
        p2 = randgen.random_endo(rng, 2, 2, 2)
        c = randgen.random_sim_cell(rng, p1, p2, max_states=3)
        if c is None or c.span.carrier.size < 2:
            continue
        perm = list(c.span.carrier)
        rng.shuffle(perm)
        relabeled = permute_states(c, tuple(perm))
        eps = equivalence(c, relabeled)
        # some witness exists; the intended permutation always works, but
        # a cell with symmetric states may admit others
        assert eps is not None
        assert sorted(eps.table) == list(c.span.carrier)
        found += 1


def test_equivalence_distinguishes_cells():
    assert equivalence(prefix_cell(), sim.identity_sim(list_diagram())) is None


def test_equivalence_span_size_mismatch_none():
    p = ss(1)
    one = sim.identity_sim(p)
    carrier = FinSet(2)
    span = Span(carrier, fmap(2, 1, (0, 0)), fmap(2, 1, (0, 0)))
    both = sim.enumerate_sim(p, p, span)
    assert all(equivalence(one, c) is None for c in both)


def cycle_cell(lengths) -> sim.SimCell:
    """A cell of X into X whose states form cycles of the given lengths,
    each state's one direction leading to the next state of its cycle."""
    p, carrier = ss(1), FinSet(sum(lengths))
    leg = FinMap(carrier, FinSet(1), (0,) * carrier.size)
    gamma, start = {}, 0
    for n in lengths:
        for k in range(n):
            gamma[start + k, 0, 0] = start + (k + 1) % n
        start += n
    return sim.SimCell(Span(carrier, leg, leg), p, p, {(rho, 0): 0 for rho in carrier},
                       {(rho, 0, 0): 0 for rho in carrier}, gamma)


def test_equivalence_guard():
    # a 6-cycle against two 3-cycles: the same legs and rows but for the
    # successors. Each of the 6 images of state 0 forces the whole cycle
    # and meets a conflict, so the search makes 6 branch choices
    c, d = cycle_cell((6,)), cycle_cell((3, 3))
    assert equivalence(c, d) is None
    old = finset.set_guard_limit(5)
    try:
        with pytest.raises(SizeGuardExceeded,
                           match="span isomorphism search has size more than 5, guard limit is 5"):
            sim.equivalence_check(c, d)
        finset.set_guard_limit(6)
        assert sim.equivalence_check(c, d) is None
    finally:
        finset.set_guard_limit(old)


def test_equivalence_of_large_spans_needs_no_guard():
    # a cell on cycles of 4, 3, 2 and 1 states and a sum of seeded cells
    # with 10 or more states, each against a relabeling: a search over
    # the 10! = 3628800 state bijections refused both
    c = cycle_cell((4, 3, 2, 1))
    rng = random.Random(59)
    perm = list(c.span.carrier)
    rng.shuffle(perm)
    start = time.perf_counter()
    relabeled = permute_states(c, tuple(perm))
    assert relabeled != c
    eps = sim.equivalence_check(c, relabeled)
    assert eps is not None and transported(c, relabeled, eps.table)
    (c1, c2, c3, _, _), = two_sorted_cells(61, 1)
    big = functools.reduce(sim.sum_sim, (c1, c2, c3) * 4)
    assert big.span.carrier.size >= 12
    perm = list(big.span.carrier)
    rng.shuffle(perm)
    relabeled = permute_states(big, tuple(perm))
    assert relabeled != big
    eps = sim.equivalence_check(big, relabeled)
    assert eps is not None and transported(big, relabeled, eps.table)
    assert sim.equivalence_check(relabeled, big) is not None
    assert time.perf_counter() - start < 0.5


def rewired(c: sim.SimCell, rng) -> sim.SimCell | None:
    """c with one successor moved to another state with the same legs, or
    None when no state has a twin."""
    r = c.span
    options = [(key, h) for key, g in c.gamma.items() for h in r.carrier
               if h != g and (r.left(h), r.right(h)) == (r.left(g), r.right(g))]
    if not options:
        return None
    key, h = rng.choice(options)
    gamma = dict(c.gamma)
    gamma[key] = h
    return sim.SimCell(r, c.src, c.dst, c.alpha, c.beta, gamma)


def test_equivalence_refuses_rewired_cells_with_matching_legs_and_shapes():
    rng = random.Random(71)
    refused = 0
    while refused < 20:
        p1 = randgen.random_endo(rng, 2, 2, 2)
        p2 = randgen.random_endo(rng, 2, 2, 2)
        c = randgen.random_sim_cell(rng, p1, p2, max_states=3)
        d = rewired(c, rng) if c is not None else None
        if d is None or backtrack_equivalence(c, d) is not None:
            continue
        # the legs, shapes and positions agree state by state: only the
        # propagation of successors can tell the two apart
        assert sorted(sim._signatures(c)) == sorted(sim._signatures(d))
        assert equivalence(c, d) is None
        refused += 1


def test_equivalence_requires_same_endpoints():
    with pytest.raises(ShapeMismatch):
        sim.equivalence_check(sim.identity_sim(ss(1)), sim.identity_sim(ss(2)))


# -- biproduct structure ------------------------------------------------------


def test_plus_cells_validate():
    ps = sim.plus_structure(ss(2, 0), ss(1))
    for c in (ps.inl, ps.inr, ps.proj1, ps.proj2):
        assert sim.validate(c).ok


def test_plus_cells_validate_multi_sorted():
    ps = sim.plus_structure(two_sorted_endo(), ss(1, 1))
    for c in (ps.inl, ps.inr, ps.proj1, ps.proj2):
        assert sim.validate(c).ok


def test_projection_injection_identities():
    p1, p2 = ss(2, 0), ss(1)
    ps = sim.plus_structure(p1, p2)
    assert equivalence(sim.compose_sim(ps.proj1, ps.inl), sim.identity_sim(p1)) is not None
    assert equivalence(sim.compose_sim(ps.proj2, ps.inr), sim.identity_sim(p2)) is not None
    assert equivalence(sim.compose_sim(ps.proj2, ps.inl), sim.zero_sim(p1, p2)) is not None
    assert equivalence(sim.compose_sim(ps.proj1, ps.inr), sim.zero_sim(p2, p1)) is not None


def test_pairing_recovers_components():
    rng = random.Random(23)
    p1, p2 = ss(2, 0), ss(1, 1)
    ps = sim.plus_structure(p1, p2)
    done = 0
    while done < 10:
        q = randgen.random_endo(rng, 1, 2, 2)
        c1 = randgen.random_sim_cell(rng, q, p1)
        c2 = randgen.random_sim_cell(rng, q, p2)
        if c1 is None or c2 is None:
            continue
        paired = ps.pair(c1, c2)
        assert sim.validate(paired).ok
        assert equivalence(sim.compose_sim(ps.proj1, paired), c1) is not None
        assert equivalence(sim.compose_sim(ps.proj2, paired), c2) is not None
        done += 1


def test_copair_recovers_original():
    rng = random.Random(29)
    p1, p2 = ss(2, 0), ss(1, 1)
    ps = sim.plus_structure(p1, p2)
    done = 0
    while done < 10:
        q = randgen.random_endo(rng, 1, 2, 2)
        c = randgen.random_sim_cell(rng, ps.sum, q, max_states=3)
        if c is None:
            continue
        c1, c2 = ps.decompose(c)
        assert sim.validate(c1).ok and sim.validate(c2).ok
        assert equivalence(ps.copair(c1, c2), c) is not None
        done += 1


def test_copair_via_injection_composites():
    rng = random.Random(31)
    p1, p2 = ss(1), ss(0, 2)
    ps = sim.plus_structure(p1, p2)
    done = 0
    while done < 10:
        q = randgen.random_endo(rng, 1, 2, 2)
        c = randgen.random_sim_cell(rng, ps.sum, q, max_states=3)
        if c is None:
            continue
        again = ps.copair(sim.compose_sim(c, ps.inl), sim.compose_sim(c, ps.inr))
        assert equivalence(again, c) is not None
        done += 1


def test_coproduct_uniqueness_bounded():
    p1, p2, q = ss(1), ss(0), ss(1, 0)
    ps = sim.plus_structure(p1, p2)
    two = ps.sum.source
    assert two.size == 2
    checked = 0
    for n in range(4):
        carrier = FinSet(n)
        for left in itertools.product(range(2), repeat=n):
            span = Span(carrier, FinMap(carrier, two, left),
                        FinMap(carrier, q.source, (0,) * n))
            for h in sim.enumerate_sim(ps.sum, q, span):
                rebuilt = ps.copair(sim.compose_sim(h, ps.inl),
                                    sim.compose_sim(h, ps.inr))
                assert equivalence(rebuilt, h) is not None
                checked += 1
    assert checked > 50


def test_zero_is_biproduct_unit():
    p = ss(2)
    zero = poly.zero_diagram()
    c = sim.zero_sim(p, zero)
    assert sim.validate(c).ok
    # the only simulation into the empty diagram has an empty span
    with pytest.raises(ShapeMismatch):
        sim.SimCell(singleton_span(), p, zero, {(0, 0): 0}, {}, {})


def test_pair_copair_endpoint_checks():
    p1, p2 = ss(1), ss(2)
    ps = sim.plus_structure(p1, p2)
    with pytest.raises(ShapeMismatch, match="pairing needs cells out of a common"):
        ps.pair(sim.identity_sim(p1), sim.identity_sim(p2))
    with pytest.raises(ShapeMismatch, match="copairing needs cells into a common"):
        ps.copair(sim.identity_sim(p1), sim.identity_sim(p2))
    with pytest.raises(ShapeMismatch, match="decomposition needs a cell out of the sum"):
        ps.decompose(sim.identity_sim(p1))
    with pytest.raises(ShapeMismatch, match="summing needs cells between the same"):
        sim.sum_sim(sim.identity_sim(p1), sim.identity_sim(p2))


def two_sorted_cells(seed: int, count: int):
    """Seeded random endo diagrams p, q, r on two sorts with three cells
    p -> q and two cells q -> r, all over nonempty spans; as many
    instances as asked for."""
    rng = random.Random(seed)
    two = FinSet(2)

    def cell(p, q):
        for _ in range(10):
            c = randgen.random_sim_cell(rng, p, q)
            if c is not None and c.span.carrier.size:
                return c
        return None

    out = []
    while len(out) < count:
        p, q, r = (randgen.random_diagram(rng, two, two, 3, 2) for _ in range(3))
        cells = [cell(p, q) for _ in range(3)] + [cell(q, r) for _ in range(2)]
        if all(c is not None for c in cells):
            out.append(cells)
    return out


def equivalent(c: sim.SimCell, c2: sim.SimCell) -> bool:
    return equivalence(c, c2) is not None


def test_zero_is_the_unit_of_the_sum_of_cells():
    for c1, *_ in two_sorted_cells(41, 100):
        zero = sim.zero_sim(c1.src, c1.dst)
        assert equivalent(sim.sum_sim(zero, c1), c1)
        assert equivalent(sim.sum_sim(c1, zero), c1)


def test_sum_of_cells_is_commutative_and_associative():
    for c1, c2, c3, _, _ in two_sorted_cells(43, 100):
        assert equivalent(sim.sum_sim(c1, c2), sim.sum_sim(c2, c1))
        assert equivalent(sim.sum_sim(sim.sum_sim(c1, c2), c3),
                          sim.sum_sim(c1, sim.sum_sim(c2, c3)))


def test_composition_distributes_over_the_sum_of_cells():
    compose = sim.compose_sim
    for c1, c2, _, d1, d2 in two_sorted_cells(47, 100):
        assert equivalent(compose(d1, sim.sum_sim(c1, c2)),
                          sim.sum_sim(compose(d1, c1), compose(d1, c2)))
        assert equivalent(compose(sim.sum_sim(d1, d2), c1),
                          sim.sum_sim(compose(d1, c1), compose(d2, c1)))


# -- the tensor of cells and its symmetry --------------------------------------


def endo(rng: random.Random) -> poly.PolyDiagram:
    return randgen.random_endo(rng, 2, 2, 2)


def test_the_tensor_of_identities_is_the_identity():
    rng = random.Random(0)
    for _ in range(200):
        p, q = endo(rng), endo(rng)
        assert sim.tensor_sim(sim.identity_sim(p), sim.identity_sim(q)) == \
            sim.identity_sim(poly.tensor(p, q))


def test_the_tensor_with_the_zero_cell_is_zero():
    rng = random.Random(0)
    cases = skipped = 0
    for _ in range(200):
        p1, q1, p2, q2 = (endo(rng) for _ in range(4))
        c, zero = randgen.random_sim_cell(rng, p1, q1), sim.zero_sim(p2, q2)
        if c is None:
            skipped += 1
            continue
        tens = poly.tensor
        assert sim.tensor_sim(c, zero) == sim.zero_sim(tens(p1, p2), tens(q1, q2))
        assert sim.tensor_sim(zero, c) == sim.zero_sim(tens(p2, p1), tens(q2, q1))
        cases += 1
    assert (cases, skipped) == (162, 38)


def test_the_tensor_of_cells_is_strict():
    # the unit and the associator are identity cells, on the nose
    rng = random.Random(12)
    unit = sim.identity_sim(poly.tensor_unit())
    tensor = sim.tensor_sim
    units = associations = skipped = 0
    for _ in range(200):
        ps = [endo(rng) for _ in range(6)]
        a, b, c = (randgen.random_sim_cell(rng, ps[k], ps[k + 1]) for k in (0, 2, 4))
        if a is not None:
            assert tensor(a, unit) == a == tensor(unit, a)
            units += 1
        if None in (a, b, c):
            skipped += 1
            continue
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
        associations += 1
    assert (units, associations, skipped) == (167, 119, 81)


def test_the_tensor_of_cells_is_functorial():
    rng = random.Random(0)
    compose, tensor = sim.compose_sim, sim.tensor_sim
    cases = skipped = 0
    for _ in range(200):
        p1, q1, r1, p2, q2, r2 = (endo(rng) for _ in range(6))
        c1, d1, c2, d2 = (randgen.random_sim_cell(rng, a, b)
                          for a, b in ((p1, q1), (q1, r1), (p2, q2), (q2, r2)))
        if None in (c1, d1, c2, d2):
            skipped += 1
            continue
        assert equivalent(tensor(compose(d1, c1), compose(d2, c2)),
                       compose(tensor(d1, d2), tensor(c1, c2)))
        cases += 1
    assert (cases, skipped) == (76, 124)


def test_the_tensor_of_cells_is_bilinear():
    rng = random.Random(0)
    add, tensor = sim.sum_sim, sim.tensor_sim
    cases = skipped = 0
    for _ in range(200):
        p1, q1, p2, q2 = (endo(rng) for _ in range(4))
        c, d1, d2 = (randgen.random_sim_cell(rng, a, b)
                     for a, b in ((p1, q1), (p2, q2), (p2, q2)))
        if None in (c, d1, d2):
            skipped += 1
            continue
        assert equivalent(tensor(c, add(d1, d2)), add(tensor(c, d1), tensor(c, d2)))
        assert equivalent(tensor(add(d1, d2), c), add(tensor(d1, c), tensor(d2, c)))
        cases += 1
    assert (cases, skipped) == (129, 71)


def test_the_symmetry_is_an_involution_and_satisfies_the_hexagon():
    rng = random.Random(11)
    compose, tensor, sigma = sim.compose_sim, sim.tensor_sim, sim.symmetry_sim
    on_the_nose = 0
    for _ in range(200):
        p, q, r = (endo(rng) for _ in range(3))
        twice, ident = compose(sigma(q, p), sigma(p, q)), sim.identity_sim(poly.tensor(p, q))
        assert equivalent(twice, ident)
        on_the_nose += twice == ident
        assert equivalent(sigma(p, poly.tensor(q, r)),
                       compose(tensor(sim.identity_sim(q), sigma(p, r)),
                               tensor(sigma(p, q), sim.identity_sim(r))))
    assert on_the_nose == 200


def test_the_symmetry_is_natural():
    rng = random.Random(11)
    compose, tensor, sigma = sim.compose_sim, sim.tensor_sim, sim.symmetry_sim
    cases = skipped = 0
    for _ in range(200):
        p1, q1, p2, q2 = (endo(rng) for _ in range(4))
        c1, c2 = randgen.random_sim_cell(rng, p1, q1), randgen.random_sim_cell(rng, p2, q2)
        if c1 is None or c2 is None:
            skipped += 1
            continue
        assert equivalent(compose(sigma(q1, q2), tensor(c1, c2)),
                       compose(tensor(c2, c1), sigma(p1, p2)))
        cases += 1
    assert (cases, skipped) == (128, 72)


def lifted_box(s1: Span, s2: Span, s12: Span, a: fam.Family, b: fam.Family) -> FamMorphism:
    """The isomorphism from box(AU1 a, AU2 b) to AU12(box(a, b)), with AU
    the sum lift of a span and s12 the product of s1 and s2, written out
    on the states as tensor_sim pairs them: the pair of (r1, t1) and
    (r2, t2) goes to (r1 * |s2| + r2, t1 * |b| + t2)."""
    au1, au2, au12 = (poly.au_lift(s) for s in (s1, s2, s12))
    n2, size_b, ab = s2.carrier.size, b.total.size, fam.box(a, b)
    index = poly.extension_index(au12, ab)
    elems2 = poly.extension_elements(au2, b)
    table = tuple([index[(r1 * n2 + r2, (t1 * size_b + t2,))]
                   for r1, (t1,) in poly.extension_elements(au1, a)
                   for r2, (t2,) in elems2])
    dom = fam.box(poly.eval_extension(au1, a), poly.eval_extension(au2, b))
    cod = poly.eval_extension(au12, ab)
    return FamMorphism(dom, cod, FinMap(dom.total, cod.total, table))


def test_the_sum_lift_of_the_tensor_span_is_the_tensor_of_the_lifts():
    # so the comparison map at the two lifts pairs the states as the
    # tensor's span does, and the sim-tensor suite reads it off smcc
    rng = random.Random(39)
    empty = two_sorted = 0
    for _ in range(200):
        p1, q1, p2, q2 = (endo(rng) for _ in range(4))
        c1, c2 = (randgen.random_sim_cell(rng, p, q, max_states=rng.choice((0, 3, 3, 3)))
                  for p, q in ((p1, q1), (p2, q2)))
        if c1 is None or c2 is None:
            continue
        c12 = sim.tensor_sim(c1, c2)
        au1, au2 = poly.au_lift(c1.span), poly.au_lift(c2.span)
        assert poly.tensor(au1, au2) == poly.au_lift(c12.span)
        a = randgen.random_family(rng, p1.source, max_fiber=2)
        b = randgen.random_family(rng, p2.source, max_fiber=2)
        assert smcc.epsilon(au1, au2, a, b) == lifted_box(c1.span, c2.span, c12.span, a, b)
        empty += not c12.span.carrier.size
        two_sorted += c12.src.source.size > 1 and c12.span.carrier.size > 0
    assert empty > 20 and two_sorted > 40, (empty, two_sorted)


def test_tensor_sim_guards_the_product_span():
    # two 2000-state cells: 4 * 10^6 product states
    c = _constant_cell(2000)
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded,
                       match="tensor span carrier has size 4000000, guard limit"):
        sim.tensor_sim(c, c)
    assert time.perf_counter() - start < 0.5
    c3, c4 = _constant_cell(3), _constant_cell(4)
    old = finset.set_guard_limit(10)
    try:
        with pytest.raises(SizeGuardExceeded, match="tensor span carrier has size 12,"):
            sim.tensor_sim(c3, c4)
        finset.set_guard_limit(12)
        assert sim.tensor_sim(c3, c4).span.carrier.size == 12
    finally:
        finset.set_guard_limit(old)


def test_symmetry_sim_refuses_a_diagram_that_is_not_endo(monkeypatch):
    p = randgen.random_diagram(random.Random(2), FinSet(1), FinSet(2))
    calls = []
    tensor = poly.tensor
    monkeypatch.setattr(poly, "tensor", lambda *ps: calls.append("tensor") or tensor(*ps))
    with pytest.raises(ValidationError, match="^simulations relate endo diagrams$"):
        sim.symmetry_sim(p, ss(1))
    # refused before either tensor is built
    assert calls == []


# -- the validity/naturality equivalence --------------------------------------


def test_valid_cells_are_natural():
    rng = random.Random(37)
    done = 0
    while done < 8:
        p1 = randgen.random_endo(rng, 2, 2, 2)
        p2 = randgen.random_endo(rng, 2, 2, 2)
        c = randgen.random_sim_cell(rng, p1, p2)
        if c is None:
            continue
        assert sim.validate(c).ok
        assert sim.sim_naturality_check(c, 2).ok
        done += 1
