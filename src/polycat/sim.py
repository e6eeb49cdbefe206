"""Simulations between endo diagrams: spans of state indices with cell
tables, their validation, evaluation to components, composition,
extraction, equivalence, the span-lift adjunction, and the biproduct
structure on sums of diagrams.

A simulation from an endo diagram src (on sorts I1) to an endo diagram
dst (on sorts I2) is a span of finite sets R between I1 and I2 together
with three tables:

  alpha[rho, v]     a dst shape for every state rho and src shape v whose
                    sort matches the state's left end;
  beta[rho, v, u]   a src direction of v for every direction u of the
                    assigned shape (the backward direction choice);
  gamma[rho, v, u]  a successor state for the same entries.

Four equations tie the tables together: the assigned shape sits over
the state's right end; beta stays in v's direction fiber; beta's sort is
the successor's left end; the successor's right end is u's sort. A
SimCell checks them once, when it is built, and its tables are
read-only, so every cell is valid. Evaluation turns a cell into a
natural family of morphisms relating the two extensions across the
span's sum lift.

Parallel cells add: sum_sim takes the coproduct of their spans, and
zero_sim, the empty span, is its unit. On a sum of diagrams only the
injections and projections are built by hand; pairing, copairing and
decomposition are composites with them, added by sum_sim.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import fam, finset, nat, poly
from .errors import OracleNotNatural, ShapeMismatch, ValidationError
from .fam import FamMorphism, Family, Span
from .finset import FinMap, FinSet, check_guard
from .poly import PolyDiagram, au_lift, du_lift
from .report import Report

__all__ = [
    "Span",
    "SimCell",
    "require_endo",
    "cell_pairs",
    "entry_options",
    "validate",
    "identity_sim",
    "zero_sim",
    "sum_sim",
    "compose_sim",
    "eval_sim",
    "sim_naturality_check",
    "extract_sim",
    "enumerate_sim",
    "equivalence_check",
    "au_du_adjunction_check",
    "span_family",
    "PlusStructure",
    "plus_structure",
]


def require_endo(*diagrams: PolyDiagram) -> None:
    """Raise ValidationError unless every diagram is endo: simulations
    relate endo diagrams only."""
    if not all(p.is_endo() for p in diagrams):
        raise ValidationError("simulations relate endo diagrams")


def cell_pairs(span: Span, src: PolyDiagram) -> list[tuple[int, int]]:
    """The index set of the shape table: states paired with the src
    shapes whose sort is the state's left end."""
    return [
        (rho, v)
        for rho in span.carrier
        for v in src.shapes
        if src.shape_sort(v) == span.left(rho)
    ]


@dataclass(frozen=True)
class SimCell:
    """A valid simulation cell, frozen. Construction checks shapes, ranges
    and the four equations in one pass over the pairs and one over the
    triples, raising ValidationError at the first violation: key sets and
    ranges first, then each pair's shape sort, then the direction
    equations triple by triple. It keeps read-only copies of the tables
    and, from the same pass, the plan eval_sim reads, _plan[rho][v]: the
    assigned shape w and, per direction u of w, the successor
    gamma[rho, v, u] and the position of beta[rho, v, u] in v's direction
    fiber (None off the pairs)."""

    span: Span
    src: PolyDiagram
    dst: PolyDiagram
    alpha: Mapping
    beta: Mapping
    gamma: Mapping
    pairs: list = field(init=False, compare=False)
    triples: list = field(init=False, compare=False)
    _plan: tuple = field(init=False, compare=False)

    def __post_init__(self) -> None:
        span, src, dst = self.span, self.src, self.dst
        require_endo(src, dst)
        if span.left.cod != src.source or span.right.cod != dst.source:
            raise ShapeMismatch("span legs must land in the two sort sets")
        left, right = span.left.table, span.right.table
        pairs = cell_pairs(span, src)
        if set(self.alpha) != set(pairs):
            raise ValidationError("shape table must be indexed by exactly the (state, shape) pairs")
        alpha = dict(self.alpha)
        # the first equation fault is kept, not raised, until every range
        # is checked
        fault = None
        triples = []
        for rho, v in pairs:
            w = alpha[rho, v]
            if w not in dst.shapes:
                raise ValidationError(f"shape table value out of range at {(rho, v)}")
            if fault is None and dst.shape_sort.table[w] != right[rho]:
                fault = (f"assigned shape sits over the wrong sort at (state {rho}, shape {v}):"
                         f" got {dst.shape_sort.table[w]}, the state's right end is {right[rho]}")
            triples.extend((rho, v, u) for u in dst.shape_fiber(w))
        keys = set(triples)
        if set(self.beta) != keys or set(self.gamma) != keys:
            raise ValidationError(
                "direction and state tables must be indexed by exactly the "
                "(state, shape, direction) triples"
            )
        beta, gamma = dict(self.beta), dict(self.gamma)
        src_fibers = src.dir_shape.fibers()
        rows = [[None] * src.shapes.size for _ in span.carrier]
        for rho, v in pairs:
            w = alpha[rho, v]
            position = {b: k for k, b in enumerate(src_fibers[v])}
            moves = []
            for u in dst.shape_fiber(w):
                key = (rho, v, u)
                b, g = beta[key], gamma[key]
                if b not in src.dirs:
                    raise ValidationError(f"direction table value out of range at {key}")
                if g not in span.carrier:
                    raise ValidationError(f"state table value out of range at {key}")
                k = position.get(b)
                if fault is None:
                    if k is None:
                        fault = ("backward direction leaves the shape's fiber at "
                                 f"(state {rho}, shape {v}, direction {u})")
                    elif right[g] != dst.dir_sort.table[u]:
                        fault = ("successor state's right end disagrees with the direction "
                                 f"sort at (state {rho}, shape {v}, direction {u})")
                    elif src.dir_sort.table[b] != left[g]:
                        fault = ("backward direction's sort disagrees with the successor "
                                 f"state's left end at (state {rho}, shape {v}, direction {u})")
                moves.append((g, k))
            rows[rho][v] = (w, tuple(moves))
        if fault is not None:
            raise ValidationError(fault)
        for name, table in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            object.__setattr__(self, name, MappingProxyType(table))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "_plan", tuple(map(tuple, rows)))

    def __repr__(self) -> str:
        return (f"SimCell(states={self.span.carrier.size}, "
                f"pairs={len(self.pairs)}, triples={len(self.triples)})")


def validate(c: SimCell) -> Report:
    """The report of the four cell equations. The constructor checks them
    on every entry and raises ValidationError at the first violation,
    with its coordinates, so every built cell satisfies them: the report
    is always ok and only counts the entries, walking no table."""
    return Report("simulation cell equations", True,
                  (f"{len(c.pairs)} shape entries and {len(c.triples)} "
                   f"direction entries satisfy all four equations",))


def identity_sim(p: PolyDiagram) -> SimCell:
    """The identity simulation: the diagonal span, every table a copy."""
    require_endo(p)
    ident = finset.identity(p.source)
    span = Span(p.source, ident, ident)
    alpha = {(i, v): v for i, v in cell_pairs(span, p)}
    beta = {}
    gamma = {}
    for (i, v), w in alpha.items():
        for u in p.shape_fiber(w):
            beta[i, v, u] = u
            gamma[i, v, u] = p.dir_sort(u)
    return SimCell(span, p, p, alpha, beta, gamma)


def zero_sim(src: PolyDiagram, dst: PolyDiagram) -> SimCell:
    """The empty-span simulation, the zero morphism."""
    empty = FinSet(0)
    span = Span(empty, FinMap(empty, src.source, ()), FinMap(empty, dst.source, ()))
    return SimCell(span, src, dst, {}, {}, {})


def sum_sim(c1: SimCell, c2: SimCell) -> SimCell:
    """The sum of two parallel cells: the coproduct of their spans, each
    state keeping its own table entries, c2's states (and its successor
    states) shifted past c1's. zero_sim is its unit."""
    if c1.src != c2.src or c1.dst != c2.dst:
        raise ShapeMismatch("summing needs cells between the same diagrams")
    cop = finset.coproduct(c1.span.carrier, c2.span.carrier)
    span = Span(cop.carrier, finset.copair(c1.span.left, c2.span.left, cop),
                finset.copair(c1.span.right, c2.span.right, cop))
    n = c1.span.carrier.size
    alpha = dict(c1.alpha)
    alpha.update({(rho + n, v): w for (rho, v), w in c2.alpha.items()})
    beta = dict(c1.beta)
    beta.update({(rho + n, v, u): b for (rho, v, u), b in c2.beta.items()})
    gamma = dict(c1.gamma)
    gamma.update({(rho + n, v, u): g + n for (rho, v, u), g in c2.gamma.items()})
    return SimCell(span, c1.src, c1.dst, alpha, beta, gamma)


def compose_sim(c2: SimCell, c1: SimCell) -> SimCell:
    """Composite simulation over the pullback span: run c1, feed its
    assigned shape to c2, pull directions back through both. The span's
    states, the pairs of states over a common middle sort, are guarded by
    their count, a sum over the middle sorts cut at the limit plus one,
    before the pullback is built."""
    if c1.dst != c2.src:
        raise ShapeMismatch("cannot compose: middle diagrams differ")
    finset.check_guard_sum((len(f1) * len(f2) for f1, f2 in zip(
        c1.span.right.fibers(), c2.span.left.fibers())), "composite span carrier")
    pb = finset.pullback(c1.span.right, c2.span.left)
    span = Span(pb.carrier, pb.left.then(c1.span.left), pb.right.then(c2.span.right))
    alpha: dict = {}
    beta: dict = {}
    gamma: dict = {}
    pair_index = {pair: t for t, pair in enumerate(pb.pairs)}
    for tau, (rho, sigma) in enumerate(pb.pairs):
        for v in c1.src.shapes:
            if c1.src.shape_sort(v) != span.left(tau):
                continue
            mid = c1.alpha[rho, v]
            w = c2.alpha[sigma, mid]
            alpha[tau, v] = w
            for u in c2.dst.shape_fiber(w):
                b2 = c2.beta[sigma, mid, u]
                g2 = c2.gamma[sigma, mid, u]
                beta[tau, v, u] = c1.beta[rho, v, b2]
                gamma[tau, v, u] = pair_index[(c1.gamma[rho, v, b2], g2)]
    return SimCell(span, c1.src, c2.dst, alpha, beta, gamma)


def eval_sim(c: SimCell, x: Family) -> FamMorphism:
    """The cell's component at x: a morphism from the sum lift of the src
    value to the dst value of the sum lift.

    The cell's tables are read through the evaluation plan that its
    constructor laid out (SimCell): per (state, shape) pair, the assigned
    shape and the (successor, position) pair of each of its directions."""
    if x.base != c.src.source:
        raise ShapeMismatch("family must live over the source sorts")
    au = au_lift(c.span)
    inner = poly._extension(c.src, x)
    dom = poly._extension(au, inner.family)
    aux = poly._extension(au, x)
    cod = poly._extension(c.dst, aux.family)
    aux_index = aux.index()
    cod_index = cod.index()
    inner_elems = inner.elements
    plan = c._plan
    table = []
    for rho, (t,) in dom.elements:
        v, h = inner_elems[t]
        w, moves = plan[rho][v]
        payload = tuple([aux_index[(g, (h[k],))] for g, k in moves])
        table.append(cod_index[(w, payload)])
    return FamMorphism(dom.family, cod.family,
                       FinMap(dom.family.total, cod.family.total, tuple(table)))


def sim_naturality_check(c: SimCell, bound: int) -> Report:
    """Verify that the cell's components are natural between the two
    composite functors on the families with fibers at most the bound,
    through the generating squares of nat.transformation_check."""
    au = nat.ExtFunctor(au_lift(c.span))
    f = nat.ComposedFunctor(au, nat.ExtFunctor(c.src))
    g = nat.ComposedFunctor(nat.ExtFunctor(c.dst), au)
    return nat.transformation_check(f, g, lambda x: eval_sim(c, x), bound)


def extract_sim(oracle, span: Span, p1: PolyDiagram, p2: PolyDiagram) -> SimCell:
    """Read the cell tables off a black-box component assignment by
    probing each (state, shape) pair at the shape's representing family,
    then verify the round trip on every family with fibers at most 3.

    The oracle is asked once per family value, in the order of the first
    request: the probes' families in cell_pairs order, then the check
    families. Each src shape is probed once: its component, extension
    records and generic element are read at its first pair, and every
    state over its sort then costs one index lookup. A component's
    endpoints are checked wherever it is compared, at the probes and in
    the round trip, before its table is read."""
    require_endo(p1, p2)
    if span.left.cod != p1.source or span.right.cod != p2.source:
        raise ShapeMismatch("span legs must land in the two sort sets")
    au = au_lift(span)
    # the oracle's components, one per family value, for this call only
    ask = functools.cache(oracle)
    probes: dict = {}
    alpha: dict = {}
    beta: dict = {}
    gamma: dict = {}
    for rho, v in cell_pairs(span, p1):
        probe = probes.get(v)
        if probe is None:
            y, order = nat.generic_family(p1, v)
            comp = ask(y)
            src_ext = poly._extension(au, poly.eval_extension(p1, y))
            aux = poly._extension(au, y)
            dst_ext = poly._extension(p2, aux.family)
            nat._check_endpoints(comp, src_ext.family, dst_ext.family)
            probe = probes[v] = (comp, nat.generic_element(p1, v), src_ext.index(),
                                 dst_ext.elements, aux.elements, order)
        comp, gen, index, dst_elems, aux_elems, order = probe
        w, payload = dst_elems[comp(index[(rho, (gen,))])]
        alpha[rho, v] = w
        for pos, u in enumerate(p2.shape_fiber(w)):
            g, (t,) = aux_elems[payload[pos]]
            gamma[rho, v, u] = g
            beta[rho, v, u] = order[t]
    try:
        c = SimCell(span, p1, p2, alpha, beta, gamma)
    except ValidationError as exc:
        raise OracleNotNatural("oracle not natural") from exc
    for x in nat.check_families(p1):
        expected = eval_sim(c, x)
        comp = ask(x)
        nat._check_endpoints(comp, expected.src, expected.dst)
        if expected.map.table != comp.map.table:
            raise OracleNotNatural("oracle not natural")
    return c


def entry_options(p1: PolyDiagram, p2: PolyDiagram, span: Span,
                  v: int, u: int) -> list[tuple[int, int]]:
    """The (direction, state) pairs that may fill direction u of the
    destination at a (state, shape v) pair of a cell: a state over u's sort
    on the right, and a direction of v over that state's sort on the left.
    Ordered state-major."""
    return [
        (b, g)
        for g in span.carrier
        if span.right(g) == p2.dir_sort(u)
        for b in p1.shape_fiber(v)
        if p1.dir_sort(b) == span.left(g)
    ]


def count_sim(p1: PolyDiagram, p2: PolyDiagram, span: Span) -> int:
    """Number of valid cells over the given span, computed arithmetically.

    No guard: the count is a product of per-pair weights and is safe to
    compute even when enumerating the cells themselves would not be.
    """
    require_endo(p1, p2)
    total = 1
    for rho, v in cell_pairs(span, p1):
        weight = 0
        for w in p2.shape_sort.fiber(span.right(rho)):
            branch = 1
            for u in p2.shape_fiber(w):
                branch *= len(entry_options(p1, p2, span, v, u))
            weight += branch
        total *= weight
    return total


def _option_counts(p1: PolyDiagram, p2: PolyDiagram, span: Span,
                   rho: int, v: int) -> list[list[int]]:
    """At the (state, shape) pair (rho, v) of a cell, per destination shape
    w over rho's right leg, the numbers of entry options of w's directions:
    the factors of count_sim, for a guard that cuts them."""
    return [[len(entry_options(p1, p2, span, v, u)) for u in p2.shape_fiber(w)]
            for w in p2.shape_sort.fiber(span.right(rho))]


def _fillings(option_counts: list, cap: int) -> int:
    """The number of ways to fill one (state, shape) pair, the sum over the
    destination shapes of the product of their option counts, with every
    product and the sum cut at cap (finset.capped_product)."""
    return min(sum(finset.capped_product(counts, cap) for counts in option_counts), cap)


def _pair_choices(p1: PolyDiagram, p2: PolyDiagram, span: Span,
                  rho: int, v: int) -> list[tuple[int, dict, dict]]:
    """Every way to fill one (state, shape) pair of a cell: an assigned
    shape of the destination plus full direction/state tables for it.
    The option count is guarded before materializing, cut at the limit
    plus one (_fillings)."""
    per_shape = [
        (w, [entry_options(p1, p2, span, v, u) for u in p2.shape_fiber(w)])
        for w in p2.shape_sort.fiber(span.right(rho))
    ]
    check_guard(_fillings([map(len, options) for _, options in per_shape],
                          finset.guard_limit() + 1),
                "cell table options at one (state, shape) pair")
    choices: list[tuple[int, dict, dict]] = []
    for w, options in per_shape:
        fiber = p2.shape_fiber(w)
        for assignment in itertools.product(*options):
            beta = {(rho, v, u): b for u, (b, _) in zip(fiber, assignment)}
            gamma = {(rho, v, u): g for u, (_, g) in zip(fiber, assignment)}
            choices.append((w, beta, gamma))
    return choices


def random_cell(rng, p1: PolyDiagram, p2: PolyDiagram, span: Span) -> SimCell | None:
    """One random cell over the given span, or None when none exists.

    Each (state, shape) pair is filled independently and uniformly over
    its own options; useful for spot-checking laws on instances whose
    full cell space is too large to enumerate.
    """
    require_endo(p1, p2)
    pairs = cell_pairs(span, p1)
    alpha: dict = {}
    beta: dict = {}
    gamma: dict = {}
    for rho, v in pairs:
        choices = _pair_choices(p1, p2, span, rho, v)
        if not choices:
            return None
        w, b, g = rng.choice(choices)
        alpha[rho, v] = w
        beta.update(b)
        gamma.update(g)
    return SimCell(span, p1, p2, alpha, beta, gamma)


def enumerate_sim(p1: PolyDiagram, p2: PolyDiagram, span: Span) -> list[SimCell]:
    """All valid cells over the given span: per (state, shape) pair, a
    choice of assigned shape plus a full direction/state table for it.
    The cell count is guarded up front, cut at the limit plus one: the
    product of every pair's _fillings (finset.check_guard_product)."""
    require_endo(p1, p2)
    pairs = cell_pairs(span, p1)
    cap = finset.guard_limit() + 1
    finset.check_guard_product(
        (_fillings(_option_counts(p1, p2, span, rho, v), cap) for rho, v in pairs),
        "cell search space")
    per_pair = [_pair_choices(p1, p2, span, rho, v) for rho, v in pairs]
    out: list[SimCell] = []
    for combo in itertools.product(*per_pair):
        alpha = {pair: w for pair, (w, _, _) in zip(pairs, combo)}
        beta: dict = {}
        gamma: dict = {}
        for _, b, g in combo:
            beta.update(b)
            gamma.update(g)
        out.append(SimCell(span, p1, p2, alpha, beta, gamma))
    return out


def equivalence_check(c: SimCell, c2: SimCell) -> FinMap | None:
    """Search for a span bijection commuting with both legs under which
    the three tables agree; returns it, or None."""
    if c.src != c2.src or c.dst != c2.dst:
        raise ShapeMismatch("equivalent cells need the same endpoint diagrams")
    r, r2 = c.span, c2.span
    if r.carrier.size != r2.carrier.size:
        return None
    # the bijections of the carrier, |carrier|!, counted up to the limit
    finset.check_guard_product(range(1, r.carrier.size + 1), "span isomorphism search")
    by_legs: dict[tuple[int, int], list[int]] = {}
    for rho in r2.carrier:
        by_legs.setdefault((r2.left(rho), r2.right(rho)), []).append(rho)

    def transported_ok(eps: list[int]) -> bool:
        for (rho, v), w in c.alpha.items():
            if c2.alpha[eps[rho], v] != w:
                return False
        for (rho, v, u), b in c.beta.items():
            if c2.beta[eps[rho], v, u] != b:
                return False
            if c2.gamma[eps[rho], v, u] != eps[c.gamma[rho, v, u]]:
                return False
        return True

    used = [False] * r2.carrier.size
    eps: list[int] = []

    def backtrack(rho: int) -> bool:
        if rho == r.carrier.size:
            return transported_ok(eps)
        for cand in by_legs.get((r.left(rho), r.right(rho)), ()):
            if used[cand]:
                continue
            used[cand] = True
            eps.append(cand)
            if backtrack(rho + 1):
                return True
            eps.pop()
            used[cand] = False
        return False

    if backtrack(0):
        return FinMap(r.carrier, r2.carrier, tuple(eps))
    return None


# ---------------------------------------------------------------------------
# the adjunction between the two span lifts


def span_family(r: Span) -> Family:
    """The span's carrier as a family over the product of its ends."""
    prod = finset.product(r.left.cod, r.right.cod)
    table = tuple(prod.pair(r.left(rho), r.right(rho)) for rho in r.carrier)
    return Family(r.carrier, prod.carrier, FinMap(r.carrier, prod.carrier, table))


def au_du_adjunction_check(r: Span, y: Family, z: Family) -> Report:
    """Exhibit the two adjunction bijections of the span lifts:
    morphisms out of the sum lift's value correspond to morphisms into
    the product lift of the reversed span, and to families of maps
    indexed by the span itself. All three hom sets are enumerated, the
    transposes are computed elementwise, and the round trips are checked
    to be identities."""
    if y.base != r.left.cod:
        raise ShapeMismatch("first family must live over the span's left end")
    if z.base != r.right.cod:
        raise ShapeMismatch("second family must live over the span's right end")
    au = au_lift(r)
    du_rev = du_lift(r.reversed())
    au_y = poly.eval_extension(au, y)
    du_z = poly.eval_extension(du_rev, z)
    homs1 = fam.hom_enumerate(au_y, z)
    homs2 = fam.hom_enumerate(y, du_z)
    rf = span_family(r)
    trf = fam.tr_family(y, z)
    homs3 = fam.hom_enumerate(rf, trf)

    closed = 1
    zsizes = z.fiber_sizes()
    ysizes = y.fiber_sizes()
    for rho in r.carrier:
        closed *= zsizes[r.right(rho)] ** ysizes[r.left(rho)]
    counts = (len(homs1), len(homs2), len(homs3))
    lines = [
        f"hom(sum-lift y, z) size {counts[0]}; hom(y, product-lift z) size {counts[1]}; "
        f"hom(span family, map family) size {counts[2]}",
        f"closed product formula gives {closed}",
    ]
    ok = counts[0] == counts[1] == counts[2] == closed

    au_index = poly.extension_index(au, y)
    au_elems = poly.extension_elements(au, y)
    du_index = poly.extension_index(du_rev, z)
    du_elems = poly.extension_elements(du_rev, z)
    tr_elems = fam.tr_elements(y, z)
    tr_index = {elem: k for k, elem in enumerate(tr_elems)}
    yfibs = y.proj.fibers()
    zoff = [0] * z.base.size
    run = 0
    for j, n in enumerate(zsizes):
        zoff[j] = run
        run += n

    def transpose12(m: FamMorphism) -> FamMorphism:
        table = []
        for t in range(y.total.size):
            i1 = y.proj(t)
            section = tuple(
                m(au_index[(rho, (t,))]) for rho in r.left.fiber(i1)
            )
            table.append(du_index[(i1, section)])
        return FamMorphism(y, du_z, FinMap(y.total, du_z.total, tuple(table)))

    def untranspose12(h: FamMorphism) -> FamMorphism:
        table = []
        for rho, (t,) in au_elems:
            _, section = du_elems[h(t)]
            position = r.left.fiber(y.proj(t)).index(rho)
            table.append(section[position])
        return FamMorphism(au_y, z, FinMap(au_y.total, z.total, tuple(table)))

    def transpose13(m: FamMorphism) -> FamMorphism:
        table = []
        for rho in r.carrier:
            i2 = r.right(rho)
            entries = tuple(
                m(au_index[(rho, (t,))]) for t in yfibs[r.left(rho)]
            )
            pair = rf.proj(rho)
            table.append(tr_index[(pair, entries)])
        return FamMorphism(rf, trf, FinMap(rf.total, trf.total, tuple(table)))

    def untranspose13(h: FamMorphism) -> FamMorphism:
        table = []
        for rho, (t,) in au_elems:
            _, entries = tr_elems[h(rho)]
            position = yfibs[r.left(rho)].index(t)
            table.append(entries[position])
        return FamMorphism(au_y, z, FinMap(au_y.total, z.total, tuple(table)))

    round_ok = True
    seen2 = set()
    seen3 = set()
    for m in homs1:
        h2 = transpose12(m)
        h3 = transpose13(m)
        seen2.add(h2.map.table)
        seen3.add(h3.map.table)
        if untranspose12(h2).map.table != m.map.table:
            round_ok = False
            break
        if untranspose13(h3).map.table != m.map.table:
            round_ok = False
            break
    surjective = len(seen2) == len(homs2) and len(seen3) == len(homs3)
    lines.append(f"round trips are identities: {'yes' if round_ok else 'NO'}")
    lines.append(f"transposes are bijections: {'yes' if surjective else 'NO'}")
    return Report("span lift adjunction", bool(ok and round_ok and surjective),
                  tuple(lines))


# ---------------------------------------------------------------------------
# biproduct structure on sums of endo diagrams


class PlusStructure:
    """Injections, projections, pairing and copairing for a sum of endo
    diagrams, all as simulation cells. Pairing and copairing are derived
    as in any additive category: <c1, c2> = inl . c1 + inr . c2 and
    [d1, d2] = d1 . proj1 + d2 . proj2, with compose_sim for . and
    sum_sim for +."""

    def __init__(self, p1: PolyDiagram, p2: PolyDiagram):
        require_endo(p1, p2)
        self.p1 = p1
        self.p2 = p2
        self.sum = poly.plus(p1, p2)
        n1, n2 = p1.source.size, p2.source.size
        total = self.sum.source
        embed1 = FinMap(p1.source, total, tuple(range(n1)))
        embed2 = FinMap(p2.source, total, tuple(range(n1, n1 + n2)))
        self._shape_shift = p1.shapes.size
        self._dir_shift = p1.dirs.size
        self.inl = self._injection(p1, embed1, left=True)
        self.inr = self._injection(p2, embed2, left=False)
        self.proj1 = self._projection(p1, embed1, left=True)
        self.proj2 = self._projection(p2, embed2, left=False)

    def _injection(self, p: PolyDiagram, embed: FinMap, left: bool) -> SimCell:
        span = Span(p.source, finset.identity(p.source), embed)
        vs = 0 if left else self._shape_shift
        us = 0 if left else self._dir_shift
        alpha = {}
        beta = {}
        gamma = {}
        for i, v in cell_pairs(span, p):
            w = v + vs
            alpha[i, v] = w
            for u in self.sum.shape_fiber(w):
                beta[i, v, u] = u - us
                gamma[i, v, u] = p.dir_sort(u - us)
        return SimCell(span, p, self.sum, alpha, beta, gamma)

    def _projection(self, p: PolyDiagram, embed: FinMap, left: bool) -> SimCell:
        span = Span(p.source, embed, finset.identity(p.source))
        vs = 0 if left else self._shape_shift
        us = 0 if left else self._dir_shift
        alpha = {}
        beta = {}
        gamma = {}
        for rho, w in cell_pairs(span, self.sum):
            # only shapes of the chosen part sit over embedded sorts
            v = w - vs
            alpha[rho, w] = v
            for u in p.shape_fiber(v):
                beta[rho, w, u] = u + us
                gamma[rho, w, u] = p.dir_sort(u)
        return SimCell(span, self.sum, p, alpha, beta, gamma)

    def pair(self, c1: SimCell, c2: SimCell) -> SimCell:
        """The cell into the sum determined by cells into both parts:
        inl . c1 + inr . c2."""
        if c1.src != c2.src:
            raise ShapeMismatch("pairing needs cells out of a common diagram")
        if c1.dst != self.p1 or c2.dst != self.p2:
            raise ShapeMismatch("pairing needs cells into the two parts")
        return sum_sim(compose_sim(self.inl, c1), compose_sim(self.inr, c2))

    def copair(self, c1: SimCell, c2: SimCell) -> SimCell:
        """The cell out of the sum determined by cells out of both parts:
        c1 . proj1 + c2 . proj2."""
        if c1.dst != c2.dst:
            raise ShapeMismatch("copairing needs cells into a common diagram")
        if c1.src != self.p1 or c2.src != self.p2:
            raise ShapeMismatch("copairing needs cells out of the two parts")
        return sum_sim(compose_sim(c1, self.proj1), compose_sim(c2, self.proj2))

    def decompose(self, c: SimCell) -> tuple[SimCell, SimCell]:
        """The restrictions c . inl and c . inr of a cell out of the sum;
        copairing them recovers the cell up to equivalence."""
        if c.src != self.sum:
            raise ShapeMismatch("decomposition needs a cell out of the sum")
        return compose_sim(c, self.inl), compose_sim(c, self.inr)


def plus_structure(p1: PolyDiagram, p2: PolyDiagram) -> PlusStructure:
    return PlusStructure(p1, p2)
