"""Simulations between endo diagrams: spans of state indices with cell
tables, their validation, evaluation to components, composition,
tensor and symmetry, counting, enumeration, extraction, equivalence,
and the biproduct structure on sums of diagrams.

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
the successor's left end; the successor's right end is u's sort.

A SimCell stores the tables as rows, one per state: _plan[rho] holds one
entry per src shape v over the state's left end, in ascending order, and
the entry is (w, ((g, k), ...)), the assigned shape w and, per direction
u of w, the successor gamma[rho, v, u] and the position k of beta[rho,
v, u] in v's direction fiber. So the rows, concatenated, are the entries
in cell_pairs order. Every cell is valid: each of its entries passed the
entry check (the four equations) and its rows the layout check. The
validator (SimCell._settle) runs both on each cell it builds, from the
rows that the public constructor and the functions here hand it, so it
checks an entry once per built cell. Two functions build many cells over
one span, which share most of their entries, and check what they share
once. The cells enumerate_sim lists are choices of one row per state,
and a row a choice of one option per (state, shape) pair: it runs the
entry check once per option and the layout check once, on one row per
state. extract_sim runs the entry check once per entry it reads over the
frame held on the span (_Frame), and gives each cell the layout check.
The tables themselves are read-only views built from the rows on first
read.

Evaluation turns a cell into a natural family of morphisms relating the
two extensions across the span's sum lift. As the cell is valid, each
component is assembled without re-running the morphism constructors'
checks (eval_sim).

A container morphism is the cell over the diagonal span of its sorts
(from_dm); the identity cell is the identity morphism's (identity_sim).
random_cell and enumerate_sim read one fill table (_pair_fills), whose
fillings count_sim counts by Yoneda, without building it.

Cells tensor (tensor_sim) over the product of their spans, paired as
poly.tensor pairs sorts, shapes and directions; the tensor of diagrams
is strict, so its unit and associativity hold on cells on the nose.
symmetry_sim is the symmetry p1 ⊗ p2 -> p2 ⊗ p1.

Parallel cells add: sum_sim takes the coproduct of their spans, and
zero_sim, the empty span, is its unit. On a sum of diagrams only the
injections and projections are built by hand; pairing, copairing and
decomposition are composites with them, added by sum_sim.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from . import fam, finset, nat, poly
from .errors import OracleNotNatural, ShapeMismatch, ValidationError
from .fam import FamMorphism, Family, Span
from .finset import FinMap, FinSet, check_guard, check_guard_cut
from .poly import _CARRIER, PolyDiagram, au_lift
from .report import Report

__all__ = [
    "Span",
    "SimCell",
    "require_endo",
    "cell_pairs",
    "validate",
    "identity_sim",
    "from_dm",
    "zero_sim",
    "sum_sim",
    "compose_sim",
    "tensor_sim",
    "symmetry_sim",
    "eval_sim",
    "sim_naturality_check",
    "extract_sim",
    "count_sim",
    "random_cell",
    "enumerate_sim",
    "equivalence_check",
    "PlusStructure",
    "plus_structure",
]


def require_endo(*diagrams: PolyDiagram) -> None:
    """Raise ValidationError unless every diagram is endo: simulations
    relate endo diagrams only."""
    if not all(p.is_endo() for p in diagrams):
        raise ValidationError("simulations relate endo diagrams")


def _check_ends(span: Span, src: PolyDiagram, dst: PolyDiagram) -> None:
    """Raise unless both diagrams are endo and the legs land in their
    sorts, comparing by identity first (as FamMorphism does)."""
    require_endo(src, dst)
    left, right = span.left.cod, span.right.cod
    if ((left is not src.source and left != src.source)
            or (right is not dst.source and right != dst.source)):
        raise ShapeMismatch("span legs must land in the two sort sets")


def cell_pairs(span: Span, src: PolyDiagram) -> list[tuple[int, int]]:
    """The index set of the shape table: states paired with the src
    shapes whose sort is the state's left end."""
    fibers = src.shape_sort.fibers()
    return [(rho, v) for rho, i in enumerate(span.left.table) for v in fibers[i]]


_PAIR_KEYS = "shape table must be indexed by exactly the (state, shape) pairs"
_TRIPLE_KEYS = ("direction and state tables must be indexed by exactly the "
                "(state, shape, direction) triples")


@dataclass(frozen=True, init=False, repr=False)
class SimCell:
    """A valid simulation cell, frozen, stored as its rows _plan, which
    eval_sim reads: one row per state, holding the entries of the state's
    (state, shape) pairs and nothing else (see the module docstring).
    Equality compares the span, the two diagrams and the rows, which is
    equality of the tables.

    SimCell(span, src, dst, alpha, beta, gamma) checks the span's ends and
    the tables' key sets, turns the tables into rows and hands them to the
    validator (_settle), which checks their layout and then each of their
    entries once (_check_layout, _check_entries); enumerate_sim checks
    each of its options' entries once and its rows' layout once, and
    extract_sim each entry once per frame and each cell's layout. It
    raises ValidationError at the first violation: key sets and ranges
    first, then each pair's shape sort, then the direction equations
    triple by triple. alpha, beta, gamma, pairs and triples are built from
    the rows the first time they are read and kept, read-only."""

    span: Span
    src: PolyDiagram
    dst: PolyDiagram
    _plan: tuple

    __getstate__ = finset.field_state

    def __init__(self, span: Span, src: PolyDiagram, dst: PolyDiagram,
                 alpha: Mapping, beta: Mapping, gamma: Mapping) -> None:
        _check_ends(span, src, dst)
        pairs = cell_pairs(span, src)
        if set(alpha) != set(pairs):
            raise ValidationError(_PAIR_KEYS)
        entries = [(alpha[pair], ()) for pair in pairs]
        # with a shape out of range the validator refuses it before it
        # reads a direction, so the triples are neither keyed nor read
        if all(w in dst.shapes for w, _ in entries):
            dst_fibers = dst.dir_shape.fibers()
            keys = {(rho, v, u) for (rho, v), (w, _) in zip(pairs, entries)
                    for u in dst_fibers[w]}
            if set(beta) != keys or set(gamma) != keys:
                raise ValidationError(_TRIPLE_KEYS)
            shape_of, position = src.dir_shape.table, src.dir_shape.positions()
            for n, ((rho, v), (w, _)) in enumerate(zip(pairs, entries)):
                # a backward direction off v's fiber has no position: None
                # for a direction of src, which fails the fiber equation,
                # and -1, out of range, for anything else
                moves = []
                for u in dst_fibers[w]:
                    b = beta[rho, v, u]
                    k = (position[b] if shape_of[b] == v else None) if b in src.dirs else -1
                    moves.append((gamma[rho, v, u], k))
                entries[n] = (w, tuple(moves))
        self._settle(span, src, dst, _layout(span, src, entries))

    def _settle(self, span: Span, src: PolyDiagram, dst: PolyDiagram, rows) -> None:
        """The validator: check the rows' layout (_check_layout), then
        each of their entries (_check_entries), and keep them as the
        plan."""
        plan = tuple(map(tuple, rows))
        _check_layout(span, src, plan)
        left, fibers = span.left.table, src.shape_sort.fibers()
        _check_entries(span, src, dst, [(rho, v, e) for rho, row in enumerate(plan)
                                        for v, e in zip(fibers[left[rho]], row)])
        self._keep(span, src, dst, plan)

    def _keep(self, span: Span, src: PolyDiagram, dst: PolyDiagram, plan: tuple) -> None:
        """Set the fields to a checked plan and its span and diagrams, in
        one update of the instance dict: the class is a frozen dataclass
        without slots, so that dict is where its fields live, and equality,
        hashing and pickling read them there as if set one by one."""
        self.__dict__.update(span=span, src=src, dst=dst, _plan=plan)

    @functools.cached_property
    def pairs(self) -> tuple:
        return tuple(cell_pairs(self.span, self.src))

    @functools.cached_property
    def triples(self) -> tuple:
        return tuple(key for key, _ in self._moves())

    @functools.cached_property
    def alpha(self) -> Mapping:
        return MappingProxyType({pair: w for pair, (w, _)
                                 in zip(self.pairs, itertools.chain(*self._plan))})

    @functools.cached_property
    def beta(self) -> Mapping:
        fibers = self.src.dir_shape.fibers()
        return MappingProxyType({key: fibers[key[1]][k] for key, (_, k) in self._moves()})

    @functools.cached_property
    def gamma(self) -> Mapping:
        return MappingProxyType({key: g for key, (g, _) in self._moves()})

    def _moves(self):
        """Each triple with its (successor, position) move, in order."""
        fibers = self.dst.dir_shape.fibers()
        for (rho, v), (w, moves) in zip(self.pairs, itertools.chain(*self._plan)):
            yield from zip([(rho, v, u) for u in fibers[w]], moves)

    def __repr__(self) -> str:
        pairs, triples = _counts(self)
        return f"SimCell(states={self.span.carrier.size}, pairs={pairs}, triples={triples})"


def _check_layout(span: Span, src: PolyDiagram, plan: tuple) -> None:
    """Raise unless the plan has one row per state, of one entry per src
    shape over the state's left end."""
    left, fibers = span.left.table, src.shape_sort.fibers()
    if len(plan) != len(left) or any(len(row) != len(fibers[i]) for row, i in zip(plan, left)):
        raise ValidationError(_PAIR_KEYS)


def _check_entries(span: Span, src: PolyDiagram, dst: PolyDiagram, entries: list) -> None:
    """Raise ValidationError unless every (rho, v, e), the row entry e of
    the pair (state rho, src shape v), satisfies the four equations, in
    three passes over the entries: the ranges of the shapes, the number
    of moves per direction of the assigned shape, then the ranges of the
    moves. A range or count fault raises at once; the first equation
    fault (a pair's shape sort, else the first triple's) is raised after
    the passes. A position k of None is a src direction off v's fiber."""
    left, right = span.left.table, span.right.table
    dst_sorts, n_shapes = dst.shape_sort.table, dst.shapes.size
    fault = None
    for rho, v, (w, _) in entries:
        if not 0 <= w < n_shapes:
            raise ValidationError(f"shape table value out of range at {(rho, v)}")
        if fault is None and dst_sorts[w] != right[rho]:
            fault = (f"assigned shape sits over the wrong sort at (state {rho}, shape {v}):"
                     f" got {dst_sorts[w]}, the state's right end is {right[rho]}")
    dst_fibers = dst.dir_shape.fibers()
    if any(len(moves) != len(dst_fibers[w]) for _, _, (w, moves) in entries):
        raise ValidationError(_TRIPLE_KEYS)
    src_fibers, src_dir_sorts = src.dir_shape.fibers(), src.dir_sort.table
    dst_dir_sorts, n_states = dst.dir_sort.table, len(left)
    for rho, v, (w, moves) in entries:
        fiber = src_fibers[v]
        for u, (g, k) in zip(dst_fibers[w], moves):
            if k is not None and not 0 <= k < len(fiber):
                raise ValidationError(f"direction table value out of range at {(rho, v, u)}")
            if not 0 <= g < n_states:
                raise ValidationError(f"state table value out of range at {(rho, v, u)}")
            if fault is None:
                if k is None:
                    fault = ("backward direction leaves the shape's fiber at "
                             f"(state {rho}, shape {v}, direction {u})")
                elif right[g] != dst_dir_sorts[u]:
                    fault = ("successor state's right end disagrees with the direction "
                             f"sort at (state {rho}, shape {v}, direction {u})")
                elif src_dir_sorts[fiber[k]] != left[g]:
                    fault = ("backward direction's sort disagrees with the successor "
                             f"state's left end at (state {rho}, shape {v}, direction {u})")
    if fault is not None:
        raise ValidationError(fault)


def _layout(span: Span, src: PolyDiagram, entries) -> tuple:
    """The given entries of the (state, shape) pairs, in cell_pairs order,
    cut into rows: each state's row takes one entry per src shape over
    its left end."""
    it, fibers = iter(entries), src.shape_sort.fibers()
    return tuple(tuple(itertools.islice(it, len(fibers[i]))) for i in span.left.table)


def _cell(span: Span, src: PolyDiagram, dst: PolyDiagram, rows) -> SimCell:
    """The cell with the given rows, checked by the validator."""
    c = object.__new__(SimCell)
    c._settle(span, src, dst, rows)
    return c


def _counts(c: SimCell) -> tuple[int, int]:
    """The numbers of shape entries and direction entries in c's rows."""
    entries = list(itertools.chain(*c._plan))
    return len(entries), sum(len(moves) for _, moves in entries)


def validate(c: SimCell) -> Report:
    """The report of the four cell equations. Every cell passed the
    validator, which checks them on every entry and raises
    ValidationError at the first violation, with its coordinates: the
    report is always ok and only counts the entries, off the rows."""
    pairs, triples = _counts(c)
    return Report("simulation cell equations", True,
                  (f"{pairs} shape entries and {triples} "
                   f"direction entries satisfy all four equations",))


def _copying(span: Span, src: PolyDiagram, dst: PolyDiagram, p: PolyDiagram,
             shift: int) -> SimCell:
    """The cell over a span whose states are p's sorts that sends the
    shape x of each pair to x + shift, the lower of the two being a shape
    of p, and each direction of that shape to itself, with its sort as
    the successor."""
    fibers, sorts = p.dir_shape.fibers(), p.dir_sort.table
    return _cell(span, src, dst, _layout(span, src, [
        (x + shift, tuple([(sorts[u], k) for k, u in enumerate(fibers[min(x, x + shift)])]))
        for _, x in cell_pairs(span, src)]))


def identity_sim(p: PolyDiagram) -> SimCell:
    """The identity simulation: the identity container morphism as a cell
    (from_dm), over the diagonal span, every shape and direction sent to
    itself."""
    return from_dm(poly.identity_dm(p))


def from_dm(m: poly.DiagMorphism) -> SimCell:
    """The container morphism m as the cell over the diagonal span of its
    sorts: at state i, each shape v of sort i goes to alpha(v), and each
    direction of alpha(v) to its backward direction's sort and that
    direction's position in v's fiber."""
    p = m.src
    require_endo(p, m.dst)
    ident = finset.identity(p.source)
    span = Span(p.source, ident, ident)
    alpha, sorts, positions = m.alpha.table, p.dir_sort.table, p.dir_shape.positions()
    return _cell(span, p, m.dst, _layout(span, p, [
        (alpha[v], tuple([(sorts[b], positions[b]) for b in m.betas[v]]))
        for _, v in cell_pairs(span, p)]))


def zero_sim(src: PolyDiagram, dst: PolyDiagram) -> SimCell:
    """The empty-span simulation, the zero morphism."""
    empty = FinSet(0)
    span = Span(empty, FinMap(empty, src.source, ()), FinMap(empty, dst.source, ()))
    return SimCell(span, src, dst, {}, {}, {})


def sum_sim(c1: SimCell, c2: SimCell) -> SimCell:
    """The sum of two parallel cells: the coproduct of their spans, each
    state keeping its own rows, c2's states (and its successor states)
    shifted past c1's. zero_sim is its unit."""
    if c1.src != c2.src or c1.dst != c2.dst:
        raise ShapeMismatch("summing needs cells between the same diagrams")
    cop = finset.coproduct(c1.span.carrier, c2.span.carrier)
    span = Span(cop.carrier, finset.copair(c1.span.left, c2.span.left, cop),
                finset.copair(c1.span.right, c2.span.right, cop))
    n = c1.span.carrier.size
    shifted = tuple(tuple([(w, tuple([(g + n, k) for g, k in moves])) for w, moves in row])
                    for row in c2._plan)
    return _cell(span, c1.src, c1.dst, c1._plan + shifted)


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
    pair_index = {pair: t for t, pair in enumerate(pb.pairs)}
    # c1's assigned shape w sits over the left end of c2's state, whose
    # row holds w's entry at w's position in its sort's shape fiber
    position = c2.src.shape_sort.positions()
    rows = []
    for rho, sigma in pb.pairs:
        row2 = c2._plan[sigma]
        row = []
        for w1, moves1 in c1._plan[rho]:
            # c2's move names the position k2 of its backward direction in
            # the middle shape's fiber; c1's move for that direction is
            # moves1[k2]
            w, moves2 = row2[position[w1]]
            row.append((w, tuple([(pair_index[moves1[k2][0], g2], moves1[k2][1])
                                  for g2, k2 in moves2])))
        rows.append(row)
    return _cell(span, c1.src, c2.dst, rows)


def tensor_sim(c1: SimCell, c2: SimCell) -> SimCell:
    """The tensor of two cells, from src1 ⊗ src2 to dst1 ⊗ dst2 over the
    product of their spans, paired as poly.tensor pairs sorts and shapes:
    state (r1, r2) is r1 * n2 + r2, for n2 states of c2. Its row pairs the
    factors' rows entry by entry, r1's entry major, which is the order of
    the tensor's shapes v1 * |S2| + v2 over its left end. The entry of
    (v1, v2) has the shape w1 * |dst2's shapes| + w2, and its moves pair
    the factors' moves (g1, k1) and (g2, k2) in lexicographic order, the
    order of the tensor's direction fibers, as (g1 * n2 + g2, k1 *
    |fiber(v2)| + k2). The span's carrier is guarded by its size before
    it is built."""
    src, dst = poly.tensor(c1.src, c2.src), poly.tensor(c1.dst, c2.dst)
    n2 = c2.span.carrier.size
    check_guard(c1.span.carrier.size * n2, "tensor span carrier")
    left = finset.product_map(c1.span.left, c2.span.left)
    span = Span(left.dom, left, finset.product_map(c1.span.right, c2.span.right))
    m2, fibers2 = c2.dst.shapes.size, c2.src.dir_shape.fibers()
    # c2's rows, each entry with the fiber size of its src shape v2
    over2 = c2.src.shape_sort.fibers()
    rows2 = [[(w2, moves2, len(fibers2[v2])) for (w2, moves2), v2 in zip(row2, over2[i2])]
             for row2, i2 in zip(c2._plan, c2.span.left.table)]
    rows = []
    for row1 in c1._plan:
        for row2 in rows2:
            rows.append([(w1 * m2 + w2, tuple([(g1 * n2 + g2, k1 * size + k2)
                                               for g1, k1 in moves1 for g2, k2 in moves2]))
                         for w1, moves1 in row1 for w2, moves2, size in row2])
    return _cell(span, src, dst, rows)


def symmetry_sim(p1: PolyDiagram, p2: PolyDiagram) -> SimCell:
    """The symmetry from p1 ⊗ p2 to p2 ⊗ p1, over the graph of the swap
    of sorts: state (i1, i2) is i1 * n2 + i2, its left end itself and its
    right end i2 * n1 + i1. Shape v1 * |S2| + v2 goes to v2 * |S1| + v1,
    whose directions (u2, u1) run over fiber(v2) × fiber(v1) in
    lexicographic order; the move of (u2, u1) is (sort(u1) * n2 +
    sort(u2), k1 * |fiber(v2)| + k2), with k1 and k2 the positions of u1
    and u2 in their fibers."""
    require_endo(p1, p2)
    src, dst = poly.tensor(p1, p2), poly.tensor(p2, p1)
    n1, n2, s1, s2 = p1.source.size, p2.source.size, p1.shapes.size, p2.shapes.size
    swap = FinMap(src.source, dst.source,
                  tuple([i2 * n1 + i1 for i1 in range(n1) for i2 in range(n2)]))
    span = Span(src.source, finset.identity(src.source), swap)
    fibers1, fibers2 = p1.dir_shape.fibers(), p2.dir_shape.fibers()
    sorts1, sorts2 = p1.dir_sort.table, p2.dir_sort.table
    entries = []
    for _, v in cell_pairs(span, src):
        v1, v2 = divmod(v, s2)
        f1, f2 = fibers1[v1], fibers2[v2]
        entries.append((v2 * s1 + v1, tuple([(sorts1[u1] * n2 + sorts2[u2], k1 * len(f2) + k2)
                                             for k2, u2 in enumerate(f2)
                                             for k1, u1 in enumerate(f1)])))
    return _cell(span, src, dst, _layout(span, src, entries))


def eval_sim(c: SimCell, x: Family) -> FamMorphism:
    """The cell's component at x: a morphism from the sum lift of the src
    value to the dst value of the sum lift.

    The cell is read through its rows (SimCell): per (state, shape) pair,
    the assigned shape and the (successor, position) pair of each of its
    directions, each row entry once per block of the domain. Everything
    else the component needs at x is read, by _table_at, from the frame
    held on the cell's span (_Frame), which is built at the first
    evaluation or extraction over the span between the cell's two
    diagrams and kept on the span until a call over another pair of
    diagrams replaces it. The frame's record at x also holds each (shape,
    row entry) pair's slice of the table, computed at its first request
    by any cell over the span. The guard is checked on every call, on
    the four extension carriers, as when the frame was built.

    The component is assembled without the FinMap and FamMorphism
    constructors' checks (fam._assembled). It would pass them: the cell
    passed the validator, so every entry of its table is the rank of an
    element of the codomain's extension, over the sort of the domain
    element it comes from, and the table has one entry per domain
    element."""
    return fam._assembled(*_table_at(_frame(c.span, c.src, c.dst), c._plan, x))


def _table_at(frame: _Frame, plan: tuple, x: Family) -> tuple[Family, Family, tuple[int, ...]]:
    """The endpoint families and the table of the component at x of the
    cell with the rows plan over the frame. The table concatenates, block
    by block, the codomain ranks that the block's shape v and row entry e
    give at x: a slice held in the frame's record at x under (v, e),
    computed and kept at its first request."""
    at = frame.at.get(id(x))
    if at is None:
        at = frame.evaluation(x)
    else:
        check_guard(at[1], _CARRIER)
        check_guard(at[2], _CARRIER)
        check_guard(at[3], _CARRIER)
        check_guard(at[4], _CARRIER)
    _, _, _, _, _, dom, cod, blocks, start, position, cod_index, slices = at
    table = []
    for rho, k, v, payloads in blocks:
        # a block's part of the table depends on its shape's payloads at x
        # and its row entry, not on its state: cells over the span share it
        e = plan[rho][k]
        part = slices.get((v, e))
        if part is None:
            w, moves = e
            part = slices[v, e] = [
                cod_index[(w, tuple([start[g] + position[h[k]] for g, k in moves]))]
                for h in payloads]
        table += part
    return dom, cod, tuple(table)


class _Frame:
    """What evaluating and extracting cells over one span from src to dst
    reads that no cell changes. A span holds the frame of the last (src,
    dst) pair evaluated or extracted over it, found by the identity of the
    two diagrams (_frame); the frame holds both diagrams, and a call over
    another pair replaces it. It is built only for ends that passed
    _check_ends. A span without states has one too: it has no blocks, so
    its components' tables are empty.

    pairs is cell_pairs(span, src), and cuts holds, per state, the start
    and end of its row among the entries listed in that order: the rows
    of a cell whose entries extract_sim reads pair by pair.
    at[id(x)], per family x, holds the component's two endpoint families,
    the domain's elements as (state, position of the shape in the state's
    row, shape, payloads) blocks in their order, what ranks the sum lift's
    elements at x (the start of each state's run and the position of each
    element of x in its fiber), the codomain's ranks (evaluation) and, per
    (shape, row entry) pair, the slice of codomain ranks that a block of
    the shape with that entry contributes to a table, computed at its
    first request (_table_at) and held for every cell over the span, as
    it depends on neither the state nor the cell.
    It holds x too, so the id names no other family while the frame
    lives; a family value-equal to x, such as one built with the Family
    constructor, gets its own entry, equal to x's.
    probes[v], per src shape v, holds what extract_sim reads off the
    oracle's component at v's representing family (probe), among it the
    rank of each state's element in the component's domain. Each entry
    is built at its first request from the extension records
    (poly._extension), whose guard checks it makes, and keeps the sizes
    of their carriers. A later request checks the guard on them, with
    the same label and in the same order, so a limit lowered after the
    build still refuses.
    entries[rho, v, r] holds the row entry that extract_sim read at the
    pair (rho, v) from a component sending the pair's element to the
    codomain element of rank r at the probe, once it passed the entry
    check (_check_entries). The entry and its check depend on nothing
    else that can change while the frame lives, so a later extraction
    over the frame checks it no more."""

    __slots__ = ("src", "dst", "au", "pairs", "cuts", "states", "at", "probes", "entries")

    def __init__(self, span: Span, src: PolyDiagram, dst: PolyDiagram) -> None:
        self.src, self.dst, self.au = src, dst, au_lift(span)
        self.pairs = cell_pairs(span, src)
        left, fibers = span.left.table, src.shape_sort.fibers()
        ends = list(itertools.accumulate((len(fibers[i]) for i in left), initial=0))
        self.cuts = tuple(zip(ends, ends[1:]))
        # the sum lift's shapes are the states, with their left ends, in
        # the order of its elements: right end major, then ascending
        self.states = [(rho, left[rho]) for states in span.right.fibers() for rho in states]
        self.at: dict = {}
        self.probes: dict = {}
        self.entries: dict = {}

    def evaluation(self, x: Family) -> tuple:
        """Build and keep at[id(x)]: x, the sizes of the four carriers in
        the order of their guard checks, the endpoint families, the
        domain's blocks, the rank in the sum lift at x of each state's
        first element and the position of each element of x in its fiber,
        the codomain's ranks and the slices computed so far, none yet."""
        inner, dom, aux, cod = _records(self.au, self.src, self.dst, x)
        # the domain's elements over a state are those of inner over the
        # state's left end: shape by shape, each one's payloads in order
        payloads = inner.payloads_by_shape()
        over, xfibers = self.src.shape_sort.fibers(), x.proj.fibers()
        blocks = []
        # the sum lift's elements over a state g are (g, (y,)) for y in x's
        # fiber over g's left end, in order: their run starts at start[g]
        start = [0] * len(self.states)
        n = 0
        for rho, i in self.states:
            start[rho] = n
            n += len(xfibers[i])
            blocks.extend([(rho, k, v, payloads[v]) for k, v in enumerate(over[i])
                           if v in payloads])
        at = self.at[id(x)] = (x, len(inner.elements), len(dom.elements), len(aux.elements),
                               len(cod.elements), dom.family, cod.family, tuple(blocks),
                               start, x.proj.positions(), cod.index(), {})
        return at

    def probe(self, v: int, ask) -> tuple:
        """The table of the component ask gives at the representing family
        of src shape v, and what reads the extracted entry of a pair
        (rho, v) off it: per state rho, the rank in the component's domain
        of (rho, v's generic element), None off v's sort; the elements of
        its codomain; and, per element of the sum lift at that family, the
        (successor, position) move it stands for. The component's
        endpoints are checked on every call."""
        held = self.probes.get(v)
        if held is None:
            src = self.src
            y, order = nat.generic_family(src, v)
            comp = ask(y)
            inner, src_ext, aux, dst_ext = _records(self.au, src, self.dst, y)
            _check_endpoints(comp, src_ext.family, dst_ext.family)
            gen = nat.generic_element(src, v)
            index, position = src_ext.index(), src.dir_shape.positions()
            reads = ([index.get((rho, (gen,))) for rho in range(len(self.states))],
                     dst_ext.elements,
                     tuple([(g, position[order[t]]) for g, (t,) in aux.elements]))
            self.probes[v] = (y, (len(inner.elements), len(src_ext.elements),
                                  len(aux.elements), len(dst_ext.elements)),
                              src_ext.family, dst_ext.family, reads)
            return comp.map.table, reads
        y, sizes, src_family, dst_family, reads = held
        comp = ask(y)
        for n in sizes:
            check_guard(n, _CARRIER)
        _check_endpoints(comp, src_family, dst_family)
        # the generic element's lookup in the extension at y
        check_guard(sizes[0], _CARRIER)
        return comp.map.table, reads


def _records(au: PolyDiagram, src: PolyDiagram, dst: PolyDiagram, x: Family) -> tuple:
    """The four extension records the component at x reads, in the order
    of their guard checks: src at x, the sum lift au at its value (the
    domain), au at x, and dst at that value (the codomain)."""
    if x.base is not src.source and x.base != src.source:
        raise ShapeMismatch("family must live over the source sorts")
    inner = poly._extension(src, x)
    dom = poly._extension(au, inner.family)
    aux = poly._extension(au, x)
    return inner, dom, aux, poly._extension(dst, aux.family)


def _frame(span: Span, src: PolyDiagram, dst: PolyDiagram) -> _Frame:
    """The frame of cells over the span from src to dst, held on the span
    (_Frame). A new frame is built only after the ends pass _check_ends,
    which raises otherwise and leaves the span's frame as it was; the
    span's legs and the diagrams do not change, so a held frame vouches
    for its ends."""
    frame = getattr(span, "_frame", None)
    if frame is None or frame.src is not src or frame.dst is not dst:
        _check_ends(span, src, dst)
        frame = _Frame(span, src, dst)
        object.__setattr__(span, "_frame", frame)
    return frame


def sim_naturality_check(c: SimCell, bound: int) -> Report:
    """Verify that the cell's components are natural between the two
    composite functors on the families with fibers at most the bound,
    through the generating squares of nat.transformation_check."""
    au = nat.ExtFunctor(au_lift(c.span))
    f = nat.ComposedFunctor(au, nat.ExtFunctor(c.src))
    g = nat.ComposedFunctor(nat.ExtFunctor(c.dst), au)
    return nat.transformation_check(f, g, lambda x: eval_sim(c, x), bound)


def extract_sim(oracle, span: Span, p1: PolyDiagram, p2: PolyDiagram) -> SimCell:
    """Read the cell's rows off a black-box component assignment by
    probing each (state, shape) pair at the shape's representing family,
    then verify the round trip on every family with fibers at most 3.

    Everything it reads that depends only on the span and the two
    diagrams is held in the frame on the span (_Frame), the one eval_sim
    reads, which it looks up first: built at the first call over the span
    from p1 to p2, only once the ends pass (_frame), and kept until a
    call over another pair of diagrams replaces it. So ends that fail
    raise before the oracle is asked anything.

    The oracle is asked once per family, in the order of the first
    request: the probes' families in cell_pairs order, then the check
    families. Its answers are kept by the family's identity: every family
    asked is a block family held on p1 (nat.generic_family,
    nat.check_families), and block families are interned, so one object
    stands for each value. Each src shape is probed once, at its first
    pair, and every state over its sort then costs one read of the
    component's table. What a probe reads besides the component (the
    generic family and element, the extension records, the rank of each
    state's element and the fiber position of each direction) is held in
    the frame and checked against the guard on every call. A component's
    endpoints are checked wherever it is compared, at the probes and in
    the round trip, before its table is read.

    The entries read are checked (_check_entries) in one call, in
    cell_pairs order, except those the frame holds as checked: each
    passed every check, so leaving it out changes neither whether the
    call raises nor which fault it raises first. With none left there is
    no call. The entries that pass are held in the frame, cut into rows
    at the frame's cuts and given the layout check, and the cell keeps
    them. A failed check raises OracleNotNatural. The round trip runs on
    the check families held on p1 (nat.check_families): at each, in
    order, it computes the extracted rows' endpoints and table over the
    frame (_table_at), without building a morphism, then asks the oracle.
    It raises ValidationError if the component has other endpoints, and
    OracleNotNatural if it has another table. The component was built
    through the checking constructors, or assembled by eval_sim from a
    validated cell, so equal endpoints and tables make it the expected
    morphism."""
    frame = _frame(span, p1, p2)
    # each family's component, kept for this extraction; a component is
    # never None, so get tells a missing key from a kept one
    answers: dict = {}

    def ask(x: Family) -> FamMorphism:
        comp = answers.get(id(x))
        if comp is None:
            comp = answers[id(x)] = oracle(x)
        return comp

    probes: dict = {}
    checked = frame.entries
    entries, fresh = [], []
    for rho, v in frame.pairs:
        probe = probes.get(v)
        if probe is None:
            probe = probes[v] = frame.probe(v, ask)
        table, (ranks, dst_elems, moves) = probe
        key = (rho, v, table[ranks[rho]])
        e = checked.get(key)
        if e is None:
            w, payload = dst_elems[key[2]]
            e = (w, tuple(map(moves.__getitem__, payload)))
            fresh.append((key, e))
        entries.append(e)
    try:
        if fresh:
            _check_entries(span, p1, p2, [(rho, v, e) for (rho, v, _), e in fresh])
        plan = tuple([tuple(entries[a:b]) for a, b in frame.cuts])
        _check_layout(span, p1, plan)
    except ValidationError as exc:
        raise OracleNotNatural("oracle not natural") from exc
    if fresh:
        checked.update(fresh)
    for x in nat.check_families(p1):
        src, dst, table = _table_at(frame, plan, x)
        comp = ask(x)
        _check_endpoints(comp, src, dst)
        if comp.map.table != table:
            raise OracleNotNatural("oracle not natural")
    c = object.__new__(SimCell)
    c._keep(span, p1, p2, plan)
    return c


def _check_endpoints(comp: FamMorphism, src: Family, dst: Family) -> None:
    """Raise ValidationError unless an oracle's component runs from src to
    dst, comparing by identity first (as FamMorphism does)."""
    if (comp.src is not src and comp.src != src) or (comp.dst is not dst and comp.dst != dst):
        raise ValidationError("oracle component has the wrong endpoints")


def _pair_fills(p1: PolyDiagram, p2: PolyDiagram, span: Span) -> tuple[list, list, list]:
    """The fill table of the cells from p1 to p2 over the span, after the
    ends check: its entries, each once, in order of first use; each
    (state, shape) pair's position among them, in cell_pairs order; and
    each entry's fillings counted, cut at the guard limit plus one
    (_fillings). The entry of a pair (state over j, shape v) lists, per
    dst shape w over j, the (successor, position) moves of each
    direction u of w. A move pairs a state g over u's sort on the right
    with the position k in v's fiber of a direction of v over g's left
    end (v's sort groups, poly._by_sort), state first, then position. So
    an entry depends on v only through the sorts of its directions, in
    fiber order, numbered once per shape: it is kept per (that number,
    j), and every direction of one sort shares its move list. By Yoneda,
    an entry lists p2's extension elements over j at au(A_v), A_v v's
    representing family and au the span's sum lift, read as moves."""
    _check_ends(span, p1, p2)
    left, right, by_right = span.left.table, span.right.table, span.right.fibers()
    groups, position, sorts = poly._by_sort(p1), p1.dir_shape.positions(), p1.dir_sort.table
    dst_fibers, dst_sorts, over = p2.dir_shape.fibers(), p2.dir_sort.table, p2.shape_sort.fibers()
    numbers: dict = {}
    kinds = [numbers.setdefault(tuple([sorts[u] for u in fiber]), len(numbers))
             for fiber in p1.dir_shape.fibers()]
    moves_of: dict = {}
    position_of: dict = {}
    entries, which = [], []
    for rho, v in cell_pairs(span, p1):
        kind, j = kinds[v], right[rho]
        k = position_of.get((kind, j))
        if k is None:
            by_sort = moves_of.get(kind)
            if by_sort is None:
                by = groups[v]
                by_sort = moves_of[kind] = [[(g, position[b]) for g in states
                                             for b in by.get(left[g], ())]
                                            for states in by_right]
            k = position_of[kind, j] = len(entries)
            entries.append([(w, [by_sort[dst_sorts[u]] for u in dst_fibers[w]])
                            for w in over[j]])
        which.append(k)
    cap = finset.guard_limit() + 1
    return entries, which, [_fillings(options, cap) for options in entries]


def count_sim(p1: PolyDiagram, p2: PolyDiagram, span: Span) -> int:
    """Number of valid cells over the given span, by Yoneda: a (state,
    shape v) pair fills in weight(v, j) = |p2(au(A_v))|_j ways, j the
    state's right end, A_v v's representing family and au the span's sum
    lift, whose fiber over a sort k is Σ_{g : right(g) = k}
    |A_v|_{left(g)} (poly._payload_counts, once per representing family).
    So the count is Π_{(i,j)} Π_{v over i} weight(v, j)^n(i,j), n(i, j)
    the states over the ends (i, j). No guard: it is arithmetic, safe even
    where enumerate_sim, which checks the same ends, would refuse."""
    _check_ends(span, p1, p2)
    left, by_right = span.left.table, span.right.fibers()
    shapes_over, over = p1.shape_sort.fibers(), p2.shape_sort.fibers()
    families = poly._family_sizes(p1)
    weights: dict = {}
    total = 1
    for (i, j), n in Counter(zip(left, span.right.table)).items():
        for v in shapes_over[i]:
            a = families[v]
            weight = weights.get(a)
            if weight is None:
                lifted = [sum([a[left[g]] for g in states]) for states in by_right]
                payloads = poly._payload_counts(p2, lifted)
                weight = weights[a] = [sum([payloads[w] for w in ws]) for ws in over]
            total *= weight[j] ** n
    return total


def _fillings(options: list, cap: int) -> int:
    """The number of ways to fill a (state, shape) pair from its fill
    table entry, with every product and the sum cut at cap
    (finset.capped_product)."""
    return min(sum(finset.capped_product(map(len, moves), cap) for _, moves in options), cap)


def _pair_choice(options: list, i: int) -> tuple[int, tuple]:
    """The i-th filling of one (state, shape) pair from its fill table
    entry, for i below their number (_fillings), as a row entry: the
    shapes' blocks in order, and within a block itertools.product order,
    the last direction's move fastest. The one filling order: random_cell
    decodes a drawn index, and enumerate_sim lists every index."""
    for w, lists in options:
        n = math.prod(map(len, lists))
        if i < n:
            moves = []
            for listed in reversed(lists):
                i, k = divmod(i, len(listed))
                moves.append(listed[k])
            return w, tuple(reversed(moves))
        i -= n


def random_cell(rng, p1: PolyDiagram, p2: PolyDiagram, span: Span) -> SimCell | None:
    """One random cell over the given span, or None when none exists.

    Each (state, shape) pair is filled independently and uniformly over
    its own options; useful for spot-checking laws on instances whose
    full cell space is too large to enumerate. A pair's filling is drawn
    by its index, rng.randrange(n) over its n fillings, the draw that
    rng.choice makes on the list of them, and decoded without listing
    them (_pair_choice): the same cell and the same generator state as
    drawing from enumerate_sim's list of the pair's fillings. The ends
    check, entries and counts come from _pair_fills.
    """
    shared, which, fills = _pair_fills(p1, p2, span)
    entries = []
    for k in which:
        check_guard_cut(fills[k], "cell table options at one (state, shape) pair")
        if not fills[k]:
            return None
        entries.append(_pair_choice(shared[k], rng.randrange(fills[k])))
    return _cell(span, p1, p2, _layout(span, p1, entries))


def enumerate_sim(p1: PolyDiagram, p2: PolyDiagram, span: Span) -> list[SimCell]:
    """All valid cells over the given span: per (state, shape) pair, a
    choice of assigned shape plus a move for each of its directions, from
    the fill table (_pair_fills, which checks the ends). The cell count is
    guarded up front, cut at the limit plus one: the product of every
    pair's filling count (finset.check_guard_product). If some pair
    has no filling there is no cell, and nothing more is guarded, listed,
    checked or laid out. Otherwise the fillings are listed by index
    (_pair_choice), once per shared fill table entry; a pair's fillings
    and a state's rows are at most the cells, which the guard bounds. A
    cell is a choice of one listed option per pair, so the entry check
    runs once per option, at its pair (_check_entries). A state's rows are
    the product of its pairs' option lists, all of one length, so one row
    per state gives the layout check (_check_layout), and a cell is a
    choice of one row per state. In this order, the last pair's option
    varies fastest, as in itertools.product over the pairs."""
    shared, which, fills = _pair_fills(p1, p2, span)
    finset.check_guard_product(map(fills.__getitem__, which), "cell search space")
    if not all(fills):
        return []
    listed = [[_pair_choice(options, i) for i in range(n)] for options, n in zip(shared, fills)]
    per_pair = list(map(listed.__getitem__, which))
    _check_entries(span, p1, p2, [(rho, v, e) for (rho, v), pair
                                  in zip(cell_pairs(span, p1), per_pair) for e in pair])
    it, fibers = iter(per_pair), p1.shape_sort.fibers()
    per_state = [list(itertools.product(*itertools.islice(it, len(fibers[i]))))
                 for i in span.left.table]
    # a state's rows have one length, so its first row checks them all
    _check_layout(span, p1, [rows[0] for rows in per_state])
    cells = []
    for plan in itertools.product(*per_state):
        c = object.__new__(SimCell)
        c._keep(span, p1, p2, plan)
        cells.append(c)
    return cells


def _signatures(c: SimCell) -> list[tuple]:
    """Per state: its two legs and its row with the successors left out."""
    left, right = c.span.left.table, c.span.right.table
    return [(left[rho], right[rho], tuple([(w, tuple([k for _, k in moves])) for w, moves in row]))
            for rho, row in enumerate(c._plan)]


def equivalence_check(c: SimCell, c2: SimCell) -> FinMap | None:
    """Find a bijection of span states, commuting with both legs, under
    which the two cells' rows agree: the same shapes and positions, with
    each successor carried along. Returns it, or None.

    Where a state goes fixes where its successors go, through the aligned
    moves of the two rows. So the search assigns, propagates with a
    stack, fails at the first conflict and branches only at states with
    moves that nothing has forced yet. The states it leaves have no moves
    and no predecessors; those with the same legs and rows are
    interchangeable and are matched by count. The guard counts branch
    choices."""
    if ((c.src is not c2.src and c.src != c2.src)
            or (c.dst is not c2.dst and c.dst != c2.dst)):
        raise ShapeMismatch("equivalent cells need the same endpoint diagrams")
    n = c.span.carrier.size
    if c2.span.carrier.size != n:
        return None
    plan, plan2 = c._plan, c2._plan
    r, r2 = c.span, c2.span
    if plan == plan2 and r.left.table == r2.left.table and r.right.table == r2.right.table:
        # equal rows over equal legs: the identity carries every successor
        return FinMap(r.carrier, r2.carrier, tuple(range(n)))
    sig, sig2 = _signatures(c), _signatures(c2)
    # a state's image has its signature
    if sorted(sig) != sorted(sig2):
        return None
    eps: list = [None] * n
    inv: list = [None] * n

    def assign(rho: int, sigma: int, trail: list) -> bool:
        stack = [(rho, sigma)]
        while stack:
            a, b = stack.pop()
            if eps[a] is not None:
                if eps[a] != b:
                    return False
                continue
            if inv[b] is not None or sig[a] != sig2[b]:
                return False
            eps[a], inv[b] = b, a
            trail.append(a)
            for (_, moves), (_, moves2) in zip(plan[a], plan2[b]):
                stack.extend((g, g2) for (g, _), (g2, _) in zip(moves, moves2))
        return True

    candidates: dict = {}
    for b in range(n):
        candidates.setdefault(sig2[b], []).append(b)
    branching = [a for a in range(n) if any(moves for _, moves in plan[a])]
    limit, choices = finset.guard_limit(), 0
    # open branch points: position in branching, candidates left, and the
    # states assigned by the current choice
    points: list = []
    pos = 0
    while True:
        while pos < len(branching) and eps[branching[pos]] is not None:
            pos += 1
        if pos == len(branching):
            break
        points.append((pos, iter(candidates[sig[branching[pos]]]), []))
        while True:
            if not points:
                return None
            p, cands, trail = points[-1]
            for a in trail:
                inv[eps[a]] = None
                eps[a] = None
            trail.clear()
            b = next((b for b in cands if inv[b] is None), None)
            if b is None:
                points.pop()
                continue
            choices += 1
            if choices > limit:
                check_guard_cut(choices, "span isomorphism search")
            if assign(branching[p], b, trail):
                pos = p + 1
                break
    spare: dict = {}
    for b in reversed(range(n)):
        if inv[b] is None:
            spare.setdefault(sig2[b], []).append(b)
    for a in range(n):
        if eps[a] is None:
            eps[a] = spare[sig[a]].pop()
    return FinMap(r.carrier, r2.carrier, tuple(eps))


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
        cop = finset.coproduct(p1.source, p2.source)
        self._shape_shift = p1.shapes.size
        self.inl = self._injection(p1, cop.inl, left=True)
        self.inr = self._injection(p2, cop.inr, left=False)
        self.proj1 = self._projection(p1, cop.inl, left=True)
        self.proj2 = self._projection(p2, cop.inr, left=False)

    def _injection(self, p: PolyDiagram, embed: FinMap, left: bool) -> SimCell:
        span = Span(p.source, finset.identity(p.source), embed)
        return _copying(span, p, self.sum, p, 0 if left else self._shape_shift)

    def _projection(self, p: PolyDiagram, embed: FinMap, left: bool) -> SimCell:
        # only shapes of the chosen part sit over embedded sorts
        span = Span(p.source, embed, finset.identity(p.source))
        return _copying(span, self.sum, p, p, 0 if left else -self._shape_shift)

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
