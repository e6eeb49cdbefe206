"""Polynomial diagrams over finite sets and the diagram-level calculus.

A diagram is a chain of finite sets and maps

    source <-- dirs --> shapes --> target

read as a sum-of-monomials description of a functor between families: a
shape is a monomial, its directions are the variable occurrences, and
dir_sort says which source index each occurrence reads. The represented
functor sends a family x over the source to the family over the target
whose fiber collects pairs (shape, payload), the payload choosing one
x-element for every direction of the shape.

The module provides two independent composition algorithms (a direct
substitution formula and a structural pipeline of pullbacks plus one
distributivity square), the pointwise tensor and sum, the single-sorted
internal hom and dualization, the truncated multiset exponential, the
sum lift of a span, and a witness-producing isomorphism check.
Element-level constructions keep explicit decodings so that every
claimed bijection is checked on actual elements, never just on
cardinalities.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType

from . import fam, finset
from .errors import ShapeMismatch, ValidationError
from .fam import FamMorphism, Family, Span
from .finset import FinMap, FinSet, check_guard
from .report import Report


@dataclass(frozen=True)
class PolyDiagram:
    """source <- dirs -> shapes -> target with the three structure maps."""

    source: FinSet
    dirs: FinSet
    shapes: FinSet
    target: FinSet
    dir_sort: FinMap
    dir_shape: FinMap
    shape_sort: FinMap

    __getstate__ = finset.field_state

    def __post_init__(self) -> None:
        if self.dir_sort.dom != self.dirs or self.dir_sort.cod != self.source:
            raise ShapeMismatch("dir_sort must map dirs to source")
        if self.dir_shape.dom != self.dirs or self.dir_shape.cod != self.shapes:
            raise ShapeMismatch("dir_shape must map dirs to shapes")
        if self.shape_sort.dom != self.shapes or self.shape_sort.cod != self.target:
            raise ShapeMismatch("shape_sort must map shapes to target")

    def shape_fiber(self, v: int) -> tuple[int, ...]:
        """The directions of shape v, ascending."""
        return self.dir_shape.fiber(v)

    def is_single_sorted(self) -> bool:
        return self.source.size == 1 and self.target.size == 1

    def is_endo(self) -> bool:
        return self.source is self.target or self.source == self.target


def identity_diagram(i: FinSet) -> PolyDiagram:
    ident = finset.identity(i)
    return PolyDiagram(i, i, i, i, ident, ident, ident)


def single_sorted(fiber_sizes: tuple[int, ...] | list[int]) -> PolyDiagram:
    """The one-variable polynomial with one shape per entry, of the given
    direction counts: sizes (2, 1) builds X^2 + X."""
    one = FinSet(1)
    dir_shape = finset.blocks(FinSet(len(fiber_sizes)), fiber_sizes)
    return PolyDiagram(
        source=one,
        dirs=dir_shape.dom,
        shapes=dir_shape.cod,
        target=one,
        dir_sort=finset.constant(dir_shape.dom, one, 0),
        dir_shape=dir_shape,
        shape_sort=finset.constant(dir_shape.cod, one, 0),
    )


def zero_diagram() -> PolyDiagram:
    empty = FinSet(0)
    e = FinMap(empty, empty, ())
    return PolyDiagram(empty, empty, empty, empty, e, e, e)


def _by_sort(p: PolyDiagram) -> list[dict[int, list[int]]]:
    """Per shape of p, its directions grouped by sort, each group
    ascending: the family A_v of the shape's representable y^{A_v}. Built
    in one pass over p's directions on the first call and kept on p, so
    every later call returns the same list; shared, so read-only."""
    groups = getattr(p, "_by_sort", None)
    if groups is None:
        groups = [{} for _ in p.shapes]
        for u, (v, i) in enumerate(zip(p.dir_shape.table, p.dir_sort.table)):
            groups[v].setdefault(i, []).append(u)
        object.__setattr__(p, "_by_sort", groups)
    return groups


def _arities(p: PolyDiagram) -> list[int]:
    """Each shape's arity, in one pass over the direction table."""
    return list(map(Counter(p.dir_shape.table).__getitem__, p.shapes))


def arity_counts(p: PolyDiagram) -> dict[int, int]:
    """How many shapes have each arity (_arities)."""
    return Counter(_arities(p))


def notation(p: PolyDiagram) -> str:
    """Sum-of-monomials rendering of a single-sorted diagram, e.g. 2X^2.
    Raise ValidationError for a diagram with more sorts."""
    if not p.is_single_sorted():
        raise ValidationError("notation is single-sorted only")
    return monomials(arity_counts(p))


def monomials(counts: Mapping[int, int]) -> str:
    """Sum-of-monomials rendering of the shape counts per arity."""
    terms = []
    for e in sorted(counts, reverse=True):
        c = counts[e]
        if e == 0:
            terms.append(str(c))
        else:
            x = "X" if e == 1 else f"X^{e}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# extension: evaluating the represented functor


def _payload_counts(p: PolyDiagram, sizes) -> tuple[int, ...]:
    """Per shape v of p, its number of payloads at a family over p's
    source with the given fiber sizes: Π_i sizes[i]^n_v(i), n_v(i) the
    number of v's directions of sort i, one power per sort group
    (_by_sort). The package's one payload count: by Yoneda, the count at
    a shape's representing family is the number of maps out of its
    representable, so nat's and sim's hom-set counts read it too."""
    return tuple([math.prod([sizes[i] ** len(us) for i, us in by.items()])
                  for by in _by_sort(p)])


def _family_sizes(p: PolyDiagram) -> list[tuple[int, ...]]:
    """Per shape v of p, the fiber sizes of its representing family A_v:
    the number of v's directions of each sort of p's source."""
    sorts = range(p.source.size)
    return [tuple([len(by[i]) if i in by else 0 for i in sorts]) for by in _by_sort(p)]


def payload_sizes(p: PolyDiagram, x: Family) -> tuple[int, ...]:
    """Per shape, the count of payloads at x, from x's fiber sizes
    (_payload_counts)."""
    if x.base != p.source:
        raise ShapeMismatch("family must live over the diagram's source")
    return _payload_counts(p, x.fiber_sizes())


def extension_fiber_sizes(p: PolyDiagram, x: Family) -> tuple[int, ...]:
    """Fiber sizes of the evaluated extension, computed arithmetically
    (no materialization, no guard)."""
    per_shape = payload_sizes(p, x)
    sizes = [0] * p.target.size
    for v in p.shapes:
        sizes[p.shape_sort(v)] += per_shape[v]
    return tuple(sizes)


# the label of every guard check on an extension's carrier
_CARRIER = "extension carrier"


@dataclass(frozen=True, eq=False)
class Extension:
    """The extension of a diagram evaluated at one family: the value
    family over the target and its elements in canonical order, with the
    rank of each element and the payloads grouped by shape, each built on
    first use. One record per diagram and family value, shared by every
    caller; treat it as read-only."""

    family: Family
    elements: tuple[tuple[int, tuple[int, ...]], ...]

    __getstate__ = finset.field_state

    def index(self) -> MappingProxyType:
        # cached like FinMap.fibers; the proxy keeps the shared dict read-only
        cached = getattr(self, "_index", None)
        if cached is None:
            cached = MappingProxyType({elem: k for k, elem in enumerate(self.elements)})
            object.__setattr__(self, "_index", cached)
        return cached

    def payloads_by_shape(self) -> MappingProxyType:
        """Per shape v with elements, the payloads of its elements in
        order: the elements of one shape are a run of the canonical
        order. Built from the elements on first use and kept, read-only,
        like index()."""
        cached = getattr(self, "_payloads_by_shape", None)
        if cached is None:
            cached = MappingProxyType({v: tuple(map(itemgetter(1), run)) for v, run
                                       in itertools.groupby(self.elements, itemgetter(0))})
            object.__setattr__(self, "_payloads_by_shape", cached)
        return cached


def _extension(p: PolyDiagram, x: Family) -> Extension:
    """The extension of p at x, built on the first request for a family
    of x's value and kept in a dict on p, so it lives as long as p. The
    guard is checked on every request, so a limit lowered after the build
    still refuses the carrier.

    The value family is a block family, interned (fam.family_from_fibers),
    and so are the generic and check families of nat. Each dict key is
    then the one live object of its value, so a lookup with a block
    family stops at the identity check; a value-equal family built with
    the Family constructor finds the same record by equality."""
    cache = getattr(p, "_ext", None)
    if cache is None:
        cache = {}
        object.__setattr__(p, "_ext", cache)
    ext = cache.get(x)
    if ext is not None:
        check_guard(ext.family.total.size, _CARRIER)
        return ext
    sizes = extension_fiber_sizes(p, x)
    check_guard(sum(sizes), _CARRIER)
    xfibs = x.proj.fibers()
    dir_sort = p.dir_sort.table
    shape_fibers = p.dir_shape.fibers()
    out: list[tuple[int, tuple[int, ...]]] = []
    for vs in p.shape_sort.fibers():
        for v in vs:
            choices = [xfibs[dir_sort[u]] for u in shape_fibers[v]]
            out.extend((v, payload) for payload in itertools.product(*choices))
    ext = Extension(fam.family_from_fibers(p.target, sizes), tuple(out))
    cache[x] = ext
    return ext


def extension_elements(p: PolyDiagram, x: Family) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The elements (shape, payload) of the evaluated extension, in the
    canonical order: target index major, then shape ascending, then
    payload in odometer order (rightmost direction fastest). Payload
    entries are absolute elements of x.total, one per direction of the
    shape in ascending direction order. Guarded. The tuple is shared by
    every call with a family of x's value, is read-only and lives as long
    as p."""
    return _extension(p, x).elements


def extension_index(p: PolyDiagram, x: Family) -> Mapping[tuple[int, tuple[int, ...]], int]:
    """The position of each element in extension_elements(p, x). Guarded.
    The mapping is shared by every call with a family of x's value, lives
    as long as p and is read-only."""
    return _extension(p, x).index()


def eval_extension(p: PolyDiagram, x: Family) -> Family:
    """Evaluate the diagram's extension on x: the family over the target
    whose elements are indexed as in extension_elements. Guarded. The
    family is shared by every call with a family of x's value, is
    read-only like every Family and lives as long as p."""
    return _extension(p, x).family


def extension_map(p: PolyDiagram, h: FamMorphism) -> FamMorphism:
    """Functorial action of the extension on a family morphism: apply h
    to every payload entry, keep the shape. Each endpoint's extension
    record is read once, and guarded, source before target."""
    src = _extension(p, h.src)
    dst = _extension(p, h.dst)
    table = _action_at(dst, h.map.table, src.elements)
    src, dst = src.family, dst.family
    return FamMorphism(src, dst, FinMap(src.total, dst.total, table))


def _action_at(dst: Extension, ht: tuple[int, ...], elements) -> tuple[int, ...]:
    """The action of the extension on a family morphism with table ht,
    read at the given elements (shape, payload) of its source's
    extension: per element, the rank in dst, the target's record, of the
    same shape with ht applied to every payload entry. extension_map
    reads it at every element; smcc's binaturality check reads it only
    at the elements that rho's component lands on."""
    index = dst.index()
    return tuple([index[(v, tuple([ht[t] for t in payload]))]
                  for v, payload in elements])


def eval_via_slices(p: PolyDiagram, x: Family) -> Family:
    """The same functor computed as a composite of the three reindexing
    functors of module fam; kept as an independent route for self-checks."""
    return fam.sigma(p.shape_sort, fam.pi(p.dir_shape, fam.delta(p.dir_sort, x)))


def extension_agreement(p: PolyDiagram, x: Family) -> Report:
    """Check that the direct enumeration and the reindexing route produce
    the same family, element by element."""
    direct = eval_extension(p, x)
    routed = eval_via_slices(p, x)
    lines = [f"fiber sizes {direct.fiber_sizes()} vs {routed.fiber_sizes()}"]
    ok = direct.fiber_sizes() == routed.fiber_sizes()

    dpairs = fam.delta_pairs(p.dir_sort, x)
    secs = fam.pi_sections(p.dir_shape, fam.delta(p.dir_sort, x))
    index = extension_index(p, x)
    seen = bytearray(direct.total.size)
    matched = ok
    for v, sec in secs:
        payload = tuple(dpairs[s][1] for s in sec)
        k = index[(v, payload)]
        if seen[k]:
            matched = False
            break
        seen[k] = 1
    matched = matched and all(seen)
    lines.append(f"element decodings form a bijection: {'yes' if matched else 'NO'}")
    return Report("extension route agreement", bool(ok and matched), tuple(lines))


# ---------------------------------------------------------------------------
# composition, the direct substitution formula


@dataclass(frozen=True)
class Composite:
    """A composite diagram together with the decoding of its shapes.

    shape_reps[c] = (w, assignment): w is the outer shape, and the
    assignment picks, for each outer direction of w (ascending), an inner
    shape over that direction's sort. The directions of c are the pairs
    (e, u) of an outer direction e of w and an inner direction u of its
    inner shape, e then u ascending.
    """

    diagram: PolyDiagram
    shape_reps: tuple[tuple[int, tuple[int, ...]], ...]


def _compose_guard(q: PolyDiagram, p: PolyDiagram) -> None:
    """The checks of both composition routes: raise ShapeMismatch unless
    q's source is p's target, then guard the composite's carriers by
    their sizes. A composite shape is an outer shape w with an inner
    shape for each direction of w; a composite direction is such a shape
    with one direction of w and one direction of its inner shape. Every
    product saturates at the limit plus one, so a refusal costs time
    linear in the directions."""
    if p.target != q.source:
        raise ShapeMismatch("composition needs p.target = q.source")
    cap = finset.guard_limit() + 1
    inner_per_sort = [len(p.shape_sort.fiber(j)) for j in p.target]
    dirs_per_sort = [sum(len(p.shape_fiber(v)) for v in p.shape_sort.fiber(j))
                     for j in p.target]
    # per outer shape w: an inner shape for each direction of w, and then
    # one direction of w with one direction of its inner shape
    sizes = [finset.capped_product_rule(
        ((inner_per_sort[j], dirs_per_sort[j]) for j in map(q.dir_sort, q.shape_fiber(w))),
        cap) for w in q.shapes]
    finset.check_guard_sum((shapes for shapes, _ in sizes), "composite shape carrier")
    finset.check_guard_sum((dirs for _, dirs in sizes), "composite direction carrier")


def compose_data(q: PolyDiagram, p: PolyDiagram) -> Composite:
    """Composite of p followed by q (so q's source is p's target), by the
    substitution formula: a composite shape is an outer shape with an
    inner shape chosen for each outer direction; a composite direction is
    an outer direction paired with an inner direction of its chosen
    shape."""
    _compose_guard(q, p)
    shape_reps: list[tuple[int, tuple[int, ...]]] = []
    shape_sort_table: list[int] = []
    dir_sort_table: list[int] = []
    dir_shape_table: list[int] = []
    for w in q.shapes:
        choices = [p.shape_sort.fiber(q.dir_sort(e)) for e in q.shape_fiber(w)]
        for assignment in itertools.product(*choices):
            c = len(shape_reps)
            shape_reps.append((w, assignment))
            shape_sort_table.append(q.shape_sort(w))
            for v in assignment:
                us = p.shape_fiber(v)
                dir_sort_table.extend(map(p.dir_sort, us))
                dir_shape_table.extend([c] * len(us))
    shapes = FinSet(len(shape_reps))
    dirs = FinSet(len(dir_shape_table))
    diagram = PolyDiagram(
        source=p.source,
        dirs=dirs,
        shapes=shapes,
        target=q.target,
        dir_sort=FinMap(dirs, p.source, tuple(dir_sort_table)),
        dir_shape=FinMap(dirs, shapes, tuple(dir_shape_table)),
        shape_sort=FinMap(shapes, q.target, tuple(shape_sort_table)),
    )
    return Composite(diagram, tuple(shape_reps))


def compose_direct(q: PolyDiagram, p: PolyDiagram) -> PolyDiagram:
    return compose_data(q, p).diagram


def compose_bijection(q: PolyDiagram, p: PolyDiagram, x: Family) -> FamMorphism:
    """The canonical comparison from the composite's value at x to the
    outer value at the inner value; a bijection by construction of the
    substitution formula, verified by the FamMorphism validation plus
    compose_witness."""
    comp = compose_data(q, p)
    inner = eval_extension(p, x)
    inner_index = extension_index(p, x)
    outer_index = extension_index(q, inner)
    src = eval_extension(comp.diagram, x)
    arity = [len(fiber) for fiber in p.dir_shape.fibers()]

    # a composite shape's directions are its inner shapes' directions, one
    # block per outer direction in order (compose_data), so a payload
    # splits into consecutive blocks
    table = []
    for c, payload in extension_elements(comp.diagram, x):
        w, assignment = comp.shape_reps[c]
        qpayload = []
        offset = 0
        for v in assignment:
            end = offset + arity[v]
            qpayload.append(inner_index[(v, payload[offset:end])])
            offset = end
        table.append(outer_index[(w, tuple(qpayload))])
    dst = eval_extension(q, inner)
    return FamMorphism(src, dst, FinMap(src.total, dst.total, tuple(table)))


def compose_witness(q: PolyDiagram, p: PolyDiagram, x: Family) -> Report:
    """Verify that evaluating the composite equals evaluating in stages,
    with an explicit element bijection."""
    m = compose_bijection(q, p, x)
    lhs = m.src.fiber_sizes()
    rhs = extension_fiber_sizes(q, eval_extension(p, x))
    lines = [f"fiber sizes {lhs} vs {rhs}"]
    ok = lhs == rhs
    bij = m.is_iso()
    lines.append(f"canonical comparison bijective: {'yes' if bij else 'NO'}")
    return Report("composition agrees with evaluation in stages", bool(ok and bij), tuple(lines))


# ---------------------------------------------------------------------------
# composition, the structural pipeline


def compose_structural(q: PolyDiagram, p: PolyDiagram) -> PolyDiagram:
    """Composite built from four pullbacks and one distributivity square.

    Reading the stage-wise evaluation as a chain of reindexing functors
    and commuting the middle pair step by step:

      1. pull q's direction sorts back along p's shape sorts (pullback M1),
         trading substitution-past-a-sum for a sum;
      2. pull that corner's shape leg back along p's direction shapes
         (pullback M2), trading substitution-past-a-product for a product;
      3. distribute the product over the sum (the distributivity square:
         its section family U, its own pullback W, and evaluation eps);
      4. pull M2 back along eps (pullback M3).

    Shapes are then U, directions M3.
    """
    _compose_guard(q, p)
    pb1 = finset.pullback(q.dir_sort, p.shape_sort)
    pb2 = finset.pullback(pb1.right, p.dir_shape)
    dist = fam.distributivity_square(q.dir_shape, pb1.left)
    pb4 = finset.pullback(dist.eps, pb2.left)
    shapes = dist.u.dom
    dirs = pb4.carrier
    return PolyDiagram(
        source=p.source,
        dirs=dirs,
        shapes=shapes,
        target=q.target,
        dir_sort=pb4.right.then(pb2.right).then(p.dir_sort),
        dir_shape=pb4.left.then(dist.a_prime),
        shape_sort=dist.u.then(q.shape_sort),
    )


# ---------------------------------------------------------------------------
# tensor and sum


def _pointwise(op, p1: PolyDiagram, p2: PolyDiagram) -> PolyDiagram:
    """The diagram whose three structure maps are op of the operands'
    (finset.product_map or finset.sum_map); its carriers are the maps'
    domains and codomains."""
    dir_sort = op(p1.dir_sort, p2.dir_sort)
    shape_sort = op(p1.shape_sort, p2.shape_sort)
    return PolyDiagram(
        source=dir_sort.cod,
        dirs=dir_sort.dom,
        shapes=shape_sort.dom,
        target=shape_sort.cod,
        dir_sort=dir_sort,
        dir_shape=op(p1.dir_shape, p2.dir_shape),
        shape_sort=shape_sort,
    )


def tensor(p1: PolyDiagram, p2: PolyDiagram) -> PolyDiagram:
    """Pointwise product of diagrams: carriers multiply and all three
    structure maps act coordinatewise. On single-sorted inputs: shapes
    pair up and direction fibers multiply.

    The result is kept in a dict on p1 keyed by p2's fields, so every
    call with a p2 of the same value shares one read-only diagram (and so
    its extension carriers) for as long as p1 lives. Keying by the fields
    keeps p2 itself and its carriers out of p1's cache. Every call is
    guarded by the sum of the four carriers, before the cache lookup, so
    a limit lowered after the build still refuses the held diagram, and a
    build materializes nothing first."""
    finset.check_guard_sum((p1.source.size * p2.source.size, p1.target.size * p2.target.size,
                            p1.shapes.size * p2.shapes.size, p1.dirs.size * p2.dirs.size),
                           "tensor carrier")
    cache = getattr(p1, "_tensor", None)
    if cache is None:
        cache = {}
        object.__setattr__(p1, "_tensor", cache)
    key = (p2.source, p2.dirs, p2.shapes, p2.target, p2.dir_sort, p2.dir_shape, p2.shape_sort)
    tens = cache.get(key)
    if tens is None:
        tens = cache[key] = _pointwise(finset.product_map, p1, p2)
    return tens


def tensor_unit() -> PolyDiagram:
    return identity_diagram(FinSet(1))


def reindex_diagram(p: PolyDiagram, src_iso: FinMap, tgt_iso: FinMap) -> PolyDiagram:
    """Transport a diagram along bijections of its source and target."""
    if not (src_iso.is_bijection() and tgt_iso.is_bijection()):
        raise ValidationError("reindexing requires bijections")
    if src_iso.dom != p.source or tgt_iso.dom != p.target:
        raise ShapeMismatch("reindexing bijections must start at source/target")
    return PolyDiagram(
        source=src_iso.cod,
        dirs=p.dirs,
        shapes=p.shapes,
        target=tgt_iso.cod,
        dir_sort=p.dir_sort.then(src_iso),
        dir_shape=p.dir_shape,
        shape_sort=p.shape_sort.then(tgt_iso),
    )


def plus(p1: PolyDiagram, p2: PolyDiagram) -> PolyDiagram:
    """Pointwise sum of diagrams: carriers add, maps act by parts."""
    return _pointwise(finset.sum_map, p1, p2)


def plus_eval_report(p1: PolyDiagram, p2: PolyDiagram, x: Family, y: Family) -> Report:
    """Verify that the sum diagram evaluated on the sum family is the sum
    of the separate evaluations, with an explicit bijection."""
    both, xy = plus(p1, p2), fam.family_sum(x, y)
    combined = eval_extension(both, xy)
    left = eval_extension(p1, x)
    right = eval_extension(p2, y)
    split = fam.family_sum(left, right)
    lines = [f"fiber sizes {combined.fiber_sizes()} vs {split.fiber_sizes()}"]
    ok = combined.fiber_sizes() == split.fiber_sizes()

    index1 = extension_index(p1, x)
    index2 = extension_index(p2, y)
    table = []
    for v, payload in extension_elements(both, xy):
        if v < p1.shapes.size:
            table.append(index1[(v, payload)])
        else:
            table.append(
                left.total.size
                + index2[(v - p1.shapes.size, tuple(t - x.total.size for t in payload))]
            )
    m = FamMorphism(combined, split, FinMap(combined.total, split.total, tuple(table)))
    good = m.is_iso()
    lines.append(f"element decodings form a fiberwise bijection: {'yes' if good else 'NO'}")
    return Report("sum evaluates by parts", bool(ok and good), tuple(lines))


# ---------------------------------------------------------------------------
# single-sorted internal hom and dualization


@dataclass(frozen=True)
class HomData:
    """The single-sorted hom diagram with the decoding of its shapes.

    shape_reps[c] = (f_table, phi): f_table maps first-operand shapes to
    second-operand shapes; phi[a] is the backward table of the c-th shape
    at first-operand shape a, giving for each direction of f(a)
    (by position) a position in a's direction fiber. The directions of c
    are the pairs (a, e) of a first-operand shape a and a direction e of
    f(a), a then e ascending.
    """

    diagram: PolyDiagram
    shape_reps: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]


def _hom_sizes(by_arity2: Mapping[int, int], by_arity3: Mapping[int, int],
               cap: int) -> tuple[int, int]:
    """The numbers of shapes and of directions of the hom from p2 to p3,
    each cut to at most cap, in closed form from the shape counts per
    arity (arity_counts): the sum over shape maps f factorizes over the
    shapes v of p2. With n2 and n3 the arities in p2 and p3,
    S_v = Σ_w n2(v)^n3(w) and D_v = Σ_w n2(v)^n3(w) · n3(w), there are
    Π_v S_v shapes and Σ_v D_v · Π_{v'≠v} S_{v'} directions
    (capped_product_rule). S_v and D_v depend on v's arity alone, so the k
    shapes of one arity make one block: S_v^k shapes, k · D_v · S_v^(k-1)
    directions."""
    blocks = []
    for n, k in by_arity2.items():
        s = d = 0
        for m, c in by_arity3.items():
            tables = c * finset.capped_power(n, m, cap)
            s, d = min(s + tables, cap), min(d + tables * m, cap)
        blocks.append((finset.capped_power(s, k, cap),
                       min(k * d * finset.capped_power(s, k - 1, cap), cap)))
    return finset.capped_product_rule(blocks, cap)


def _check_hom_guards(by_arity2: Mapping[int, int], by_arity3: Mapping[int, int]) -> int:
    """Guard the hom from p2 to p3 before it is built, given the operands'
    positive shape counts per arity: its shape carrier, then its direction
    carrier (_hom_sizes, cut at the limit plus one). Returns the shape
    count."""
    shape_count, dir_count = _hom_sizes(by_arity2, by_arity3, finset.guard_limit() + 1)
    finset.check_guard_cut(shape_count, "hom shape carrier")
    finset.check_guard_cut(dir_count, "hom direction carrier")
    return shape_count


def hom_data(p2: PolyDiagram, p3: PolyDiagram) -> HomData:
    """The internal hom of single-sorted diagrams: a shape is a forward
    map f on shapes with a backward table on direction fibers, a direction
    is a pair of a first-operand shape v and a direction of f(v). Shapes
    enumerate by f in lexicographic table order, then by the backward
    tables in odometer order.

    Guarded, in this order, by the sizes of both carriers in closed form
    (_hom_sizes), each cut at the limit plus one: a refusal quotes "more
    than <limit>", costs time linear in the operands' directions and
    visits no shape map. The build counts each operand's arities in one
    pass over its direction table, building no fibers, and visits only
    the shape maps f with n2(v)^n3(f(v)) > 0 at every v. Each of them
    has at least one hom shape, so the maps visited are at most
    the guarded shape count, however many maps there are between the
    shape sets; the shapes and directions of each map are emitted as one
    block."""
    if not (p2.is_single_sorted() and p3.is_single_sorted()):
        raise ValidationError("general hom not implemented: single-sorted diagrams only")
    arity2, arity3 = _arities(p2), _arities(p3)
    by_arity2, by_arity3 = Counter(arity2), Counter(arity3)
    shape_count = _check_hom_guards(by_arity2, by_arity3)

    # the images w of v that leave v a backward table, n2(v)^n3(w) > 0: every
    # shape when v has directions, else the shapes without; as tuples, which
    # itertools.product takes without copying
    every = tuple(p3.shapes)
    constants = tuple(w for w, n3 in enumerate(arity3) if not n3)
    images = [every if n2 else constants for n2 in arity2]
    # the backward tables per pair of arities; while there are shapes, each
    # S_v is at least 1, so n2^n3 <= S_v <= shape_count is within the guard
    tables = {(n2, n3): tuple(itertools.product(range(n2), repeat=n3))
              for n2 in by_arity2 for n3 in by_arity3} if shape_count else {}
    shape_reps: list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = []
    arities: list[int] = []
    for f in itertools.product(*images):
        # the table list of each v at (n2(v), n3(f(v))), looked up in C
        blocks = map(tables.__getitem__, zip(arity2, map(arity3.__getitem__, f)))
        start = len(shape_reps)
        shape_reps.extend((f, phi) for phi in itertools.product(*blocks))
        arities.extend([sum(map(arity3.__getitem__, f))] * (len(shape_reps) - start))
    return HomData(single_sorted(arities), tuple(shape_reps))


def hom_single_sorted(p2: PolyDiagram, p3: PolyDiagram) -> PolyDiagram:
    return hom_data(p2, p3).diagram


def bottom_diagram() -> PolyDiagram:
    """The dualizing diagram: one shape with a single direction (the
    identity functor on one sort), the choice under which dualizing
    A shapes of arity B yields B^A shapes of arity A."""
    return identity_diagram(FinSet(1))


def dualize(p: PolyDiagram) -> PolyDiagram:
    if not p.is_single_sorted():
        raise ValidationError("dualization is single-sorted only")
    return hom_single_sorted(p, bottom_diagram())


# ---------------------------------------------------------------------------
# container morphisms and isomorphism check


@dataclass(frozen=True)
class DiagMorphism:
    """Forward on shapes, backward on directions.

    alpha maps src shapes to dst shapes over the common target; betas[v]
    lists, for each direction of alpha(v) (ascending), an absolute src
    direction of shape v with the same sort.

    Checked on construction, in one pass that reads alpha's table, the
    beta tables and the endpoints' structure tables once: the shape map
    (_check_alpha: the endpoints, alpha's domain, codomain and sorts),
    the number of beta tables, then the beta tables (_check_betas: shape
    by shape the table's length and, entry by entry, that it stays in
    shape v's direction fiber and keeps the sort). The first failing
    check raises. nat.enumerate_tables runs the same two checks once per
    option, the beta check once per (shape, target shape, table) and the
    alpha check once per shape map, and nat.enumerate_dm assembles its
    members without checking them again (_assembled).
    """

    src: PolyDiagram
    dst: PolyDiagram
    alpha: FinMap
    betas: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        src, alpha, betas = self.src, self.alpha, self.betas
        _check_alpha(src, self.dst, alpha)
        if len(betas) != src.shapes.size:
            raise ShapeMismatch("one beta table per src shape required")
        _check_betas(src, self.dst, zip(range(len(betas)), alpha.table, betas))


def _check_alpha(src: PolyDiagram, dst: PolyDiagram, alpha: FinMap) -> None:
    """Raise unless the endpoints share source and target and alpha maps
    src shapes to dst shapes, keeping each shape's sort."""
    if src.source != dst.source or src.target != dst.target:
        raise ShapeMismatch("morphism endpoints must share source and target")
    if alpha.dom != src.shapes or alpha.cod != dst.shapes:
        raise ShapeMismatch("alpha must map src shapes to dst shapes")
    dst_shape_sort = dst.shape_sort.table
    if tuple(dst_shape_sort[w] for w in alpha.table) != src.shape_sort.table:
        raise ValidationError("alpha does not respect shape sorts")


def _check_betas(src: PolyDiagram, dst: PolyDiagram, options) -> None:
    """Raise unless each (v, w, table) of options is a backward table of
    src shape v at dst shape w: one entry per direction of w, each a
    direction of v with that direction's sort. The first failing entry
    raises."""
    fibers2 = dst.dir_shape.fibers()
    n_dirs, dir_shape, dir_sort = src.dirs.size, src.dir_shape.table, src.dir_sort.table
    dst_dir_sort = dst.dir_sort.table
    for v, w, table in options:
        fiber2 = fibers2[w]
        if len(table) != len(fiber2):
            raise ShapeMismatch(f"beta table at shape {v} has the wrong length")
        for u1, u2 in zip(table, fiber2):
            if not 0 <= u1 < n_dirs or dir_shape[u1] != v:
                raise ValidationError(f"beta at shape {v} leaves the direction fiber")
            if dir_sort[u1] != dst_dir_sort[u2]:
                raise ValidationError(f"beta at shape {v} does not respect sorts")


def _assembled(src: PolyDiagram, dst: PolyDiagram, alpha: FinMap, betas: tuple) -> DiagMorphism:
    """The morphism with these fields, set without the construction
    check, for parts that have passed _check_alpha and _check_betas. The
    fields go into the instance dict in one update, as in fam._assembled."""
    m = object.__new__(DiagMorphism)
    m.__dict__.update(src=src, dst=dst, alpha=alpha, betas=betas)
    return m


def identity_dm(p: PolyDiagram) -> DiagMorphism:
    return DiagMorphism(
        p, p, finset.identity(p.shapes), tuple(p.shape_fiber(v) for v in p.shapes)
    )


def _compose_dm_tables(
    m2: DiagMorphism, m1: DiagMorphism
) -> tuple[FinMap, tuple[tuple[int, ...], ...]]:
    alpha = m1.alpha.then(m2.alpha)
    # m2's answer at w names a direction of w; m1's table at v reads it by
    # its position in w's fiber
    positions = m2.src.dir_shape.positions()
    betas = tuple(tuple([m1.betas[v][positions[u]] for u in m2.betas[w]])
                  for v, w in enumerate(m1.alpha.table))
    return alpha, betas


@dataclass(frozen=True)
class DiagIso:
    """A pair of mutually inverse container morphisms, checked on
    construction: both composites of the shape maps are identities, and
    so are the direction tables of forward then backward (_compose_dm_tables)."""

    forward: DiagMorphism
    backward: DiagMorphism

    def __post_init__(self) -> None:
        if self.forward.src != self.backward.dst or self.forward.dst != self.backward.src:
            raise ShapeMismatch("iso directions do not match up")
        alpha_fb, betas = _compose_dm_tables(self.backward, self.forward)
        alpha_bf = self.backward.alpha.then(self.forward.alpha)
        if alpha_fb.table != tuple(range(self.forward.src.shapes.size)):
            raise ValidationError("shape maps are not mutually inverse")
        if alpha_bf.table != tuple(range(self.backward.src.shapes.size)):
            raise ValidationError("shape maps are not mutually inverse")
        if betas != self.forward.src.dir_shape.fibers():
            raise ValidationError("direction tables are not mutually inverse")


def _dir_signature(p: PolyDiagram, v: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Shape v's direction count per sort read, sorts ascending, and its
    shape sort."""
    return (tuple(sorted([(i, len(us)) for i, us in _by_sort(p)[v].items()])), p.shape_sort(v))


def iso_check(p1: PolyDiagram, p2: PolyDiagram) -> DiagIso | None:
    """Decide isomorphism of diagrams over the same sorts and return a
    witness (a shape bijection over the target together with
    sort-preserving direction bijections), or None. Two diagrams are
    isomorphic exactly when their multisets of shape signatures (direction
    count per sort, shape sort) agree, and shapes with equal signatures
    are interchangeable, so each shape of p1 is matched to the first
    unused shape of p2 with its signature, with no backtracking. Within a
    matched pair, each direction of p2's shape takes the first unused
    direction of its sort in p1's shape, read off p1's groups (_by_sort)
    by one iterator per group."""
    if p1.source != p2.source or p1.target != p2.target:
        raise ShapeMismatch("isomorphic diagrams must share source and target")
    if p1.shapes.size != p2.shapes.size or p1.dirs.size != p2.dirs.size:
        return None
    unused: dict[tuple, list[int]] = {}
    for w in p2.shapes:
        unused.setdefault(_dir_signature(p2, w), []).append(w)
    free = {sig: iter(ws) for sig, ws in unused.items()}
    theta: list[int] = []
    for v in p1.shapes:
        w = next(free.get(_dir_signature(p1, v), iter(())), None)
        if w is None:
            return None
        theta.append(w)

    alpha = FinMap(p1.shapes, p2.shapes, tuple(theta))
    groups, fibers1, fibers2 = _by_sort(p1), p1.dir_shape.fibers(), p2.dir_shape.fibers()
    sorts2 = p2.dir_sort.table
    betas_f: list[tuple[int, ...]] = []
    betas_b: list[tuple[int, ...]] = [() for _ in range(p2.shapes.size)]
    for v, w in enumerate(theta):
        firsts = {i: iter(us) for i, us in groups[v].items()}
        fwd = tuple([next(firsts[sorts2[u2]]) for u2 in fibers2[w]])
        back = dict(zip(fwd, fibers2[w]))
        betas_f.append(fwd)
        betas_b[w] = tuple([back[u1] for u1 in fibers1[v]])
    forward = DiagMorphism(p1, p2, alpha, tuple(betas_f))
    backward = DiagMorphism(p2, p1, alpha.inverse(), tuple(betas_b))
    return DiagIso(forward, backward)


# ---------------------------------------------------------------------------
# lists, multisets, and the truncated exponential


def lists_up_to(s: FinSet, k: int) -> tuple[tuple[int, ...], ...]:
    """All tuples over s of length at most k, ordered by length then
    lexicographically. Guarded on the entries of all the tuples."""
    if s.size == 0:
        k = 0  # the empty tuple is the only one
    finset.check_guard_sum((n * s.size**n for n in range(1, k + 1)), "list carrier entries")
    out: list[tuple[int, ...]] = []
    for n in range(k + 1):
        out.extend(itertools.product(range(s.size), repeat=n))
    return tuple(out)


def multisets_up_to(s: FinSet, k: int) -> tuple[tuple[int, ...], ...]:
    """All sorted tuples over s of length at most k (canonical multiset
    forms), ordered by length then lexicographically. Guarded on the
    entries of all the tuples."""
    if s.size == 0:
        k = 0  # the empty tuple is the only one
    finset.check_guard_sum((n * math.comb(s.size + n - 1, n) for n in range(1, k + 1)),
                           "multiset carrier entries")
    out: list[tuple[int, ...]] = []
    for n in range(k + 1):
        out.extend(itertools.combinations_with_replacement(range(s.size), n))
    return tuple(out)


@dataclass(frozen=True)
class BangData:
    """The truncated exponential with the decodings of its sorts and
    shapes: base_reps are the multisets (sorted tuples) indexing source
    and target, shape_reps the shape lists. Its directions are the
    direction lists of length at most k, in lists_up_to order."""

    diagram: PolyDiagram
    base_reps: tuple[tuple[int, ...], ...]
    shape_reps: tuple[tuple[int, ...], ...]


def bang_data(p: PolyDiagram, k: int) -> BangData:
    """The free-monoid-with-permutations exponential, truncated: shapes
    are lists of shapes, directions are lists of directions (mapped
    componentwise), and both end carriers are multisets of sorts of size
    at most k. The direction map preserves length, so the truncation is
    exact for every question about multisets of size at most k."""
    if not p.is_endo():
        raise ValidationError("the exponential needs source = target")
    if k < 0:
        raise ValidationError("truncation depth must be nonnegative")
    base_reps = multisets_up_to(p.source, k)
    base_index = {m: i for i, m in enumerate(base_reps)}
    shape_reps = lists_up_to(p.shapes, k)
    shape_index = {l: i for i, l in enumerate(shape_reps)}
    dir_reps = lists_up_to(p.dirs, k)
    base = FinSet(len(base_reps))
    shapes = FinSet(len(shape_reps))
    dirs = FinSet(len(dir_reps))
    diagram = PolyDiagram(
        source=base,
        dirs=dirs,
        shapes=shapes,
        target=base,
        dir_sort=FinMap(
            dirs,
            base,
            tuple(
                base_index[tuple(sorted(p.dir_sort(u) for u in ul))] for ul in dir_reps
            ),
        ),
        dir_shape=FinMap(
            dirs,
            shapes,
            tuple(shape_index[tuple(p.dir_shape(u) for u in ul)] for ul in dir_reps),
        ),
        shape_sort=FinMap(
            shapes,
            base,
            tuple(
                base_index[tuple(sorted(p.shape_sort(v) for v in vl))]
                for vl in shape_reps
            ),
        ),
    )
    return BangData(diagram, base_reps, shape_reps)


def bang_truncated(p: PolyDiagram, k: int) -> PolyDiagram:
    return bang_data(p, k).diagram


def _multiset_diagram(base: FinSet, k: int) -> PolyDiagram:
    """The diagram whose value at a family over base is its multiset
    power: a shape per multiset of size at most k (multisets_up_to), over
    itself, with a direction per entry, of the entry's sort."""
    reps = multisets_up_to(base, k)
    entries = finset.blocks(FinSet(len(reps)), [len(m) for m in reps])
    return PolyDiagram(base, entries.dom, entries.cod, entries.cod,
                       FinMap(entries.dom, base, tuple(itertools.chain.from_iterable(reps))),
                       entries, finset.identity(entries.cod))


def multiset_power(x: Family, k: int) -> Family:
    """Lift a family over I to the family over size-at-most-k multisets
    of I whose fiber at a multiset is the product of the fibers at its
    entries (with multiplicity): the value of _multiset_diagram at x,
    counted, not materialized."""
    p = _multiset_diagram(x.base, k)
    sizes = extension_fiber_sizes(p, x)
    check_guard(sum(sizes), "multiset power carrier")
    return fam.family_from_fibers(p.target, sizes)


def multiset_power_elements(x: Family, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Elements of the multiset power: (multiset index, entry picks),
    picks in odometer order over the sorted multiset's positions; the
    extension elements of _multiset_diagram at x. Guarded."""
    return extension_elements(_multiset_diagram(x.base, k), x)


# ---------------------------------------------------------------------------
# the sum lift of a span


def au_lift(r: Span) -> PolyDiagram:
    """Lift a span to the diagram whose middle map is the identity: its
    extension relabels-and-sums fibers along the span (a sum over the
    right leg of values at the left leg). The diagram is kept on r, so
    every call with r shares one read-only diagram (and so its extension
    carriers) for as long as r lives."""
    cached = getattr(r, "_au", None)
    if cached is None:
        cached = PolyDiagram(
            source=r.left.cod,
            dirs=r.carrier,
            shapes=r.carrier,
            target=r.right.cod,
            dir_sort=r.left,
            dir_shape=finset.identity(r.carrier),
            shape_sort=r.right,
        )
        object.__setattr__(r, "_au", cached)
    return cached
