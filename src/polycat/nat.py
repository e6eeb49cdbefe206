"""Strong natural transformations between polynomial diagram extensions.

A transformation is represented by a container morphism (DiagMorphism,
defined alongside the diagrams): a forward map on shapes and a backward
table on directions. This module evaluates such morphisms to components,
counts them exactly, enumerates them (as tables, or as morphisms), builds
the generic families and the check families on which sim.extract_sim
probes an oracle and checks its round trip, and verifies naturality up
to a fiber bound on the squares of the generating morphisms
(fam.generating_morphisms): squares paste, so these give the square of
every morphism between families within the bound.
"""
from __future__ import annotations

import itertools
import math

from . import fam, finset, poly
from .errors import ShapeMismatch
from .fam import FamMorphism, Family
from .finset import FinMap, check_guard
from .poly import DiagIso, DiagMorphism, PolyDiagram, identity_dm
from .report import Report

__all__ = [
    "DiagIso",
    "DiagMorphism",
    "ExtFunctor",
    "ComposedFunctor",
    "identity_dm",
    "eval_dm",
    "count_nat",
    "enumerate_tables",
    "enumerate_dm",
    "generic_family",
    "generic_element",
    "check_families",
    "naturality_check",
    "transformation_check",
]


def eval_dm(m: DiagMorphism, x: Family) -> FamMorphism:
    """The component at x: keep the payload, recorded through the backward
    tables, under the forward shape map. Each endpoint's extension record
    is read once, and guarded, source before target."""
    if x.base != m.src.source:
        raise ShapeMismatch("family must live over the transformation's source")
    src = poly._extension(m.src, x)
    dst = poly._extension(m.dst, x)
    table = _component_at(m, dst, src.elements)
    src, dst = src.family, dst.family
    return FamMorphism(src, dst, FinMap(src.total, dst.total, table))


def _component_at(m: DiagMorphism, dst: poly.Extension, elements) -> tuple[int, ...]:
    """m's component read at the given elements (shape, payload) of its
    source's extension: per element, the rank in dst, the target's
    record, of the image shape with the payload read through the
    backward tables. eval_dm reads it at every element; smcc's
    universal-property check reads it only at the elements that the
    comparison map lands on."""
    index, alpha = dst.index(), m.alpha.table
    # per src shape v, the position in v's fiber of each backward answer
    position = m.src.dir_shape.positions()
    reads = [tuple([position[u] for u in table]) for table in m.betas]
    return tuple([index[(alpha[v], tuple([payload[k] for k in reads[v]]))]
                  for v, payload in elements])


def _table_counts(p: PolyDiagram, q: PolyDiagram) -> tuple[list[dict[int, int]], list[int]]:
    """The backward tables of each src shape v: per sort-compatible dst
    shape w, ascending, that leaves v a table, their number. A backward
    table at w picks a direction of v of each direction's sort, so by
    Yoneda the tables are w's payloads at v's representing family A_v:
    Π_i n_v(i)^n_w(i), read off q's payload count (poly._payload_counts).
    That depends on v only through its sort and A_v's fiber sizes, so the
    counts are read once per such key. Returns one dict per key, in order
    of first use, and the position of each src shape's dict among them."""
    if p.source != q.source or p.target != q.target:
        raise ShapeMismatch("transformations need diagrams over the same sorts")
    over = q.shape_sort.fibers()
    position: dict = {}
    dicts, which = [], []
    for key in zip(p.shape_sort.table, poly._family_sizes(p)):
        k = position.get(key)
        if k is None:
            k = position[key] = len(dicts)
            payloads = poly._payload_counts(q, key[1])
            dicts.append({w: payloads[w] for w in over[key[0]] if payloads[w]})
        which.append(k)
    return dicts, which


def _total(dicts: list[dict[int, int]], which: list[int]) -> int:
    """Π_v of the number of src shape v's tables (_table_counts), each
    dict summed once."""
    sums = [sum(counts.values()) for counts in dicts]
    return math.prod(map(sums.__getitem__, which))


def count_nat(p: PolyDiagram, q: PolyDiagram) -> int:
    """Exact number of strong transformations, by Yoneda
    Nat(sum_v y^{A_v}, q) = prod_v q(A_v), q(A_v) summed over the target
    shapes of v's sort (_table_counts, _total). Pure arithmetic, never
    guarded."""
    return _total(*_table_counts(p, q))


def _blocks(p: PolyDiagram, q: PolyDiagram):
    """The checked blocks of the strong transformations from p to q, shape
    map major: per shape map, its FinMap and, per source shape, the list
    of its backward tables into its target shape, in odometer order. The
    members of a block are the product of its table lists. Guarded by the
    exact count; with none, no table is listed. The backward tables of
    each (source shape, target shape) pair are listed once, and target
    shapes with no tables are dropped, so no shape map is visited that
    yields nothing. A direction's options are the directions of its sort
    in the source shape, read off the source's sort groups (poly._by_sort).

    A member is a choice of one listed table per source shape, so each
    option is checked once: every (v, w, table) by DiagMorphism's beta
    check and every shape map by its alpha check. So every member is one
    that DiagMorphism's construction accepts."""
    dicts, which = _table_counts(p, q)
    total = _total(dicts, which)
    check_guard(total, "transformation enumeration")
    if not total:
        return
    fibers, dst_sorts = q.dir_shape.fibers(), q.dir_sort.table
    tables = [{w: list(itertools.product(*[by[dst_sorts[u]] for u in fibers[w]]))
               for w in dicts[k]} for by, k in zip(poly._by_sort(p), which)]
    poly._check_betas(p, q, ((v, w, table) for v, listed in enumerate(tables)
                             for w, options in listed.items() for table in options))
    for combo in itertools.product(*tables):
        alpha = FinMap(p.shapes, q.shapes, combo)
        poly._check_alpha(p, q, alpha)
        yield alpha, [tables[v][w] for v, w in enumerate(combo)]


def enumerate_tables(p: PolyDiagram, q: PolyDiagram) -> list[tuple[tuple[int, ...], tuple]]:
    """All strong transformations as (alpha table, betas) pairs, shape-map
    major, then backward tables in odometer order, guarded by their exact
    count: the members of the checked blocks (_blocks). The members of one
    shape map share its table."""
    out: list[tuple[tuple[int, ...], tuple]] = []
    for alpha, per_shape in _blocks(p, q):
        out.extend(zip(itertools.repeat(alpha.table), itertools.product(*per_shape)))
    return out


def enumerate_dm(p: PolyDiagram, q: PolyDiagram) -> list[DiagMorphism]:
    """enumerate_tables' members, in order, assembled from their checked
    blocks (_blocks) without checking them again, the members of one
    shape map sharing its FinMap."""
    return [poly._assembled(p, q, alpha, betas) for alpha, per_shape in _blocks(p, q)
            for betas in itertools.product(*per_shape)]


# ---------------------------------------------------------------------------
# generic families and the check families of extraction


def _generic(p: PolyDiagram, v: int) -> tuple[Family, tuple[int, ...], tuple[int, ...]]:
    """The representing family of shape v, its direction order (v's sort
    groups, poly._by_sort, in ascending sort) and the generic element's
    payload, built on the first request and kept in a dict on p."""
    cache = getattr(p, "_generic", None)
    if cache is None:
        cache = {}
        object.__setattr__(p, "_generic", cache)
    entry = cache.get(v)
    if entry is None:
        by = poly._by_sort(p)[v]
        y = fam.family_from_fibers(p.source, [len(by.get(i, ())) for i in p.source])
        order = tuple([u for i in sorted(by) for u in by[i]])
        t_of = {u: t for t, u in enumerate(order)}
        entry = cache[v] = (y, order, tuple(t_of[u] for u in p.shape_fiber(v)))
    return entry


def generic_family(p: PolyDiagram, v: int) -> tuple[Family, tuple[int, ...]]:
    """The representing family of shape v: its fiber over a source index
    collects v's directions of that sort. Returns the family and the
    direction order, so that order[t] is the direction at total element t.

    Both are built on the first request for v and kept on p, shared and
    read-only. The family is a block family, interned like every one
    (fam.family_from_fibers), so it is the same object as any other
    block family of its value alive at the time."""
    y, order, _ = _generic(p, v)
    return y, order


def generic_element(p: PolyDiagram, v: int) -> int:
    """The index, in the extension at the representing family, of the
    element of shape v whose payload picks each direction itself.
    Guarded, like every extension index."""
    y, _, payload = _generic(p, v)
    return poly.extension_index(p, y)[(v, payload)]


# the fiber bound of the check families
_CHECK_FIBER = 3


def check_families(p: PolyDiagram) -> tuple[Family, ...]:
    """The block families over p's source with every fiber at most 3, on
    which extraction checks its round trip. Built on the first call and
    held on p, so every later call returns the same tuple; their number
    is still guarded on every call, so a limit lowered after the build
    refuses them. The families are interned (fam.family_from_fibers), and
    an extraction evaluates p at each of them, so holding them keeps
    alive no family that p's extension dict does not hold already."""
    held = getattr(p, "_check_families", None)
    if held is None:
        held = tuple(fam.families_up_to(p.source, _CHECK_FIBER))
        object.__setattr__(p, "_check_families", held)
    else:
        finset.check_guard_cut(finset.capped_power(_CHECK_FIBER + 1, p.source.size,
                                                   finset.guard_limit() + 1),
                               "families with bounded fibers")
    return held


# ---------------------------------------------------------------------------
# naturality checking against arbitrary functor pairs


class ExtFunctor:
    """A diagram's extension packaged with its functorial action."""

    def __init__(self, p: PolyDiagram):
        self.src_base = p.source
        self.dst_base = p.target
        self._p = p

    def on_family(self, x: Family) -> Family:
        return poly.eval_extension(self._p, x)

    def on_morphism(self, h: FamMorphism) -> FamMorphism:
        return poly.extension_map(self._p, h)


class ComposedFunctor:
    """outer after inner."""

    def __init__(self, outer, inner):
        if inner.dst_base != outer.src_base:
            raise ShapeMismatch("cannot compose functors: bases differ")
        self.src_base = inner.src_base
        self.dst_base = outer.dst_base
        self._outer = outer
        self._inner = inner

    def on_family(self, x: Family) -> Family:
        return self._outer.on_family(self._inner.on_family(x))

    def on_morphism(self, h: FamMorphism) -> FamMorphism:
        return self._outer.on_morphism(self._inner.on_morphism(h))


def transformation_check(f, g, component, bound: int) -> Report:
    """Verify that the component assignment is natural from functor f to
    functor g on the families with fibers at most bound. Only the square
    of each generating morphism h: x -> y is checked: the square of a
    composite is the squares of its factors side by side, so these give
    every square between such families. The component is evaluated once
    per family."""
    if f.src_base != g.src_base or f.dst_base != g.dst_base:
        raise ShapeMismatch("functors must be parallel")
    comps = {x: component(x) for x in fam.families_up_to(f.src_base, bound)}
    hs = fam.generating_morphisms(f.src_base, bound)
    for h in hs:
        lhs = comps[h.src].then(g.on_morphism(h))
        rhs = f.on_morphism(h).then(comps[h.dst])
        if lhs.map.table != rhs.map.table:
            line = (
                f"counterexample: fibers {h.src.fiber_sizes()} -> "
                f"{h.dst.fiber_sizes()}, morphism table {h.map.table}"
            )
            return Report("naturality squares", False, (line,))
    return Report(
        "naturality squares",
        True,
        (f"{len(hs)} generating squares commute at fiber bound {bound}",),
    )


def naturality_check(m: DiagMorphism, bound: int) -> Report:
    """Verify naturality of a container morphism's components (eval_dm)
    by transformation_check; a black-box component assignment goes to
    transformation_check itself, with two ExtFunctors."""
    return transformation_check(ExtFunctor(m.src), ExtFunctor(m.dst),
                                lambda x: eval_dm(m, x), bound)
