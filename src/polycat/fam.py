"""Families of finite sets over a base, and the three reindexing functors.

A family over a base B is a map proj: total -> B; the fiber over b is the
preimage proj^-1(b). Pushing forward along f (dependent sum), pulling back
along f (base change), and taking sections along f (dependent product) are
implemented with explicit canonical carriers:

- base change along f produces the pairs (a, t) with f(a) = proj(t), in
  lexicographic order (delta_pairs records them);
- dependent product along f produces the pairs (b, section), where a
  section picks one fiber element for each point of f^-1(b), sections in
  odometer order (pi_sections records them).

Everything downstream decodes constructed elements through those tables.
"""
from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from typing import Iterator

from . import finset
from .errors import ShapeMismatch, ValidationError
from .finset import FinMap, FinSet, check_guard
from .report import Report


@dataclass(frozen=True)
class Family:
    """An indexed family of finite sets, presented as total -> base.

    Like FinMap, a family keeps the hash of its field tuple (total, base,
    proj) in its __dict__ from the first call on, so it is hashed once
    however often it is looked up as a key, as every family handed to an
    extension is. The hash is read-only and lives as long as the family,
    and a pickle holds the fields only (finset.field_state). Its fiber
    sizes are kept the same way: a block family keeps the sizes it was
    built from, and any other family counts them at the first call.

    Block families and external products are interned (see
    family_from_fibers and box): while one is alive, every request for
    its value returns that object, so a dict keyed by them finds them by
    identity. Each is kept in a weak table keyed by value: the base and
    fiber sizes of a block family, the two factors of a box. A box whose
    value is a block family is that block family, in both tables. A family
    built with this constructor is never interned; it equals, hashes like
    and finds the same dict entries as the interned family of its
    value."""

    total: FinSet
    base: FinSet
    proj: FinMap
    _hash = None  # not a field: the default until __hash__ stores the hash
    _sizes = None  # not a field: the default until the sizes are kept

    def __post_init__(self) -> None:
        if self.proj.dom != self.total or self.proj.cod != self.base:
            raise ShapeMismatch("projection endpoints do not match total/base")

    def __hash__(self) -> int:
        # one attribute load, as in FinMap.__hash__
        h = self._hash
        if h is None:
            h = hash((self.total, self.base, self.proj))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = finset.field_state

    def fiber(self, b: int) -> tuple[int, ...]:
        return self.proj.fiber(b)

    def fiber_sizes(self) -> tuple[int, ...]:
        sizes = self._sizes
        if sizes is None:
            counts = [0] * self.base.size
            for b in self.proj.table:
                counts[b] += 1
            sizes = tuple(counts)
            object.__setattr__(self, "_sizes", sizes)
        return sizes


# the live block families by (base, sizes); weak, so the table pins no
# family that nothing else holds
_blocks: weakref.WeakValueDictionary[tuple[FinSet, tuple[int, ...]], Family] = \
    weakref.WeakValueDictionary()


def family_from_fibers(base: FinSet, sizes: tuple[int, ...] | list[int]) -> Family:
    """The block family with the given fiber sizes: elements of the fiber
    over b are numbered contiguously, bases in ascending order.

    Interned: while a block family of this base and these sizes is alive,
    the call returns that same object, so every extension, generic and
    check family of one value is one object and a dict lookup on it stops
    at the identity check. The table holds the families weakly, and keys
    them by the base's value, labels included. Sizes are validated before
    the lookup, with the same errors as a build. The family keeps the
    sizes, so fiber_sizes() returns them without counting."""
    if len(sizes) != base.size:
        raise ShapeMismatch("one fiber size per base point required")
    if min(sizes, default=0) < 0:
        raise ShapeMismatch("fiber sizes must be nonnegative")
    # index() refuses a non-integral size, as finset.blocks would
    key = (base, tuple(map(operator.index, sizes)))
    x = _blocks.get(key)
    if x is None:
        proj = finset.blocks(base, key[1])
        x = _blocks[key] = Family(proj.dom, base, proj)
        object.__setattr__(x, "_sizes", key[1])
    return x


def families_up_to(base: FinSet, max_fiber: int) -> Iterator[Family]:
    """All block families over base with every fiber size <= max_fiber,
    in lexicographic order of the size tuple. Guarded by their number
    when called, before the first family is built."""
    finset.check_guard_cut(finset.capped_power(max_fiber + 1, base.size,
                                               finset.guard_limit() + 1),
                           "families with bounded fibers")
    return (family_from_fibers(base, sizes)
            for sizes in itertools.product(range(max_fiber + 1), repeat=base.size))


@dataclass(frozen=True)
class FamMorphism:
    """A map of families over a common base: a map on totals commuting
    with the projections."""

    src: Family
    dst: Family
    map: FinMap

    def __post_init__(self) -> None:
        # identity first: the endpoints are mostly the very same objects,
        # and a dataclass == compares them field by field
        src, dst, m = self.src, self.dst, self.map
        if src.base is not dst.base and src.base != dst.base:
            raise ShapeMismatch("family morphism needs a common base")
        if ((m.dom is not src.total and m.dom != src.total)
                or (m.cod is not dst.total and m.cod != dst.total)):
            raise ShapeMismatch("morphism endpoints do not match the families")
        dst_proj = dst.proj.table
        if tuple([dst_proj[t] for t in m.table]) != src.proj.table:
            raise ShapeMismatch("morphism does not commute with the projections")

    def __call__(self, t: int) -> int:
        return self.map.table[t]

    def then(self, g: "FamMorphism") -> "FamMorphism":
        _check_composable(self.dst, g.src)
        return FamMorphism(self.src, g.dst, self.map.then(g.map))

    def is_iso(self) -> bool:
        return self.map.is_bijection()

    def inverse(self) -> "FamMorphism":
        return FamMorphism(self.dst, self.src, self.map.inverse())


def _assembled(dom: Family, cod: Family, table: tuple[int, ...]) -> FamMorphism:
    """The morphism FamMorphism(dom, cod, FinMap(dom.total, cod.total,
    table)), its fields and its map's fields written into their
    instance dicts without the two constructors' checks. The caller
    guarantees what they would check: dom and cod lie over a common
    base, and the table is a tuple of |dom.total| entries below
    |cod.total| that commutes with the projections."""
    m = object.__new__(FinMap)
    m.__dict__.update(dom=dom.total, cod=cod.total, table=table)
    h = object.__new__(FamMorphism)
    h.__dict__.update(src=dom, dst=cod, map=m)
    return h


def _check_composable(dst: Family, src: Family) -> None:
    """The endpoint check of a composite of family morphisms, shared by
    FamMorphism.then and the composites that are read on tables only."""
    if dst is not src and dst != src:
        raise ShapeMismatch("cannot compose family morphisms: endpoints differ")


def identity_morphism(x: Family) -> FamMorphism:
    return FamMorphism(x, x, finset.identity(x.total))


# ---------------------------------------------------------------------------
# a presentation of the skeleton of finite sets


def elementary_maps(bound: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """The generators of the maps between the sets 0..n-1 with n <= bound,
    as (n, m, table) for a map from an n-set to an m-set: each coface
    n -> n+1 (skip one point), each codegeneracy n+1 -> n (merge two
    adjacent points) and each adjacent transposition n -> n.

    Every map between sets of size at most the bound is a composite of
    these through sets of size at most the bound: it is a permutation
    that sorts the domain by value, then a monotone surjection onto its
    image, then a monotone injection (the simplicial presentation, Mac
    Lane, Categories for the Working Mathematician, VII.5, with the
    symmetric groups added). An identity is the empty composite."""
    out: list[tuple[int, int, tuple[int, ...]]] = []
    for n in range(bound):
        for i in range(n + 1):
            out.append((n, n + 1, tuple(t if t < i else t + 1 for t in range(n))))
    for n in range(1, bound):
        for i in range(n):
            out.append((n + 1, n, tuple(t if t <= i else t - 1 for t in range(n + 1))))
    for n in range(2, bound + 1):
        for i in range(n - 1):
            table = list(range(n))
            table[i], table[i + 1] = i + 1, i
            out.append((n, n, tuple(table)))
    return out


def generating_morphisms(base: FinSet, bound: int) -> list[FamMorphism]:
    """Generators of the morphisms between block families over base with
    every fiber of size at most the bound: an elementary map on one
    sort's fiber and the identity on every other fiber, for every choice
    of the other fibers' sizes. Every morphism between such families is
    a composite of these through such families, one fiber at a time.
    Guarded."""
    maps = elementary_maps(bound)
    check_guard(base.size * len(maps) * (bound + 1) ** max(base.size - 1, 0),
                "generating family morphisms")
    out: list[FamMorphism] = []
    for b in range(base.size):
        for others in itertools.product(range(bound + 1), repeat=base.size - 1):
            before, after = others[:b], others[b:]
            offset = sum(before)
            for n, m, f in maps:
                src = family_from_fibers(base, (*before, n, *after))
                dst = family_from_fibers(base, (*before, m, *after))
                table = (*range(offset), *(offset + t for t in f),
                         *range(offset + m, offset + m + sum(after)))
                out.append(FamMorphism(src, dst, FinMap(src.total, dst.total, table)))
    return out


@dataclass(frozen=True)
class Span:
    """Two maps out of a common carrier; the relation-like shape that
    simulation cells and the sum lift (poly.au_lift) are built on."""

    carrier: FinSet
    left: FinMap
    right: FinMap

    __getstate__ = finset.field_state

    def __post_init__(self) -> None:
        if self.left.dom != self.carrier or self.right.dom != self.carrier:
            raise ShapeMismatch("span legs must share the carrier as domain")


# ---------------------------------------------------------------------------
# the three reindexing functors


def sigma(f: FinMap, x: Family) -> Family:
    """Dependent sum along f: keep the total, postcompose the projection."""
    if x.base != f.dom:
        raise ShapeMismatch("dependent sum: family not over the map's domain")
    return Family(x.total, f.cod, x.proj.then(f))


def _base_change(f: FinMap, y: Family) -> finset.Pullback:
    if y.base != f.cod:
        raise ShapeMismatch("base change: family not over the map's codomain")
    return finset.pullback(f, y.proj)


def delta_pairs(f: FinMap, y: Family) -> tuple[tuple[int, int], ...]:
    """Canonical carrier of the base change: pairs (a, t) with
    f(a) = proj(t), lexicographically ordered (finset.pullback's pairs)."""
    return _base_change(f, y).pairs


def delta(f: FinMap, y: Family) -> Family:
    """Base change along f, on the canonical carrier of delta_pairs."""
    pb = _base_change(f, y)
    return Family(pb.carrier, f.dom, pb.left)


def delta_index(f: FinMap, y: Family) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(delta_pairs(f, y))}


def pi_sections(f: FinMap, x: Family) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Canonical carrier of the dependent product: pairs (b, section).

    A section over b assigns to each point of f^-1(b) (ascending) one
    element of the fiber of x over that point; sections enumerate in
    odometer order, rightmost coordinate fastest. Entries are absolute
    elements of x.total.

    Guarded by the carrier's size, the sum over b of the product of the
    fiber sizes over f^-1(b). Every product and the sum stop at the limit
    plus one, so a refusal quotes "more than <limit>" and costs time
    linear in the fibers.
    """
    if x.base != f.dom:
        raise ShapeMismatch("dependent product: family not over the map's domain")
    sizes = x.fiber_sizes()
    cap = finset.guard_limit() + 1
    finset.check_guard_sum(
        (finset.capped_product((sizes[a] for a in fiber), cap) for fiber in f.fibers()),
        "dependent product carrier")
    xfibs = x.proj.fibers()
    out: list[tuple[int, tuple[int, ...]]] = []
    for b, fiber in enumerate(f.fibers()):
        choices = [xfibs[a] for a in fiber]
        for section in itertools.product(*choices):
            out.append((b, section))
    return tuple(out)


def pi(f: FinMap, x: Family) -> Family:
    """Dependent product along f, on the canonical carrier of pi_sections."""
    secs = pi_sections(f, x)
    total = FinSet(len(secs))
    return Family(total, f.cod, FinMap(total, f.cod, tuple(b for b, _ in secs)))


def pi_index(f: FinMap, x: Family) -> dict[tuple[int, tuple[int, ...]], int]:
    return {sec: k for k, sec in enumerate(pi_sections(f, x))}


# ---------------------------------------------------------------------------
# hom sets


def _hom_powers(x: Family, y: Family) -> list[tuple[int, int]]:
    """(|y_b|, |x_b|) for each base point b: a morphism x -> y picks one of
    |y_b| elements for each of the |x_b| elements over b."""
    if x.base != y.base:
        raise ShapeMismatch("hom needs families over a common base")
    return list(zip(y.fiber_sizes(), x.fiber_sizes()))


def hom_count(x: Family, y: Family) -> int:
    """Number of family morphisms x -> y. Exact and unguarded."""
    return math.prod(n**m for n, m in _hom_powers(x, y))


def hom_enumerate(x: Family, y: Family) -> list[FamMorphism]:
    """All family morphisms x -> y, lexicographic in the table whose t-th
    entry ranges over the (ascending) fiber of y over proj(t). Guarded by
    their number, cut at the limit plus one."""
    cap = finset.guard_limit() + 1
    finset.check_guard_product((finset.capped_power(n, m, cap) for n, m in _hom_powers(x, y)),
                               "family hom set")
    yfibs = y.proj.fibers()
    choices = [yfibs[b] for b in x.proj.table]
    out = []
    for table in itertools.product(*choices):
        out.append(FamMorphism(x, y, FinMap(x.total, y.total, table)))
    return out


# ---------------------------------------------------------------------------
# pullback squares: interchange of reindexing functors


@dataclass(frozen=True)
class PullbackSquare:
    """A commuting square

        P --top--> X
        |          |
      left       right
        v          v
        Y -bottom-> Z

    required to be a pullback (validated on construction)."""

    top: FinMap
    left: FinMap
    bottom: FinMap
    right: FinMap

    def __post_init__(self) -> None:
        if self.top.dom != self.left.dom:
            raise ShapeMismatch("square corner P: top/left domains differ")
        if self.top.cod != self.right.dom or self.left.cod != self.bottom.dom:
            raise ShapeMismatch("square edges do not meet")
        if self.bottom.cod != self.right.cod:
            raise ShapeMismatch("square corner Z: bottom/right codomains differ")
        if self.top.then(self.right).table != self.left.then(self.bottom).table:
            raise ValidationError("square does not commute")
        # a pullback's corner lists each pair of the canonical one exactly once
        got = sorted(zip(self.top.table, self.left.table))
        if got != list(finset.pullback(self.right, self.bottom).pairs):
            raise ValidationError("square is not a pullback")

    def corner_index(self) -> dict[tuple[int, int], int]:
        """(x, y) |-> the unique corner element over it."""
        return {
            (self.top.table[p], self.left.table[p]): p
            for p in range(self.top.dom.size)
        }


def square_from_cospan(f: FinMap, g: FinMap) -> PullbackSquare:
    """The canonical pullback square over the cospan f: X -> Z <- Y :g."""
    pb = finset.pullback(f, g)
    return PullbackSquare(top=pb.left, left=pb.right, bottom=g, right=f)


def beck_chevalley_check(square: PullbackSquare, z: Family) -> Report:
    """Build the canonical comparisons across a pullback square and verify
    both are isomorphisms of families over the top-right corner:

      prod_top pullback_left z  =  pullback_right prod_bottom z
      sum_top  pullback_left z  =  pullback_right sum_bottom  z
    """
    if z.base != square.bottom.dom:
        raise ShapeMismatch("family must live over the bottom-left corner")
    top, left, bottom, right = square.top, square.left, square.bottom, square.right
    corner = square.corner_index()
    lines = []

    # sum side: (p, t) |-> (top(p), t), on the pairs of delta(left, z)
    base_change = _base_change(left, z)
    lhs_pairs = base_change.pairs
    rhs_index = delta_index(right, sigma(bottom, z))
    images = [rhs_index[(top.table[p], t)] for p, t in lhs_pairs]
    ok_sum = FinMap(base_change.carrier, FinSet(len(rhs_index)), images).is_bijection()
    lines.append(
        f"sum comparison: {len(lhs_pairs)} elements, bijection {'yes' if ok_sum else 'NO'}"
    )

    # product side: (x, section over top^-1(x)) |-> (x, section over bottom^-1(right x))
    lhs_secs = pi_sections(top, Family(base_change.carrier, left.dom, base_change.left))
    pbz = pi(bottom, z)
    p_index = pi_index(bottom, z)
    rhs_index2 = delta_index(right, pbz)
    top_positions = top.positions()
    images2 = []
    for x, phi in lhs_secs:
        zb = right.table[x]
        section = []
        for y in bottom.fiber(zb):
            section.append(lhs_pairs[phi[top_positions[corner[(x, y)]]]][1])
        s = p_index[(zb, tuple(section))]
        images2.append(rhs_index2[(x, s)])
    ok_prod = FinMap(FinSet(len(lhs_secs)), FinSet(len(rhs_index2)), images2).is_bijection()
    lines.append(
        f"product comparison: {len(lhs_secs)} elements, bijection {'yes' if ok_prod else 'NO'}"
    )
    return Report("pullback-square interchange", bool(ok_sum and ok_prod), tuple(lines))


# ---------------------------------------------------------------------------
# the distributivity square


@dataclass(frozen=True)
class DistributivitySquare:
    """The universal square distributing a dependent product over a
    dependent sum.

    Data for b: C -> B and a: B -> A2: the family of sections u: U -> A2
    (U enumerates pairs (t, section of b over a^-1(t))), the pullback W of
    a and u, its projections, and the evaluation map eps: W -> C sending
    (point of B, section) to the section's value at that point.
    """

    b: FinMap
    a: FinMap
    u: FinMap
    u_sections: tuple[tuple[int, tuple[int, ...]], ...]
    w_pairs: tuple[tuple[int, int], ...]
    a_prime: FinMap
    u_prime: FinMap
    eps: FinMap


def distributivity_square(a: FinMap, b: FinMap) -> DistributivitySquare:
    if b.cod != a.dom:
        raise ShapeMismatch("need composable maps: cod(b) = dom(a)")
    u_secs = pi_sections(a, Family(b.dom, b.cod, b))
    u = FinMap(FinSet(len(u_secs)), a.cod, tuple(t for t, _ in u_secs))
    pb = finset.pullback(a, u)
    positions = a.positions()
    eps = FinMap(pb.carrier, b.dom,
                 tuple([u_secs[s][1][positions[point]] for point, s in pb.pairs]))
    return DistributivitySquare(
        b=b,
        a=a,
        u=u,
        u_sections=u_secs,
        w_pairs=pb.pairs,
        a_prime=pb.right,
        u_prime=pb.left,
        eps=eps,
    )


def distributivity_check(a: FinMap, b: FinMap, x: Family) -> Report:
    """Verify, on x over dom(b), the canonical isomorphism

      prod_a (sum_b x)  =  sum_u prod_{a'} (pullback_eps x)

    where u, a', eps come from the distributivity square of (a, b)."""
    if x.base != b.dom:
        raise ShapeMismatch("family must live over dom(b)")
    sq = distributivity_square(a, b)
    lhs_secs = pi_sections(a, sigma(b, x))
    u_index = {sec: k for k, sec in enumerate(sq.u_sections)}
    dex = delta(sq.eps, x)
    dex_index = delta_index(sq.eps, x)
    w_index = {pair: k for k, pair in enumerate(sq.w_pairs)}
    rhs_secs = pi_sections(sq.a_prime, dex)
    rhs_index = {sec: k for k, sec in enumerate(rhs_secs)}
    # psi lists its entries in the order of a's fiber over t; the a'-fiber
    # over s must list the W-elements (point, s) in that order
    aligned = all(tuple(sq.w_pairs[w][0] for w in fiber) == a.fiber(t)
                  for fiber, t in zip(sq.a_prime.fibers(), sq.u.table))

    images = []
    for t, phi in lhs_secs:
        points = a.fiber(t)
        sigma_section = tuple(x.proj.table[val] for val in phi)
        s = u_index[(t, sigma_section)]
        psi = []
        for position, point in enumerate(points):
            w = w_index[(point, s)]
            psi.append(dex_index[(w, phi[position])])
        images.append(rhs_index[(s, tuple(psi))])
    ok = aligned and FinMap(FinSet(len(lhs_secs)), FinSet(len(rhs_secs)), images).is_bijection()
    lines = (
        f"section family size {len(sq.u_sections)}",
        f"both sides have {len(lhs_secs)} elements: "
        f"{'yes' if len(lhs_secs) == len(rhs_secs) else 'NO'}",
        f"canonical comparison bijective: {'yes' if ok else 'NO'}",
    )
    return Report("distributivity square", ok, lines)


# ---------------------------------------------------------------------------
# pointwise external constructions


# the live external products by their factors' values; weak like _blocks
_boxes: weakref.WeakValueDictionary[tuple[Family, Family], Family] = \
    weakref.WeakValueDictionary()


def box(x: Family, y: Family) -> Family:
    """External product: the family over base1 x base2 whose fiber over a
    pair is the product of the fibers. Elements are the pairs (t1, t2),
    encoded as t1 * |total2| + t2, over the base pair (i1, i2), encoded
    as i1 * |base2| + i2 (the pairing of finset.product_map).

    Interned like a block family: while the box of factors of these
    values is alive, the call returns that same object, so the
    extension records and morphism endpoints keyed by it are found by
    identity and the pairing is built once per pair of values. The
    table holds the boxes weakly and keys them by the factors' values. A
    box equals and hashes like Family(finset.product_map(x.proj,
    y.proj)), and pickles as one. A box whose projection is a block map
    (its table is nondecreasing, as when both factors are single-sorted)
    is the live block family of its value (family_from_fibers), whichever
    of the two was asked for first."""
    key = (x, y)
    z = _boxes.get(key)
    if z is None:
        proj = finset.product_map(x.proj, y.proj)
        t = proj.table
        if all(map(operator.le, t, t[1:])):
            z = family_from_fibers(proj.cod, [a * b for a in x.fiber_sizes()
                                              for b in y.fiber_sizes()])
        else:
            z = Family(proj.dom, proj.cod, proj)
        _boxes[key] = z
    return z


def box_pair(y: Family, t1: int, t2: int) -> int:
    return t1 * y.total.size + t2


def box_morphism(h1: FamMorphism, h2: FamMorphism) -> FamMorphism:
    """External product of two family morphisms."""
    return FamMorphism(box(h1.src, h2.src), box(h1.dst, h2.dst),
                       finset.product_map(h1.map, h2.map))


def family_sum(x: Family, y: Family) -> Family:
    """Disjoint union over the coproduct of the bases (left part first)."""
    proj = finset.sum_map(x.proj, y.proj)
    return Family(proj.dom, proj.cod, proj)
