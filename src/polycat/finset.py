"""Finite sets and total maps, the ground floor of every construction.

Carriers are canonical initial segments 0..n-1. Maps are lookup tables
that keep their fibers and each point's position in its fiber.
Derived carriers (pullbacks, products, coproducts) are renumbered back
to 0..n-1, so every element of a constructed set can be decoded to the
data it stands for: a pullback keeps its pairs next to it, a product
pairs (x, y) as x * |Y| + y and decodes by divmod, and a coproduct puts
the left part first. Every fiber position, pullback pair, product, sum
and block map of the package is built here.

The configurable global size guard lives here: every enumeration in the
package that can explode checks it, with the saturating sums and
products below. A value pickles its dataclass fields only (field_state).
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ShapeMismatch, SizeGuardExceeded

DEFAULT_GUARD_LIMIT = 10**6

_guard_limit = DEFAULT_GUARD_LIMIT


def guard_limit() -> int:
    return _guard_limit


def set_guard_limit(limit: int) -> int:
    """Set the global enumeration bound; returns the previous bound."""
    global _guard_limit
    if limit < 0:
        raise ValueError("guard limit must be nonnegative")
    previous = _guard_limit
    _guard_limit = limit
    return previous


def check_guard(size: int, what: str) -> None:
    """Refuse an exact size over the limit with SizeGuardExceeded, which
    quotes it. str() refuses integers beyond a few thousand digits, so a
    huge size is quoted by its order of magnitude."""
    if size > _guard_limit:
        _refuse(what, str(size) if size < 10**100 else
                f"more than 10^{math.floor((size.bit_length() - 1) * math.log10(2))}")


def check_guard_cut(size: int, what: str) -> None:
    """check_guard on a count cut at the limit plus one (check_guard_sum,
    capped_product, capped_power): a count over the limit is known only
    to exceed it, and is quoted as "more than <limit>"."""
    if size > _guard_limit:
        _refuse(what, f"more than {_guard_limit}")


def _refuse(what: str, shown: str) -> None:
    raise SizeGuardExceeded(
        f"search too large: {what} has size {shown}, guard limit is {_guard_limit}"
    )


def check_guard_sum(terms: Iterable[int], what: str) -> None:
    """check_guard_cut on the sum of nonnegative terms. Adding stops at
    the first partial sum over the limit, so no huge sum is built just to
    refuse."""
    total = 0
    for term in terms:
        total += term
        if total > _guard_limit:
            break
    check_guard_cut(total, what)


def capped_power(base: int, exponent: int, cap: int) -> int:
    """min(base ** exponent, cap) for a nonnegative base and exponent and
    cap >= 1, with 0 ** 0 = 1. A base of at least 2 passes the cap once the
    exponent reaches the cap's bit length, so no power beyond
    base ** log2(cap) is ever built."""
    if base >= 2 and exponent >= cap.bit_length():
        return cap
    return min(base**exponent, cap)


def capped_product(factors: Iterable[int], cap: int) -> int:
    """min(product of the nonnegative factors, cap), for cap >= 1, with
    every partial product cut at cap. Cutting commutes with sums and
    products of nonnegative integers, min(a·b, c) = min(min(a, c) ·
    min(b, c), c), so the result is exact below cap: a zero factor still
    zeroes it, and a factor may arrive cut already, as a capped_power does."""
    product = 1
    for n in factors:
        product = min(product * n, cap)
    return product


def capped_product_rule(pairs: Iterable[tuple[int, int]], cap: int) -> tuple[int, int]:
    """For pairs (s_i, t_i) of nonnegative integers, the product Π_i s_i
    and the sum Σ_i t_i · Π_{j≠i} s_j, each cut to at most cap like
    capped_product: the number of ways to choose one of s_i things for
    every i, and the number of those with one of t_i marks at one i (a
    composite shape and its directions). One pass by the product rule:
    each pair turns (P, Q) into (P·s, Q·s + P·t)."""
    product, marked = 1, 0
    for s, t in pairs:
        product, marked = min(product * s, cap), min(marked * s + product * t, cap)
    return product, marked


def check_guard_product(factors: Iterable[int], what: str) -> None:
    """check_guard_cut on the product of nonnegative factors, cut at the
    limit plus one (capped_product), so no huge product is built."""
    check_guard_cut(capped_product(factors, _guard_limit + 1), what)


def field_state(value) -> dict:
    """A dataclass value's pickling state: its fields only. What else it
    keeps (a hash, which string labels change in another process, and
    caches, which grow and may hold unpicklable views) is rebuilt on use."""
    return {f.name: value.__dict__[f.name] for f in dataclasses.fields(value)}


@dataclass(frozen=True)
class FinSet:
    """A finite set with carrier 0..size-1 and optional display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ShapeMismatch(f"negative size {self.size}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ShapeMismatch("label count does not match size")
            if len(set(self.labels)) != self.size:
                raise ShapeMismatch("labels must be pairwise distinct")

    def __iter__(self):
        return iter(range(self.size))

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.size

    def label(self, x: int) -> str:
        if x not in self:
            raise ShapeMismatch(f"element {x} not in set of size {self.size}")
        return self.labels[x] if self.labels is not None else str(x)


@dataclass(frozen=True)
class FinMap:
    """A total map between finite sets, stored as a lookup table.

    Three values are computed on first use and kept on the map, in its
    __dict__: the fibers, each point's position in its fiber, and the
    hash of the field tuple (dom, cod, table), so a map used as a dict
    key, or inside one, hashes its table once and not on every lookup.
    All three are shared by every caller, are read-only like the map and
    live as long as it does. Equality still compares the fields, and a
    pickle holds the fields only (field_state)."""

    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]
    _hash = None  # not a field: the default until __hash__ stores the hash

    def __post_init__(self) -> None:
        if not isinstance(self.table, tuple):
            object.__setattr__(self, "table", tuple(self.table))
        table = self.table
        if len(table) != self.dom.size:
            raise ShapeMismatch(
                f"table length {len(table)} does not match domain size {self.dom.size}"
            )
        # one min/max pass decides; the scan only finds the first bad entry
        if table and (min(table) < 0 or max(table) >= self.cod.size):
            for x, y in enumerate(table):
                if y not in self.cod:
                    raise ShapeMismatch(f"table entry {x} -> {y} lands outside the codomain")

    def __hash__(self) -> int:
        # cached like fibers: the value never changes, and dict lookups
        # would otherwise rehash the whole table every time. One attribute
        # load: the class default None stands in until the hash is stored
        h = self._hash
        if h is None:
            h = hash((self.dom, self.cod, self.table))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = field_state

    def __call__(self, x: int) -> int:
        return self.table[x]

    def then(self, g: "FinMap") -> "FinMap":
        """Diagram-order composition: self first, then g."""
        return compose(g, self)

    def fiber(self, y: int) -> tuple[int, ...]:
        """Preimage of y, in ascending order."""
        if y not in self.cod:
            raise ShapeMismatch(f"element {y} not in codomain of size {self.cod.size}")
        return self.fibers()[y]

    def fibers(self) -> tuple[tuple[int, ...], ...]:
        # cached: maps are immutable and fibers are asked for in hot loops
        cached = getattr(self, "_fibers", None)
        if cached is None:
            # a list only on a point's first hit; a point never hit keeps
            # the shared empty tuple, which tuple() hands back as is
            out: list = [()] * self.cod.size
            for x, y in enumerate(self.table):
                fiber = out[y]
                if fiber:
                    fiber.append(x)
                else:
                    out[y] = [x]
            cached = tuple(map(tuple, out))
            object.__setattr__(self, "_fibers", cached)
        return cached

    def positions(self) -> tuple[int, ...]:
        """Each point's position in its fiber, so that
        fibers()[f(x)][positions()[x]] == x. Cached like fibers."""
        cached = getattr(self, "_positions", None)
        if cached is None:
            seen = [0] * self.cod.size
            out = []
            for y in self.table:
                out.append(seen[y])
                seen[y] += 1
            cached = tuple(out)
            object.__setattr__(self, "_positions", cached)
        return cached

    def is_bijection(self) -> bool:
        return self.dom.size == self.cod.size and len(set(self.table)) == self.dom.size

    def inverse(self) -> "FinMap":
        if not self.is_bijection():
            raise ShapeMismatch("map is not a bijection")
        table = [0] * self.cod.size
        for x, y in enumerate(self.table):
            table[y] = x
        return FinMap(self.cod, self.dom, tuple(table))


def identity(s: FinSet) -> FinMap:
    return FinMap(s, s, tuple(range(s.size)))


def compose(g: FinMap, f: FinMap) -> FinMap:
    """Classical-order composition g after f: x |-> g(f(x))."""
    if f.cod != g.dom:
        raise ShapeMismatch(
            f"cannot compose: middle objects differ ({f.cod.size} vs {g.dom.size})"
        )
    return FinMap(f.dom, g.cod, tuple(g.table[y] for y in f.table))


def constant(dom: FinSet, cod: FinSet, y: int) -> FinMap:
    if y not in cod:
        raise ShapeMismatch(f"constant value {y} outside codomain")
    return FinMap(dom, cod, (y,) * dom.size)


@dataclass(frozen=True)
class Pullback:
    """Pullback of a cospan f: X -> Z <- Y :g.

    Carrier elements are the lexicographically ordered pairs (x, y) with
    f(x) = g(y); `pairs` records that provenance, `left`/`right` are the
    projections.
    """

    carrier: FinSet
    left: FinMap
    right: FinMap
    pairs: tuple[tuple[int, int], ...]

    def __iter__(self):
        # allows unpacking as (carrier, left, right)
        return iter((self.carrier, self.left, self.right))


def pullback(f: FinMap, g: FinMap) -> Pullback:
    if f.cod != g.cod:
        raise ShapeMismatch("pullback needs a cospan: codomains differ")
    gfibers = g.fibers()
    pairs = tuple(
        (x, y) for x in range(f.dom.size) for y in gfibers[f.table[x]]
    )
    carrier = FinSet(len(pairs))
    left = FinMap(carrier, f.dom, tuple(x for x, _ in pairs))
    right = FinMap(carrier, g.dom, tuple(y for _, y in pairs))
    return Pullback(carrier, left, right, pairs)


@dataclass(frozen=True)
class Coproduct:
    """Binary coproduct with left-then-right tagging."""

    carrier: FinSet
    inl: FinMap
    inr: FinMap
    left_part: FinSet
    right_part: FinSet


def coproduct(a: FinSet, b: FinSet) -> Coproduct:
    carrier = FinSet(a.size + b.size)
    inl = FinMap(a, carrier, tuple(range(a.size)))
    inr = FinMap(b, carrier, tuple(a.size + y for y in range(b.size)))
    return Coproduct(carrier, inl, inr, a, b)


def copair(f: FinMap, g: FinMap, cop: Coproduct) -> FinMap:
    """The map out of a coproduct determined by maps out of both parts."""
    if f.dom != cop.left_part or g.dom != cop.right_part or f.cod != g.cod:
        raise ShapeMismatch("copairing legs do not match the coproduct")
    return FinMap(cop.carrier, f.cod, f.table + g.table)


def product_map(f1: FinMap, f2: FinMap) -> FinMap:
    """f1 x f2 between the products of the domains and of the codomains,
    both paired lexicographically: (x1, x2) is x1 * |dom f2| + x2 and goes
    to f1(x1) * |cod f2| + f2(x2)."""
    m2 = f2.cod.size
    table = tuple([y1 * m2 + y2 for y1 in f1.table for y2 in f2.table])
    return FinMap(FinSet(f1.dom.size * f2.dom.size), FinSet(f1.cod.size * m2), table)


def sum_map(f1: FinMap, f2: FinMap) -> FinMap:
    """f1 + f2 between the coproducts of the domains and of the
    codomains, left part first: f1's table, then f2's shifted past f1's
    codomain."""
    m1 = f1.cod.size
    table = f1.table + tuple([m1 + y for y in f2.table])
    return FinMap(FinSet(f1.dom.size + f2.dom.size), FinSet(m1 + f2.cod.size), table)


def blocks(cod: FinSet, sizes: tuple[int, ...] | list[int]) -> FinMap:
    """The block map onto cod: its domain is numbered block by block, and
    the b-th block, of sizes[b] points, goes to b."""
    if len(sizes) != cod.size:
        raise ShapeMismatch("one fiber size per codomain point required")
    if min(sizes, default=0) < 0:
        raise ShapeMismatch("fiber sizes must be nonnegative")
    table: list[int] = []
    for b, n in enumerate(sizes):
        table.extend([b] * n)  # a non-integral n raises TypeError here
    return FinMap(FinSet(len(table)), cod, tuple(table))
