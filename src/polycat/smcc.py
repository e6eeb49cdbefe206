"""Executable verification of the structural theorems about the tensor:
the comparison map into the tensor's value on an external product and
its universal property, the currying adjunction between tensor and
internal hom, a from-first-principles coend oracle for the tensor's
value, the truncated-exponential extension identity, and the
double-dualization counterexample report.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter

from . import fam, finset, nat, poly
from .errors import OracleNotNatural, ShapeMismatch, ValidationError
from .fam import FamMorphism, Family
from .finset import FinMap, check_guard
from .poly import DiagMorphism, PolyDiagram
from .report import Report, decimal

__all__ = [
    "epsilon",
    "epsilon_naturality_check",
    "theta",
    "theta_check",
    "Currying",
    "curry_dm",
    "uncurry_dm",
    "adjunction_count_check",
    "day_coend_oracle",
    "bang_extension_check",
    "double_dual_report",
]


def epsilon(p1: PolyDiagram, p2: PolyDiagram, x: Family, y: Family) -> FamMorphism:
    """The comparison map from the external product of two values to the
    tensor's value on the external product: the cocone (_cocone) at the
    box pairing, which sends the point pair (t1, t2) to the point t1 *
    |y| + t2 of the external product of x and y.

    Each extension record is read once, and guarded, on every call: p1's
    at x, then p2's at y, then the tensor's at the box. Only then is the
    pair looked up in a dict kept on the tensor diagram (as poly keeps
    `_ext` and `_tensor`), which holds the morphism built at the first
    call with families of these values. So a limit lowered after that
    call still refuses, and the held morphism lives as long as the
    tensor. A pickle of the tensor holds no held morphisms."""
    if x.base != p1.source:
        raise ShapeMismatch("first family must live over the first diagram's sorts")
    if y.base != p2.source:
        raise ShapeMismatch("second family must live over the second diagram's sorts")
    tens = poly.tensor(p1, p2)
    ext1, ext2 = poly._extension(p1, x), poly._extension(p2, y)
    bx = fam.box(x, y)
    ext = poly._extension(tens, bx)
    held = getattr(tens, "_epsilon", None)
    if held is None:
        held = {}
        object.__setattr__(tens, "_epsilon", held)
    comp = held.get((x, y))
    if comp is None:
        dom, cod, index = fam.box(ext1.family, ext2.family), ext.family, ext.index()
        b, n2 = y.total.size, p2.shapes.size
        pairing = range(bx.total.size)
        table = tuple([index[_cocone(b, pairing, e1, e2, n2)]
                       for e1 in ext1.elements for e2 in ext2.elements])
        comp = held[x, y] = FamMorphism(dom, cod, FinMap(dom.total, cod.total, table))
    return comp


def _cocone(b: int, phi, e1, e2, n2: int) -> tuple[int, tuple[int, ...]]:
    """The tensor's element of e1 = (v1, pay1) and e2 = (v2, pay2), elements
    of the two diagrams' values at an a-set and a b-set, under a pairing
    phi of the two sets, which sends the point pair (u, t) to phi[u * b +
    t]: the shape v1 * n2 + v2, with n2 = |S2|, and the payload of phi
    read at pay1 × pay2, pay1 outer."""
    v1, pay1 = e1
    v2, pay2 = e2
    return v1 * n2 + v2, tuple([phi[u * b + t] for u in pay1 for t in pay2])


def epsilon_naturality_check(p1: PolyDiagram, p2: PolyDiagram, bound: int) -> Report:
    """Verify that the comparison map is natural in both arguments on the
    families with fibers at most the bound: the binatural family rho of
    _check_rho_natural, checked on the same generating squares."""
    try:
        squares = _check_rho_natural(lambda x, y: epsilon(p1, p2, x, y), p1, p2,
                                     poly.tensor(p1, p2), bound)
    except OracleNotNatural as exc:
        return Report("comparison map naturality", False, (str(exc),))
    return Report("comparison map naturality", True,
                  (f"{squares} generating squares commute at fiber bound {bound}",))


def _check_rho_natural(rho, p1: PolyDiagram, p2: PolyDiagram,
                       f_diag: PolyDiagram, bound: int) -> int:
    """Raise OracleNotNatural unless rho is binatural on the families with
    fibers at most the bound; return the number of squares checked.
    Squares paste: the square of (f, g) is the square of (f, id) beside
    the square of (id, g), and the square of a composite is the squares
    of its factors side by side. So only the squares (f, id_y) and
    (id_x, g) with f and g generating morphisms are checked, in that
    order. rho is evaluated once per argument pair, and each factor's
    functorial action (poly.extension_map of p1 or p2) once per
    generating morphism and once per identity, shared by every square
    it sits in. The action of f_diag's extension on the box of the two
    morphisms is never built whole: per square it is read only at the
    elements that rho's component at (f.src, g.src) lands on.

    The two composites of a square are read on tables and not built:
    the left side is rho's table at (f.dst, g.dst) read at F[i1] * m2 +
    G[i2], with F and G the factor actions' tables and m2 the size of
    g's action's target, and the right side f_diag's action
    (poly._action_at, with the box map's table from
    finset.product_map) read at rho's table at (f.src, g.src). Their
    endpoints are checked as FamMorphism.then checks them, with its
    message ("cannot compose family morphisms: endpoints differ") and in
    the order that composing them would: the left side's before f_diag's
    two extension records are read (source, then target, as
    poly.extension_map reads them), the right side's after."""
    xs = list(fam.families_up_to(p1.source, bound))
    ys = list(fam.families_up_to(p2.source, bound))
    fs = fam.generating_morphisms(p1.source, bound)
    gs = fam.generating_morphisms(p2.source, bound)
    check_guard(len(fs) * len(ys) + len(xs) * len(gs), "binaturality square count")
    comps = {(x, y): rho(x, y) for x in xs for y in ys}

    def actions(p, morphisms):
        return [(h, poly.extension_map(p, h)) for h in morphisms]

    ids_y = actions(p2, [fam.identity_morphism(y) for y in ys])
    ids_x = actions(p1, [fam.identity_morphism(x) for x in xs])
    gens_x, gens_y = actions(p1, fs), actions(p2, gs)
    squares = [(f, g) for f in gens_x for g in ids_y]
    squares += [(f, g) for f in ids_x for g in gens_y]
    for (f, f_ext), (g, g_ext) in squares:
        after = comps[f.dst, g.dst]
        fam._check_composable(fam.box(f_ext.dst, g_ext.dst), after.src)
        table, gt, m2 = after.map.table, g_ext.map.table, g_ext.dst.total.size
        lhs = tuple([table[y1 * m2 + y2] for y1 in f_ext.map.table for y2 in gt])
        before = comps[f.src, g.src]
        src = poly._extension(f_diag, fam.box(f.src, g.src))
        dst = poly._extension(f_diag, fam.box(f.dst, g.dst))
        fam._check_composable(before.dst, src.family)
        if lhs != poly._action_at(dst, finset.product_map(f.map, g.map).table,
                                  map(src.elements.__getitem__, before.map.table)):
            raise OracleNotNatural(
                f"rho not natural: counterexample at fibers {f.src.fiber_sizes()}"
                f"->{f.dst.fiber_sizes()} and {g.src.fiber_sizes()}"
                f"->{g.dst.fiber_sizes()}, maps {f.map.table} and {g.map.table}")
    return len(squares)


def _tensor_into(p1: PolyDiagram, p2: PolyDiagram, f_diag: PolyDiagram) -> PolyDiagram:
    """The tensor of p1 and p2, checked to share f_diag's sorts."""
    tens = poly.tensor(p1, p2)
    if f_diag.source != tens.source or f_diag.target != tens.target:
        raise ShapeMismatch("target diagram must share the tensor's sorts")
    return tens


def _mediator(rho, p1: PolyDiagram, p2: PolyDiagram, f_diag: PolyDiagram) -> DiagMorphism:
    """The container morphism from the tensor into f_diag that a binatural
    family rho induces, by Yoneda on each tensor shape (v1, v2): rho is
    probed once, at the generic families e1 and e2 of v1 and v2, on the
    pair of generic elements. The image (w, payload) gives alpha = w, and
    each payload entry k, an element of the external product of e1 and
    e2, names the tensor direction order1[k // n2] * |p2 dirs| +
    order2[k % n2], with n2 = |e2|."""
    tens = poly.tensor(p1, p2)
    nd2 = p2.dirs.size
    alpha_table: list[int] = []
    betas: list[tuple[int, ...]] = []
    for v1 in p1.shapes:
        e1, order1 = nat.generic_family(p1, v1)
        for v2 in p2.shapes:
            e2, order2 = nat.generic_family(p2, v2)
            comp = rho(e1, e2)
            ext2 = poly.eval_extension(p2, e2)
            bx = fam.box(e1, e2)
            if comp.src != fam.box(poly.eval_extension(p1, e1), ext2) or \
                    comp.dst != poly.eval_extension(f_diag, bx):
                raise ValidationError("rho component has the wrong endpoints")
            val = comp(fam.box_pair(ext2, nat.generic_element(p1, v1),
                                    nat.generic_element(p2, v2)))
            w, payload = poly.extension_elements(f_diag, bx)[val]
            n2 = e2.total.size
            alpha_table.append(w)
            betas.append(tuple(order1[k // n2] * nd2 + order2[k % n2] for k in payload))
    return DiagMorphism(tens, f_diag, FinMap(tens.shapes, f_diag.shapes,
                                             tuple(alpha_table)), tuple(betas))


def _mediating(rho, p1: PolyDiagram, p2: PolyDiagram, f_diag: PolyDiagram) -> tuple:
    """The preamble of theta and theta_check: the target's sorts checked
    (_tensor_into) before rho is asked, rho cached, its naturality
    checked at fiber bound 2, the mediator built; returns the tensor,
    the cached rho and the mediator."""
    tens = _tensor_into(p1, p2, f_diag)
    rho = functools.cache(rho)
    _check_rho_natural(rho, p1, p2, f_diag, 2)
    return tens, rho, _mediator(rho, p1, p2, f_diag)


def theta(rho, p1: PolyDiagram, p2: PolyDiagram, f_diag: PolyDiagram,
          r: Family) -> FamMorphism:
    """The mediating component at r induced by a binatural family rho:
    the component at r of the mediating container morphism (_mediator),
    which probes rho once per tensor shape. rho's naturality is always
    verified first, at fiber bound 2, on the squares of the generating
    morphisms only: naturality squares paste, so these give every square
    between families with fibers at most 2. rho is evaluated once per
    argument pair, its values shared by the naturality check and the
    mediator and kept for this call only. The naturality check reads
    f_diag's action on each square only at rho's image
    (_check_rho_natural). The target's sorts, then r's, are checked
    before rho is asked (_mediating)."""
    if r.base != _tensor_into(p1, p2, f_diag).source:
        raise ShapeMismatch("family must live over the tensor's source sorts")
    return nat.eval_dm(_mediating(rho, p1, p2, f_diag)[2], r)


def theta_check(p1: PolyDiagram, p2: PolyDiagram, f_diag: PolyDiagram, rho,
                candidate_limit: int = 8) -> Report:
    """Verify the universal property on a concrete instance: the mediating
    transformation composed with the comparison map reproduces rho at
    every small argument pair, and it is the only container morphism
    that does so (sampled when the candidate count is within the limit).
    The mediator (_mediator) is built once. Once it reproduces rho, it is
    itself a candidate, so the one matching candidate must equal it.
    rho and the comparison map are evaluated once per argument pair: the
    naturality check, the mediator and every candidate share the values,
    kept for this call only. A candidate's composite with the comparison
    map is read on tables and its component is never built whole: its
    two extension records at the box are read, source then target, as
    nat.eval_dm reads them, then the endpoint check that composing them
    would make is made, with the same message, and the component
    (nat._component_at) is read only at the comparison map's table: one
    read per element of p1(x) ⊠ p2(y), not one per element of the
    tensor's value at x ⊠ y. The preamble is theta's (_mediating)."""
    tens, rho, mediator = _mediating(rho, p1, p2, f_diag)
    comparison = functools.cache(lambda x, y: epsilon(p1, p2, x, y))
    xs = list(fam.families_up_to(p1.source, 2))
    ys = list(fam.families_up_to(p2.source, 2))

    def reproduces(m: DiagMorphism) -> tuple[Family, Family] | None:
        # the first argument pair where m after the comparison map is not rho
        for x in xs:
            for y in ys:
                c = comparison(x, y)
                bx = fam.box(x, y)
                src = poly._extension(m.src, bx)
                dst = poly._extension(m.dst, bx)
                fam._check_composable(c.dst, src.family)
                if nat._component_at(m, dst, map(src.elements.__getitem__,
                                                 c.map.table)) != rho(x, y).map.table:
                    return x, y
        return None

    failure = reproduces(mediator)
    ok = failure is None
    if ok:
        lines = [f"mediating map reproduces rho after the comparison map "
                 f"at {len(xs) * len(ys)} argument pairs"]
    else:
        x, y = failure
        lines = [f"mediating map fails after the comparison map at fibers "
                 f"{x.fiber_sizes()} and {y.fiber_sizes()}"]
    count = nat.count_nat(tens, f_diag)
    if count <= candidate_limit:
        matches = [m for m in nat.enumerate_dm(tens, f_diag) if reproduces(m) is None]
        unique = len(matches) == 1
        ok = ok and unique
        lines.append(f"{len(matches)} of {count} candidate transformations "
                     f"satisfy the equation (want exactly 1)")
        if unique:
            same = matches[0] == mediator
            ok = ok and same
            lines.append("the matching candidate reproduces the mediating "
                         f"components: {'yes' if same else 'NO'}")
    else:
        lines.append(f"{count} candidate transformations exceed the sampling "
                     f"limit {candidate_limit}; uniqueness not sampled")
    return Report("tensor universal property", bool(ok), tuple(lines))


# ---------------------------------------------------------------------------
# the currying adjunction


def _curry_tables(tables: tuple, p1: PolyDiagram, p2: PolyDiagram,
                  shape_of: dict) -> tuple:
    """The (alpha table, betas) of a morphism out of the tensor, given by
    its own, transposed into the hom whose shapes shape_of indexes by
    their decodings (Currying). A direction u1 * |p2 dirs| + u2 of a
    tensor shape (v1, v2) answers with u1, and its u2 gives the backward
    table phi at v2 by position."""
    alpha, m_betas = tables
    n2, nd2 = p2.shapes.size, p2.dirs.size
    positions2 = p2.dir_shape.positions()
    alpha_table = []
    betas = []
    for v1 in p1.shapes:
        row = v1 * n2
        entries = m_betas[row:row + n2]
        phi = tuple([tuple([positions2[u % nd2] for u in vpair_entries])
                     for vpair_entries in entries])
        alpha_table.append(shape_of[alpha[row:row + n2], phi])
        betas.append(tuple([u // nd2 for vpair_entries in entries for u in vpair_entries]))
    return tuple(alpha_table), tuple(betas)


def _uncurry_tables(tables: tuple, p2: PolyDiagram, p3: PolyDiagram,
                    hd: poly.HomData) -> tuple:
    """The (alpha table, betas) of a morphism into the hom hd =
    hom_data(p2, p3), given by its own, transposed out of the tensor. The
    directions of a hom shape (f, phi) run over v2, then f(v2)'s fiber,
    so beta's answers at v1 split into one block per v2."""
    nd2 = p2.dirs.size
    fibers2, fibers3 = p2.dir_shape.fibers(), p3.dir_shape.fibers()
    alpha_table: list[int] = []
    betas: list[tuple[int, ...]] = []
    for c, answers in zip(*tables):
        f_table, phi = hd.shape_reps[c]
        offset = 0
        for fiber2, w, positions in zip(fibers2, f_table, phi):
            end = offset + len(fibers3[w])
            alpha_table.append(w)
            betas.append(tuple([u1 * nd2 + fiber2[pos]
                                for u1, pos in zip(answers[offset:end], positions)]))
            offset = end
    return tuple(alpha_table), tuple(betas)


class Currying:
    """The currying bijection Nat(p1 ⊗ p2, p3) ≅ Nat(p1, [p2, p3]) of
    single-sorted diagrams, on (alpha table, betas) pairs, with one
    tensor and one hom (hom_data), built in that order, for every step.
    A multi-sorted operand is refused before either is built: the one
    refusal of curry_dm, uncurry_dm, adjunction_count_check and curry.

    out_of_tensor and into_hom list each side's members on first use
    (nat.enumerate_tables), each to its position. curry and uncurry
    transpose each input once and keep the (pure) transpose. One that is
    a listed member of the other side has passed every construction
    check, since enumerate_tables lists exactly the valid morphisms; any
    other is built as a DiagMorphism, and so checked, when it is made."""

    def __init__(self, p1: PolyDiagram, p2: PolyDiagram, p3: PolyDiagram):
        if not all(p.is_single_sorted() for p in (p1, p2, p3)):
            raise ValidationError("the currying adjunction is single-sorted only")
        self.p1, self.p2, self.p3 = p1, p2, p3
        self.tensor = poly.tensor(p1, p2)
        self.hom_data = poly.hom_data(p2, p3)
        self.hom = self.hom_data.diagram
        self._curried: dict = {}
        self._uncurried: dict = {}

    @functools.cached_property
    def _shape_of(self) -> dict:
        return {rep: c for c, rep in enumerate(self.hom_data.shape_reps)}

    @functools.cached_property
    def out_of_tensor(self) -> dict:
        return {m: k for k, m in enumerate(nat.enumerate_tables(self.tensor, self.p3))}

    @functools.cached_property
    def into_hom(self) -> dict:
        return {m: k for k, m in enumerate(nat.enumerate_tables(self.p1, self.hom))}

    def counts(self) -> tuple[int, int]:
        return nat.count_nat(self.tensor, self.p3), nat.count_nat(self.p1, self.hom)

    def curry(self, tables: tuple) -> tuple:
        out = self._curried.get(tables)
        if out is None:
            out = self._curried[tables] = _curry_tables(tables, self.p1, self.p2,
                                                        self._shape_of)
            self._check(self.p1, self.hom, out, "into_hom")
        return out

    def uncurry(self, tables: tuple) -> tuple:
        out = self._uncurried.get(tables)
        if out is None:
            out = self._uncurried[tables] = _uncurry_tables(tables, self.p2, self.p3,
                                                            self.hom_data)
            self._check(self.tensor, self.p3, out, "out_of_tensor")
        return out

    def _check(self, src: PolyDiagram, dst: PolyDiagram, tables: tuple, side: str) -> None:
        # a cached_property keeps its listing in the instance dict once read
        if tables not in self.__dict__.get(side, ()):
            DiagMorphism(src, dst, FinMap(src.shapes, dst.shapes, tables[0]), tables[1])


def curry_dm(m: DiagMorphism, p1: PolyDiagram, p2: PolyDiagram,
             p3: PolyDiagram) -> DiagMorphism:
    """Transpose a container morphism out of a tensor into one landing in
    the internal hom. Single-sorted diagrams only. Builds the hom for the
    one morphism; many morphisms share one Currying."""
    if m.src != poly.tensor(p1, p2) or m.dst != p3:
        raise ShapeMismatch("morphism must go from the tensor of the first two "
                            "diagrams to the third")
    c = Currying(p1, p2, p3)
    alpha, betas = c.curry((m.alpha.table, m.betas))
    return poly._assembled(p1, c.hom, FinMap(p1.shapes, c.hom.shapes, alpha), betas)


def uncurry_dm(m: DiagMorphism, p1: PolyDiagram, p2: PolyDiagram,
               p3: PolyDiagram) -> DiagMorphism:
    """Inverse transposition: a morphism into the internal hom becomes one
    out of the tensor. Builds the hom for the one morphism, like curry_dm."""
    c = Currying(p1, p2, p3)
    if m.src != p1 or m.dst != c.hom:
        raise ShapeMismatch("morphism must go from the first diagram to the "
                            "internal hom of the other two")
    alpha, betas = c.uncurry((m.alpha.table, m.betas))
    return poly._assembled(c.tensor, p3, FinMap(c.tensor.shapes, p3.shapes, alpha), betas)


def adjunction_count_check(p1: PolyDiagram, p2: PolyDiagram, p3: PolyDiagram,
                           roundtrip_limit: int = 512) -> Report:
    """Count transformations out of the tensor and into the internal hom;
    when both sides fit the limit, also round-trip the explicit currying
    bijection on every member, and check it injective, on tables (one
    Currying): the right round trip reads the transposes that the left
    one made, and no morphism is built for a listed member."""
    c = Currying(p1, p2, p3)
    n_left, n_right = c.counts()
    lines = [f"transformations out of the tensor: {decimal(n_left)}; "
             f"into the internal hom: {decimal(n_right)}"]
    ok = n_left == n_right
    if n_left + n_right <= roundtrip_limit:
        left, right = c.out_of_tensor, c.into_hom
        curried = [c.curry(m) for m in left]
        round_left = all(c.uncurry(t) == m for t, m in zip(curried, left))
        round_right = all(c.curry(c.uncurry(m)) == m for m in right)
        distinct = len(set(curried)) == len(left)
        ok = ok and round_left and round_right and distinct
        lines.append(f"currying round trips on {n_left} + {n_right} members: "
                     f"{'yes' if round_left and round_right else 'NO'}")
        lines.append(f"currying is injective: {'yes' if distinct else 'NO'}")
    else:
        lines.append(f"{decimal(n_left)} + {decimal(n_right)} members exceed the round-trip "
                     f"limit {roundtrip_limit}; bijection not enumerated")
    return Report("tensor-hom adjunction", bool(ok), tuple(lines))


# ---------------------------------------------------------------------------
# the coend oracle


def _set_value(p: PolyDiagram, a: int) -> poly.Extension:
    """The extension of a single-sorted diagram at an a-element set: its
    elements are a shape plus a payload of positions below a, kept on p
    with their index like every extension."""
    return poly._extension(p, fam.family_from_fibers(p.source, (a,)))


def _draws(rng: random.Random):
    """Draws below n taken straight from `rng.getrandbits`: `below(n)` is
    one draw and `below_each(n, m)` a tuple of m draws. Both run the
    rejection loop of CPython's `Random._randbelow_with_getrandbits`
    (k = n.bit_length(), then k random bits until they are below n),
    through which `rng.randrange(n)` and `rng.choice(seq)` draw. So
    `below(n)` is `rng.randrange(n)`, `seq[below(len(seq))]` is
    `rng.choice(seq)`, and the seeded stream is the same draw for draw,
    without `randrange`'s two Python frames per draw. As with
    `randrange`, a draw below n <= 0 raises ValueError: `getrandbits(0)`
    is 0, so the loop would never end. `below_each(n, 0)` is () for
    every n, as no `randrange` call is made. The coend oracle's sampled
    mode repeats this loop inline at each of its draws, with each bit
    width worked out outside its loops, and its filters run ahead of
    every draw, so no inline loop draws below a bound of 0 or less, where
    it would never end. This function is kept as the tested reference
    definition of those draws."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        if n <= 0:
            raise ValueError(f"no draw below {n}")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def below_each(n: int, m: int) -> tuple[int, ...]:
        if m <= 0:
            return ()
        if n <= 0:
            raise ValueError(f"no draw below {n}")
        k = n.bit_length()
        out = []
        for _ in range(m):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            out.append(r)
        return tuple(out)

    return below, below_each


def day_coend_oracle(p1: PolyDiagram, p2: PolyDiagram, x: Family,
                     skeleton_bound: int, budget: int = 20000,
                     samples: int = 2000, seed: int = 0) -> Report:
    """Compute the tensor's value at x from first principles, as the
    quotient of all (set, set, pairing, element, element) tuples over the
    finite skeleton by the relations generated by single morphism steps
    in either set argument. The report counts the tuples and the
    generating relations, one for every map of the skeleton, in closed
    form.

    Small instances are materialized and quotiented exactly by
    union-find. The union runs over the relations of the skeleton's
    generating maps only, the set whose squares the naturality checks
    walk (per size the last coface and the last codegeneracy, and at size
    s the transposition (0 1) and the cycle, see `fam.minimal_generators`):
    relations chain along a composite, and every map of the skeleton is a
    composite of these generators, so the classes are the same. Large
    instances are handled by the factorization argument: every tuple
    reduces along its own payloads (two generator steps) to a canonical
    rectangle, canonical rectangles decode bijectively to extension
    elements, and the separating comparison is checked to respect a
    seeded sample of the generating relations.
    A canonical rectangle at shapes (v1, v2) with a pairing is the
    tensor's element (v1 * |S2| + v2, pairing), so both modes read the
    rectangles as the tensor's extension elements at x.
    Each mode writes its relations once, for a map f on either side: the
    tuple with a pairing phi2 and f's push of that side's element is
    related to the tuple with that side's element and phi2 pulled back
    along f x 1 (left) or 1 x f (right). The exact mode unions the two
    tuples' numbers, building each table of pushed elements when a
    relation first reads it. The sampled mode compares the two tuples'
    cocones without building them: both have the shape v1 * |S2| + v2,
    so it compares their payloads, both read directly off the drawn
    pairing phi2: at the pushed side's payload (`moved`, f's image of
    that side's payload) against pay1 × pay2 pulled back along f, that
    is at (f u, t) on the left and (u, f t) on the right. No other entry
    of the pulled-back pairing is built. `_cocone` reads the tensor's
    element for the reductions, the exact mode and `epsilon`.
    The sampled mode's seeded draws are exactly those of
    `random.Random(seed)`'s `randrange` and `choice`, taken inline from
    its `getrandbits` by `_draws`'s rejection loop: per reduction, the
    size pair, the two elements and the pairing; per relation sample,
    the side, the three sizes, f, the pairing and the two elements; each
    in that order, and each draw in full, the whole pairing included, so
    a check made cheaper must still take the draws it no longer reads.
    A reduction's cocone is looked up in the tensor's extension index at
    x. The compared relation holds by construction: the pushed payload
    reads phi2 at `moved`, f's image of the payload, which is what the
    pulled-back pairing holds there, so the line reads yes until `moved`
    is computed by another route than the pull-back. So in sampled mode
    only the reduction lookup and the decode count can read NO, and the
    lookup reads NO only if the tensor's extension at x misses a payload,
    since every cocone payload has f1 · f2 entries below |x|. The sample
    count must be positive. The skeleton bound is guarded before the per-size
    element counts are computed, once, and their sum before anything is
    listed."""
    if samples < 1:
        raise ValidationError(f"the coend oracle needs at least one sample, not {samples}")
    if not (p1.is_single_sorted() and p2.is_single_sorted()):
        raise ValidationError("the coend oracle is single-sorted only")
    if x.base.size != 1:
        raise ShapeMismatch("family must live over the single sort")
    fibers1 = [len(p1.shape_fiber(v)) for v in p1.shapes]
    fibers2 = [len(p2.shape_fiber(v)) for v in p2.shapes]
    need = max(fibers1 + fibers2 + [0])
    if skeleton_bound < need:
        raise ValidationError(
            f"skeleton bound {skeleton_bound} is below the largest direction "
            f"fiber {need}")
    s = skeleton_bound
    # the counts multiply numbers of up to s^2 log(nx) digits about s^2
    # times, and both modes list the elements of both diagrams at every size
    check_guard((s + 1) ** 3, "coend oracle skeleton size triples")
    # a diagram's elements at an a-set number the sum of a^arity over its
    # shapes, summed by arity so that wide diagrams count in O(s^2) steps
    p1_counts, p2_counts = [[sum(k * a ** d for d, k in arities) for a in range(s + 1)]
                            for arities in (Counter(fibers1).items(), Counter(fibers2).items())]
    finset.check_guard_sum(p1_counts + p2_counts, "coend oracle skeleton elements")
    nx = x.total.size
    tens = poly.tensor(p1, p2)
    expected = poly.eval_extension(tens, x).total.size
    # tuples at sizes (a, b): nx^(a b) P1[a] P2[b]; relations along a map
    # a -> a2 on the left: a2^a nx^(a2 b) P1[a] P2[b], and the mirror term.
    # Summed with P1 and P2 as polynomials in the skeleton size:
    total_tuples = sum(p1_counts[a] * _horner(p2_counts, nx ** a)
                       for a in range(s + 1))
    gen_total = sum(_horner(p1_counts, a2) * _horner(p2_counts, nx ** a2)
                    + _horner(p2_counts, a2) * _horner(p1_counts, nx ** a2)
                    for a2 in range(s + 1))

    n2 = p2.shapes.size
    rects = poly.extension_elements(tens, x)
    lines = [f"skeleton 0..{s}: {decimal(total_tuples)} tuples, "
             f"{decimal(gen_total)} generating relations"]
    if total_tuples <= budget and gen_total <= 10 * budget:
        roots, number = _coend_exact(p1, p2, s, nx)
        classes = sum(1 for k, root in enumerate(roots) if k == root)
        found = set()
        for vpair, pairing in rects:
            v1, v2 = divmod(vpair, n2)
            f1, f2 = fibers1[v1], fibers2[v2]
            found.add(roots[number(f1, f2, pairing, (v1, tuple(range(f1))),
                                   (v2, tuple(range(f2))))])
        canon_ok = len(found) == len(rects) == classes
        lines.append("mode: exact union-find over all tuples")
        lines.append(f"equivalence classes: {classes}; extension elements: {expected}")
        lines.append("each class contains exactly one canonical rectangle: "
                     + ("yes" if canon_ok else "NO"))
        ok = classes == expected and canon_ok
    else:
        lines.append("mode: factorization with sampled relation checks")
        rng = random.Random(seed)
        # every draw below n is `_draws`'s rejection loop, taken inline; its
        # bit width k = n.bit_length() is worked out outside the loops,
        # except a2's, which changes with each relation attempt
        bits = rng.getrandbits
        elems1 = [_set_value(p1, a).elements for a in range(s + 1)]
        elems2 = [_set_value(p2, b).elements for b in range(s + 1)]

        # every tuple reduces along its payloads to the canonical rectangle
        # of its cocone, which is an element of the tensor's extension at x
        reductions_ok = True
        reduced = 0
        rect_index = poly.extension_index(tens, x)
        # per size pair: both element lists with their lengths and those
        # lengths' widths, b and a * b
        weighted = [(es1, len(es1), len(es1).bit_length(),
                     es2, len(es2), len(es2).bit_length(), b, a * b)
                    for a, es1 in enumerate(elems1) for b, es2 in enumerate(elems2)
                    if p1_counts[a] * p2_counts[b] > 0 and (nx > 0 or a * b == 0)]
        nw = len(weighted)
        kw, kx = nw.bit_length(), nx.bit_length()
        for _ in range(samples if weighted else 0):
            r = bits(kw)
            while r >= nw:
                r = bits(kw)
            es1, m1, k1, es2, m2, k2, b, ab = weighted[r]
            reduced += 1
            r = bits(k1)
            while r >= m1:
                r = bits(k1)
            e1 = es1[r]
            r = bits(k2)
            while r >= m2:
                r = bits(k2)
            e2 = es2[r]
            phi = []
            for _ in range(ab):
                r = bits(kx)
                while r >= nx:
                    r = bits(kx)
                phi.append(r)
            if _cocone(b, phi, e1, e2, n2) not in rect_index:
                reductions_ok = False
                break
        lines.append(f"sampled tuples reduce to canonical rectangles: "
                     f"{'yes' if reductions_ok else 'NO'} ({reduced} samples)")

        # the comparison map respects sampled generating relations: a map
        # f from the n-set on one side to an a2-set, o the other side's size
        relations_ok = True
        tried = 0
        attempts = 0
        coin = rng.random
        lens1 = [len(es) for es in elems1]
        lens2 = [len(es) for es in elems2]
        widths1 = [m.bit_length() for m in lens1]
        widths2 = [m.bit_length() for m in lens2]
        ks = (s + 1).bit_length()
        while tried < samples and attempts < 20 * samples:
            attempts += 1
            left = coin() < 0.5
            a = bits(ks)
            while a > s:
                a = bits(ks)
            a2 = bits(ks)
            while a2 > s:
                a2 = bits(ks)
            b = bits(ks)
            while b > s:
                b = bits(ks)
            n, o = (a, b) if left else (b, a)
            if (n > 0 and a2 == 0) or not lens1[a] or not lens2[b]:
                continue
            ka = a2.bit_length()
            f = []
            for _ in range(n):
                r = bits(ka)
                while r >= a2:
                    r = bits(ka)
                f.append(r)
            if nx == 0 and a2 * o > 0:
                continue
            phi2 = []
            for _ in range(a2 * o):
                r = bits(kx)
                while r >= nx:
                    r = bits(kx)
                phi2.append(r)
            m1, k1 = lens1[a], widths1[a]
            r = bits(k1)
            while r >= m1:
                r = bits(k1)
            pay1 = elems1[a][r][1]
            m2, k2 = lens2[b], widths2[b]
            r = bits(k2)
            while r >= m2:
                r = bits(k2)
            pay2 = elems2[b][r][1]
            # both tuples' cocones have the shape v1 * |S2| + v2, so they
            # agree when their payloads do; both are read off phi2, the
            # pulled-back pairing only at pay1 x pay2
            if left:
                # (a2, b, phi2, f e1, e2) ~ (a, b, phi2 (f x 1), e1, e2)
                moved = [f[t] for t in pay1]
                pushed = [phi2[u * b + t] for u in moved for t in pay2]
                pulled = [phi2[f[u] * b + t] for u in pay1 for t in pay2]
            else:
                # (a, a2, phi2, e1, f e2) ~ (a, b, phi2 (1 x f), e1, e2)
                moved = [f[t] for t in pay2]
                pushed = [phi2[u * a2 + t] for u in pay1 for t in moved]
                pulled = [phi2[u * a2 + f[t]] for u in pay1 for t in pay2]
            if pushed != pulled:
                relations_ok = False
                break
            tried += 1
        lines.append(f"separating comparison respects sampled relations: "
                     f"{'yes' if relations_ok else 'NO'} ({tried} samples)")

        # canonical rectangles decode bijectively to extension elements
        decode_ok = len(rect_index) == len(rects) == expected
        lines.append(f"canonical rectangles: {len(rects)} "
                     f"(one per extension element: {'yes' if decode_ok else 'NO'})")
        ok = reductions_ok and relations_ok and decode_ok
    return Report("coend oracle", bool(ok), tuple(lines))


def _horner(coefficients: list[int], z: int) -> int:
    """The polynomial with the given coefficients (constant term first)
    at z."""
    value = 0
    for c in reversed(coefficients):
        value = value * z + c
    return value


def _coend_exact(p1, p2, s, nx):
    """Materialize the skeleton tuples (a, b, phi, e1, e2) and union them
    along the relations of the generating maps only
    (`fam.minimal_generators`: per size the last coface and the last
    codegeneracy, and (0 1) and the cycle at size s; 9 maps at s = 4,
    against 499 maps in all). Relations chain: the relation
    along a composite map joins the same two tuples as the relations
    along its factors in turn, and every map between sets of size at most
    s is a composite of these generators through such sets. So the
    classes are the classes of the relations along every map.

    Returns the representative of every tuple's class, and the function
    that numbers a tuple (a, b, phi, e1, e2), with e1 and e2 elements of
    the two diagrams' values at a and at b. Tuples are numbered by the
    sizes (a, b) in lexicographic order, then by phi as a base-nx
    numeral, then by the positions of e1 and e2 in the diagrams' values
    at a and at b (`_set_value`). Both sides' relations run through one
    loop: only the pairing's pull-back and the places of the pushed and
    the other element in a pairing's block depend on the side. The
    numbers of f's pushes of one side's elements, its diagram's action
    on f (poly._action_at), are built when a relation first reads them,
    at the first size o of the other side whose relations are not
    skipped, and the o loop ends if there are none. At |x| = 0 every o >
    0 is skipped for a nonempty target set, so against a diagram with no
    constant shape no push is built.

    Each relation's union runs inline in the relation loop, with no call:
    the roots of both tuples by path halving, the pushed tuple's root
    linked below the other's. find, the same path halving, reads the
    final roots."""
    values = [[_set_value(p, a) for a in range(s + 1)] for p in (p1, p2)]
    index1, index2 = index = [[value.index() for value in side] for side in values]
    offsets = {}
    total = 0
    for a in range(s + 1):
        for b in range(s + 1):
            block = len(index1[a]) * len(index2[b])
            offsets[a, b] = total, block
            total += nx ** (a * b) * block

    def first(a, b, phi):
        # the number of the first tuple with sizes (a, b) and pairing phi
        offset, block = offsets[a, b]
        k = 0
        for entry in phi:
            k = k * nx + entry
        return offset + k * block

    parent = list(range(total))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for n, m, f in fam.minimal_generators(s):
        for side in (0, 1):
            # f on one side's set, an o-set on the other: the tuple with
            # pairing phi2 and f's push of that side's element ~ the tuple
            # with phi2 pulled back along f x 1 (left) or 1 x f (right)
            # built at the first o whose relations read it
            pushed = None
            for o in range(s + 1):
                others = len(index[1 - side][o])
                if not others or (nx == 0 and m * o > 0):
                    continue
                if pushed is None:
                    pushed = poly._action_at(values[side][m], f, values[side][n].elements)
                if not pushed:
                    break
                # a tuple's place in its pairing's block is i1 * |P2[b]| + i2,
                # so the strides of the moved element and of the other one
                if side == 0:
                    src, dst = (n, o), (m, o)
                    pull = [f[i] * o + j for i in range(n) for j in range(o)]
                    stride, other_src, other_dst = others, 1, 1
                else:
                    src, dst = (o, n), (o, m)
                    pull = [i * m + f[j] for i in range(o) for j in range(n)]
                    stride, other_src, other_dst = 1, len(index2[n]), len(index2[m])
                for phi2 in itertools.product(range(nx), repeat=m * o):
                    lo = first(*src, tuple([phi2[t] for t in pull]))
                    hi = first(*dst, phi2)
                    for k, e in enumerate(pushed):
                        lo_k, hi_e = lo + k * stride, hi + e * stride
                        for j in range(others):
                            ri = hi_e + j * other_dst
                            while parent[ri] != ri:
                                parent[ri] = parent[parent[ri]]
                                ri = parent[ri]
                            rj = lo_k + j * other_src
                            while parent[rj] != rj:
                                parent[rj] = parent[parent[rj]]
                                rj = parent[rj]
                            if ri != rj:
                                parent[ri] = rj

    def number(a, b, phi, e1, e2):
        return first(a, b, phi) + index1[a][e1] * len(index2[b]) + index2[b][e2]

    return [find(k) for k in range(total)], number


# ---------------------------------------------------------------------------
# the truncated exponential identity


_MATERIALIZE_LIMIT = 100000


def bang_extension_check(p: PolyDiagram, x: Family, k: int) -> Report:
    """Compare the truncated exponential at the multiset power of x with
    the blockwise tensor powers of p on external powers of x, summed over
    sort tuples along sorting. Fiber counts are compared arithmetically
    (exact big integers, any size); within _MATERIALIZE_LIMIT elements the
    elementwise bijection between the two pipelines is exhibited too.
    At a shape tuple l, each of the N = Π_j arity(l_j) direction tuples
    takes one payload entry, and each direction of l_j lies in N /
    arity(l_j) of them, so the payloads number Π_j payloads(l_j)^(N /
    arity(l_j)) (poly.payload_sizes): no direction tuple is walked."""
    if not p.is_endo():
        raise ValidationError("the exponential needs source = target")
    if x.base != p.source:
        raise ShapeMismatch("family must live over the diagram's sorts")
    bd = poly.bang_data(p, k)
    bang = bd.diagram
    xhat = poly.multiset_power(x, k)
    lhs_sizes = poly.extension_fiber_sizes(bang, xhat)
    check_guard(len(bd.shape_reps), "tensor power shape carrier")
    tuples = _shape_tuples(p, bd)
    payloads = poly.payload_sizes(p, x)
    arity = [len(fiber) for fiber in p.dir_shape.fibers()]
    rhs_sizes = [0] * len(bd.base_reps)
    for mi, l in tuples:
        n = math.prod(arity[v] for v in l)
        rhs_sizes[mi] += math.prod(payloads[v] ** (n // arity[v]) for v in l if arity[v])
    sizes_ok = lhs_sizes == tuple(rhs_sizes)
    lines = [f"fibers over size-at-most-{k} multisets: {_decimals(lhs_sizes)} vs "
             f"{_decimals(rhs_sizes)}"]

    total = sum(lhs_sizes)
    if total <= _MATERIALIZE_LIMIT and sum(rhs_sizes) <= _MATERIALIZE_LIMIT:
        good = _bang_bijection(p, x, k, bd, bang, xhat, tuples)
        lines.append(f"blockwise tensor powers match the exponential "
                     f"fiberwise: {'yes' if good else 'NO'}")
    else:
        good = True
        lines.append(f"carrier of {decimal(total)} elements exceeds the "
                     f"materialization limit {_MATERIALIZE_LIMIT}; fiber "
                     f"counts compared arithmetically only")
    return Report("exponential extension identity",
                  bool(sizes_ok and good), tuple(lines))


def _decimals(counts) -> str:
    """The counts printed as their tuple prints, each by report.decimal."""
    return f"({', '.join(map(decimal, counts))}{',' * (len(counts) == 1)})"


def _shape_tuples(p: PolyDiagram, bd: poly.BangData) -> list[tuple[int, tuple[int, ...]]]:
    """The blocks of the tensor powers: for each multiset of sorts m (its
    index mi in bd.base_reps), each distinct ordering w of m and each
    shape tuple l with l_j over the sort w_j, the pair (mi, l)."""
    shapes_by_sort = p.shape_sort.fibers()
    return [(mi, l) for mi, m in enumerate(bd.base_reps)
            for w in sorted(set(itertools.permutations(m)))
            for l in itertools.product(*[shapes_by_sort[i] for i in w])]


def _bang_bijection(p, x, k, bd, bang, xhat, tuples) -> bool:
    """Materialize both pipelines and verify the elementwise bijection:
    the tensor power's directions at a shape tuple are tuples of member
    directions, each payload entry drawn from the external power of x at
    the direction tuple's sorts, matched to the multiset power along the
    stable sort of positions. tuples are the blocks (_shape_tuples).

    Each direction tuple u is decoded once: its stable order by sort, the
    index of its sorted sorts in bd.base_reps, and the multiset-power
    rank of each of its picks read along that order. A block's elements
    are then read off at each tuple of the product of those rank lists.
    The check holds if the map is a bijection onto the exponential's
    carrier that keeps each block over its multiset, and reads False
    otherwise."""
    over = poly.eval_extension(bang, xhat).proj.table
    lhs_index = poly.extension_index(bang, xhat)
    mp_index = {e: t for t, e in enumerate(poly.multiset_power_elements(x, k))}
    base_index = {m: i for i, m in enumerate(bd.base_reps)}
    shape_index = {l: i for i, l in enumerate(bd.shape_reps)}
    xfibs = x.proj.fibers()
    table = []
    for mi, l in tuples:
        ranks = []
        for u in itertools.product(*[p.shape_fiber(v) for v in l]):
            sorts = [p.dir_sort(uj) for uj in u]
            order = sorted(range(len(u)), key=sorts.__getitem__)
            b = base_index[tuple([sorts[j] for j in order])]
            ranks.append([mp_index[(b, tuple([picks[j] for j in order]))]
                          for picks in itertools.product(*[xfibs[s] for s in sorts])])
        si = shape_index[l]
        block = [lhs_index[(si, entries)] for entries in itertools.product(*ranks)]
        if any(over[t] != mi for t in block):
            return False
        table += block
    return len(table) == len(over) == len(set(table))


# ---------------------------------------------------------------------------
# double dualization


def double_dual_report(a_size: int, b_size: int) -> Report:
    """Build the a-fold sum of b-th powers, dualize twice, compare the
    carrier counts with the closed formulas, and search for an
    isomorphism with the original.

    The a-fold sum and both duals are guarded in closed form before any
    is built, with the labels and in the order that building them would
    check. The sum's a shapes come first: at b = 0 both duals are tiny
    however large a is. Its a · b directions need no guard of their own,
    as the first dual's direction count a · b^a bounds them. The first
    dual is the hom from a shapes of arity b into the bottom diagram, the
    second the hom from its b^a shapes of arity a, checked once the first
    has passed, so b^a is within the guard limit. A refusal therefore
    costs no construction."""
    if a_size < 0 or b_size < 0:
        raise ValidationError("sizes must be nonnegative")
    check_guard(a_size, "diagram shape carrier")
    bottom = poly.arity_counts(poly.bottom_diagram())
    # _hom_sizes takes positive counts: a zero count is no shape at all
    poly._check_hom_guards({b_size: a_size} if a_size else {}, bottom)
    ba = b_size ** a_size
    poly._check_hom_guards({a_size: ba} if ba else {}, bottom)
    p = poly.single_sorted((b_size,) * a_size)
    pd = poly.dualize(p)
    pdd = poly.dualize(pd)
    # one pass over each dual's direction table gives the check and the notation
    dual, double = poly.arity_counts(pd), poly.arity_counts(pdd)
    dual_ok = pd.shapes.size == ba and set(dual) <= {a_size}
    dd_ok = pdd.shapes.size == a_size ** ba and set(double) <= {ba}
    witness = poly.iso_check(p, pdd)
    verdict = "ISO" if witness is not None else "NOT ISO"
    lines = (
        f"diagram: {poly.notation(p)}",
        f"dual: {poly.monomials(dual)} (closed form: {ba} shapes of arity "
        f"{a_size}: {'yes' if dual_ok else 'NO'})",
        f"double dual: {poly.monomials(double)} (closed form: {a_size ** ba} "
        f"shapes of arity {ba}: {'yes' if dd_ok else 'NO'})",
        f"{poly.notation(p)} vs {poly.monomials(double)} : {verdict}",
    )
    return Report("double dualization", bool(dual_ok and dd_ok), lines)
