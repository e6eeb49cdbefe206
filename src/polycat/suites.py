"""Named, seed-deterministic law suites covering every layer of the library.

Each suite runs a fixed battery of checks (seeded where instances are
random), and returns a single Report whose lines are stable: same seed,
same lines, byte for byte. Case order is fixed by construction order, and
no line carries wall-clock data. A suite states its laws; its verdict and
the lines of its first failures are kept by a _Verdict, and its seeded
cases are counted by _agreements. The registry at the bottom maps the
names accepted by ``check-laws --suite`` to these functions.
"""
from __future__ import annotations

import functools
import itertools
import random
from typing import Callable

from . import fam, nat, poly, randgen, sim, smcc
from .errors import SizeGuardExceeded, ValidationError
from .fam import Family, Span, family_from_fibers
from .finset import FinMap, FinSet
from .poly import PolyDiagram, notation, single_sorted
from .report import Report

# Every single-sorted diagram with at most 2 shapes and fibers at most 2,
# one representative per fiber multiset ordering: the standard small grid.
GRID_FIBERS: tuple[tuple[int, ...], ...] = (
    (),
    (0,),
    (1,),
    (2,),
) + tuple((a, b) for a in range(3) for b in range(3))


def _grid() -> list[PolyDiagram]:
    return [single_sorted(t) for t in GRID_FIBERS]


def _point() -> Family:
    return family_from_fibers(FinSet(1), (1,))


def _const_span(states: int) -> Span:
    """Span between one-point sort sets with the given number of states."""
    leg = FinMap(FinSet(states), FinSet(1), (0,) * states)
    return Span(FinSet(states), leg, leg)


def _drawn(make: Callable):
    """Evaluate make() and redraw when it trips the size guard, at most
    64 times.

    The generator state advances on every attempt, so results stay
    deterministic for a fixed seed even when redraws happen.
    """
    for _ in range(64):
        try:
            return make()
        except SizeGuardExceeded:
            continue
    raise SizeGuardExceeded("no instance fit under the size guard after redraws")


class _Verdict:
    """A suite's verdict, ok until fail() is called, and the lines of its
    first failures. fail() keeps its lines only while fewer than keep
    lines are kept: a section shows its first failure with keep=1, and a
    second section may add its own after one line with keep=2."""

    def __init__(self, title: str) -> None:
        self.title = title
        self.ok = True
        self.kept: list[str] = []

    def fail(self, *lines: str, keep: int = 1) -> None:
        self.ok = False
        if len(self.kept) < keep:
            self.kept.extend(lines)

    def report(self, *lines: str) -> Report:
        """The suite's report: its own lines, then the kept failure lines."""
        return Report(self.title, self.ok, (*lines, *self.kept))


def _agreements(cases: int, one: Callable[[], Report], verdict: _Verdict,
                prefix: str, shown: int, keep: int = 1) -> int:
    """Run _drawn(one) cases times and return how many reports are ok.
    The first failed report fails the verdict with its first shown lines,
    each after "prefix: "."""
    agreed = 0
    for _ in range(cases):
        rep = _drawn(one)
        if rep.ok:
            agreed += 1
        else:
            verdict.fail(*(f"{prefix}: {line}" for line in rep.lines[:shown]), keep=keep)
    return agreed


def _law(holds: bool, failure: str) -> Report:
    """A case's report for _agreements: ok, or failed with one line."""
    return Report("law", holds, () if holds else (failure,))


class _Cells:
    """Seeded simulation cells between random endo diagrams (up to 2
    sorts and 2 shapes, fibers of at most 2) over nonempty spans.
    cells(n, *pairs) draws n diagrams and then a cell between each listed
    pair of them; at the first pair with no cell, it counts one skipped
    draw and redraws everything."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.skipped = 0

    def endo(self) -> PolyDiagram:
        return randgen.random_endo(self.rng, max_sorts=2, max_shapes=2, max_fiber=2)

    def __call__(self, n: int, *pairs: tuple[int, int]) -> list[sim.SimCell]:
        while True:
            ps = [self.endo() for _ in range(n)]
            drawn = []
            for i, j in pairs:
                c = randgen.random_sim_cell(self.rng, ps[i], ps[j])
                if c is None:
                    self.skipped += 1
                    break
                drawn.append(c)
            else:
                return drawn


def _equivalent(c: sim.SimCell, c2: sim.SimCell) -> bool:
    return sim.equivalence_check(c, c2) is not None


def _round_trip(c: sim.SimCell) -> sim.SimCell:
    """The cell extracted back from c's evaluation."""
    return sim.extract_sim(lambda x: sim.eval_sim(c, x), c.span, c.src, c.dst)


def _two_sorted_samples() -> list[PolyDiagram]:
    """Two fixed endo diagrams on two sorts used as non-single-sorted
    spot checks: one with mixed-arity shapes, one with an empty fiber."""
    two = FinSet(2)
    mixed = PolyDiagram(
        source=two,
        dirs=FinSet(3),
        shapes=FinSet(2),
        target=two,
        dir_sort=FinMap(FinSet(3), two, (1, 0, 1)),
        dir_shape=FinMap(FinSet(3), FinSet(2), (0, 1, 1)),
        shape_sort=FinMap(FinSet(2), two, (0, 1)),
    )
    with_empty = PolyDiagram(
        source=two,
        dirs=FinSet(1),
        shapes=FinSet(3),
        target=two,
        dir_sort=FinMap(FinSet(1), two, (0,)),
        dir_shape=FinMap(FinSet(1), FinSet(3), (1,)),
        shape_sort=FinMap(FinSet(3), two, (0, 1, 1)),
    )
    return [mixed, with_empty]


def tensor_unit_suite(seed: int = 0, cases: int = 40) -> Report:
    """The monoidal unit is strict in this encoding: tensoring with it
    returns the same diagram, and evaluation at boxed families agrees."""
    rng = random.Random(seed)
    verdict = _Verdict("tensor unit laws")
    unit = poly.tensor_unit()
    point = _point()
    if poly.extension_fiber_sizes(unit, point) != (1,):
        verdict.fail("unit extension at the point is not a singleton")
        return verdict.report()
    checked = 0
    for _ in range(cases):
        src = FinSet(rng.randint(1, 3))
        tgt = FinSet(rng.randint(1, 3))
        p = randgen.random_diagram(rng, src, tgt, max_shapes=3, max_fiber=2)
        if poly.tensor(unit, p) != p or poly.tensor(p, unit) != p:
            one_sort = src.size == tgt.size == 1
            verdict.fail(f"unit law fails on {notation(p) if one_sort else repr(p)}")
            return verdict.report()
        x = randgen.random_family(rng, src, max_fiber=3)
        left = poly.eval_extension(poly.tensor(unit, p), fam.box(point, x))
        right = poly.eval_extension(poly.tensor(p, unit), fam.box(x, point))
        if left != poly.eval_extension(p, x) or right != poly.eval_extension(p, x):
            verdict.fail("evaluation disagrees after tensoring with the unit")
            return verdict.report()
        checked += 1
    return verdict.report(
        f"{checked} random diagrams: unit (x) p and p (x) unit are p on the nose",
        "evaluation at boxed families matches evaluation at the original family")


def tensor_assoc_suite(seed: int = 0, cases: int = 40) -> Report:
    """Associativity of the tensor holds as a literal equality of
    diagrams (mixed-radix pairing is associative), and so does the
    boxing of test families."""
    rng = random.Random(seed)
    verdict = _Verdict("tensor associativity")
    checked = 0
    for _ in range(cases):
        ps = []
        xs = []
        for _ in range(3):
            src = FinSet(rng.randint(1, 2))
            tgt = FinSet(rng.randint(1, 2))
            ps.append(randgen.random_diagram(rng, src, tgt, max_shapes=2, max_fiber=2))
            xs.append(randgen.random_family(rng, src, max_fiber=2))
        p1, p2, p3 = ps
        if poly.tensor(poly.tensor(p1, p2), p3) != poly.tensor(p1, poly.tensor(p2, p3)):
            verdict.fail("reassociating the tensor changed the diagram")
            return verdict.report()
        x1, x2, x3 = xs
        if fam.box(fam.box(x1, x2), x3) != fam.box(x1, fam.box(x2, x3)):
            verdict.fail("reassociating boxed families changed the family")
            return verdict.report()
        checked += 1
    return verdict.report(f"{checked} random triples: both bracketings build the same diagram",
                          "boxing of test families is associative on the nose")


def composition_suite(seed: int = 0, cases: int = 200) -> Report:
    """Seeded random composition pairs: the composite diagram evaluates
    to the two-stage evaluation, with exact fiber sizes and a verified
    bijection (sizes up to 3 everywhere)."""
    rng = random.Random(seed)
    verdict = _Verdict("composition homomorphism")

    def one() -> Report:
        i = FinSet(rng.randint(1, 3))
        j = FinSet(rng.randint(1, 3))
        k = FinSet(rng.randint(1, 3))
        p = randgen.random_diagram(rng, i, j, max_shapes=3, max_fiber=3)
        q = randgen.random_diagram(rng, j, k, max_shapes=3, max_fiber=3)
        x = randgen.random_family(rng, i, max_fiber=3)
        return poly.compose_witness(q, p, x)

    agreed = _agreements(cases, one, verdict, "first failure", 2)
    return verdict.report(f"{agreed} of {cases} seeded pairs: composite evaluation matches "
                          "the two-stage evaluation (exact sizes and bijection)")


def structural_direct_suite(seed: int = 0, cases: int = 100) -> Report:
    """The pullback-built composite is isomorphic to the directly
    enumerated one on seeded random pairs."""
    rng = random.Random(seed)
    verdict = _Verdict("structural vs direct composition")

    def one() -> Report:
        i = FinSet(rng.randint(1, 3))
        j = FinSet(rng.randint(1, 3))
        k = FinSet(rng.randint(1, 3))
        p = randgen.random_diagram(rng, i, j, max_shapes=2, max_fiber=2)
        q = randgen.random_diagram(rng, j, k, max_shapes=2, max_fiber=2)
        found = poly.iso_check(poly.compose_structural(q, p), poly.compose_direct(q, p))
        return _law(found is not None, "no isomorphism witness between the two composites")

    witnessed = _agreements(cases, one, verdict, "first failure", 1)
    return verdict.report(f"{witnessed} of {cases} seeded pairs: isomorphism witness found "
                          "between structural and direct composites")


def adjunction_suite(seed: int = 0, cases: int = 100) -> Report:
    """Hom counting: Nat(p1 (x) p2, p3) = Nat(p1, hom(p2, p3)) on seeded
    single-sorted triples, with full currying round trips when both sides
    are small enough to enumerate. Includes the exact 4 = 4 case."""
    verdict = _Verdict("tensor-hom adjunction counting")
    X = single_sorted((1,))
    Xsq = single_sorted((2,))
    twoX = single_sorted((1, 1))
    h = poly.hom_single_sorted(Xsq, twoX)
    n_left = nat.count_nat(poly.tensor(X, Xsq), twoX)
    n_right = nat.count_nat(X, h)
    if not (n_left == 4 and n_right == 4 and notation(h) == "4X"):
        verdict.fail()

    rng = random.Random(seed)
    roundtripped = 0

    def one() -> Report:
        nonlocal roundtripped

        def draw() -> PolyDiagram:
            return single_sorted(tuple(
                rng.randint(0, 2) for _ in range(rng.randint(0, 3))))
        rep = smcc.adjunction_count_check(draw(), draw(), draw(), roundtrip_limit=512)
        if rep.ok and not any("bijection not enumerated" in line for line in rep.lines):
            roundtripped += 1
        return rep

    agreed = _agreements(cases, one, verdict, "first failure", 2)
    return verdict.report(
        f"exact case: Nat(X^2, 2X) = {n_left} and Nat(X, {notation(h)}) = {n_right} "
        "(want 4 = 4 and hom notation 4X)",
        f"{agreed} of {cases} seeded triples (shapes <= 3, fibers <= 2): "
        "both hom counts equal",
        f"{roundtripped} of them small enough for the explicit currying "
        "round trip, all bijective")


def tensor_universal_suite(seed: int = 0) -> Report:
    """Universal property of the tensor on the full small grid: the
    mediating morphism rebuilt from the canonical comparison map
    reproduces it, and the coend-style rectangle count agrees with the
    convolution formula at every test family."""
    grid = _grid()
    verdict = _Verdict("tensor universal property")
    theta_ok = 0
    for p1, p2 in itertools.product(grid, repeat=2):
        rho = functools.partial(smcc.epsilon, p1, p2)
        if smcc.theta_check(p1, p2, poly.tensor(p1, p2), rho, candidate_limit=8).ok:
            theta_ok += 1
        else:
            verdict.fail(f"first mediator failure at {notation(p1)} , {notation(p2)}")

    day_ok = 0
    for p1, p2 in itertools.product(grid, repeat=2):
        for n in range(3):
            x = family_from_fibers(FinSet(1), (n,))
            if smcc.day_coend_oracle(p1, p2, x, skeleton_bound=4, budget=20000,
                                     samples=400, seed=seed).ok:
                day_ok += 1
            else:
                verdict.fail(f"first coend failure at {notation(p1)} , "
                             f"{notation(p2)}, |x| = {n}", keep=2)
    pairs = len(grid) ** 2
    return verdict.report(
        f"mediator: {theta_ok} of {pairs} grid pairs rebuild the canonical "
        "comparison map exactly",
        f"coend oracle: {day_ok} of {3 * pairs} (pair, family) instances match the "
        "convolution formula at skeleton bound 4")


def sim_roundtrip_suite(seed: int = 0, cell_budget: int = 256,
                        samples_over: int = 4) -> Report:
    """Simulation cells against their functorial semantics: every cell,
    evaluated to an oracle and extracted back, is equivalent to itself.

    The instance catalog is exhaustive (all grid pairs, all spans between
    one-point sort sets with up to 2 states, plus two-sorted spot
    checks). Within an instance, all cells are enumerated when the count
    fits the budget; above it, seeded random cells are drawn instead.
    """
    rng = random.Random(seed)
    grid = _grid()
    verdict = _Verdict("simulation round trip")
    cells_checked = 0
    sampled_instances = 0
    for states in range(3):
        span = _const_span(states)
        for p1, p2 in itertools.product(grid, repeat=2):
            if sim.count_sim(p1, p2, span) <= cell_budget:
                batch = sim.enumerate_sim(p1, p2, span)
            else:
                sampled_instances += 1
                batch = [c for c in (sim.random_cell(rng, p1, p2, span)
                                     for _ in range(samples_over))
                         if c is not None]
            for c in batch:
                if not _equivalent(_round_trip(c), c):
                    verdict.fail(f"first failure: {notation(p1)} -> {notation(p2)} "
                                 f"over {states} states")
                    break
                cells_checked += 1
    spot = skipped = 0
    for p1, p2 in itertools.product(_two_sorted_samples(), repeat=2):
        for _ in range(4):
            c = randgen.random_sim_cell(rng, p1, p2, max_states=2)
            if c is None:
                skipped += 1
                continue
            if not _equivalent(_round_trip(c), c):
                verdict.fail("first failure: two-sorted spot check")
                break
            spot += 1
    return verdict.report(
        f"{3 * len(grid) ** 2} grid instances (13 x 13 diagram pairs, spans of 0..2 states), "
        f"{sampled_instances} too large to enumerate",
        f"{cells_checked} cells round-tripped exactly, plus {spot} seeded "
        f"two-sorted spot checks ({skipped} draws skipped: no cell on a drawn span)",
        "every extracted cell is equivalent to the cell it came from")


def sim_tensor_suite(seed: int = 0, cases: int = 40) -> Report:
    """The tensor of simulation cells and its symmetry, on seeded cells
    drawn by _Cells; a draw in which an operand has no cell is skipped
    and counted. The tensor of diagrams is strict, so identities, the
    zero cell, the unit and associativity hold on cells on the nose;
    functoriality, bilinearity and the symmetry's laws hold up to
    equivalence. The component of c1 (x) c2 at box(x, y) is the
    external product of the components of c1 at x and c2 at y, through
    the comparison maps (smcc.epsilon) of both ends and of the two sum
    lifts, whose tensor is the sum lift of the tensor's span."""
    verdict = _Verdict("tensor of simulation cells")
    cells = _Cells(random.Random(seed))
    endo = cells.endo
    compose, tensor, sigma, add = sim.compose_sim, sim.tensor_sim, sim.symmetry_sim, sim.sum_sim
    unit = sim.identity_sim(poly.tensor_unit())

    def identities() -> Report:
        p, q = endo(), endo()
        return _law(tensor(sim.identity_sim(p), sim.identity_sim(q))
                    == sim.identity_sim(poly.tensor(p, q)),
                    "id (x) id is not the identity of the tensor")

    def zero() -> Report:
        c, z = cells(2, (0, 1)) + [sim.zero_sim(endo(), endo())]
        return _law(tensor(c, z) == sim.zero_sim(poly.tensor(c.src, z.src),
                                                 poly.tensor(c.dst, z.dst))
                    and tensor(z, c) == sim.zero_sim(poly.tensor(z.src, c.src),
                                                     poly.tensor(z.dst, c.dst)),
                    "c (x) 0 or 0 (x) c is not the zero cell")

    def strict() -> Report:
        a, b, c = cells(6, (0, 1), (2, 3), (4, 5))
        return _law(all(tensor(d, unit) == d == tensor(unit, d) for d in (a, b, c))
                    and tensor(tensor(a, b), c) == tensor(a, tensor(b, c)),
                    "the unit or associativity fails on cells")

    def functorial() -> Report:
        c1, d1, c2, d2 = cells(6, (0, 1), (1, 2), (3, 4), (4, 5))
        return _law(_equivalent(tensor(compose(d1, c1), compose(d2, c2)),
                                compose(tensor(d1, d2), tensor(c1, c2))),
                    "the tensor of composites is not the composite of tensors")

    def bilinear() -> Report:
        c, d1, d2 = cells(4, (0, 1), (2, 3), (2, 3))
        return _law(_equivalent(tensor(c, add(d1, d2)), add(tensor(c, d1), tensor(c, d2)))
                    and _equivalent(tensor(add(d1, d2), c), add(tensor(d1, c), tensor(d2, c))),
                    "the tensor does not distribute over a sum of cells")

    def symmetric() -> Report:
        p, q, r = endo(), endo(), endo()
        return _law(_equivalent(compose(sigma(q, p), sigma(p, q)),
                                sim.identity_sim(poly.tensor(p, q)))
                    and _equivalent(sigma(p, poly.tensor(q, r)),
                                    compose(tensor(sim.identity_sim(q), sigma(p, r)),
                                            tensor(sigma(p, q), sim.identity_sim(r)))),
                    "the symmetry is not an involution or fails the hexagon")

    def natural() -> Report:
        c1, c2 = cells(4, (0, 1), (2, 3))
        return _law(_equivalent(compose(sigma(c1.dst, c2.dst), tensor(c1, c2)),
                                compose(tensor(c2, c1), sigma(c1.src, c2.src))),
                    "the symmetry is not natural")

    def external() -> Report:
        c1, c2 = cells(4, (0, 1), (2, 3))
        x = randgen.random_family(cells.rng, c1.src.source, max_fiber=2)
        y = randgen.random_family(cells.rng, c2.src.source, max_fiber=2)
        c12 = tensor(c1, c2)
        au1, au2, au12 = (poly.au_lift(c.span) for c in (c1, c2, c12))
        inner = poly.eval_extension(c1.src, x), poly.eval_extension(c2.src, y)
        lifted = poly.eval_extension(au1, x), poly.eval_extension(au2, y)
        direct = smcc.epsilon(au1, au2, *inner).then(
            poly.extension_map(au12, smcc.epsilon(c1.src, c2.src, x, y))
        ).then(sim.eval_sim(c12, fam.box(x, y)))
        paired = fam.box_morphism(sim.eval_sim(c1, x), sim.eval_sim(c2, y)).then(
            smcc.epsilon(c1.dst, c2.dst, *lifted)
        ).then(poly.extension_map(c12.dst, smcc.epsilon(au1, au2, x, y)))
        return _law(direct == paired,
                    f"the component at the box of fibers {x.fiber_sizes()} and "
                    f"{y.fiber_sizes()} is not the external product of the components")

    lines = [f"{_agreements(cases, one, verdict, 'first failure', 1)} of {cases} {what}"
             for one, what in [
                 (identities, "seeded diagram pairs: id (x) id is the identity of the "
                              "tensor on the nose"),
                 (symmetric, "seeded diagram triples: the symmetry is an involution and "
                             "satisfies the hexagon up to equivalence")]]
    for one, what in [
            (zero, "seeded cells: c (x) 0 = 0 = 0 (x) c on the nose"),
            (strict, "seeded triples of cells: the unit and associativity hold on the nose"),
            (functorial, "seeded composable pairs of pairs: the tensor of composites is "
                         "equivalent to the composite of tensors"),
            (bilinear, "seeded triples of cells: the tensor is bilinear over sums of cells "
                       "up to equivalence"),
            (natural, "seeded pairs of cells: the symmetry is natural up to equivalence"),
            (external, "seeded pairs of cells at families with fibers <= 2: the component "
                       "at a box is the external product of the components through the "
                       "comparison maps")]:
        before = cells.skipped
        agreed = _agreements(cases, one, verdict, "first failure", 1)
        lines.append(f"{agreed} of {cases} {what} "
                     f"({cells.skipped - before} draws skipped: no cell on a drawn span)")
    return verdict.report(*lines)


def sim_category_suite(seed: int = 0, cases: int = 40) -> Report:
    """Categorical laws for cells drawn by _Cells: identity cells are
    units for composition on cases cells, and composition is associative
    up to span equivalence on cases // 2 composable triples."""
    verdict = _Verdict("simulation category laws")
    cells = _Cells(random.Random(seed))

    def units() -> Report:
        c, = cells(2, (0, 1))
        return _law(_equivalent(sim.compose_sim(sim.identity_sim(c.dst), c), c)
                    and _equivalent(sim.compose_sim(c, sim.identity_sim(c.src)), c),
                    "identity cell is not a unit")

    def associative() -> Report:
        c1, c2, c3 = cells(4, (0, 1), (1, 2), (2, 3))
        return _law(_equivalent(sim.compose_sim(c3, sim.compose_sim(c2, c1)),
                                sim.compose_sim(sim.compose_sim(c3, c2), c1)),
                    "composition is not associative")

    unital = _agreements(cases, units, verdict, "first failure", 1)
    assocs = _agreements(cases // 2, associative, verdict, "first failure", 1)
    return verdict.report(
        f"{unital} seeded cells: identity cells act as units under composition",
        f"{assocs} seeded triples: both bracketings of a triple composite "
        "are equivalent")


def additive_suite(seed: int = 0, cases: int = 60) -> Report:
    """Additive structure: the sum of diagrams evaluates fiberwise as the
    sum of evaluations, injections/projections satisfy the biproduct
    equations, and pairing/copairing are the unique mediators (sampled
    over spans with up to 3 states)."""
    rng = random.Random(seed)
    verdict = _Verdict("additive structure laws")

    def one() -> Report:
        i1 = FinSet(rng.randint(1, 3))
        j1 = FinSet(rng.randint(1, 3))
        i2 = FinSet(rng.randint(1, 3))
        j2 = FinSet(rng.randint(1, 3))
        p1 = randgen.random_diagram(rng, i1, j1, max_shapes=2, max_fiber=2)
        p2 = randgen.random_diagram(rng, i2, j2, max_shapes=2, max_fiber=2)
        x = randgen.random_family(rng, i1, max_fiber=2)
        y = randgen.random_family(rng, i2, max_fiber=2)
        return poly.plus_eval_report(p1, p2, x, y)

    fiberwise = _agreements(cases // 2, one, verdict, "first failure", 2)

    biproduct = 0
    mediators = mediators_skipped = 0
    for _ in range(12):
        p1 = randgen.random_endo(rng, max_sorts=1, max_shapes=2, max_fiber=2)
        p2 = randgen.random_endo(rng, max_sorts=1, max_shapes=2, max_fiber=2)
        ps = sim.plus_structure(p1, p2)
        if not all([
            _equivalent(sim.compose_sim(ps.proj1, ps.inl), sim.identity_sim(p1)),
            _equivalent(sim.compose_sim(ps.proj2, ps.inr), sim.identity_sim(p2)),
            _equivalent(sim.compose_sim(ps.proj2, ps.inl), sim.zero_sim(p1, p2)),
            _equivalent(sim.compose_sim(ps.proj1, ps.inr), sim.zero_sim(p2, p1)),
        ]):
            verdict.fail("first failure: biproduct equation does not hold")
            continue
        biproduct += 1
        q = randgen.random_endo(rng, max_sorts=1, max_shapes=2, max_fiber=2)
        c1 = randgen.random_sim_cell(rng, q, p1)
        c2 = randgen.random_sim_cell(rng, q, p2)
        if c1 is None or c2 is None:
            mediators_skipped += 1
        else:
            paired = ps.pair(c1, c2)
            if _equivalent(sim.compose_sim(ps.proj1, paired), c1) and \
                    _equivalent(sim.compose_sim(ps.proj2, paired), c2):
                mediators += 1
            else:
                verdict.fail("first failure: pairing does not recover its components")
        d1 = randgen.random_sim_cell(rng, p1, q)
        d2 = randgen.random_sim_cell(rng, p2, q)
        if d1 is None or d2 is None:
            mediators_skipped += 1
        else:
            e1, e2 = ps.decompose(ps.copair(d1, d2))
            if _equivalent(e1, d1) and _equivalent(e2, d2):
                mediators += 1
            else:
                verdict.fail("first failure: copairing does not decompose back")

    unique = unique_skipped = 0
    for _ in range(20):
        p1 = randgen.random_endo(rng, max_sorts=1, max_shapes=2, max_fiber=1)
        p2 = randgen.random_endo(rng, max_sorts=1, max_shapes=2, max_fiber=1)
        q = randgen.random_endo(rng, max_sorts=1, max_shapes=2, max_fiber=1)
        ps = sim.plus_structure(p1, p2)
        d = randgen.random_sim_cell(rng, q, ps.sum, max_states=3)
        if d is None:
            unique_skipped += 1
            continue
        rebuilt = ps.pair(sim.compose_sim(ps.proj1, d), sim.compose_sim(ps.proj2, d))
        if _equivalent(rebuilt, d):
            unique += 1
        else:
            verdict.fail("first failure: a cell into the sum differs from the "
                         "pairing of its projections")
    return verdict.report(
        f"{fiberwise} random instances: sum evaluation is the fiberwise sum",
        f"{biproduct} seeded sums satisfy all four injection/projection equations",
        f"{mediators} pairing/copairing mediators recovered their components "
        f"({mediators_skipped} skipped: no cell on a drawn span for an operand)",
        f"{unique} sampled cells into a sum (spans up to 3 states) equal the "
        f"pairing of their projections ({unique_skipped} draws skipped: no cell "
        "on a drawn span)")


def exponential_suite(seed: int = 0, depth: int = 3) -> Report:
    """The truncated replication construction evaluated against blockwise
    tensor powers, on the full grid and on two-sorted spot checks."""
    verdict = _Verdict("exponential identity")
    grid = [(p, (n,)) for p in _grid() for n in range(3)]
    two_sorted = [(p, (n1, n2)) for p in _two_sorted_samples()
                  for n1 in range(3) for n2 in range(3)]
    agreed = 0
    for p, sizes in grid + two_sorted:
        x = family_from_fibers(p.source, sizes)
        for k in range(depth + 1):
            if smcc.bang_extension_check(p, x, k).ok:
                agreed += 1
            elif p.source.size == 1:
                verdict.fail(f"first failure: {notation(p)}, |x| = {sizes[0]}, depth {k}")
            else:
                verdict.fail(f"first two-sorted failure at |x| = {sizes}, depth {k}", keep=2)
    total, two_total = ((depth + 1) * len(cases) for cases in (grid + two_sorted, two_sorted))
    return verdict.report(
        f"{agreed} of {total} instances: replication extension matches the "
        f"blockwise tensor powers (grid and {two_total} two-sorted checks, "
        f"depth <= {depth})")


def double_dual_suite(seed: int = 0) -> Report:
    """The dualization counterexample battery: degenerate parameters give
    diagrams isomorphic to their double dual, the 2X^2 case does not."""
    expected = {
        (1, 1): "X vs X : ISO",
        (2, 1): "2X vs 2X : ISO",
        (1, 2): "X^2 vs X^2 : ISO",
        (2, 2): "2X^2 vs 16X^4 : NOT ISO",
    }
    verdict = _Verdict("double dual comparison")
    lines: list[str] = []
    for (a, b), want in expected.items():
        rep = smcc.double_dual_report(a, b)
        got = rep.lines[-1]
        lines.append(f"a = {a}, b = {b}: {got}")
        if got != want or not rep.ok:
            verdict.fail()
            lines.append(f"  expected: {want}")
    return verdict.report(*lines)


def kernel_witnesses_suite(seed: int = 0, cases: int = 100) -> Report:
    """Seeded interchange witnesses in the base category of families:
    pullback squares satisfy the base-change interchange, and dependent
    products distribute over dependent sums, both via explicit
    bijections."""
    rng = random.Random(seed)
    verdict = _Verdict("base category interchange witnesses")

    def one_bc() -> Report:
        apex = FinSet(rng.randint(1, 3))
        a = FinSet(rng.randint(1, 3))
        b = FinSet(rng.randint(1, 3))
        f = randgen.random_finmap(rng, a, apex)
        g = randgen.random_finmap(rng, b, apex)
        z = randgen.random_family(rng, b, max_fiber=3)
        return fam.beck_chevalley_check(fam.square_from_cospan(f, g), z)

    def one_dist() -> Report:
        e = FinSet(rng.randint(1, 3))
        mid = FinSet(rng.randint(1, 3))
        base = FinSet(rng.randint(1, 3))
        bmap = randgen.random_finmap(rng, e, mid)
        amap = randgen.random_finmap(rng, mid, base)
        x = randgen.random_family(rng, e, max_fiber=2)
        return fam.distributivity_check(amap, bmap, x)

    bc = _agreements(cases, one_bc, verdict, "first base-change failure", 1)
    dist = _agreements(cases, one_dist, verdict, "first distributivity failure", 1, keep=2)
    return verdict.report(
        f"{bc} of {cases} pullback squares: base-change comparison is a bijection",
        f"{dist} of {cases} map pairs: product-over-sum comparison is a bijection")


def naturality_suite(seed: int = 0, cases: int = 8) -> Report:
    """Naturality squares at small bounds, checked on the generating maps
    (which give every square): the canonical comparison map in both
    arguments, evaluated morphisms, and evaluated simulation cells, which
    _Cells draws on the suite's generator after the first two sections."""
    rng = random.Random(seed)
    verdict = _Verdict("naturality squares")
    eps = 0
    pairs = [(single_sorted((1,)), single_sorted((1,)))]
    for _ in range(cases - 1):
        pairs.append((
            single_sorted(tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2)))),
            single_sorted(tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2)))),
        ))
    for p1, p2 in pairs:
        if smcc.epsilon_naturality_check(p1, p2, bound=2).ok:
            eps += 1
        else:
            verdict.fail(f"comparison map not natural at {notation(p1)} , {notation(p2)}")
    dm = 0
    for _ in range(cases):
        p = single_sorted(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2))))
        q = single_sorted(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2))))
        if not 0 < nat.count_nat(p, q) <= 16:
            continue
        for m in nat.enumerate_dm(p, q)[:2]:
            if nat.naturality_check(m, bound=2).ok:
                dm += 1
            else:
                verdict.fail("evaluated morphism is not natural")
    cells = _Cells(rng)

    def one_cell() -> Report:
        c, = cells(2, (0, 1))
        return _law(sim.sim_naturality_check(c, bound=2).ok,
                    "evaluated simulation cell is not natural")

    natural = _agreements(cases, one_cell, verdict, "first failure", 1)
    return verdict.report(
        f"{eps} diagram pairs: comparison map natural in both arguments "
        "(all base morphisms with fibers <= 2)",
        f"{dm} enumerated morphisms pass exhaustive naturality at bound 2",
        f"{natural} seeded cells evaluate to natural transformations at bound 2")


SUITES: dict[str, Callable[..., Report]] = {
    "tensor-unit": tensor_unit_suite,
    "tensor-assoc": tensor_assoc_suite,
    "composition": composition_suite,
    "structural-direct": structural_direct_suite,
    "adjunction": adjunction_suite,
    "tensor-universal": tensor_universal_suite,
    "sim-roundtrip": sim_roundtrip_suite,
    "sim-tensor": sim_tensor_suite,
    "sim-category": sim_category_suite,
    "additive": additive_suite,
    "exponential": exponential_suite,
    "double-dual": double_dual_suite,
    "kernel-witnesses": kernel_witnesses_suite,
    "naturality": naturality_suite,
}


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(name: str, seed: int = 0) -> Report:
    if name not in SUITES:
        known = ", ".join(suite_names())
        raise ValidationError(f"unknown suite {name!r} (known: {known})")
    return SUITES[name](seed)
