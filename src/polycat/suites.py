"""Named, seed-deterministic law suites covering every layer of the library.

Each suite runs a fixed battery of checks (seeded where instances are
random), and returns a single Report whose lines are stable: same seed,
same lines, byte for byte. Case order is fixed by construction order, and
no line carries wall-clock data. The registry at the bottom maps the
names accepted by ``check-laws --suite`` to these functions.
"""
from __future__ import annotations

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
    unit = poly.tensor_unit()
    point = _point()
    if poly.extension_fiber_sizes(unit, point) != (1,):
        return Report("tensor unit laws", False,
                      ("unit extension at the point is not a singleton",))
    checked = 0
    for _ in range(cases):
        src = FinSet(rng.randint(1, 3))
        tgt = FinSet(rng.randint(1, 3))
        p = randgen.random_diagram(rng, src, tgt, max_shapes=3, max_fiber=2)
        if poly.tensor(unit, p) != p or poly.tensor(p, unit) != p:
            return Report("tensor unit laws", False,
                          (f"unit law fails on {notation(p) if src.size == 1 else repr(p)}",))
        x = randgen.random_family(rng, src, max_fiber=3)
        unit_point = family_from_fibers(FinSet(1), (1,))
        left = poly.eval_extension(poly.tensor(unit, p), fam.box(unit_point, x))
        right = poly.eval_extension(poly.tensor(p, unit), fam.box(x, unit_point))
        if left != poly.eval_extension(p, x) or right != poly.eval_extension(p, x):
            return Report("tensor unit laws", False,
                          ("evaluation disagrees after tensoring with the unit",))
        checked += 1
    lines = (
        f"{checked} random diagrams: unit (x) p and p (x) unit are p on the nose",
        "evaluation at boxed families matches evaluation at the original family",
    )
    return Report("tensor unit laws", True, lines)


def tensor_assoc_suite(seed: int = 0, cases: int = 40) -> Report:
    """Associativity of the tensor holds as a literal equality of
    diagrams (mixed-radix pairing is associative), and so does the
    boxing of test families."""
    rng = random.Random(seed)
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
            return Report("tensor associativity", False,
                          ("reassociating the tensor changed the diagram",))
        x1, x2, x3 = xs
        if fam.box(fam.box(x1, x2), x3) != fam.box(x1, fam.box(x2, x3)):
            return Report("tensor associativity", False,
                          ("reassociating boxed families changed the family",))
        checked += 1
    return Report("tensor associativity", True,
                  (f"{checked} random triples: both bracketings build the same diagram",
                   "boxing of test families is associative on the nose"))


def composition_suite(seed: int = 0, cases: int = 200) -> Report:
    """Seeded random composition pairs: the composite diagram evaluates
    to the two-stage evaluation, with exact fiber sizes and a verified
    bijection (sizes up to 3 everywhere)."""
    rng = random.Random(seed)
    agreed = 0
    detail: list[str] = []
    for _ in range(cases):
        def one() -> Report:
            i = FinSet(rng.randint(1, 3))
            j = FinSet(rng.randint(1, 3))
            k = FinSet(rng.randint(1, 3))
            p = randgen.random_diagram(rng, i, j, max_shapes=3, max_fiber=3)
            q = randgen.random_diagram(rng, j, k, max_shapes=3, max_fiber=3)
            x = randgen.random_family(rng, i, max_fiber=3)
            return poly.compose_witness(q, p, x)
        rep = _drawn(one)
        if rep.ok:
            agreed += 1
        elif not detail:
            detail.extend(f"first failure: {line}" for line in rep.lines[:2])
    ok = agreed == cases
    lines = [f"{agreed} of {cases} seeded pairs: composite evaluation matches "
             "the two-stage evaluation (exact sizes and bijection)"]
    lines.extend(detail)
    return Report("composition homomorphism", ok, tuple(lines))


def structural_direct_suite(seed: int = 0, cases: int = 100) -> Report:
    """The pullback-built composite is isomorphic to the directly
    enumerated one on seeded random pairs."""
    rng = random.Random(seed)
    witnessed = 0
    detail: list[str] = []
    for _ in range(cases):
        def one():
            i = FinSet(rng.randint(1, 3))
            j = FinSet(rng.randint(1, 3))
            k = FinSet(rng.randint(1, 3))
            p = randgen.random_diagram(rng, i, j, max_shapes=2, max_fiber=2)
            q = randgen.random_diagram(rng, j, k, max_shapes=2, max_fiber=2)
            return poly.compose_structural(q, p), poly.compose_direct(q, p)
        s, d = _drawn(one)
        if poly.iso_check(s, d) is not None:
            witnessed += 1
        elif not detail:
            detail.append("first failure: no isomorphism witness between the two composites")
    ok = witnessed == cases
    lines = [f"{witnessed} of {cases} seeded pairs: isomorphism witness found "
             "between structural and direct composites"]
    lines.extend(detail)
    return Report("structural vs direct composition", ok, tuple(lines))


def adjunction_suite(seed: int = 0, cases: int = 100) -> Report:
    """Hom counting: Nat(p1 (x) p2, p3) = Nat(p1, hom(p2, p3)) on seeded
    single-sorted triples, with full currying round trips when both sides
    are small enough to enumerate. Includes the exact 4 = 4 case."""
    X = single_sorted((1,))
    Xsq = single_sorted((2,))
    twoX = single_sorted((1, 1))
    h = poly.hom_single_sorted(Xsq, twoX)
    n_left = nat.count_nat(poly.tensor(X, Xsq), twoX)
    n_right = nat.count_nat(X, h)
    lines = [f"exact case: Nat(X^2, 2X) = {n_left} and Nat(X, {notation(h)}) = {n_right} "
             "(want 4 = 4 and hom notation 4X)"]
    ok = n_left == 4 and n_right == 4 and notation(h) == "4X"

    rng = random.Random(seed)
    agreed = 0
    roundtripped = 0
    detail: list[str] = []
    for _ in range(cases):
        def one() -> Report:
            def draw() -> PolyDiagram:
                return single_sorted(tuple(
                    rng.randint(0, 2) for _ in range(rng.randint(0, 3))))
            return smcc.adjunction_count_check(draw(), draw(), draw(),
                                               roundtrip_limit=512)
        rep = _drawn(one)
        if rep.ok:
            agreed += 1
            if not any("bijection not enumerated" in line for line in rep.lines):
                roundtripped += 1
        elif not detail:
            detail.extend(f"first failure: {line}" for line in rep.lines[:2])
    ok = ok and agreed == cases
    lines.append(f"{agreed} of {cases} seeded triples (shapes <= 3, fibers <= 2): "
                 "both hom counts equal")
    lines.append(f"{roundtripped} of them small enough for the explicit currying "
                 "round trip, all bijective")
    lines.extend(detail)
    return Report("tensor-hom adjunction counting", ok, tuple(lines))


def tensor_universal_suite(seed: int = 0) -> Report:
    """Universal property of the tensor on the full small grid: the
    mediating morphism rebuilt from the canonical comparison map
    reproduces it, and the coend-style rectangle count agrees with the
    convolution formula at every test family."""
    grid = _grid()
    theta_ok = 0
    theta_total = 0
    detail: list[str] = []
    for p1 in grid:
        for p2 in grid:
            f_diag = poly.tensor(p1, p2)

            def rho(x: Family, y: Family, a: PolyDiagram = p1,
                    b: PolyDiagram = p2) -> fam.FamMorphism:
                return smcc.epsilon(a, b, x, y)

            rep = smcc.theta_check(p1, p2, f_diag, rho, candidate_limit=8)
            theta_total += 1
            if rep.ok:
                theta_ok += 1
            elif not detail:
                detail.append(f"first mediator failure at {notation(p1)} , {notation(p2)}")

    day_ok = 0
    day_total = 0
    for p1 in grid:
        for p2 in grid:
            for n in range(3):
                x = family_from_fibers(FinSet(1), (n,))
                rep = smcc.day_coend_oracle(p1, p2, x, skeleton_bound=4,
                                            budget=20000, samples=400,
                                            seed=seed)
                day_total += 1
                if rep.ok:
                    day_ok += 1
                elif len(detail) < 2:
                    detail.append(f"first coend failure at {notation(p1)} , "
                                  f"{notation(p2)}, |x| = {n}")
    ok = theta_ok == theta_total and day_ok == day_total
    lines = [
        f"mediator: {theta_ok} of {theta_total} grid pairs rebuild the canonical "
        "comparison map exactly",
        f"coend oracle: {day_ok} of {day_total} (pair, family) instances match the "
        "convolution formula at skeleton bound 4",
    ]
    lines.extend(detail)
    return Report("tensor universal property", ok, tuple(lines))


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
    instances = 0
    cells_checked = 0
    sampled_instances = 0
    detail: list[str] = []
    ok = True
    for states in range(3):
        span = _const_span(states)
        for p1 in grid:
            for p2 in grid:
                instances += 1
                count = sim.count_sim(p1, p2, span)
                if count <= cell_budget:
                    batch = sim.enumerate_sim(p1, p2, span)
                else:
                    sampled_instances += 1
                    batch = [c for c in (sim.random_cell(rng, p1, p2, span)
                                         for _ in range(samples_over))
                             if c is not None]
                for c in batch:
                    extracted = sim.extract_sim(
                        lambda x, cc=c: sim.eval_sim(cc, x), span, p1, p2)
                    if sim.equivalence_check(extracted, c) is None:
                        ok = False
                        if not detail:
                            detail.append(
                                f"first failure: {notation(p1)} -> {notation(p2)} "
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
            extracted = sim.extract_sim(
                lambda x, cc=c: sim.eval_sim(cc, x), c.span, p1, p2)
            if sim.equivalence_check(extracted, c) is None:
                ok = False
                if not detail:
                    detail.append("first failure: two-sorted spot check")
                break
            spot += 1
    lines = [
        f"{instances} grid instances (13 x 13 diagram pairs, spans of 0..2 states), "
        f"{sampled_instances} too large to enumerate",
        f"{cells_checked} cells round-tripped exactly, plus {spot} seeded "
        f"two-sorted spot checks ({skipped} draws skipped: no cell on a drawn span)",
        "every extracted cell is equivalent to the cell it came from",
    ]
    lines.extend(detail)
    return Report("simulation round trip", ok, tuple(lines))


def sim_category_suite(seed: int = 0, cases: int = 40) -> Report:
    """Categorical laws for cells: identity cells are units for
    composition, and composition is associative up to span equivalence."""
    rng = random.Random(seed)
    units = 0
    assocs = 0
    detail: list[str] = []
    ok = True
    attempts = 0
    while units < cases and attempts < cases * 8:
        attempts += 1
        p1 = randgen.random_endo(rng, max_sorts=2, max_shapes=2, max_fiber=2)
        p2 = randgen.random_endo(rng, max_sorts=2, max_shapes=2, max_fiber=2)
        c = randgen.random_sim_cell(rng, p1, p2)
        if c is None:
            continue
        left = sim.compose_sim(sim.identity_sim(p2), c)
        right = sim.compose_sim(c, sim.identity_sim(p1))
        if sim.equivalence_check(left, c) is None or \
                sim.equivalence_check(right, c) is None:
            ok = False
            if not detail:
                detail.append("first failure: identity cell is not a unit")
            break
        units += 1
    attempts = 0
    while assocs < cases // 2 and attempts < cases * 8:
        attempts += 1
        ps = [randgen.random_endo(rng, max_sorts=2, max_shapes=2, max_fiber=2)
              for _ in range(4)]
        c1 = randgen.random_sim_cell(rng, ps[0], ps[1])
        c2 = randgen.random_sim_cell(rng, ps[1], ps[2])
        c3 = randgen.random_sim_cell(rng, ps[2], ps[3])
        if c1 is None or c2 is None or c3 is None:
            continue
        lhs = sim.compose_sim(c3, sim.compose_sim(c2, c1))
        rhs = sim.compose_sim(sim.compose_sim(c3, c2), c1)
        if sim.equivalence_check(lhs, rhs) is None:
            ok = False
            if not detail:
                detail.append("first failure: composition is not associative")
            break
        assocs += 1
    lines = [
        f"{units} seeded cells: identity cells act as units under composition",
        f"{assocs} seeded triples: both bracketings of a triple composite "
        "are equivalent",
    ]
    lines.extend(detail)
    return Report("simulation category laws", ok, tuple(lines))


def additive_suite(seed: int = 0, cases: int = 60) -> Report:
    """Additive structure: the sum of diagrams evaluates fiberwise as the
    sum of evaluations, injections/projections satisfy the biproduct
    equations, and pairing/copairing are the unique mediators (sampled
    over spans with up to 3 states)."""
    rng = random.Random(seed)
    fiberwise = 0
    detail: list[str] = []
    ok = True
    for _ in range(cases // 2):
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
        rep = _drawn(one)
        if rep.ok:
            fiberwise += 1
        else:
            ok = False
            if not detail:
                detail.extend(f"first failure: {line}" for line in rep.lines[:2])

    biproduct = 0
    mediators = mediators_skipped = 0
    for _ in range(12):
        p1 = randgen.random_endo(rng, max_sorts=1, max_shapes=2, max_fiber=2)
        p2 = randgen.random_endo(rng, max_sorts=1, max_shapes=2, max_fiber=2)
        ps = sim.plus_structure(p1, p2)
        eqs = [
            sim.equivalence_check(sim.compose_sim(ps.proj1, ps.inl),
                                  sim.identity_sim(p1)),
            sim.equivalence_check(sim.compose_sim(ps.proj2, ps.inr),
                                  sim.identity_sim(p2)),
            sim.equivalence_check(sim.compose_sim(ps.proj2, ps.inl),
                                  sim.zero_sim(p1, p2)),
            sim.equivalence_check(sim.compose_sim(ps.proj1, ps.inr),
                                  sim.zero_sim(p2, p1)),
        ]
        if any(e is None for e in eqs):
            ok = False
            if not detail:
                detail.append("first failure: biproduct equation does not hold")
            continue
        biproduct += 1
        q = randgen.random_endo(rng, max_sorts=1, max_shapes=2, max_fiber=2)
        c1 = randgen.random_sim_cell(rng, q, p1)
        c2 = randgen.random_sim_cell(rng, q, p2)
        if c1 is None or c2 is None:
            mediators_skipped += 1
        else:
            paired = ps.pair(c1, c2)
            if sim.equivalence_check(sim.compose_sim(ps.proj1, paired), c1) is None or \
                    sim.equivalence_check(sim.compose_sim(ps.proj2, paired), c2) is None:
                ok = False
                if not detail:
                    detail.append("first failure: pairing does not recover its components")
            else:
                mediators += 1
        d1 = randgen.random_sim_cell(rng, p1, q)
        d2 = randgen.random_sim_cell(rng, p2, q)
        if d1 is None or d2 is None:
            mediators_skipped += 1
        else:
            cop = ps.copair(d1, d2)
            e1, e2 = ps.decompose(cop)
            if sim.equivalence_check(e1, d1) is None or \
                    sim.equivalence_check(e2, d2) is None:
                ok = False
                if not detail:
                    detail.append("first failure: copairing does not decompose back")
            else:
                mediators += 1

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
        if sim.equivalence_check(rebuilt, d) is None:
            ok = False
            if not detail:
                detail.append("first failure: a cell into the sum differs from the "
                              "pairing of its projections")
        else:
            unique += 1
    lines = [
        f"{fiberwise} random instances: sum evaluation is the fiberwise sum",
        f"{biproduct} seeded sums satisfy all four injection/projection equations",
        f"{mediators} pairing/copairing mediators recovered their components "
        f"({mediators_skipped} skipped: no cell on a drawn span for an operand)",
        f"{unique} sampled cells into a sum (spans up to 3 states) equal the "
        f"pairing of their projections ({unique_skipped} draws skipped: no cell "
        "on a drawn span)",
    ]
    lines.extend(detail)
    return Report("additive structure laws", ok, tuple(lines))


def exponential_suite(seed: int = 0, depth: int = 3) -> Report:
    """The truncated replication construction evaluated against blockwise
    tensor powers, on the full grid and on two-sorted spot checks."""
    agreed = 0
    total = 0
    detail: list[str] = []
    ok = True
    for fibers in GRID_FIBERS:
        p = single_sorted(fibers)
        for n in range(3):
            x = family_from_fibers(FinSet(1), (n,))
            for k in range(depth + 1):
                rep = smcc.bang_extension_check(p, x, k)
                total += 1
                if rep.ok:
                    agreed += 1
                else:
                    ok = False
                    if not detail:
                        detail.append(f"first failure: {notation(p)}, |x| = {n}, "
                                      f"depth {k}")
    two_total = 0
    for p in _two_sorted_samples():
        for n1 in range(3):
            for n2 in range(3):
                x = family_from_fibers(FinSet(2), (n1, n2))
                for k in range(depth + 1):
                    rep = smcc.bang_extension_check(p, x, k)
                    total += 1
                    two_total += 1
                    if rep.ok:
                        agreed += 1
                    else:
                        ok = False
                        if len(detail) < 2:
                            detail.append(f"first two-sorted failure at |x| = "
                                          f"({n1}, {n2}), depth {k}")
    lines = [
        f"{agreed} of {total} instances: replication extension matches the "
        f"blockwise tensor powers (grid and {two_total} two-sorted checks, "
        f"depth <= {depth})",
    ]
    lines.extend(detail)
    return Report("exponential identity", ok, tuple(lines))


def double_dual_suite(seed: int = 0) -> Report:
    """The dualization counterexample battery: degenerate parameters give
    diagrams isomorphic to their double dual, the 2X^2 case does not."""
    expected = {
        (1, 1): ("X vs X : ISO", True),
        (2, 1): ("2X vs 2X : ISO", True),
        (1, 2): ("X^2 vs X^2 : ISO", True),
        (2, 2): ("2X^2 vs 16X^4 : NOT ISO", True),
    }
    lines: list[str] = []
    ok = True
    for (a, b), (verdict, want_ok) in expected.items():
        rep = smcc.double_dual_report(a, b)
        got = rep.lines[-1]
        lines.append(f"a = {a}, b = {b}: {got}")
        if got != verdict or rep.ok != want_ok:
            ok = False
            lines.append(f"  expected: {verdict}")
    return Report("double dual comparison", ok, tuple(lines))


def kernel_witnesses_suite(seed: int = 0, cases: int = 100) -> Report:
    """Seeded interchange witnesses in the base category of families:
    pullback squares satisfy the base-change interchange, and dependent
    products distribute over dependent sums, both via explicit
    bijections."""
    rng = random.Random(seed)
    bc = 0
    dist = 0
    detail: list[str] = []
    for _ in range(cases):
        def one_bc() -> Report:
            apex = FinSet(rng.randint(1, 3))
            a = FinSet(rng.randint(1, 3))
            b = FinSet(rng.randint(1, 3))
            f = randgen.random_finmap(rng, a, apex)
            g = randgen.random_finmap(rng, b, apex)
            z = randgen.random_family(rng, b, max_fiber=3)
            return fam.beck_chevalley_check(fam.square_from_cospan(f, g), z)
        rep = _drawn(one_bc)
        if rep.ok:
            bc += 1
        elif not detail:
            detail.extend(f"first base-change failure: {line}" for line in rep.lines[:1])
    for _ in range(cases):
        def one_dist() -> Report:
            e = FinSet(rng.randint(1, 3))
            mid = FinSet(rng.randint(1, 3))
            base = FinSet(rng.randint(1, 3))
            bmap = randgen.random_finmap(rng, e, mid)
            amap = randgen.random_finmap(rng, mid, base)
            x = randgen.random_family(rng, e, max_fiber=2)
            return fam.distributivity_check(amap, bmap, x)
        rep = _drawn(one_dist)
        if rep.ok:
            dist += 1
        elif len(detail) < 2:
            detail.extend(f"first distributivity failure: {line}" for line in rep.lines[:1])
    ok = bc == cases and dist == cases
    lines = [
        f"{bc} of {cases} pullback squares: base-change comparison is a bijection",
        f"{dist} of {cases} map pairs: product-over-sum comparison is a bijection",
    ]
    lines.extend(detail)
    return Report("base category interchange witnesses", ok, tuple(lines))


def naturality_suite(seed: int = 0, cases: int = 8) -> Report:
    """Naturality squares at small bounds, checked on the generating maps
    (which give every square): the canonical comparison map in both
    arguments, evaluated morphisms, and evaluated simulation cells."""
    rng = random.Random(seed)
    eps = 0
    detail: list[str] = []
    ok = True
    pairs = [(single_sorted((1,)), single_sorted((1,)))]
    for _ in range(cases - 1):
        pairs.append((
            single_sorted(tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2)))),
            single_sorted(tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2)))),
        ))
    for p1, p2 in pairs:
        rep = smcc.epsilon_naturality_check(p1, p2, bound=2)
        if rep.ok:
            eps += 1
        else:
            ok = False
            if not detail:
                detail.append(f"comparison map not natural at {notation(p1)} , {notation(p2)}")
    dm = 0
    for _ in range(cases):
        p = single_sorted(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2))))
        q = single_sorted(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2))))
        if not 0 < nat.count_nat(p, q) <= 16:
            continue
        for m in nat.enumerate_dm(p, q)[:2]:
            rep = nat.naturality_check(m, bound=2)
            if rep.ok:
                dm += 1
            else:
                ok = False
                if not detail:
                    detail.append("evaluated morphism is not natural")
    cells = 0
    while cells < cases:
        p1 = randgen.random_endo(rng, max_sorts=2, max_shapes=2, max_fiber=2)
        p2 = randgen.random_endo(rng, max_sorts=2, max_shapes=2, max_fiber=2)
        c = randgen.random_sim_cell(rng, p1, p2)
        if c is None:
            continue
        rep = sim.sim_naturality_check(c, bound=2)
        if rep.ok:
            cells += 1
        else:
            ok = False
            if not detail:
                detail.append("evaluated simulation cell is not natural")
            break
    lines = [
        f"{eps} diagram pairs: comparison map natural in both arguments "
        "(all base morphisms with fibers <= 2)",
        f"{dm} enumerated morphisms pass exhaustive naturality at bound 2",
        f"{cells} seeded cells evaluate to natural transformations at bound 2",
    ]
    lines.extend(detail)
    return Report("naturality squares", ok, tuple(lines))


SUITES: dict[str, Callable[..., Report]] = {
    "tensor-unit": tensor_unit_suite,
    "tensor-assoc": tensor_assoc_suite,
    "composition": composition_suite,
    "structural-direct": structural_direct_suite,
    "adjunction": adjunction_suite,
    "tensor-universal": tensor_universal_suite,
    "sim-roundtrip": sim_roundtrip_suite,
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
