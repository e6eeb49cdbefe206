"""The three law-suite workloads: ``universal``, ``adjunction`` and
``simcells``.

Each replays the instance catalog of an acceptance suite one instance
per op, so ops can be timed and checked one at a time. The catalogs are
fixed (they are the suites' own instances), which keeps the work per
round the same for every seed. The seed changes what polycat receives:
the directions of every diagram are renumbered by ``common.relabel``,
the op order is shuffled, and the samplers inside ops are seeded from
it.

``round_seconds`` is the time one round takes on the machine the
benchmark was tuned on (2 vCPU x86-64, CPython 3.11); the runner fits
``--seconds`` with that many rounds.
"""
from __future__ import annotations

import itertools
import random

from .common import OK, Op, expect, nat_count, relabel, tensor_arities, unexpected

# suites.GRID_FIBERS: every single-sorted diagram with at most 2 shapes
# and at most 2 directions per shape.
GRID = ((), (0,), (1,), (2,)) + tuple((a, b) for a in range(3) for b in range(3))


def _ok_or(check):
    """Wrap a result check so that any exception counts as a wrong answer."""
    def run(result, exc):
        if exc is not None:
            return unexpected(exc)
        return check(result)
    return run


class Universal:
    """smcc.theta_check and smcc.day_coend_oracle on the grid pairs of
    tensor_universal_suite. The full suite is about 50 s on one core, so
    a round takes the fixed ninth of the 169 grid pairs with i + j = 5
    mod 9 (19 pairs): one theta op and three coend ops (|x| = 0, 1, 2)
    per pair. Of the ninths cut this way, it is one whose median and p95
    op times match the full suite's within a few percent and whose op
    times have no wide gap next to the median or the tail percentile,
    where a percentile would jump from run to run."""

    name = "universal"
    round_seconds = 5.0
    THETA, COEND = 19, 57

    @staticmethod
    def pairs():
        return [(i, j) for i in range(len(GRID)) for j in range(len(GRID))
                if (i + j) % 9 == 5]

    def setup(self, seed: int, workdir):
        from polycat.fam import family_from_fibers
        from polycat.finset import FinSet
        rng = random.Random(seed)
        grid = [relabel(f, rng) for f in GRID]
        families = [family_from_fibers(FinSet(1), (n,)) for n in range(3)]
        ops = []
        for i, j in self.pairs():
            ops.append(self._theta(grid[i], grid[j], GRID[i], GRID[j]))
            for n in range(3):
                ops.append(self._coend(grid[i], grid[j], GRID[i], GRID[j],
                                       families[n], n, seed))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _theta(p1, p2, f1, f2) -> Op:
        from polycat import poly, smcc

        def call():
            f_diag = poly.tensor(p1, p2)
            return smcc.theta_check(p1, p2, f_diag,
                                    lambda x, y: smcc.epsilon(p1, p2, x, y),
                                    candidate_limit=8)

        tens = tensor_arities(f1, f2)
        count = nat_count(tens, tens)
        # families over one sort with fibers <= 2: three of them, so 3 x 3 pairs
        want = ["mediating map reproduces rho after the comparison map at 9 argument pairs"]
        if count <= 8:
            want.append(f"1 of {count} candidate transformations satisfy the equation "
                        "(want exactly 1)")
        else:
            want.append(f"{count} candidate transformations exceed the sampling limit 8; "
                        "uniqueness not sampled")

        def check(rep):
            return expect(rep.ok and list(rep.lines[:2]) == want,
                          f"theta_check at {f1}, {f2}: {rep.render()[:300]}")
        return Op("theta", call, _ok_or(check))

    @staticmethod
    def _coend(p1, p2, f1, f2, x, n, seed) -> Op:
        from polycat import smcc

        def call():
            return smcc.day_coend_oracle(p1, p2, x, skeleton_bound=4, budget=20000,
                                         samples=400, seed=seed)

        size = sum(n ** (a * b) for a in f1 for b in f2)
        exact = f"equivalence classes: {size}; extension elements: {size}"
        sampled = f"canonical rectangles: {size} (one per extension element: yes)"

        def check(rep):
            return expect(rep.ok and (exact in rep.lines or sampled in rep.lines),
                          f"coend oracle at {f1}, {f2}, |x| = {n}: {rep.render()[:300]}")
        return Op("coend", call, _ok_or(check))

    def gate(self, tally, full: bool):
        theta, coend = tally.get("theta", {}), tally.get("coend", {})
        n_theta, n_coend = sum(theta.values()), sum(coend.values())
        lines = [
            (f"mediator: {theta.get(OK, 0)} of {n_theta} grid pairs rebuild the "
             "canonical comparison map exactly",
             theta.get(OK, 0) == n_theta and (not full or n_theta == self.THETA)),
            (f"coend oracle: {coend.get(OK, 0)} of {n_coend} (pair, family) instances "
             "match the convolution formula at skeleton bound 4",
             coend.get(OK, 0) == n_coend and (not full or n_coend == self.COEND)),
        ]
        return lines


def adjunction_triples():
    """The 100 triples adjunction_suite(seed=0) draws, as arity lists.
    No triple of that seed trips the size guard, so the suite's redraw
    loop never fires and the draws are exactly these."""
    rng = random.Random(0)

    def draw():
        return tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
    return [(draw(), draw(), draw()) for _ in range(100)]


class Adjunction:
    """smcc.adjunction_count_check on adjunction_suite's 100 seeded
    triples, plus the exact case Nat(X^2, 2X) = Nat(X, 4X) = 4."""

    name = "adjunction"
    round_seconds = 12.0
    TRIPLES = 100

    def setup(self, seed: int, workdir):
        rng = random.Random(seed)
        ops = [self._exact(relabel((1,), rng), relabel((2,), rng), relabel((1, 1), rng))]
        for f1, f2, f3 in adjunction_triples():
            ops.append(self._triple(relabel(f1, rng), relabel(f2, rng), relabel(f3, rng),
                                    f1, f2, f3))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _exact(x, xsq, two_x) -> Op:
        from polycat import nat, poly

        def call():
            h = poly.hom_single_sorted(xsq, two_x)
            return (nat.count_nat(poly.tensor(x, xsq), two_x), nat.count_nat(x, h),
                    poly.notation(h))

        def check(result):
            return expect(result == (4, 4, "4X"), f"exact case gave {result}")
        return Op("exact", call, _ok_or(check))

    @staticmethod
    def _triple(p1, p2, p3, f1, f2, f3) -> Op:
        from polycat import smcc

        def call():
            return smcc.adjunction_count_check(p1, p2, p3, roundtrip_limit=512)

        n = nat_count(tensor_arities(f1, f2), f3)
        first = f"transformations out of the tensor: {n}; into the internal hom: {n}"
        round_trip = 2 * n <= 512

        def check(rep):
            tripped = any("round trips on" in line for line in rep.lines)
            return expect(rep.ok and rep.lines[0] == first and tripped == round_trip,
                          f"adjunction at {f1}, {f2}, {f3}: {rep.render()[:300]}")
        return Op("triple", call, _ok_or(check))

    def gate(self, tally, full: bool):
        exact, triple = tally.get("exact", {}), tally.get("triple", {})
        n = sum(triple.values())
        return [
            ("exact case: Nat(X^2, 2X) = 4 and Nat(X, 4X) = 4",
             exact.get(OK, 0) == sum(exact.values()) and (not full or exact.get(OK, 0) == 1)),
            (f"{triple.get(OK, 0)} of {n} seeded triples (shapes <= 3, fibers <= 2): "
             "both hom counts equal",
             triple.get(OK, 0) == n and (not full or n == self.TRIPLES)),
        ]


def two_sorted_samples():
    """The two endo diagrams on two sorts that sim_roundtrip_suite uses
    for its spot checks: mixed arities, and a shape with an empty fiber."""
    from polycat.finset import FinMap, FinSet
    from polycat.poly import PolyDiagram
    two = FinSet(2)

    def diagram(n_dirs, n_shapes, dir_sort, dir_shape, shape_sort):
        dirs, shapes = FinSet(n_dirs), FinSet(n_shapes)
        return PolyDiagram(source=two, dirs=dirs, shapes=shapes, target=two,
                           dir_sort=FinMap(dirs, two, dir_sort),
                           dir_shape=FinMap(dirs, shapes, dir_shape),
                           shape_sort=FinMap(shapes, two, shape_sort))
    return [diagram(3, 2, (1, 0, 1), (0, 1, 1), (0, 1)),
            diagram(1, 3, (0,), (1,), (0, 1, 1))]


class Simcells:
    """The sim_roundtrip_suite catalog: every grid pair over the constant
    spans with 0, 1 and 2 states (507 instances), plus the suite's
    two-sorted spot checks. Per instance: count the cells, enumerate them
    (or draw 4 when there are more than 256), and round-trip each through
    eval_sim, extract_sim and equivalence_check."""

    name = "simcells"
    round_seconds = 9.0
    INSTANCES = 507
    BUDGET, DRAWS = 256, 4

    def setup(self, seed: int, workdir):
        from polycat import randgen
        from polycat.fam import Span
        from polycat.finset import FinMap, FinSet
        rng = random.Random(seed)
        grid = [relabel(f, rng) for f in GRID]
        ops = []
        for states in range(3):
            leg = FinMap(FinSet(states), FinSet(1), (0,) * states)
            span = Span(FinSet(states), leg, leg)
            for i, j in itertools.product(range(len(GRID)), repeat=2):
                draws = random.Random(seed * 1_000_003 + len(ops))
                ops.append(self._instance(grid[i], grid[j], span, states,
                                          GRID[i], GRID[j], draws))
        for p1, p2 in itertools.product(two_sorted_samples(), repeat=2):
            cells = [randgen.random_sim_cell(rng, p1, p2, max_states=2) for _ in range(4)]
            ops.append(self._spot(p1, p2, [c for c in cells if c is not None]))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _round_trip(sim, cells, p1, p2) -> bool:
        for c in cells:
            extracted = sim.extract_sim(lambda x, cc=c: sim.eval_sim(cc, x), c.span, p1, p2)
            if sim.equivalence_check(extracted, c) is None:
                return False
        return True

    def _instance(self, p1, p2, span, states, f1, f2, draws) -> Op:
        from polycat import sim

        def call():
            count = sim.count_sim(p1, p2, span)
            if count <= self.BUDGET:
                cells = sim.enumerate_sim(p1, p2, span)
            else:
                cells = [c for c in (sim.random_cell(draws, p1, p2, span)
                                     for _ in range(self.DRAWS)) if c is not None]
            return count, len(cells), self._round_trip(sim, cells, p1, p2)

        # every state sits over the single sort, so each (state, shape v)
        # entry picks a target shape w and, per direction of w, a state
        # and a direction of v
        per_state = 1
        for a in f1:
            per_state *= sum((states * a) ** b for b in f2)
        count = per_state ** states
        cells = count if count <= self.BUDGET else self.DRAWS

        def check(result):
            return expect(result == (count, cells, True),
                          f"sim round trip at {f1} -> {f2} over {states} states: "
                          f"got {result}, want {(count, cells, True)}")
        return Op("instance", call, _ok_or(check))

    def _spot(self, p1, p2, cells) -> Op:
        from polycat import sim

        def call():
            return self._round_trip(sim, cells, p1, p2)

        def check(result):
            return expect(result is True, "two-sorted spot check failed")
        return Op("spot", call, _ok_or(check))

    def gate(self, tally, full: bool):
        inst, spot = tally.get("instance", {}), tally.get("spot", {})
        n = sum(inst.values())
        return [
            (f"{n} grid instances (13 x 13 diagram pairs, spans of 0..2 states)",
             not full or n == self.INSTANCES),
            ("every extracted cell is equivalent to the cell it came from",
             inst.get(OK, 0) == n and spot.get(OK, 0) == sum(spot.values())),
        ]

