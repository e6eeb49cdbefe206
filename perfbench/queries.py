"""The ``queries`` workload: single ``polycat.cli.main(argv)`` calls, each
on its own freshly generated JSON document.

A round is 100 queries with a fixed mix of commands and size classes
(``PLAN``), so every seed costs about the same; the seed picks the
concrete diagrams, families and cells. The documents are written during
set-up, one per query, so the stream shares almost no inputs. Every
round starts from a freshly imported polycat, so nothing polycat keeps
in memory carries over from one round to the next.

Every query carries its expected answer, worked out here from closed
forms. A query may also be flagged as allowed to refuse (its size is
over the default size guard, or a known defect makes it refuse) or,
for a known defect, to crash. Such outcomes count as failed ops but not
as wrong answers; any other mismatch is a wrong answer. Whether a query
refuses depends on its size class only, never on the seed: every round
of every seed refuses the same 10 queries and crashes on the same one.

Known defects deliberately kept in every round (see ROADMAP.md):
``count-nat`` on a 25-shape source refuses although counting should
never guard (item 3a), ``iso-check`` on 9 or more shapes refuses
(item 3b), and ``double-dual --a 3 --b 40`` crashes while formatting
its guard message (item 4).
"""
from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .common import (CRASHED, OK, REFUSED, WRONG, Op, compose_arities, monomials,
                     nat_count, notation, tensor_arities, unexpected, value_size)

GUARD = 10**6  # finset.DEFAULT_GUARD_LIMIT; the runner pins the default


@dataclass
class Query:
    argv: list[str]
    doc: dict | None
    matches: Callable[[str], bool]
    may_refuse: bool = False
    may_crash: bool = False


def _exact(text: str) -> Callable[[str], bool]:
    return lambda out: out == text


def _ss(arities) -> dict:
    return {"source": 1, "target": 1,
            "shapes": [{"sort": 0, "dir_sorts": [0] * a} for a in arities]}


def _arities(r: random.Random, shapes: int, top: int) -> list[int]:
    return [r.randint(0, top) for _ in range(shapes)]


def _json_arities(tree: dict) -> list[int]:
    counts = [0] * tree["shapes"]
    for v in tree["dir_shape"]:
        counts[v] += 1
    return sorted(counts)


def _json_matches(shapes: int, dirs: int, arities, sorts: int = 1) -> Callable[[str], bool]:
    want = sorted(arities)

    def matches(out: str) -> bool:
        tree = json.loads(out)
        return (tree["shapes"] == shapes and tree["dirs"] == dirs
                and tree["source"] == sorts and tree["target"] == sorts
                and _json_arities(tree) == want)
    return matches


# -- one generator per command; ``size`` is the size class from PLAN ------------


def q_eval(r, size):
    if size == "multi":
        n_src, n_tgt = r.randint(2, 3), r.randint(2, 3)
        shapes = [(r.randrange(n_tgt), [r.randrange(n_src) for _ in range(r.randint(0, 4))])
                  for _ in range(r.randint(2, 6))]
        x = [r.randint(0, 20) for _ in range(n_src)]
        sizes = [0] * n_tgt
        for sort, dirs in shapes:
            n = 1
            for i in dirs:
                n *= x[i]
            sizes[sort] += n
        diagram = {"source": n_src, "target": n_tgt,
                   "shapes": [{"sort": s, "dir_sorts": d} for s, d in shapes]}
        doc = {"diagrams": {"p": diagram}, "families": {"x": {"base": n_src, "fibers": x}}}
        text = "fiber sizes: " + " ".join(map(str, sizes)) + "\n"
    else:
        n_shapes, top, n = size
        arities = _arities(r, n_shapes, top)
        doc = {"diagrams": {"p": _ss(arities)}, "families": {"x": {"base": 1, "fibers": [n]}}}
        text = f"fiber size {value_size(arities, n)}\n"
    return Query(["eval", "DOC", "--diagram", "p", "--family", "x"], doc, _exact(text))


def q_count_nat(r, size):
    n_src, n_dst = size
    if n_src == 25:
        src, dst = [1] * 25, [1, 1]  # Nat(25X, 2X) = 2^25
    else:
        src, dst = _arities(r, n_src, 3), _arities(r, n_dst, 2)
    text = f"natural transformations: {nat_count(src, dst)}\n"
    refuses = n_dst ** n_src > GUARD
    return Query(["count-nat", "DOC", "--src", "p", "--dst", "q"],
                 {"diagrams": {"p": _ss(src), "q": _ss(dst)}}, _exact(text),
                 may_refuse=refuses)


def q_iso(r, n_shapes):
    left = _arities(r, n_shapes, 3)
    right = list(left)
    r.shuffle(right)
    if n_shapes <= 8 and r.random() < 0.5:
        # move one direction between two shapes: same shape and direction
        # counts, usually a different signature multiset
        i, j = r.sample(range(n_shapes), 2)
        if right[i] > 0:
            right[i] -= 1
            right[j] += 1
    verdict = "ISO" if sorted(left) == sorted(right) else "NOT ISO"
    text = f"{notation(left)} vs {notation(right)} : {verdict}\n"
    over = n_shapes > 8
    return Query(["iso-check", "DOC", "--left", "p", "--right", "q"],
                 {"diagrams": {"p": _ss(left), "q": _ss(right)}}, _exact(text),
                 may_refuse=over)


def q_compose(r, size):
    if size == "over":
        outer, inner = [4], [r.randint(0, 2) for _ in range(3)]  # 81 composite shapes
    else:
        outer = _arities(r, r.randint(1, 3), 2)
        inner = _arities(r, r.randint(1, 3), 2)
    n = r.randint(0, 3)
    comp = notation(compose_arities(outer, inner))
    m = value_size(outer, value_size(inner, n))
    text = (f"structural: {comp}\ndirect: {comp}\n"
            "structural and direct composites: ISO\n"
            "composition agrees with evaluation in stages: ok\n"
            f"  fiber sizes ({m},) vs ({m},)\n"
            "  canonical comparison bijective: yes\n")
    over = len(compose_arities(outer, inner)) > 64  # the --max-shapes default
    return Query(["compose", "DOC", "--outer", "q", "--inner", "p", "--both", "--family", "x"],
                 {"diagrams": {"q": _ss(outer), "p": _ss(inner)},
                  "families": {"x": {"base": 1, "fibers": [n]}}}, _exact(text),
                 may_refuse=over)


def q_tensor(r, size):
    n_shapes, top = size
    p1, p2 = _arities(r, n_shapes, top), _arities(r, r.randint(1, n_shapes), top)
    return Query(["tensor", "DOC", "--left", "a", "--right", "b", "--json"],
                 {"diagrams": {"a": _ss(p1), "b": _ss(p2)}},
                 _json_matches(len(p1) * len(p2), sum(p1) * sum(p2), tensor_arities(p1, p2)))


def _hom_arities(left, right) -> dict[int, int]:
    """Shapes of the single-sorted hom, as arity -> count: a shape is a
    map f on shapes plus, per left shape v, a map from f(v)'s directions
    to v's; its directions are those of all the f(v)."""
    counts: dict[int, int] = {}

    def walk(v, n, arity):
        if n == 0:
            return
        if v == len(left):
            counts[arity] = counts.get(arity, 0) + n
            return
        for b in right:
            walk(v + 1, n * left[v] ** b, arity + b)
    walk(0, 1, 0)
    return counts


def q_hom(r, size):
    if size == "over":
        left, right = [3] * 6, [2, 3]
    else:
        left, right = _arities(r, r.randint(1, 3), 2), _arities(r, r.randint(1, 3), 2)
    counts = _hom_arities(left, right)
    shapes = sum(counts.values())
    dirs = sum(a * c for a, c in counts.items())
    arities = [a for a, c in counts.items() for _ in range(c)] if shapes <= GUARD else []
    return Query(["hom", "DOC", "--left", "a", "--right", "b", "--json"],
                 {"diagrams": {"a": _ss(left), "b": _ss(right)}},
                 _json_matches(shapes, dirs, arities),
                 may_refuse=max(shapes, dirs) > GUARD)


def q_dual(r, size):
    p = [8] * 7 if size == "over" else _arities(r, r.randint(1, 4), 3)
    shapes = 1
    for a in p:
        shapes *= a
    over = shapes * len(p) > GUARD
    return Query(["dual", "DOC", "--diagram", "p", "--json"], {"diagrams": {"p": _ss(p)}},
                 _json_matches(shapes, shapes * len(p), [] if over else [len(p)] * shapes),
                 may_refuse=over)


def q_bang(r, size):
    if size == "over":
        p, depth = [3, 3, 2, 2], 6  # sum of 10^n for n <= 6 direction lists
    else:
        p, depth = _arities(r, r.randint(1, 3), 2), r.randint(0, 3)
    shapes = sum(len(p) ** n for n in range(depth + 1))
    dirs = sum(sum(p) ** n for n in range(depth + 1))
    arities = []
    if shapes <= GUARD:
        level = [1]
        for _ in range(depth + 1):
            arities += level
            level = [x * a for x in level for a in p]
    return Query(["bang", "DOC", "--diagram", "p", "--depth", str(depth), "--json"],
                 {"diagrams": {"p": _ss(p)}},
                 _json_matches(shapes, dirs, arities, sorts=depth + 1),
                 may_refuse=max(shapes, dirs) > GUARD)


def q_double_dual(r, size):
    a, b = size if size != "small" else r.choice(
        [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1), (2, 3)])
    argv = ["double-dual", "--a", str(a), "--b", str(b)]
    if (a, b) == (3, 40):
        # dualizing twice needs 3 ** 64000 shapes: the contract says exit 3
        return Query(argv, None, lambda out: False, may_refuse=True, may_crash=True)
    p, pdd = {b: a}, {b ** a: a ** (b ** a)}
    verdict = "ISO" if p == pdd else "NOT ISO"
    text = f"{monomials(p)} vs {monomials(pdd)} : {verdict}\n"
    return Query(argv, None, _exact(text), may_refuse=a ** (b ** a) > GUARD)


def q_curry(r, size):
    while True:  # stay within the --limit default of 512, so no seed refuses
        p1, p2, p3 = (_arities(r, r.randint(1, 2), 2) for _ in range(3))
        n = nat_count(tensor_arities(p1, p2), p3)
        if n <= 512:
            break
    head = f"transformations: {n} out of the tensor, {n} into the hom\n"
    index = r.randrange(n) if n else 0
    if n == 0:
        matches = _exact(head + "nothing to curry\n")
    else:
        pattern = re.compile(re.escape(head) + rf"transformation {index} of {n} curries to "
                             rf"(\d+) of {n}\nuncurrying returns the original transformation\n")

        def matches(out, pattern=pattern):
            m = pattern.fullmatch(out)
            return m is not None and int(m.group(1)) < n
    return Query(["curry", "DOC", "--p1", "a", "--p2", "b", "--p3", "c", "--index", str(index)],
                 {"diagrams": {"a": _ss(p1), "b": _ss(p2), "c": _ss(p3)}}, matches)


def q_day(r, size):
    p1, p2 = _arities(r, r.randint(1, 2), 2), _arities(r, r.randint(1, 2), 2)
    n = r.randint(0, 2)
    need = max(p1 + p2 + [1])
    s = need if size == "need" else min(need + 1, 3)
    seed = r.randrange(1000)
    counts1 = [value_size(p1, a) for a in range(s + 1)]
    counts2 = [value_size(p2, b) for b in range(s + 1)]
    tuples = sum(n ** (a * b) * counts1[a] * counts2[b]
                 for a in range(s + 1) for b in range(s + 1))
    relations = sum(counts1[a] * counts2[b] * (a2 ** a * n ** (a2 * b) + a2 ** b * n ** (a * a2))
                    for a in range(s + 1) for a2 in range(s + 1) for b in range(s + 1))
    classes = sum(n ** (a * b) for a in p1 for b in p2)
    head = f"coend oracle: ok\n  skeleton 0..{s}: {tuples} tuples, {relations} generating relations\n"
    if tuples <= 20000 and relations <= 200000:
        matches = _exact(head + "  mode: exact union-find over all tuples\n"
                         f"  equivalence classes: {classes}; extension elements: {classes}\n"
                         "  each class contains exactly one canonical rectangle: yes\n")
    else:
        pattern = re.compile(
            re.escape(head + "  mode: factorization with sampled relation checks\n")
            + r"  sampled tuples reduce to canonical rectangles: yes \(\d+ samples\)\n"
            r"  separating comparison respects sampled relations: yes \(\d+ samples\)\n"
            + re.escape(f"  canonical rectangles: {classes} (one per extension element: yes)\n"))
        def matches(out, pattern=pattern):
            return pattern.fullmatch(out) is not None
    return Query(["day-oracle", "DOC", "--left", "a", "--right", "b", "--family", "x",
                  "--skeleton", str(s), "--seed", str(seed)],
                 {"diagrams": {"a": _ss(p1), "b": _ss(p2)},
                  "families": {"x": {"base": 1, "fibers": [n]}}}, matches)


def _random_cell(r: random.Random, big: bool):
    """A valid simulation cell between two random endo diagrams, as a
    document, with the facts the answers are computed from."""
    while True:
        m1, m2 = r.randint(1, 2), r.randint(1, 2)
        p1 = [(r.randrange(m1), [r.randrange(m1) for _ in range(r.randint(0, 2))])
              for _ in range(r.randint(1, 3))]
        p2 = [(r.randrange(m2), [r.randrange(m2) for _ in range(r.randint(0, 2))])
              for _ in range(r.randint(1, 3))]
        if big:
            p2[0] = (p2[0][0], [r.randrange(m2) for _ in range(3)])
        states = r.randint(1, 3)
        left = [r.randrange(m1) for _ in range(states)]
        right = [r.randrange(m2) for _ in range(states)]
        if big and not set(p2[0][1]) <= set(right):
            continue  # a big cell must reach every sort its 3-direction shape uses
        dirs1, start = [], 0
        for _, ds in p1:
            dirs1.append(list(range(start, start + len(ds))))
            start += len(ds)
        sort1 = [i for _, ds in p1 for i in ds]
        starts2, start = [], 0
        for _, ds in p2:
            starts2.append(start)
            start += len(ds)
        alpha, beta, gamma = [], [], []
        ok = True
        for rho in range(states):
            for v, (sort_v, _) in enumerate(p1):
                if sort_v != left[rho]:
                    continue
                options = []
                for w, (sort_w, ds) in enumerate(p2):
                    if sort_w != right[rho]:
                        continue
                    per_dir = [[(g, b) for g in range(states) if right[g] == s2
                                for b in dirs1[v] if sort1[b] == left[g]] for s2 in ds]
                    if all(per_dir):
                        options.append((w, per_dir))
                if not options:
                    ok = False
                    break
                w, per_dir = r.choice(options)
                alpha.append([rho, v, w])
                for k, choices in enumerate(per_dir):
                    g, b = r.choice(choices)
                    beta.append([rho, v, starts2[w] + k, b])
                    gamma.append([rho, v, starts2[w] + k, g])
            if not ok:
                break
        if ok:
            break
    x = [r.randint(101, 140) if big else r.randint(0, 3) for _ in range(m1)]
    doc = {
        "maps": {"l": {"dom": states, "cod": m1, "table": left},
                 "r": {"dom": states, "cod": m2, "table": right}},
        "families": {"x": {"base": m1, "fibers": x}},
        "diagrams": {
            "p": {"source": m1, "target": m1,
                  "shapes": [{"sort": s, "dir_sorts": ds} for s, ds in p1]},
            "q": {"source": m2, "target": m2,
                  "shapes": [{"sort": s, "dir_sorts": ds} for s, ds in p2]}},
        "spans": {"s": {"carrier": states, "left": "l", "right": "r"}},
        "simulations": {"c": {"span": "s", "src": "p", "dst": "q",
                              "alpha": alpha, "beta": beta, "gamma": gamma}},
    }
    facts = dict(p1=p1, p2=p2, left=left, right=right, x=x, m2=m2,
                 pairs=len(alpha), entries=len(beta))
    return doc, facts


def q_sim_validate(r, size):
    doc, f = _random_cell(r, False)
    text = (f"simulation cell equations: ok\n  {f['pairs']} shape entries and "
            f"{f['entries']} direction entries satisfy all four equations\n")
    return Query(["sim-validate", "DOC", "--cell", "c"], doc, _exact(text))


def q_sim_eval(r, size):
    doc, f = _random_cell(r, size == "big")
    x, left, right, m2 = f["x"], f["left"], f["right"], f["m2"]

    def value(shapes, fibers, n_sorts):
        out = [0] * n_sorts
        for sort, ds in shapes:
            n = 1
            for i in ds:
                n *= fibers[i]
            out[sort] += n
        return out

    def along_span(fibers):
        out = [0] * m2
        for rho, j in enumerate(right):
            out[j] += fibers[left[rho]]
        return out

    inner = value(f["p1"], x, len(x))
    src = along_span(inner)
    aux = along_span(x)
    dst = value(f["p2"], aux, m2)
    head = ("src fiber sizes: " + " ".join(map(str, src)) + "\n"
            "dst fiber sizes: " + " ".join(map(str, dst)) + "\n")

    def matches(out):
        rest = out[len(head):]
        if not out.startswith(head) or not rest.startswith("table:") or not rest.endswith("\n"):
            return False
        entries = [int(t) for t in rest[len("table:"):].split()]
        return len(entries) == sum(src) and all(0 <= t < sum(dst) for t in entries)
    over = max(sum(inner), sum(src), sum(aux), sum(dst)) > GUARD
    return Query(["sim-eval", "DOC", "--cell", "c", "--family", "x"], doc, matches,
                 may_refuse=over)


# (generator, size classes): one query per size class in every round
PLAN = [
    (q_eval, [(1, 1, 2), (2, 2, 3), (3, 2, 5), (4, 3, 8), (5, 3, 13), (6, 4, 40),
              (8, 5, 100), (10, 6, 1000), (12, 8, 10**4), (20, 10, 10**5),
              "multi", "multi", "multi", "multi"]),
    (q_count_nat, [(1, 2), (2, 2), (2, 3), (3, 3), (4, 2), (5, 3), (6, 2), (7, 2),
                   (6, 3), (7, 3), (13, 3), (25, 2)]),
    (q_iso, [2, 3, 4, 5, 6, 7, 8, 8, 9, 12]),
    (q_compose, ["small"] * 9 + ["over"]),
    (q_sim_eval, ["small"] * 9 + ["big"]),
    (q_sim_validate, ["small"] * 8),
    (q_curry, ["small"] * 8),
    (q_day, ["need", "need", "need", "plus", "plus", "plus"]),
    (q_tensor, [(2, 2), (3, 2), (4, 3), (4, 3), (8, 4)]),
    (q_hom, ["small"] * 4 + ["over"]),
    (q_bang, ["small"] * 3 + ["over"]),
    (q_dual, ["small"] * 3 + ["over"]),
    (q_double_dual, ["small", (3, 2), (3, 3), (3, 40)]),
]


def generate(seed: int) -> list[tuple[str, Query]]:
    """The queries of one round, in a seeded random order."""
    r = random.Random(seed)
    out = [(gen.__name__[2:].replace("_", "-"), gen(r, size))
           for gen, sizes in PLAN for size in sizes]
    r.shuffle(out)
    return out


class Queries:
    name = "queries"
    round_seconds = 1.2

    def setup(self, seed: int, workdir: Path) -> list[Op]:
        from polycat import cli
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for n, (kind, q) in enumerate(generate(seed)):
            argv = list(q.argv)
            if q.doc is not None:
                path = workdir / f"q{n:03d}.json"
                path.write_text(json.dumps(q.doc), encoding="utf-8")
                argv[argv.index("DOC")] = str(path)
            ops.append(Op(kind, _caller(cli, argv), _checker(q)))
        return ops

    def gate(self, tally, full: bool):
        lines = []
        for kind in sorted(tally):
            counts = tally[kind]
            lines.append((f"{kind}: " + ", ".join(f"{counts.get(o, 0)} {o}"
                                                 for o in (OK, REFUSED, CRASHED, WRONG)),
                          counts.get(WRONG, 0) == 0))
        return lines


def _caller(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def _checker(q: Query):
    def check(result, exc):
        if exc is not None:
            if q.may_crash:
                return CRASHED, f"{' '.join(q.argv)}: {type(exc).__name__}"
            return unexpected(exc)
        code, out, err = result
        if code == 0:
            try:
                good = q.matches(out)
            except (ValueError, KeyError, TypeError):
                good = False
            return (OK, "") if good else (WRONG, f"{q.argv[0]}: unexpected output {out[:300]!r}")
        if code == 3 and q.may_refuse and err.startswith("size guard exceeded:"):
            return REFUSED, err.strip()
        return WRONG, f"{q.argv[0]}: exit {code}: {err.strip()[:300]}"
    return check
