"""Shared pieces of the workloads: the op record, outcome names, and the
independent closed forms the correctness checks compare against.

The closed forms here are written from the mathematics, not from
polycat's code, so a check fails when polycat's answer is wrong.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

OK, REFUSED, CRASHED, WRONG = "ok", "refused", "crashed", "wrong"


@dataclass
class Op:
    """One timed unit of work. ``call`` runs polycat and returns its
    answer; ``check`` classifies the answer (or the exception the call
    raised) as one of the outcomes above, with a note for the record."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, BaseException | None], tuple[str, str]]


def expect(good: bool, note: str) -> tuple[str, str]:
    return (OK, "") if good else (WRONG, note)


def unexpected(exc: BaseException) -> tuple[str, str]:
    return WRONG, f"raised {type(exc).__name__}: {str(exc)[:200]}"


def relabel(arities, rng: random.Random):
    """A single-sorted diagram with one shape per entry of ``arities``
    (its direction count), in that order, with its directions numbered
    in a seeded random order. Isomorphic to
    ``poly.single_sorted(arities)``, so every count and verdict is the
    same, but the tables differ. Shapes keep their order because the
    cost of some searches (count_nat's early exit on an empty choice)
    depends on it, and the seed must not change how much work a round
    is."""
    from polycat.finset import FinMap, FinSet
    from polycat.poly import PolyDiagram

    arities = list(arities)
    n_dirs = sum(arities)
    dir_label = list(range(n_dirs))
    rng.shuffle(dir_label)
    dir_shape = [0] * n_dirs
    d = 0
    for v, a in enumerate(arities):
        for _ in range(a):
            dir_shape[dir_label[d]] = v
            d += 1
    one, shapes, dirs = FinSet(1), FinSet(len(arities)), FinSet(n_dirs)
    return PolyDiagram(
        source=one, dirs=dirs, shapes=shapes, target=one,
        dir_sort=FinMap(dirs, one, (0,) * n_dirs),
        dir_shape=FinMap(dirs, shapes, tuple(dir_shape)),
        shape_sort=FinMap(shapes, one, (0,) * len(arities)),
    )


# ---------------------------------------------------------------------------
# closed forms for single-sorted diagrams, given as lists of arities


def nat_count(src, dst) -> int:
    """Transformations between single-sorted extensions: by Yoneda each
    source shape of arity a picks a target shape w and a map from w's
    directions to a's, so the count is prod_v sum_w a_v ** b_w."""
    total = 1
    for a in src:
        total *= sum(a ** b for b in dst)
    return total


def tensor_arities(p1, p2) -> list[int]:
    return [a * b for a in p1 for b in p2]


def value_size(arities, n: int) -> int:
    """Size of the value of a single-sorted diagram at an n-element set."""
    return sum(n ** a for a in arities)


def compose_arities(q, p) -> list[int]:
    """Arities of q after p: a shape of q of arity b picks one shape of p
    per direction, and its arity is the sum of the picked arities."""
    out = []
    for b in q:
        partial = [0]
        for _ in range(b):
            partial = [s + a for s in partial for a in p]
        out.extend(partial)
    return out


def notation(arities) -> str:
    """Sum-of-monomials rendering, highest power first, e.g. 2X^2 + 1."""
    counts: dict[int, int] = {}
    for a in arities:
        counts[a] = counts.get(a, 0) + 1
    return monomials(counts)


def monomials(counts: dict[int, int]) -> str:
    """``notation`` for a diagram given as arity -> number of shapes."""
    if not counts:
        return "0"
    terms = []
    for e in sorted(counts, reverse=True):
        c = counts[e]
        if e == 0:
            terms.append(str(c))
        else:
            x = "X" if e == 1 else f"X^{e}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms)
