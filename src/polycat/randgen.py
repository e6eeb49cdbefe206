"""Seeded random generators for families, diagrams, spans and
simulation cells. Everything takes an explicit random.Random so runs
are reproducible from a seed."""
from __future__ import annotations

import random

from . import fam, finset
from .errors import ShapeMismatch
from .fam import Family, Span
from .finset import FinMap, FinSet
from .poly import PolyDiagram
from .sim import SimCell, random_cell, require_endo

__all__ = [
    "random_family",
    "random_finmap",
    "random_diagram",
    "random_endo",
    "random_span",
    "random_sim_cell",
]


def random_finmap(rng: random.Random, dom: FinSet, cod: FinSet) -> FinMap:
    """A uniform map, one draw per point of dom. Refuses a nonempty dom
    into an empty cod, which has no map."""
    if dom.size and not cod.size:
        raise ShapeMismatch(f"no map from a set of size {dom.size} to the empty set")
    return FinMap(dom, cod, tuple(rng.randrange(cod.size) for _ in dom))


def random_family(rng: random.Random, base: FinSet,
                  max_fiber: int = 3) -> Family:
    sizes = [rng.randint(0, max_fiber) for _ in base]
    return fam.family_from_fibers(base, sizes)


def random_diagram(rng: random.Random, src: FinSet, tgt: FinSet,
                   max_shapes: int = 3, max_fiber: int = 2) -> PolyDiagram:
    """A random diagram between the given sort sets. Refuses an empty
    target, which no shape can sit over, and an empty source when a
    direction is drawn (random_finmap)."""
    shapes = FinSet(rng.randint(1, max_shapes))
    dir_shape = finset.blocks(shapes, [rng.randint(0, max_fiber) for _ in shapes])
    return PolyDiagram(
        source=src,
        dirs=dir_shape.dom,
        shapes=shapes,
        target=tgt,
        dir_sort=random_finmap(rng, dir_shape.dom, src),
        dir_shape=dir_shape,
        shape_sort=random_finmap(rng, shapes, tgt),
    )


def random_endo(rng: random.Random, max_sorts: int = 2,
                max_shapes: int = 3, max_fiber: int = 2) -> PolyDiagram:
    sorts = FinSet(rng.randint(1, max_sorts))
    return random_diagram(rng, sorts, sorts, max_shapes, max_fiber)


def random_span(rng: random.Random, left: FinSet, right: FinSet,
                max_states: int = 2) -> Span:
    """A span with 1..max_states states and random legs; max_states 0
    asks for the empty span."""
    carrier = FinSet(rng.randint(min(1, max_states), max_states))
    return Span(carrier, random_finmap(rng, carrier, left),
                random_finmap(rng, carrier, right))


def random_sim_cell(rng: random.Random, p1: PolyDiagram, p2: PolyDiagram,
                    max_states: int = 2) -> SimCell | None:
    """A random cell over a random span (random_span: nonempty unless
    max_states is 0), or None when none of 40 drawn spans admits one.
    Given the drawn span, the cell is uniform over the cells on it
    (sim.random_cell). The span draw is not uniform: a span that admits
    no cell is redrawn. Many diagram pairs admit no cell over any
    nonempty span, so callers count the None draws they skip."""
    require_endo(p1, p2)
    for _ in range(40):
        span = random_span(rng, p1.source, p2.source, max_states)
        c = random_cell(rng, p1, p2, span)
        if c is not None:
            return c
    return None
