"""The library's refusals of ill-formed input that no other test
raises: each raises its own error class, whose exit code the command
line fixes (ShapeMismatch and ValidationError exit 2), with its own
message. One case per message."""
import random
import re

import pytest

from polycat import fam, finset, nat, poly, randgen, sim, smcc
from polycat.errors import ShapeMismatch, ValidationError
from polycat.fam import Span, family_from_fibers
from polycat.finset import FinMap, FinSet
from polycat.poly import DiagIso, DiagMorphism, PolyDiagram, single_sorted

ONE, TWO = FinSet(1), FinSet(2)
ID1, ID2 = finset.identity(ONE), finset.identity(TWO)
TO_ONE = FinMap(TWO, ONE, (0, 0))
X, X2, TWO_X = single_sorted((1,)), single_sorted((2,)), single_sorted((1, 1))
TWO_SORTED = poly.identity_diagram(TWO)
POINT = family_from_fibers(ONE, (1,))
OVER_TWO = family_from_fibers(TWO, (1, 1))


def _diagram(dir_shape: FinMap = ID1, shape_sort: FinMap = ID1) -> PolyDiagram:
    return PolyDiagram(source=ONE, dirs=ONE, shapes=ONE, target=ONE,
                       dir_sort=ID1, dir_shape=dir_shape, shape_sort=shape_sort)


def _square(top: FinMap, left: FinMap, bottom: FinMap, right: FinMap):
    return fam.PullbackSquare(top=top, left=left, bottom=bottom, right=right)


def _dm(src: PolyDiagram, dst: PolyDiagram, alpha: tuple, betas: tuple) -> DiagMorphism:
    return DiagMorphism(src, dst, FinMap(src.shapes, dst.shapes, alpha), betas)


CASES = [
    # fam
    (lambda: fam.FamMorphism(POINT, POINT, FinMap(TWO, ONE, (0, 0))),
     ShapeMismatch, "morphism endpoints do not match the families"),
    (lambda: Span(TWO, ID1, ID1), ShapeMismatch, "span legs must share the carrier as domain"),
    (lambda: _square(TO_ONE, ID1, ID1, ID1), ShapeMismatch,
     "square corner P: top/left domains differ"),
    (lambda: _square(ID1, ID1, ID1, TO_ONE), ShapeMismatch, "square edges do not meet"),
    (lambda: _square(ID1, ID1, FinMap(ONE, TWO, (0,)), ID1), ShapeMismatch,
     "square corner Z: bottom/right codomains differ"),
    (lambda: fam.beck_chevalley_check(fam.square_from_cospan(ID1, ID1), OVER_TWO),
     ShapeMismatch, "family must live over the bottom-left corner"),
    (lambda: fam.distributivity_check(ID1, ID1, OVER_TWO), ShapeMismatch,
     "family must live over dom(b)"),
    (lambda: fam.distributivity_square(ID2, ID1), ShapeMismatch,
     "need composable maps: cod(b) = dom(a)"),
    # finset
    (lambda: finset.set_guard_limit(-1), ValueError, "guard limit must be nonnegative"),
    (lambda: TWO.label(2), ShapeMismatch, "element 2 not in set of size 2"),
    (lambda: ID1.fiber(1), ShapeMismatch, "element 1 not in codomain of size 1"),
    (lambda: finset.constant(ONE, ONE, 1), ShapeMismatch, "constant value 1 outside codomain"),
    (lambda: finset.copair(ID2, ID1, finset.coproduct(ONE, ONE)), ShapeMismatch,
     "copairing legs do not match the coproduct"),
    # poly
    (lambda: _diagram(dir_shape=FinMap(ONE, TWO, (0,))), ShapeMismatch,
     "dir_shape must map dirs to shapes"),
    (lambda: _diagram(shape_sort=FinMap(ONE, TWO, (0,))), ShapeMismatch,
     "shape_sort must map shapes to target"),
    (lambda: poly.payload_sizes(X, OVER_TWO), ShapeMismatch,
     "family must live over the diagram's source"),
    (lambda: poly.compose_structural(TWO_SORTED, X), ShapeMismatch,
     "composition needs p.target = q.source"),
    (lambda: poly.reindex_diagram(X, TO_ONE, ID1), ValidationError,
     "reindexing requires bijections"),
    (lambda: poly.reindex_diagram(X, ID2, ID1), ShapeMismatch,
     "reindexing bijections must start at source/target"),
    (lambda: poly.dualize(TWO_SORTED), ValidationError, "dualization is single-sorted only"),
    (lambda: DiagIso(poly.identity_dm(X), poly.identity_dm(X2)), ShapeMismatch,
     "iso directions do not match up"),
    # forward then backward sends both shapes of 2X to its first
    (lambda: DiagIso(_dm(TWO_X, TWO_X, (0, 0), ((0,), (1,))), poly.identity_dm(TWO_X)),
     ValidationError, "shape maps are not mutually inverse"),
    # forward then backward is X's identity, backward then forward is not 2X's
    (lambda: DiagIso(_dm(X, TWO_X, (0,), ((0,),)), _dm(TWO_X, X, (0, 0), ((0,), (1,)))),
     ValidationError, "shape maps are not mutually inverse"),
    (lambda: poly.iso_check(X, TWO_SORTED), ShapeMismatch,
     "isomorphic diagrams must share source and target"),
    # nat
    (lambda: nat.transformation_check(nat.ExtFunctor(X), nat.ExtFunctor(TWO_SORTED),
                                      lambda x: None, bound=1),
     ShapeMismatch, "functors must be parallel"),
    # randgen
    (lambda: randgen.random_finmap(random.Random(0), ONE, FinSet(0)), ShapeMismatch,
     "no map from a set of size 1 to the empty set"),
    # sim
    (lambda: sim.plus_structure(X, X2).pair(sim.identity_sim(X), sim.identity_sim(X)),
     ShapeMismatch, "pairing needs cells into the two parts"),
    (lambda: sim.plus_structure(X, X2).copair(sim.identity_sim(X), sim.identity_sim(X)),
     ShapeMismatch, "copairing needs cells out of the two parts"),
    # smcc
    (lambda: smcc.epsilon(X, X, POINT, OVER_TWO), ShapeMismatch,
     "second family must live over the second diagram's sorts"),
    (lambda: smcc.theta(None, X, X, TWO_SORTED, POINT), ShapeMismatch,
     "target diagram must share the tensor's sorts"),
    (lambda: smcc.adjunction_count_check(X, X, TWO_SORTED), ValidationError,
     "the currying adjunction is single-sorted only"),
]


@pytest.mark.parametrize("call, error, message", CASES,
                         ids=[message for *_, message in CASES])
def test_refusal_raises_its_class_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert caught.type is error


def test_a_refused_guard_limit_keeps_the_limit():
    before = finset.guard_limit()
    with pytest.raises(ValueError):
        finset.set_guard_limit(-1)
    assert finset.guard_limit() == before
