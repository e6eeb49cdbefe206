"""The JSON document layer: both input forms for each kind, reference
resolution, error taxonomy, and exact serialize/parse round trips."""
import json
import random

import pytest

from polycat import doc, fam, finset, poly, randgen, sim
from polycat.errors import ParseError, ValidationError


def parse(tree) -> doc.Document:
    return doc.parse_document(json.dumps(tree))


def test_sets_inline_named_and_labeled():
    d = parse({"sets": {"I": 3, "L": {"size": 2, "labels": ["a", "b"]}}})
    assert d.sets["I"] == finset.FinSet(3)
    assert d.sets["L"].labels == ("a", "b")


def test_references_resolve_between_and_within_sections():
    d = parse({
        "sets": {"I": 2},
        "maps": {"f": {"dom": "I", "cod": "I", "table": [1, 0]},
                 "g": "f"},
        "families": {"x": {"base": "I", "fibers": [1, 2]}},
        "spans": {"r": {"carrier": "I", "left": "f", "right": "g"}},
    })
    assert d.maps["g"] == d.maps["f"]
    assert d.spans["r"].left == d.maps["f"]
    assert d.families["x"].fiber_sizes() == (1, 2)


def test_family_proj_form_expresses_non_block_numbering():
    d = parse({"families": {"x": {"base": 2, "proj": [1, 0, 1]}}})
    assert d.families["x"].fiber(0) == (1,)
    assert d.families["x"].fiber(1) == (0, 2)


def test_diagram_declarative_and_table_forms_agree():
    declarative = parse({"diagrams": {"p": {
        "source": 2, "target": 2,
        "shapes": [{"sort": 0, "dir_sorts": [0, 1]},
                   {"sort": 1, "dir_sorts": []}]}}})
    table = parse({"diagrams": {"p": {
        "source": 2, "target": 2, "dirs": 2, "shapes": 2,
        "dir_sort": [0, 1], "dir_shape": [0, 0], "shape_sort": [0, 1]}}})
    assert declarative.diagram("p") == table.diagram("p")


def test_simulation_is_validated_eagerly_on_load():
    base = {
        "diagrams": {"p": {"source": 1, "target": 1,
                           "shapes": [{"sort": 0, "dir_sorts": [0]}]}},
        "spans": {"r": {"carrier": 1,
                        "left": {"dom": 1, "cod": 1, "table": [0]},
                        "right": {"dom": 1, "cod": 1, "table": [0]}}},
        "simulations": {"c": {"span": "r", "src": "p", "dst": "p",
                              "alpha": [[0, 0, 0]],
                              "beta": [[0, 0, 0, 0]],
                              "gamma": [[0, 0, 0, 0]]}},
    }
    d = parse(base)
    assert sim.validate(d.simulation("c")).ok
    bad = json.loads(json.dumps(base))
    bad["simulations"]["c"]["alpha"] = [[0, 0, 9]]
    with pytest.raises(ValidationError):
        parse(bad)


@pytest.mark.parametrize("change, message", [
    ({"beta": [[0, 0, 0, 1], [0, 1, 1, 1]]},
     "backward direction leaves the shape's fiber at (state 0, shape 0, direction 0)"),
    ({"alpha": [[0, 0, 2], [0, 1, 1]]}, "shape table value out of range at (0, 0)"),
    ({"dst": {"source": 1, "target": 2, "shapes": []}}, "simulations relate endo diagrams"),
])
def test_simulation_failures_name_the_simulation(change, message):
    tree = {
        "diagrams": {"p": {"source": 1, "target": 1,
                           "shapes": [{"sort": 0, "dir_sorts": [0]},
                                      {"sort": 0, "dir_sorts": [0]}]}},
        "spans": {"r": {"carrier": 1,
                        "left": {"dom": 1, "cod": 1, "table": [0]},
                        "right": {"dom": 1, "cod": 1, "table": [0]}}},
        "simulations": {"c": {"span": "r", "src": "p", "dst": "p",
                              "alpha": [[0, 0, 0], [0, 1, 1]],
                              "beta": [[0, 0, 0, 0], [0, 1, 1, 1]],
                              "gamma": [[0, 0, 0, 0], [0, 1, 1, 0]]}},
    }
    parse(tree)  # the identity cell
    tree["simulations"]["c"].update(change)
    with pytest.raises(ValidationError) as exc:
        parse(tree)
    assert str(exc.value) == f"simulations.c: {message}"


@pytest.mark.parametrize("tree, fragment", [
    ("{", "not valid JSON"),
    ({"bogus": {}}, "unknown sections"),
    ({"sets": {"a": True}}, "boolean"),
    ({"sets": {"a": {"size": 2, "colour": 1}}}, "unknown set keys"),
    ({"sets": {"a": -1}}, "nonnegative"),
    ({"maps": {"f": {"dom": 1, "cod": "missing", "table": [0]}}}, "no set named"),
    ({"maps": {"f": {"dom": 1, "cod": 1}}}, "needs dom, cod and table"),
    ({"families": {"x": {"base": 1}}}, "fibers or a proj"),
    ({"diagrams": {"p": {"source": 1, "target": 1,
                         "shapes": [{"sort": 0}]}}}, "needs sort and dir_sorts"),
    ({"diagrams": {"p": {"source": 1, "target": 1}}}, "table form needs"),
    ({"simulations": {"c": {"span": "r"}}}, "a simulation needs src"),
    ({"sets": {"I": {"size": True}}}, "set needs an integer size"),
    ({"diagrams": {"p": {"source": 1, "target": 1,
                         "shapes": [{"sort": True, "dir_sorts": []}]}}},
     "sort must be an integer"),
])
def test_malformed_documents_are_parse_errors(tree, fragment):
    text = tree if isinstance(tree, str) else json.dumps(tree)
    with pytest.raises(ParseError) as exc:
        doc.parse_document(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("tree", [
    {"maps": {"f": {"dom": 2, "cod": 1, "table": [0]}}},
    {"maps": {"f": {"dom": 1, "cod": 1, "table": [3]}}},
    {"families": {"x": {"base": 2, "fibers": [1]}}},
    {"diagrams": {"p": {"source": 1, "target": 1,
                        "shapes": [{"sort": 2, "dir_sorts": []}]}}},
])
def test_ill_typed_definitions_are_validation_failures(tree):
    with pytest.raises(ValidationError):
        parse(tree)


def test_duplicate_table_rows_are_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse({
            "diagrams": {"p": {"source": 1, "target": 1,
                               "shapes": [{"sort": 0, "dir_sorts": []}]}},
            "spans": {"r": {"carrier": 1,
                            "left": {"dom": 1, "cod": 1, "table": [0]},
                            "right": {"dom": 1, "cod": 1, "table": [0]}}},
            "simulations": {"c": {"span": "r", "src": "p", "dst": "p",
                                  "alpha": [[0, 0, 0], [0, 0, 0]],
                                  "beta": [], "gamma": []}},
        })
    assert "duplicate" in str(exc.value)


def test_unknown_name_lookup_is_a_parse_error():
    d = parse({"sets": {"I": 1}})
    with pytest.raises(ParseError) as exc:
        d.diagram("ghost")
    assert "no diagram named" in str(exc.value)


@pytest.mark.parametrize("kind, known", [
    ("family", "pair"),
    ("diagram", "p, q"),
    ("span", "ident"),
    ("simulation", "embed, ident-p"),
])
def test_unknown_name_lookup_names_the_kind_in_the_singular(kind, known):
    with open("docs/examples/simulation.json") as f:
        d = doc.parse_document(f.read())
    with pytest.raises(ParseError, match=f"^no {kind} named 'ghost' \\({known}\\)$"):
        getattr(d, kind)("ghost")


def test_random_document_round_trips_exactly():
    rng = random.Random(20260819)
    d = doc.Document()
    d.sets["I"] = finset.FinSet(2)
    d.sets["L"] = finset.FinSet(3, ("x", "y", "z"))
    d.maps["f"] = randgen.random_finmap(rng, finset.FinSet(4), finset.FinSet(2))
    d.families["x"] = randgen.random_family(rng, finset.FinSet(3), max_fiber=3)
    for k in range(6):
        p = randgen.random_diagram(rng, finset.FinSet(rng.randint(1, 3)),
                                   finset.FinSet(rng.randint(1, 3)),
                                   max_shapes=3, max_fiber=2)
        d.diagrams[f"p{k}"] = p
    endo = randgen.random_endo(rng, max_sorts=2, max_shapes=2, max_fiber=2)
    d.diagrams["endo"] = endo
    cell = None
    while cell is None:
        cell = randgen.random_sim_cell(rng, endo, endo)
    d.spans["r"] = cell.span
    d.simulations["c"] = cell
    text = doc.dump_document(d)
    again = doc.parse_document(text)
    assert again == d
    assert doc.dump_document(again) == text


def test_constructed_objects_survive_the_round_trip():
    square = poly.single_sorted((2,))
    two_x = poly.single_sorted((1, 1))
    d = doc.Document()
    d.diagrams["t"] = poly.tensor(square, two_x)
    d.diagrams["s"] = poly.plus(square, two_x)
    d.diagrams["h"] = poly.hom_single_sorted(two_x, square)
    d.diagrams["b"] = poly.bang_truncated(square, 2)
    d.diagrams["d"] = poly.dualize(square)
    d.diagrams["c"] = poly.compose_structural(two_x, square)
    again = doc.parse_document(doc.dump_document(d))
    assert again == d


def test_families_and_simulations_may_be_defined_as_another_name():
    with open("docs/examples/simulation.json") as fh:
        tree = json.load(fh)
    tree["families"]["again"] = "pair"
    tree["simulations"]["again"] = "embed"
    d = parse(tree)
    assert d.family("again") == d.family("pair")
    assert d.simulation("again") == d.simulation("embed")


def test_document_repr_counts_its_sections_and_equality_is_among_documents():
    assert repr(doc.Document()) == "Document(empty)"
    d = parse({"sets": {"I": 2, "J": 1}, "families": {"x": {"base": "I", "fibers": [1, 0]}}})
    assert repr(d) == "Document(2 sets, 1 families)"
    assert (doc.Document() == 1) is False
    assert doc.Document() != d


def test_loading_a_missing_path_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="^cannot read document: "):
        doc.load_document(str(tmp_path / "missing.json"))


def test_a_family_with_a_labeled_total_keeps_its_labels():
    total = finset.FinSet(3, ("a", "b", "c"))
    x = fam.Family(total, finset.FinSet(2), finset.FinMap(total, finset.FinSet(2), (1, 0, 1)))
    tree = doc.encode_family(x)
    assert tree == {"base": 2, "proj": [1, 0, 1],
                    "total": {"size": 3, "labels": ["a", "b", "c"]}}
    assert parse({"families": {"x": tree}}).family("x") == x
