"""The JSON document format: named definitions of sets, maps, families,
diagrams, spans and simulations, with references between sections.

A document is one JSON object with up to six sections::

    {
      "sets":        {"I": 2, "L": {"size": 2, "labels": ["a", "b"]}},
      "maps":        {"f": {"dom": "I", "cod": 1, "table": [0, 0]}},
      "families":    {"x": {"base": "I", "fibers": [2, 1]}},
      "diagrams":    {"p": {"source": "I", "target": "I", "shapes": [
                        {"sort": 0, "dir_sorts": [0, 1]}]}},
      "spans":       {"r": {"carrier": 1, "left": "f", "right": "f"}},
      "simulations": {"c": {"span": "r", "src": "p", "dst": "p",
                        "alpha": [[0, 0, 0]], "beta": [[0, 0, 0, 0]],
                        "gamma": [[0, 0, 0, 0]]}}
    }

Set slots take a name, a bare size, or an object with optional labels.
Map slots take a name or an inline definition. Diagrams come in two
forms: the declarative one above (a list of shapes, each with a target
sort and the source sorts of its directions), and the faithful
table form produced by the serializer, which preserves the exact
direction numbering of a constructed diagram::

    {"source": 1, "target": 1, "dirs": 3, "shapes": 2,
     "dir_sort": [0, 0, 0], "dir_shape": [0, 1, 1], "shape_sort": [0, 0]}

Unresolvable names and malformed structure raise ParseError; definitions
that parse but violate the declared conditions (non-total maps, broken
projections, simulation tables that fail their equations) raise
ValidationError. Loading validates everything: a simulation is checked
against its four cell equations once, when its cell is built.
"""
from __future__ import annotations

import json
from typing import Any

from .errors import ParseError, ValidationError
from .fam import Family, Span, family_from_fibers
from .finset import FinMap, FinSet
from .poly import PolyDiagram
from .sim import SimCell

SECTIONS = ("sets", "maps", "families", "diagrams", "spans", "simulations")


class Document:
    """Named objects of the six kinds, as decoded from one JSON tree."""

    def __init__(self) -> None:
        self.sets: dict[str, FinSet] = {}
        self.maps: dict[str, FinMap] = {}
        self.families: dict[str, Family] = {}
        self.diagrams: dict[str, PolyDiagram] = {}
        self.spans: dict[str, Span] = {}
        self.simulations: dict[str, SimCell] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in SECTIONS)

    def __repr__(self) -> str:
        counts = ", ".join(f"{len(getattr(self, s))} {s}" for s in SECTIONS
                           if getattr(self, s))
        return f"Document({counts or 'empty'})"

    def family(self, name: str) -> Family:
        return self._pick(self.families, "family", name)

    def diagram(self, name: str) -> PolyDiagram:
        return self._pick(self.diagrams, "diagram", name)

    def span(self, name: str) -> Span:
        return self._pick(self.spans, "span", name)

    def simulation(self, name: str) -> SimCell:
        return self._pick(self.simulations, "simulation", name)

    @staticmethod
    def _pick(table: dict, kind: str, name: str):
        if name not in table:
            known = ", ".join(sorted(table)) or "none defined"
            raise ParseError(f"no {kind} named {name!r} ({known})")
        return table[name]


# ---------------------------------------------------------------------------
# decoding


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _int_list(spec: Any, what: str) -> tuple[int, ...]:
    # type(v) is int: JSON booleans are not integers here
    _expect(isinstance(spec, list) and all(type(v) is int for v in spec),
            f"{what} must be a list of integers")
    return tuple(spec)


def _decode_set(spec: Any, doc: Document, what: str) -> FinSet:
    if isinstance(spec, str):
        _expect(spec in doc.sets, f"{what}: no set named {spec!r}")
        return doc.sets[spec]
    if isinstance(spec, bool):
        raise ParseError(f"{what}: expected a set, got a boolean")
    if isinstance(spec, int):
        _expect(spec >= 0, f"{what}: set size must be nonnegative")
        return FinSet(spec)
    if isinstance(spec, dict):
        _expect(type(spec.get("size")) is int, f"{what}: set needs an integer size")
        labels = spec.get("labels")
        if labels is not None:
            _expect(isinstance(labels, list) and all(isinstance(s, str) for s in labels),
                    f"{what}: labels must be a list of strings")
            labels = tuple(labels)
        extra = set(spec) - {"size", "labels"}
        _expect(not extra, f"{what}: unknown set keys {sorted(extra)}")
        return FinSet(spec["size"], labels)
    raise ParseError(f"{what}: cannot read a set from {type(spec).__name__}")


def _decode_map(spec: Any, doc: Document, what: str) -> FinMap:
    if isinstance(spec, str):
        _expect(spec in doc.maps, f"{what}: no map named {spec!r}")
        return doc.maps[spec]
    _expect(isinstance(spec, dict), f"{what}: a map is a name or an object")
    extra = set(spec) - {"dom", "cod", "table"}
    _expect(not extra, f"{what}: unknown map keys {sorted(extra)}")
    _expect("dom" in spec and "cod" in spec and "table" in spec,
            f"{what}: a map needs dom, cod and table")
    dom = _decode_set(spec["dom"], doc, f"{what}.dom")
    cod = _decode_set(spec["cod"], doc, f"{what}.cod")
    return FinMap(dom, cod, _int_list(spec["table"], f"{what}.table"))


def _decode_family(spec: Any, doc: Document, what: str) -> Family:
    if isinstance(spec, str):
        _expect(spec in doc.families, f"{what}: no family named {spec!r}")
        return doc.families[spec]
    _expect(isinstance(spec, dict), f"{what}: a family is a name or an object")
    _expect("base" in spec, f"{what}: a family needs a base")
    base = _decode_set(spec["base"], doc, f"{what}.base")
    if "fibers" in spec:
        extra = set(spec) - {"base", "fibers"}
        _expect(not extra, f"{what}: unknown family keys {sorted(extra)}")
        sizes = _int_list(spec["fibers"], f"{what}.fibers")
        return family_from_fibers(base, sizes)
    _expect("proj" in spec, f"{what}: a family needs fibers or a proj table")
    extra = set(spec) - {"base", "proj", "total"}
    _expect(not extra, f"{what}: unknown family keys {sorted(extra)}")
    table = _int_list(spec["proj"], f"{what}.proj")
    total = (_decode_set(spec["total"], doc, f"{what}.total")
             if "total" in spec else FinSet(len(table)))
    return Family(total, base, FinMap(total, base, table))


def _decode_diagram(spec: Any, doc: Document, what: str) -> PolyDiagram:
    if isinstance(spec, str):
        _expect(spec in doc.diagrams, f"{what}: no diagram named {spec!r}")
        return doc.diagrams[spec]
    _expect(isinstance(spec, dict), f"{what}: a diagram is a name or an object")
    _expect("source" in spec and "target" in spec,
            f"{what}: a diagram needs source and target")
    source = _decode_set(spec["source"], doc, f"{what}.source")
    target = _decode_set(spec["target"], doc, f"{what}.target")
    shapes_spec = spec.get("shapes")
    if isinstance(shapes_spec, list):
        # declarative form: one entry per shape
        extra = set(spec) - {"source", "target", "shapes"}
        _expect(not extra, f"{what}: unknown diagram keys {sorted(extra)}")
        shape_sort: list[int] = []
        dir_sort: list[int] = []
        dir_shape: list[int] = []
        for v, entry in enumerate(shapes_spec):
            _expect(isinstance(entry, dict) and "sort" in entry and "dir_sorts" in entry,
                    f"{what}.shapes[{v}]: each shape needs sort and dir_sorts")
            _expect(type(entry["sort"]) is int, f"{what}.shapes[{v}].sort must be an integer")
            extra = set(entry) - {"sort", "dir_sorts"}
            _expect(not extra, f"{what}.shapes[{v}]: unknown keys {sorted(extra)}")
            shape_sort.append(entry["sort"])
            for i in _int_list(entry["dir_sorts"], f"{what}.shapes[{v}].dir_sorts"):
                dir_sort.append(i)
                dir_shape.append(v)
        shapes = FinSet(len(shapes_spec))
        dirs = FinSet(len(dir_sort))
        return PolyDiagram(
            source=source,
            dirs=dirs,
            shapes=shapes,
            target=target,
            dir_sort=FinMap(dirs, source, tuple(dir_sort)),
            dir_shape=FinMap(dirs, shapes, tuple(dir_shape)),
            shape_sort=FinMap(shapes, target, tuple(shape_sort)),
        )
    # faithful table form
    needed = {"source", "target", "dirs", "shapes", "dir_sort", "dir_shape", "shape_sort"}
    extra = set(spec) - needed
    _expect(not extra, f"{what}: unknown diagram keys {sorted(extra)}")
    _expect(needed <= set(spec), f"{what}: table form needs {sorted(needed)}")
    dirs = _decode_set(spec["dirs"], doc, f"{what}.dirs")
    shapes = _decode_set(spec["shapes"], doc, f"{what}.shapes")
    return PolyDiagram(
        source=source,
        dirs=dirs,
        shapes=shapes,
        target=target,
        dir_sort=FinMap(dirs, source, _int_list(spec["dir_sort"], f"{what}.dir_sort")),
        dir_shape=FinMap(dirs, shapes, _int_list(spec["dir_shape"], f"{what}.dir_shape")),
        shape_sort=FinMap(shapes, target, _int_list(spec["shape_sort"], f"{what}.shape_sort")),
    )


def _decode_span(spec: Any, doc: Document, what: str) -> Span:
    if isinstance(spec, str):
        _expect(spec in doc.spans, f"{what}: no span named {spec!r}")
        return doc.spans[spec]
    _expect(isinstance(spec, dict), f"{what}: a span is a name or an object")
    extra = set(spec) - {"carrier", "left", "right"}
    _expect(not extra, f"{what}: unknown span keys {sorted(extra)}")
    _expect("carrier" in spec and "left" in spec and "right" in spec,
            f"{what}: a span needs carrier, left and right")
    carrier = _decode_set(spec["carrier"], doc, f"{what}.carrier")
    return Span(carrier,
                _decode_map(spec["left"], doc, f"{what}.left"),
                _decode_map(spec["right"], doc, f"{what}.right"))


def _decode_table(spec: Any, arity: int, what: str) -> dict:
    _expect(isinstance(spec, list), f"{what} must be a list of entries")
    out: dict = {}
    for entry in spec:
        row = _int_list(entry, f"{what} entry")
        _expect(len(row) == arity + 1,
                f"{what} entries need {arity} key parts and one value")
        key = row[0] if arity == 1 else tuple(row[:arity])
        _expect(key not in out, f"{what}: duplicate entry for {key}")
        out[key] = row[arity]
    return out


def _decode_simulation(spec: Any, doc: Document, what: str) -> SimCell:
    if isinstance(spec, str):
        _expect(spec in doc.simulations, f"{what}: no simulation named {spec!r}")
        return doc.simulations[spec]
    _expect(isinstance(spec, dict), f"{what}: a simulation is a name or an object")
    extra = set(spec) - {"span", "src", "dst", "alpha", "beta", "gamma"}
    _expect(not extra, f"{what}: unknown simulation keys {sorted(extra)}")
    for key in ("span", "src", "dst", "alpha", "beta", "gamma"):
        _expect(key in spec, f"{what}: a simulation needs {key}")
    span = _decode_span(spec["span"], doc, f"{what}.span")
    src = _decode_diagram(spec["src"], doc, f"{what}.src")
    dst = _decode_diagram(spec["dst"], doc, f"{what}.dst")
    try:
        return SimCell(span, src, dst,
                       _decode_table(spec["alpha"], 2, f"{what}.alpha"),
                       _decode_table(spec["beta"], 3, f"{what}.beta"),
                       _decode_table(spec["gamma"], 3, f"{what}.gamma"))
    except ValidationError as e:
        raise ValidationError(f"{what}: {e}") from e


_DECODERS = {
    "sets": _decode_set,
    "maps": _decode_map,
    "families": _decode_family,
    "diagrams": _decode_diagram,
    "spans": _decode_span,
    "simulations": _decode_simulation,
}


def parse_document(text: str) -> Document:
    """Parse and fully validate one JSON document."""
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from e
    _expect(isinstance(tree, dict), "a document is one JSON object")
    extra = set(tree) - set(SECTIONS)
    _expect(not extra, f"unknown sections {sorted(extra)}")
    doc = Document()
    for section in SECTIONS:
        block = tree.get(section, {})
        _expect(isinstance(block, dict), f"section {section} must map names to definitions")
        decode = _DECODERS[section]
        for name, spec in block.items():
            _expect(isinstance(name, str) and name != "", f"{section}: names must be nonempty")
            getattr(doc, section)[name] = decode(spec, doc, f"{section}.{name}")
    return doc


def load_document(path: str) -> Document:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read document: {e}") from e
    return parse_document(text)


# ---------------------------------------------------------------------------
# encoding (always the faithful form; parse(dump(doc)) == doc)


def encode_set(s: FinSet) -> Any:
    if s.labels is None:
        return s.size
    return {"size": s.size, "labels": list(s.labels)}


def encode_map(f: FinMap) -> Any:
    return {"dom": encode_set(f.dom), "cod": encode_set(f.cod), "table": list(f.table)}


def encode_family(x: Family) -> Any:
    out: dict[str, Any] = {"base": encode_set(x.base), "proj": list(x.proj.table)}
    if x.total.labels is not None:
        out["total"] = encode_set(x.total)
    return out


def encode_diagram(p: PolyDiagram) -> Any:
    return {
        "source": encode_set(p.source),
        "target": encode_set(p.target),
        "dirs": encode_set(p.dirs),
        "shapes": encode_set(p.shapes),
        "dir_sort": list(p.dir_sort.table),
        "dir_shape": list(p.dir_shape.table),
        "shape_sort": list(p.shape_sort.table),
    }


def encode_span(r: Span) -> Any:
    return {"carrier": encode_set(r.carrier),
            "left": encode_map(r.left),
            "right": encode_map(r.right)}


def encode_simulation(c: SimCell) -> Any:
    return {
        "span": encode_span(c.span),
        "src": encode_diagram(c.src),
        "dst": encode_diagram(c.dst),
        "alpha": [[rho, v, w] for (rho, v), w in sorted(c.alpha.items())],
        "beta": [[rho, v, u, b] for (rho, v, u), b in sorted(c.beta.items())],
        "gamma": [[rho, v, u, g] for (rho, v, u), g in sorted(c.gamma.items())],
    }


_ENCODERS = {
    "sets": encode_set,
    "maps": encode_map,
    "families": encode_family,
    "diagrams": encode_diagram,
    "spans": encode_span,
    "simulations": encode_simulation,
}


def document_to_tree(doc: Document) -> dict:
    tree: dict[str, Any] = {}
    for section in SECTIONS:
        block = getattr(doc, section)
        if block:
            encode = _ENCODERS[section]
            tree[section] = {name: encode(obj) for name, obj in block.items()}
    return tree


def dump_document(doc: Document) -> str:
    return json.dumps(document_to_tree(doc), indent=2, sort_keys=True) + "\n"
