"""Property tests for the two outside inputs, documents and command lines.

Random JSON trees given to the parser raise only ParseError or
ValidationError, and random argv for the document commands end in an
exit code 0-4 with at most one stderr line and no traceback. Most of
what is drawn is well formed, with a slot now and then replaced by junk,
so that the inputs get past the first check and reach every decoder,
constructor and command behind it.
"""
import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from polycat import cli, doc
from polycat.errors import ParseError, ValidationError

EXAMPLES = Path(__file__).parent.parent / "docs" / "examples"
KEYS = ["size", "labels", "dom", "cod", "table", "base", "fibers", "proj", "total",
        "source", "target", "shapes", "sort", "dir_sorts", "carrier", "left", "right",
        "span", "src", "dst", "alpha", "beta", "gamma"]

small = st.integers(0, 2)
scalar = st.one_of(st.none(), st.booleans(), st.integers(-1, 3),
                   st.sampled_from(["I", "f", "p", "ghost", "", 0.5]))
junk = st.recursive(scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)), max_leaves=6)


def paths(tree, prefix=()):
    """Every slot of a JSON tree, as the key path that reaches it."""
    if isinstance(tree, (dict, list)):
        for key, value in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield prefix + (key,)
            yield from paths(value, prefix + (key,))


@st.composite
def documents(draw) -> dict:
    """A document with every section, over two small sets, whose
    simulation tables fill the cell's (state, shape) pairs and their
    directions with values of the right kind; then up to three slots
    replaced by junk."""
    def ints(n: int, bound: int) -> list[int]:
        return [draw(st.integers(0, max(bound - 1, 0))) for _ in range(n)]

    size = {"I": draw(st.integers(1, 2)), "J": draw(small)}
    side = st.sampled_from(["I", "J"])
    dom, cod = draw(side), draw(side)
    diagrams = {}
    for name in ("p", "q"):
        source = draw(side)
        target = source if draw(st.integers(0, 3)) else draw(side)
        diagrams[name] = {"source": source, "target": target, "shapes": [
            {"sort": ints(1, size[target])[0],
             "dir_sorts": ints(draw(small), size[source])}
            for _ in range(draw(small))]}
    states = draw(small)
    ends = diagrams["p"]["source"], diagrams["q"]["source"]
    left, right = ints(states, size[ends[0]]), ints(states, size[ends[1]])
    p_shapes, q_shapes = diagrams["p"]["shapes"], diagrams["q"]["shapes"]
    q_fibers, start = [], 0
    for shape in q_shapes:
        q_fibers.append(range(start, start + len(shape["dir_sorts"])))
        start += len(shape["dir_sorts"])
    alpha, beta, gamma = [], [], []
    p_dirs = sum(len(shape["dir_sorts"]) for shape in p_shapes)
    for rho in range(states):
        for v, shape in enumerate(p_shapes):
            if shape["sort"] != left[rho] or not q_shapes:
                continue
            w = ints(1, len(q_shapes))[0]
            alpha.append([rho, v, w])
            for u in q_fibers[w]:
                beta.append([rho, v, u] + ints(1, p_dirs))
                gamma.append([rho, v, u] + ints(1, states))
    tree = {
        "sets": {"I": draw(st.sampled_from([size["I"], {"size": size["I"]}])), "J": size["J"]},
        "maps": {"f": {"dom": dom, "cod": cod, "table": ints(size[dom], size[cod])}},
        "families": {"x": {"base": "I", "fibers": ints(size["I"], 3)}},
        "diagrams": diagrams,
        "spans": {"r": {"carrier": states,
                        "left": {"dom": states, "cod": ends[0], "table": left},
                        "right": {"dom": states, "cod": ends[1], "table": right}}},
        "simulations": {"c": {"span": "r", "src": "p", "dst": "q",
                              "alpha": alpha, "beta": beta, "gamma": gamma}},
    }
    for _ in range(draw(st.integers(0, 3))):
        *parent, key = draw(st.sampled_from(list(paths(tree))))
        node = tree
        for step in parent:
            node = node[step]
        node[key] = draw(junk)
    return tree


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(documents())
def test_random_documents_raise_only_parse_or_validation_errors(tree):
    try:
        doc.parse_document(json.dumps(tree))
    except (ParseError, ValidationError):
        pass


# names defined in each example document, by the flag kind that reads them
NAMES = {
    "list.json": {"diagram": ["list3", "square", "two-x"], "family": ["two", "three"],
                  "cell": ["ghost"]},
    "simulation.json": {"diagram": ["p", "q"], "family": ["pair"],
                        "cell": ["embed", "ident-p"]},
}
# small values, and values past every default limit and size guard
number = st.one_of(st.integers(-1, 3),
                   st.sampled_from([-10**12, 40, 10**6 + 1, 10**12])).map(str)
FLAGS = {
    "eval": {"--diagram": "diagram", "--family": "family"},
    "compose": {"--outer": "diagram", "--inner": "diagram", "--family": "family",
                "--max-shapes": number, "--structural": None, "--direct": None,
                "--both": None, "--json": None},
    "tensor": {"--left": "diagram", "--right": "diagram", "--json": None},
    "plus": {"--left": "diagram", "--right": "diagram", "--json": None},
    "hom": {"--left": "diagram", "--right": "diagram", "--json": None},
    "bang": {"--diagram": "diagram", "--depth": number, "--json": None},
    "dual": {"--diagram": "diagram", "--json": None},
    "count-nat": {"--src": "diagram", "--dst": "diagram"},
    "iso-check": {"--left": "diagram", "--right": "diagram"},
    "sim-validate": {"--cell": "cell"},
    "sim-compose": {"--first": "cell", "--second": "cell", "--json": None},
    "sim-eval": {"--cell": "cell", "--family": "family"},
    "curry": {"--p1": "diagram", "--p2": "diagram", "--p3": "diagram",
              "--index": number, "--limit": number},
    "day-oracle": {"--left": "diagram", "--right": "diagram", "--family": "family",
                   "--skeleton": number, "--seed": number},
}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(FLAGS)))
    document = draw(st.sampled_from(sorted(NAMES)))
    argv = [command, str(EXAMPLES / document)]
    flags = FLAGS[command]
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 9)) == 0:
            continue  # leave out a flag now and then, required or not
        argv.append(flag)
        kind = flags[flag]
        if isinstance(kind, str):
            names = NAMES[document][kind]
            if draw(st.integers(0, 7)) == 0:  # a name of another kind, or none
                names = [n for pool in NAMES[document].values() for n in pool] + ["ghost"]
            argv.append(draw(st.sampled_from(names)))
        elif kind is not None:
            argv.append(draw(kind))
    return argv


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(argvs())
def test_random_command_lines_exit_with_one_line_at_most(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
