"""The command line's contract under a seeded fuzzer: a few hundred
in-process calls of cli.main on random documents, most of them edited
at random, with random names, flag values and POLYCAT_GUARD values.

Every call must exit with one of the documented codes 0-4 and let no
exception escape; an exit 1, 2 or 3 prints one message line on stderr,
with the prefix of its code, and an exit 0 or 4 prints nothing there.
count-nat never exits 3 (pure counting never guards). Every 20th call
is run again and must print the same bytes, and a small sample runs
through `python -m polycat.cli` in a subprocess and must agree with the
in-process call.

The test asserts the contract only, never which exit a case gets, so a
change that lifts a refusal moves cases from exit 2 or 3 to exit 0
without an edit here. Nothing is timed.
"""
import copy
import json
import os
import random
import subprocess
import sys

from polycat import cli, doc, randgen
from polycat.finset import FinSet

CALLS = 400
PREFIX = {1: "parse error: ", 2: "validation failure: ", 3: "size guard exceeded: "}
GUARDS = (None, "0", "5", "200", "5000")
# negative, zero, small and large flag values; 10**9 passes every int flag's
# parser and leaves the refusal to the library's guards
NUMBERS = (-3, -1, 0, 1, 2, 3, 5, 100, 10**9)
# replacements for a document value: other JSON types, negatives and a
# number too large to be a size, so that building any list of it fails at once
REPLACEMENTS = ("a", None, [], {}, True, 1.5, -1, -7, 10**30)

DIAGRAMS, FAMILIES, CELLS = ("p", "q", "r", "s"), ("x", "y"), ("c", "e")
UNDEFINED = "nope"

# per command: (flag, kind, required); kinds name a diagram, a family, a
# cell, an integer, or a switch
COMMANDS = {
    "eval": (("--diagram", "d", True), ("--family", "f", True)),
    "compose": (("--outer", "d", True), ("--inner", "d", True), ("--family", "f", False),
                ("--max-shapes", "n", False), ("--json", "switch", False),
                ("--mode", "mode", False)),
    "tensor": (("--left", "d", True), ("--right", "d", True), ("--json", "switch", False)),
    "plus": (("--left", "d", True), ("--right", "d", True), ("--json", "switch", False)),
    "hom": (("--left", "d", True), ("--right", "d", True), ("--json", "switch", False)),
    "bang": (("--diagram", "d", True), ("--depth", "n", True), ("--json", "switch", False)),
    "dual": (("--diagram", "d", True), ("--json", "switch", False)),
    "count-nat": (("--src", "d", True), ("--dst", "d", True)),
    "iso-check": (("--left", "d", True), ("--right", "d", True)),
    "sim-validate": (("--cell", "c", True),),
    "sim-compose": (("--first", "c", True), ("--second", "c", True),
                    ("--json", "switch", False)),
    "sim-eval": (("--cell", "c", True), ("--family", "f", True)),
    "curry": (("--p1", "d", True), ("--p2", "d", True), ("--p3", "d", True),
              ("--index", "n", False), ("--limit", "n", False)),
    "day-oracle": (("--left", "d", True), ("--right", "d", True), ("--family", "f", True),
                   ("--skeleton", "n", True), ("--seed", "n", False)),
    "double-dual": (("--a", "n", True), ("--b", "n", True)),
}


def _tree(rng):
    # three endo diagrams p, q, r over one or two sorts, one diagram s that
    # is not endo, two families, and cells p -> q and q -> r where drawn
    sorts = FinSet(rng.choice((1, 1, 2)))
    p, q, r = (randgen.random_diagram(rng, sorts, sorts, 3, 2) for _ in range(3))
    s = randgen.random_diagram(rng, sorts, FinSet(sorts.size % 2 + 1), 2, 2)
    tree = {"diagrams": {name: doc.encode_diagram(d) for name, d in zip(DIAGRAMS, (p, q, r, s))},
            "families": {name: doc.encode_family(randgen.random_family(rng, sorts, 3))
                         for name in FAMILIES}}
    cells = {}
    for name, (a, b) in zip(CELLS, ((p, q), (q, r))):
        cell = randgen.random_sim_cell(rng, a, b)
        if cell is not None:
            cells[name] = doc.encode_simulation(cell)
    if cells:
        tree["simulations"] = cells
    return tree


def _edit(rng, tree):
    # one random edit: half of the time an integer moved by a little, which
    # mostly leaves a document that parses; else, at a random node, a key
    # or list entry deleted, a list entry repeated, or the value replaced
    spots = []

    def walk(node):
        if isinstance(node, dict):
            keys = list(node)
        elif isinstance(node, list):
            keys = range(len(node))
        else:
            return
        for key in keys:
            spots.append((node, key))
            walk(node[key])

    walk(tree)
    integers = [(node, key) for node, key in spots if type(node[key]) is int]
    if integers and rng.random() < 0.5:
        node, key = rng.choice(integers)
        node[key] += rng.choice((-2, -1, 1, 2))
        return
    node, key = rng.choice(spots)
    kind = rng.randrange(3)
    if kind == 0:
        del node[key]
    elif kind == 1 and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = rng.choice(REPLACEMENTS)


def _name(rng, kind):
    if rng.random() < 0.08:
        return UNDEFINED
    return rng.choice({"d": DIAGRAMS, "f": FAMILIES, "c": CELLS}[kind])


def _argv(rng, path):
    command = rng.choice(sorted(COMMANDS))
    argv = [command] if command == "double-dual" else [command, path]
    for flag, kind, required in COMMANDS[command]:
        if rng.random() < (0.02 if required else 0.5):
            continue
        if kind == "switch":
            argv.append(flag)
        elif kind == "mode":
            argv.append(rng.choice(("--structural", "--direct", "--both")))
        elif kind == "n":
            argv += [flag, str(rng.choice(NUMBERS))]
        else:
            argv += [flag, _name(rng, kind)]
    return argv


def _cases(rng, tmp_path):
    """CALLS cases (argv, POLYCAT_GUARD value), each on a fresh document
    file: about half of the documents as drawn, the rest with one to three
    edits (_edit), and one in 40 not JSON at all or not there."""
    for i in range(CALLS):
        path = tmp_path / f"doc{i}.json"
        roll = rng.random()
        if roll < 0.0125:
            path.write_text("{\"diagrams\": ", encoding="utf-8")
        elif roll >= 0.025:
            tree = _tree(rng)
            if rng.random() >= 0.5:
                for _ in range(rng.randint(1, 3)):
                    _edit(rng, tree)
            path.write_text(json.dumps(tree), encoding="utf-8")
        yield _argv(rng, str(path)), rng.choice(GUARDS)


def _call(monkeypatch, capsys, argv, guard):
    if guard is None:
        monkeypatch.delenv("POLYCAT_GUARD", raising=False)
    else:
        monkeypatch.setenv("POLYCAT_GUARD", guard)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _check_contract(argv, guard, code, out, err):
    where = f"{argv} at POLYCAT_GUARD={guard}"
    assert code in (0, 1, 2, 3, 4), where
    if code in PREFIX:
        assert err.startswith(PREFIX[code]) and err.count("\n") == 1 \
            and err.endswith("\n"), (where, err)
    else:
        assert err == "", (where, err)
    if argv[0] == "count-nat":
        assert code != 3, (where, err)


def test_the_cli_keeps_its_contract_on_seeded_random_calls(monkeypatch, capsys, tmp_path):
    rng = random.Random(4)
    exits = dict.fromkeys(range(5), 0)
    sample = []
    for i, (argv, guard) in enumerate(_cases(rng, tmp_path)):
        code, out, err = _call(monkeypatch, capsys, argv, guard)
        _check_contract(argv, guard, code, out, err)
        exits[code] += 1
        if i % 20 == 0:
            assert _call(monkeypatch, capsys, argv, guard) == (code, out, err), argv
        if i % 50 == 7:
            sample.append((argv, guard, code, out, err))
    # the draws reach the library: most calls parse, and every code but the
    # law-violation exit occurs
    assert exits[0] + exits[2] + exits[3] > CALLS // 2, exits
    assert all(exits[k] for k in (0, 1, 2, 3)), exits

    for argv, guard, code, out, err in sample:
        env = {k: v for k, v in os.environ.items() if k != "POLYCAT_GUARD"}
        if guard is not None:
            env["POLYCAT_GUARD"] = guard
        done = subprocess.run([sys.executable, "-m", "polycat.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err), argv
