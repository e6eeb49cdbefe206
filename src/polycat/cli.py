"""Command line entry point: load a document, run one construction or
law suite, print a deterministic report.

Exit codes: 0 success, 1 parse error (document or command line),
2 validation failure, 3 size guard exceeded, 4 law violation found.
The environment variable POLYCAT_GUARD overrides the enumeration bound;
it is read on every call, and a value that is not a nonnegative integer
is a parse error.

The argument parser is built once per process, on the first call of
main, and reused by every later call: parsing keeps no state between
calls (each makes a new namespace, and help is formatted when asked for).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import doc as docmod
from . import finset, nat, poly, sim, smcc, suites
from .errors import (OracleNotNatural, ParseError, SizeGuardExceeded,
                     ValidationError)
from .poly import PolyDiagram
from .report import Report, decimal


class _Parser(argparse.ArgumentParser):
    """Command line misuse is reported through the parse-error exit."""

    def error(self, message: str):
        raise ParseError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="polycat",
                     description="exact checks for polynomial diagrams over finite sets")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name: str, help_text: str, document: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if document:
            p.add_argument("document", help="path to a JSON document")
        return p

    p = cmd("eval", "evaluate a diagram's extension at a family")
    p.add_argument("--diagram", required=True)
    p.add_argument("--family", required=True)

    p = cmd("compose", "compose two diagrams (outer after inner)")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--structural", action="store_true",
                      help="build the composite by pullbacks")
    mode.add_argument("--direct", action="store_true",
                      help="build the composite by enumeration (default)")
    mode.add_argument("--both", action="store_true",
                      help="build both composites and check they are isomorphic")
    p.add_argument("--family", help="also verify two-stage evaluation at this family")
    p.add_argument("--max-shapes", type=int, default=64,
                   help="largest composite, in shapes, that --both compares")
    p.add_argument("--json", action="store_true", help="print the composite as JSON")

    for name, help_text in (("tensor", "tensor two diagrams"),
                            ("plus", "sum two diagrams"),
                            ("hom", "internal hom of two single-sorted diagrams")):
        p = cmd(name, help_text)
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--json", action="store_true", help="print the result as JSON")

    p = cmd("bang", "truncated replication of an endo diagram")
    p.add_argument("--diagram", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--json", action="store_true", help="print the result as JSON")

    p = cmd("dual", "dualize a single-sorted diagram")
    p.add_argument("--diagram", required=True)
    p.add_argument("--json", action="store_true", help="print the result as JSON")

    p = cmd("count-nat", "count natural transformations between extensions")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)

    p = cmd("iso-check", "decide whether two diagrams are isomorphic")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = cmd("sim-validate", "report the four simulation cell equations "
                            "(checked once, when the cell is loaded)")
    p.add_argument("--cell", required=True)

    p = cmd("sim-compose", "compose two simulation cells (second after first)")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--json", action="store_true", help="print the composite cell as JSON")

    p = cmd("sim-eval", "evaluate a simulation cell at a family")
    p.add_argument("--cell", required=True)
    p.add_argument("--family", required=True)

    p = cmd("curry", "curry one enumerated transformation across the adjunction")
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--p3", required=True)
    p.add_argument("--index", type=int, default=0,
                   help="which transformation out of the tensor to curry")
    p.add_argument("--limit", type=int, default=512,
                   help="largest transformation count to enumerate")

    p = cmd("check-laws", "run one named law suite", document=False)
    p.add_argument("document", nargs="?",
                   help="optional document; suites generate their own cases")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(suites.suite_names()))
    p.add_argument("--seed", type=int, default=0)

    p = cmd("day-oracle", "compare the convolution formula with the rectangle count")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--skeleton", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = cmd("double-dual", "compare a X^b against its double dual", document=False)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    return parser


def _describe(p: PolyDiagram) -> str:
    if p.source.size == 1 and p.target.size == 1:
        return poly.notation(p)
    return (f"{p.shapes.size} shapes, {p.dirs.size} directions "
            f"({p.source.size} sorts -> {p.target.size} sorts)")


def _print_json(tree) -> None:
    print(json.dumps(tree, indent=2, sort_keys=True))


def _print_report(rep: Report) -> int:
    print(rep.render())
    return 0 if rep.ok else 4


def _run(args: argparse.Namespace) -> int:
    command = args.command

    if command == "check-laws":
        if args.document is not None:
            docmod.load_document(args.document)
        return _print_report(suites.run_suite(args.suite, args.seed))

    if command == "double-dual":
        rep = smcc.double_dual_report(args.a, args.b)
        print(rep.lines[-1])
        return 0 if rep.ok else 4

    document = docmod.load_document(args.document)

    if command == "eval":
        p = document.diagram(args.diagram)
        x = document.family(args.family)
        sizes = poly.extension_fiber_sizes(p, x)
        if p.target.size == 1:
            print(f"fiber size {decimal(sizes[0])}")
        else:
            print("fiber sizes: " + " ".join(map(decimal, sizes)))
        return 0

    if command == "compose":
        q = document.diagram(args.outer)
        p = document.diagram(args.inner)
        exit_code = 0
        if args.both:
            s = poly.compose_structural(q, p)
            d = poly.compose_direct(q, p)
            if not args.json:
                print(f"structural: {_describe(s)}")
                print(f"direct: {_describe(d)}")
            if d.shapes.size > args.max_shapes:
                raise SizeGuardExceeded(
                    f"composite has {d.shapes.size} shapes, "
                    f"--max-shapes is {args.max_shapes}")
            witness = poly.iso_check(s, d)
            if witness is None:
                print("structural and direct composites: NO ISO WITNESS")
                exit_code = 4
            elif not args.json:
                print("structural and direct composites: ISO")
            composite = d
        elif args.structural:
            composite = poly.compose_structural(q, p)
        else:
            composite = poly.compose_direct(q, p)
        if args.json:
            _print_json(docmod.encode_diagram(composite))
        elif not args.both:
            print(f"composite: {_describe(composite)}")
        if args.family is not None:
            rep = poly.compose_witness(q, p, document.family(args.family))
            exit_code = _print_report(rep) or exit_code
        return exit_code

    if command in ("tensor", "plus", "hom", "bang", "dual"):
        label = command
        if command == "bang":
            if args.depth < 0:
                raise ValidationError("--depth must be nonnegative")
            label = f"bang depth {args.depth}"
            result = poly.bang_truncated(document.diagram(args.diagram), args.depth)
        elif command == "dual":
            result = poly.dualize(document.diagram(args.diagram))
        else:
            build = {"tensor": poly.tensor, "plus": poly.plus,
                     "hom": poly.hom_single_sorted}[command]
            result = build(document.diagram(args.left), document.diagram(args.right))
        if args.json:
            _print_json(docmod.encode_diagram(result))
        else:
            print(f"{label}: {_describe(result)}")
        return 0

    if command == "count-nat":
        n = nat.count_nat(document.diagram(args.src), document.diagram(args.dst))
        print(f"natural transformations: {decimal(n)}")
        return 0

    if command == "iso-check":
        left = document.diagram(args.left)
        right = document.diagram(args.right)
        witness = poly.iso_check(left, right)
        verdict = "ISO" if witness is not None else "NOT ISO"
        print(f"{_describe(left)} vs {_describe(right)} : {verdict}")
        return 0

    if command == "sim-validate":
        cell = document.simulation(args.cell)
        return _print_report(sim.validate(cell))

    if command == "sim-compose":
        first = document.simulation(args.first)
        second = document.simulation(args.second)
        composite = sim.compose_sim(second, first)
        if args.json:
            _print_json(docmod.encode_simulation(composite))
        else:
            print(f"composite cell: {composite.span.carrier.size} states, "
                  f"{len(composite.pairs)} shape entries")
        return 0

    if command == "sim-eval":
        cell = document.simulation(args.cell)
        x = document.family(args.family)
        m = sim.eval_sim(cell, x)
        print("src fiber sizes: " + " ".join(str(n) for n in m.src.fiber_sizes()))
        print("dst fiber sizes: " + " ".join(str(n) for n in m.dst.fiber_sizes()))
        print("table: " + " ".join(str(v) for v in m.map.table))
        return 0

    if command == "curry":
        c = smcc.Currying(document.diagram(args.p1), document.diagram(args.p2),
                          document.diagram(args.p3))
        n_left, n_right = c.counts()
        print(f"transformations: {decimal(n_left)} out of the tensor, "
              f"{decimal(n_right)} into the hom")
        if n_left != n_right:
            print("counts differ: LAW VIOLATION")
            return 4
        if n_left == 0:
            print("nothing to curry")
            return 0
        if not 0 <= args.index < n_left:
            raise ValidationError(f"--index must be in 0..{decimal(n_left - 1)}")
        if n_left > args.limit:
            raise SizeGuardExceeded(
                f"{decimal(n_left)} transformations exceed the enumeration limit {args.limit}")
        # both sides are listed before either transpose, so a transpose
        # that is a listed member is not built again
        tables = list(c.out_of_tensor)[args.index]
        into_hom = c.into_hom
        curried = c.curry(tables)
        print(f"transformation {args.index} of {n_left} curries to "
              f"{into_hom[curried]} of {n_right}")
        if c.uncurry(curried) != tables:
            print("uncurrying does not return the original: LAW VIOLATION")
            return 4
        print("uncurrying returns the original transformation")
        return 0

    # day-oracle: the parser's subcommands are required, so it refuses any
    # other command before this function runs
    rep = smcc.day_coend_oracle(
        document.diagram(args.left), document.diagram(args.right),
        document.family(args.family), skeleton_bound=args.skeleton,
        seed=args.seed)
    return _print_report(rep)


def main(argv: list[str] | None = None) -> int:
    guard = os.environ.get("POLYCAT_GUARD")
    previous = finset.guard_limit()
    try:
        if guard is not None:
            try:
                limit = int(guard)
            except ValueError as e:
                raise ParseError(f"POLYCAT_GUARD must be an integer: {guard!r}") from e
            if limit < 0:
                raise ParseError(f"POLYCAT_GUARD must be nonnegative: {guard!r}")
            finset.set_guard_limit(limit)
        args = _build_parser().parse_args(argv)
        return _run(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except SizeGuardExceeded as e:
        print(f"size guard exceeded: {e}", file=sys.stderr)
        return 3
    except (OracleNotNatural, ValidationError) as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return 2
    finally:
        finset.set_guard_limit(previous)


if __name__ == "__main__":
    sys.exit(main())
