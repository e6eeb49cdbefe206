"""Command line behavior: output lines, exit codes, JSON round trips,
and determinism. All invocations run in-process through main()."""
import json
import random
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from polycat import cli, doc, finset, nat, poly, randgen, smcc, suites
from polycat.errors import OracleNotNatural
from polycat.finset import FinSet
from polycat.report import Report, decimal

LIST_DOC = "docs/examples/list.json"
SIM_DOC = "docs/examples/simulation.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_truncated_list_prints_fiber_size_15(capsys):
    code, out, _ = run(capsys, "eval", LIST_DOC, "--diagram", "list3", "--family", "two")
    assert code == 0
    assert out == "fiber size 15\n"


def test_eval_multi_target_prints_all_sizes(capsys, tmp_path):
    path = tmp_path / "multi.json"
    path.write_text(json.dumps({
        "diagrams": {"p": {"source": 1, "target": 2, "shapes": [
            {"sort": 0, "dir_sorts": [0]},
            {"sort": 1, "dir_sorts": []},
            {"sort": 1, "dir_sorts": [0, 0]}]}},
        "families": {"x": {"base": 1, "fibers": [3]}},
    }))
    code, out, _ = run(capsys, "eval", str(path), "--diagram", "p", "--family", "x")
    assert code == 0
    assert out == "fiber sizes: 3 10\n"


@pytest.mark.parametrize("target", [1, 2])
def test_eval_prints_fiber_sizes_of_more_than_4300_digits(target, tmp_path):
    # X^5000 at a 10-element family has 10^5000 elements, beyond str()'s
    # digit limit; in a subprocess, so that the exit code is the real one
    path = tmp_path / "huge.json"
    shapes = [{"sort": 0, "dir_sorts": [0] * 5000}]
    line = "fiber size 1" + "0" * 5000
    if target == 2:
        shapes.append({"sort": 1, "dir_sorts": [0]})
        line = "fiber sizes: 1" + "0" * 5000 + " 10"
    path.write_text(json.dumps({
        "diagrams": {"p": {"source": 1, "target": target, "shapes": shapes}},
        "families": {"x": {"base": 1, "fibers": [10]}},
    }))
    done = subprocess.run([sys.executable, "-m", "polycat.cli", "eval", str(path),
                           "--diagram", "p", "--family", "x"],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == line + "\n"


def test_double_dual_prints_exact_counterexample_line(capsys):
    code, out, _ = run(capsys, "double-dual", "--a", "2", "--b", "2")
    assert code == 0
    assert out == "2X^2 vs 16X^4 : NOT ISO\n"


def test_double_dual_degenerate_case_is_iso(capsys):
    code, out, _ = run(capsys, "double-dual", "--a", "2", "--b", "1")
    assert code == 0
    assert out == "2X vs 2X : ISO\n"
    code, out, _ = run(capsys, "double-dual", "--a", "9", "--b", "1")
    assert code == 0
    assert out == "9X vs 9X : ISO\n"


def test_double_dual_over_the_guard_refuses_in_one_line(capsys):
    # the double dual has 3^64000 shapes; the guard's product stops at the
    # limit, so the refusal quotes the limit
    code, out, err = run(capsys, "double-dual", "--a", "3", "--b", "40")
    assert code == 3
    assert out == ""
    assert err == ("size guard exceeded: search too large: hom shape carrier has size "
                   "more than 1000000, guard limit is 1000000\n")


def test_double_dual_of_many_constant_shapes_refuses_before_building_them(capsys):
    # at b = 0 both duals have at most one shape, so only the a-fold sum
    # itself is large; it was built whole and raised MemoryError out of main
    code, out, err = run(capsys, "double-dual", "--a", str(10**9), "--b", "0")
    assert code == 3
    assert out == ""
    assert err == ("size guard exceeded: search too large: diagram shape carrier has "
                   "size 1000000000, guard limit is 1000000\n")


def test_eval_names_an_unknown_family_in_the_singular(capsys):
    code, out, err = run(capsys, "eval", LIST_DOC, "--diagram", "list3", "--family", "x")
    assert code == 1
    assert out == ""
    assert err == "parse error: no family named 'x' (three, two)\n"


def test_check_laws_tensor_unit_exits_zero(capsys):
    code, out, _ = run(capsys, "check-laws", "--suite", "tensor-unit")
    assert code == 0
    assert out.startswith("tensor unit laws: ok")


def test_check_laws_unknown_suite_is_validation_failure(capsys):
    code, _, err = run(capsys, "check-laws", "--suite", "no-such")
    assert code == 2
    assert "unknown suite" in err


def test_check_laws_failing_suite_exits_four(capsys, monkeypatch):
    monkeypatch.setitem(suites.SUITES, "always-red",
                        lambda seed=0: Report("always red", False, ("broken",)))
    code, out, _ = run(capsys, "check-laws", "--suite", "always-red")
    assert code == 4
    assert "always red: FAIL" in out


def test_check_laws_same_seed_byte_identical(capsys):
    _, out1, _ = run(capsys, "check-laws", "--suite", "kernel-witnesses", "--seed", "9")
    _, out2, _ = run(capsys, "check-laws", "--suite", "kernel-witnesses", "--seed", "9")
    assert out1 == out2


def test_compose_both_reports_iso_and_witnesses_evaluation(capsys):
    code, out, _ = run(capsys, "compose", LIST_DOC, "--outer", "square",
                       "--inner", "two-x", "--both", "--family", "three")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "structural: 4X^2"
    assert lines[1] == "direct: 4X^2"
    assert lines[2] == "structural and direct composites: ISO"
    assert "fiber sizes (36,) vs (36,)" in out


def test_compose_structural_and_direct_agree_on_notation(capsys):
    _, out_s, _ = run(capsys, "compose", LIST_DOC, "--outer", "two-x",
                      "--inner", "square", "--structural")
    _, out_d, _ = run(capsys, "compose", LIST_DOC, "--outer", "two-x",
                      "--inner", "square", "--direct")
    assert out_s == "composite: 2X^2\n"
    assert out_d == "composite: 2X^2\n"


def test_tensor_json_round_trips_to_the_constructed_diagram(capsys):
    code, out, _ = run(capsys, "tensor", LIST_DOC, "--left", "square",
                       "--right", "two-x", "--json")
    assert code == 0
    document = doc.parse_document(json.dumps({"diagrams": {"t": json.loads(out)}}))
    square = poly.single_sorted((2,))
    two_x = poly.single_sorted((1, 1))
    assert document.diagram("t") == poly.tensor(square, two_x)


def test_plus_hom_bang_dual_print_notation(capsys):
    assert run(capsys, "plus", LIST_DOC, "--left", "square", "--right", "square")[1] \
        == "plus: 2 shapes, 4 directions (2 sorts -> 2 sorts)\n"
    assert run(capsys, "hom", LIST_DOC, "--left", "two-x", "--right", "square")[1] \
        == "hom: X^4\n"
    assert run(capsys, "bang", LIST_DOC, "--diagram", "square", "--depth", "0")[1] \
        == "bang depth 0: X\n"
    assert run(capsys, "bang", LIST_DOC, "--diagram", "square", "--depth", "2")[1] \
        == "bang depth 2: 3 shapes, 7 directions (3 sorts -> 3 sorts)\n"
    assert run(capsys, "dual", LIST_DOC, "--diagram", "two-x")[1] == "dual: X^2\n"


def test_count_nat_matches_library(capsys):
    code, out, _ = run(capsys, "count-nat", LIST_DOC, "--src", "square",
                       "--dst", "two-x")
    assert code == 0
    assert out == "natural transformations: 4\n"


def test_count_nat_prints_counts_of_more_than_4300_digits(capsys, tmp_path):
    # X^10 into X^4400 has 10^4400 transformations, beyond str()'s digit limit
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"diagrams": {
        "p": {"source": 1, "target": 1, "shapes": [{"sort": 0, "dir_sorts": [0] * 10}]},
        "q": {"source": 1, "target": 1, "shapes": [{"sort": 0, "dir_sorts": [0] * 4400}]},
    }}))
    code, out, err = run(capsys, "count-nat", str(path), "--src", "p", "--dst", "q")
    assert (code, err) == (0, "")
    assert out == "natural transformations: 1" + "0" * 4400 + "\n"


def test_iso_check_verdicts(capsys):
    code, out, _ = run(capsys, "iso-check", LIST_DOC, "--left", "square",
                       "--right", "two-x")
    assert code == 0
    assert out == "X^2 vs 2X : NOT ISO\n"
    code, out, _ = run(capsys, "iso-check", LIST_DOC, "--left", "square",
                       "--right", "square")
    assert code == 0
    assert out == "X^2 vs X^2 : ISO\n"


@pytest.mark.parametrize("argv", [("iso-check", "{doc}", "--left", "p", "--right", "p"),
                                  ("double-dual", "--a", "1", "--b", "40000")])
def test_wide_shapes_are_matched_in_linear_time(argv, tmp_path):
    # in a subprocess, so that a quadratic matching fails on the timeout
    # instead of hanging the suite; one took more than 10 s on a 2-vCPU host
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"diagrams": {"p": {"source": 1, "target": 1, "shapes": [
        {"sort": 0, "dir_sorts": [0] * 40000}]}}}))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "polycat.cli",
                           *(arg.format(doc=path) for arg in argv)],
                          capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 3.0
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "X^40000 vs X^40000 : ISO\n"


def test_iso_check_has_no_shape_bound_flag(capsys):
    code, _, err = run(capsys, "iso-check", LIST_DOC, "--left", "square",
                       "--right", "square", "--max-shapes", "8")
    assert code == 1
    assert err.startswith("parse error:")


def test_compose_both_refuses_composites_over_max_shapes(capsys):
    code, _, err = run(capsys, "compose", LIST_DOC, "--outer", "two-x",
                       "--inner", "square", "--both", "--max-shapes", "1")
    assert code == 3
    assert err.startswith("size guard exceeded:")


def test_bang_refuses_deep_replication_of_a_constant_quickly(capsys, tmp_path):
    # the constant diagram 1 has one list of each length: the lists are
    # few, but their entries grow quadratically with the depth
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"diagrams": {"one": {
        "source": 1, "target": 1, "shapes": [{"sort": 0, "dir_sorts": []}]}}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "bang", str(path), "--diagram", "one", "--depth", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("size guard exceeded:") and err.count("\n") == 1


def test_sim_validate_reports_ok(capsys):
    code, out, _ = run(capsys, "sim-validate", SIM_DOC, "--cell", "embed")
    assert code == 0
    assert out.startswith("simulation cell equations: ok")


def test_invalid_simulation_fails_on_load(capsys, tmp_path):
    with open(SIM_DOC) as fh:
        tree = json.load(fh)
    tree["simulations"]["embed"]["alpha"] = [[0, 0, 2], [0, 1, 0]]
    tree["simulations"]["embed"]["beta"] = [[0, 1, 0, 0], [0, 1, 1, 0]]
    tree["simulations"]["embed"]["gamma"] = [[0, 1, 0, 0], [0, 1, 1, 0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tree))
    code, _, err = run(capsys, "sim-validate", str(path), "--cell", "embed")
    assert code == 2
    assert "validation failure" in err


def test_sim_compose_and_eval(capsys):
    code, out, _ = run(capsys, "sim-compose", SIM_DOC, "--first", "ident-p",
                       "--second", "embed")
    assert code == 0
    assert out == "composite cell: 1 states, 2 shape entries\n"
    code, out, _ = run(capsys, "sim-eval", SIM_DOC, "--cell", "embed",
                       "--family", "pair")
    assert code == 0
    assert out.splitlines() == ["src fiber sizes: 5", "dst fiber sizes: 7",
                                "table: 0 0 3 3 6"]


def test_sim_compose_json_round_trips(capsys):
    code, out, _ = run(capsys, "sim-compose", SIM_DOC, "--first", "ident-p",
                       "--second", "embed", "--json")
    assert code == 0
    document = doc.parse_document(json.dumps({"simulations": {"c": json.loads(out)}}))
    assert document.simulation("c").alpha == {(0, 0): 0, (0, 1): 2}


def test_curry_round_trip_line(capsys):
    code, out, _ = run(capsys, "curry", LIST_DOC, "--p1", "two-x",
                       "--p2", "square", "--p3", "square", "--index", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("transformations: ")
    assert "curries to" in lines[1]
    assert lines[2] == "uncurrying returns the original transformation"


def test_curry_builds_the_hom_once(capsys, monkeypatch):
    calls = []
    hom_data = poly.hom_data

    def counted(p2, p3):
        calls.append((p2, p3))
        return hom_data(p2, p3)

    monkeypatch.setattr(poly, "hom_data", counted)
    code, out, _ = run(capsys, "curry", LIST_DOC, "--p1", "two-x", "--p2", "square",
                       "--p3", "list3", "--index", "5", "--limit", "1000")
    assert code == 0
    assert out == ("transformations: 225 out of the tensor, 225 into the hom\n"
                   "transformation 5 of 225 curries to 5 of 225\n"
                   "uncurrying returns the original transformation\n")
    assert len(calls) == 1


@pytest.mark.parametrize("operand", ["--p1", "--p2", "--p3"])
def test_curry_refuses_a_two_sorted_operand_before_the_tensor_and_the_hom(
        capsys, monkeypatch, tmp_path, operand):
    path = tmp_path / "sorts.json"
    path.write_text(json.dumps({"diagrams": {
        "x": doc.encode_diagram(poly.single_sorted((1,))),
        "two": doc.encode_diagram(poly.identity_diagram(FinSet(2)))}}))
    calls = []
    tensor, hom_data = poly.tensor, poly.hom_data
    monkeypatch.setattr(poly, "tensor", lambda *ps: calls.append("tensor") or tensor(*ps))
    monkeypatch.setattr(poly, "hom_data", lambda *ps: calls.append("hom") or hom_data(*ps))
    names = {"--p1": "x", "--p2": "x", "--p3": "x", operand: "two"}
    code, out, err = run(capsys, "curry", str(path), *[a for item in names.items() for a in item])
    assert (code, out) == (2, "")
    assert err == "validation failure: the currying adjunction is single-sorted only\n"
    assert calls == []


def test_curry_bad_index_is_validation_failure(capsys):
    code, _, err = run(capsys, "curry", LIST_DOC, "--p1", "two-x",
                       "--p2", "square", "--p3", "square", "--index", "999")
    assert code == 2
    assert "--index" in err


def test_curry_over_limit_is_size_guard(capsys):
    code, _, err = run(capsys, "curry", LIST_DOC, "--p1", "two-x",
                       "--p2", "square", "--p3", "list3", "--limit", "10")
    assert code == 3
    assert "exceed" in err


# 2X ⊗ X² = 2X² into 2X: 16 transformations on each side
CURRY_ARGS = ("curry", LIST_DOC, "--p1", "two-x", "--p2", "square", "--p3", "two-x",
              "--index", "1")
CURRY_COUNTS = "transformations: 16 out of the tensor, 16 into the hom\n"


def _first_entry_set(tables, direction):
    """The tables with the first entry of the first beta table replaced."""
    alpha, betas = tables
    return alpha, ((direction,) + betas[0][1:],) + betas[1:]


def test_curry_refuses_a_transpose_off_the_fiber(capsys, monkeypatch):
    # 2X's direction 1 belongs to its shape 1: the curried morphism is
    # refused by its construction check before the position is printed
    curry_tables = smcc._curry_tables
    monkeypatch.setattr(smcc, "_curry_tables",
                        lambda *args: _first_entry_set(curry_tables(*args), 1))
    code, out, err = run(capsys, *CURRY_ARGS)
    assert code == 2
    assert out == CURRY_COUNTS
    assert err == "validation failure: beta at shape 0 leaves the direction fiber\n"


def test_curry_reports_an_uncurry_to_another_member(capsys, monkeypatch):
    tens = poly.tensor(poly.single_sorted((1, 1)), poly.single_sorted((2,)))
    first = nat.enumerate_dm(tens, poly.single_sorted((1, 1)))[0]
    monkeypatch.setattr(smcc, "_uncurry_tables",
                        lambda *args: (first.alpha.table, first.betas))
    code, out, _ = run(capsys, *CURRY_ARGS)
    assert code == 4
    assert out == (CURRY_COUNTS + "transformation 1 of 16 curries to 1 of 16\n"
                   "uncurrying does not return the original: LAW VIOLATION\n")


def test_curry_refuses_an_invalid_uncurry(capsys, monkeypatch):
    # 2X²'s direction 2 belongs to its shape 1: the uncurried morphism is
    # refused by its construction check after the position is printed
    uncurry_tables = smcc._uncurry_tables
    monkeypatch.setattr(smcc, "_uncurry_tables",
                        lambda *args: _first_entry_set(uncurry_tables(*args), 2))
    code, out, err = run(capsys, *CURRY_ARGS)
    assert code == 2
    assert out == CURRY_COUNTS + "transformation 1 of 16 curries to 1 of 16\n"
    assert err == "validation failure: beta at shape 0 leaves the direction fiber\n"


def test_curry_prints_the_position_of_the_curried_member(capsys, tmp_path):
    # every index of seeded triples with at most 64 members a side
    rng = random.Random(20261020)
    one = FinSet(1)
    triples = members = 0
    while triples < 40:
        p1, p2, p3 = (randgen.random_diagram(rng, one, one, max_shapes=2, max_fiber=2)
                      for _ in range(3))
        tens = poly.tensor(p1, p2)
        n = nat.count_nat(tens, p3)
        if not 0 < n <= 64:
            continue
        path = tmp_path / f"triple{triples}.json"
        path.write_text(json.dumps({"diagrams": {
            name: doc.encode_diagram(p) for name, p in (("a", p1), ("b", p2), ("c", p3))}}))
        right = nat.enumerate_dm(p1, poly.hom_single_sorted(p2, p3))
        for i, m in enumerate(nat.enumerate_dm(tens, p3)):
            code, out, _ = run(capsys, "curry", str(path), "--p1", "a", "--p2", "b",
                               "--p3", "c", "--index", str(i))
            position = right.index(smcc.curry_dm(m, p1, p2, p3))
            assert code == 0
            assert out.splitlines()[1:] == [
                f"transformation {i} of {n} curries to {position} of {n}",
                "uncurrying returns the original transformation"]
            members += 1
        triples += 1
    assert members >= 100


def test_day_oracle_reports_ok(capsys):
    code, out, _ = run(capsys, "day-oracle", LIST_DOC, "--left", "square",
                       "--right", "two-x", "--family", "two", "--skeleton", "2")
    assert code == 0
    assert out.startswith("coend oracle: ok")


def test_day_oracle_prints_the_same_report_in_both_modes(capsys, tmp_path):
    # the whole stdout of both modes; the sampled counts below 2000 count
    # the draws that survive the skips, so they pin the seeded draws too
    sampled = ("  mode: factorization with sampled relation checks\n"
               "  sampled tuples reduce to canonical rectangles: yes (2000 samples)\n"
               "  separating comparison respects sampled relations: yes ({} samples)\n")
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({
        "diagrams": {"one-plus-x": {"source": 1, "target": 1, "shapes": [
                         {"sort": 0, "dir_sorts": []}, {"sort": 0, "dir_sorts": [0]}]},
                     "x": {"source": 1, "target": 1, "shapes": [{"sort": 0, "dir_sorts": [0]}]}},
        "families": {"empty": {"base": 1, "fibers": [0]}}}))
    sparse = (str(path), "--left", "one-plus-x", "--right", "x", "--family", "empty",
              "--skeleton", "8")
    cases = [
        ((LIST_DOC, "--left", "square", "--right", "two-x", "--family", "two",
          "--skeleton", "2"),
         "coend oracle: ok\n"
         "  skeleton 0..2: 308 tuples, 2864 generating relations\n"
         "  mode: exact union-find over all tuples\n"
         "  equivalence classes: 8; extension elements: 8\n"
         "  each class contains exactly one canonical rectangle: yes\n"),
        ((LIST_DOC, "--left", "square", "--right", "square", "--family", "two",
          "--skeleton", "4"),
         "coend oracle: ok\n"
         "  skeleton 0..4: 18036658 tuples, 10525338888 generating relations\n"
         + sampled.format(2000)
         + "  canonical rectangles: 16 (one per extension element: yes)\n"),
        (sparse,
         "coend oracle: ok\n"
         "  skeleton 0..8: 36 tuples, 223589208 generating relations\n"
         + sampled.format(1988)
         + "  canonical rectangles: 1 (one per extension element: yes)\n"),
        (sparse + ("--seed", "3"),
         "coend oracle: ok\n"
         "  skeleton 0..8: 36 tuples, 223589208 generating relations\n"
         + sampled.format(1948)
         + "  canonical rectangles: 1 (one per extension element: yes)\n"),
    ]
    for argv, expected in cases:
        assert run(capsys, "day-oracle", *argv) == (0, expected, "")


def test_day_oracle_skeleton_too_small_is_validation_failure(capsys):
    code, _, err = run(capsys, "day-oracle", LIST_DOC, "--left", "square",
                       "--right", "two-x", "--family", "two", "--skeleton", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--left", "square", "--right", "two-x", "--family", "two", "--skeleton", "100000"),
    ("--left", "list3", "--right", "list3", "--family", "three", "--skeleton", "99"),
])
def test_day_oracle_refuses_large_skeletons_quickly(argv):
    # in a subprocess, so that a skeleton the guards miss fails on the
    # timeout instead of hanging the suite
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "polycat.cli", "day-oracle", LIST_DOC, *argv],
                          capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 2.0
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("size guard exceeded:") and done.stderr.count("\n") == 1


def test_day_oracle_prints_counts_of_more_than_4300_digits(tmp_path):
    # one constant shape on both sides: 41 elements at each size, but the
    # pairings of a 100000-element family number up to 10^8000
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "diagrams": {"one": {"source": 1, "target": 1,
                             "shapes": [{"sort": 0, "dir_sorts": []}]}},
        "families": {"big": {"base": 1, "fibers": [100000]}}}))
    s, nx = 40, 100000
    # the constant diagram has one element at every size, so there are
    # nx^(a b) tuples at sizes (a, b), and a2^a nx^(a2 b) relations along
    # the maps a -> a2 on the left, as many on the right
    tuples = sum(nx ** (a * b) for a in range(s + 1) for b in range(s + 1))
    relations = 2 * sum(sum(a2 ** a for a in range(s + 1))
                        * sum(nx ** (a2 * b) for b in range(s + 1))
                        for a2 in range(s + 1))
    done = subprocess.run([sys.executable, "-m", "polycat.cli", "day-oracle", str(path),
                           "--left", "one", "--right", "one", "--family", "big",
                           "--skeleton", str(s)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0] == "coend oracle: ok"
    assert lines[1] == (f"  skeleton 0..{s}: {decimal(tuples)} tuples, "
                        f"{decimal(relations)} generating relations")
    assert len(decimal(tuples)) > 4300


def test_parse_errors_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(capsys, "eval", str(bad), "--diagram", "p", "--family", "x")[0] == 1
    assert run(capsys, "eval", LIST_DOC, "--diagram", "nope", "--family", "two")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "eval", LIST_DOC, "--diagram", "list3")[0] == 1


def test_validation_errors_exit_two(capsys, tmp_path):
    bad = tmp_path / "badmap.json"
    bad.write_text(json.dumps(
        {"maps": {"f": {"dom": 2, "cod": 1, "table": [0]}}}))
    code, _, err = run(capsys, "eval", str(bad), "--diagram", "p", "--family", "x")
    assert code == 2
    assert "validation failure" in err


def test_guard_env_var_overrides_bound(capsys, monkeypatch):
    monkeypatch.setenv("POLYCAT_GUARD", "5")
    code, _, err = run(capsys, "curry", LIST_DOC, "--p1", "two-x",
                       "--p2", "square", "--p3", "list3")
    assert code == 3
    assert "guard" in err
    monkeypatch.setenv("POLYCAT_GUARD", "not-a-number")
    assert run(capsys, "eval", LIST_DOC, "--diagram", "list3", "--family", "two")[0] == 1
    # the variable is read on every call, and the limit it set is undone
    monkeypatch.delenv("POLYCAT_GUARD")
    code, out, _ = run(capsys, "curry", LIST_DOC, "--p1", "two-x",
                       "--p2", "square", "--p3", "list3")
    assert code == 0
    assert out.startswith("transformations: 225 out of the tensor")
    assert finset.guard_limit() == finset.DEFAULT_GUARD_LIMIT


def test_negative_guard_env_var_is_reported_as_negative(capsys, monkeypatch):
    monkeypatch.setenv("POLYCAT_GUARD", "-5")
    code, out, err = run(capsys, "double-dual", "--a", "1", "--b", "1")
    assert (code, out) == (1, "")
    assert err == "parse error: POLYCAT_GUARD must be nonnegative: '-5'\n"
    assert finset.guard_limit() == finset.DEFAULT_GUARD_LIMIT


def test_oracle_not_natural_is_validation_failure(capsys, monkeypatch):
    def unnatural(suite, seed):
        raise OracleNotNatural("rho not natural: counterexample")

    monkeypatch.setattr(suites, "run_suite", unnatural)
    code, out, err = run(capsys, "check-laws", "--suite", "tensor-universal")
    assert (code, out) == (2, "")
    assert err == "validation failure: rho not natural: counterexample\n"


def test_an_assertion_error_is_not_a_validation_failure(capsys, monkeypatch):
    # the library states its checks as ValidationError, never as assert: an
    # AssertionError is an internal fault and propagates out of main
    def broken(left, right):
        raise AssertionError("internal fault")

    monkeypatch.setattr(poly, "tensor", broken)
    with pytest.raises(AssertionError, match="^internal fault$"):
        cli.main(["tensor", LIST_DOC, "--left", "square", "--right", "two-x"])


def test_document_dump_load_round_trip(tmp_path):
    with open(SIM_DOC) as fh:
        document = doc.parse_document(fh.read())
    text = doc.dump_document(document)
    again = doc.parse_document(text)
    assert again == document
    assert doc.dump_document(again) == text


def test_subprocess_runs_are_byte_identical():
    argv = [sys.executable, "-m", "polycat.cli", "check-laws",
            "--suite", "double-dual", "--seed", "3"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("double dual comparison: ok")


def test_the_parser_is_built_once_per_process():
    # a fresh interpreter, so that no earlier call has built it; each build
    # adds the subcommands once
    script = textwrap.dedent("""
        import argparse, contextlib, io
        builds = 0
        add_subparsers = argparse.ArgumentParser.add_subparsers
        def counted(self, **kwargs):
            global builds
            builds += 1
            return add_subparsers(self, **kwargs)
        argparse.ArgumentParser.add_subparsers = counted
        from polycat import cli
        print(builds)
        calls = [["double-dual", "--a", "2", "--b", "2"], ["no-such-command"],
                 ["eval", "%s", "--diagram", "list3", "--family", "two"],
                 ["double-dual", "--a", "3", "--b", "40"]]
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in 5 * calls]
        print(builds, *codes)
    """ % LIST_DOC)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert done.stderr == ""
    assert done.stdout == "0\n1" + 5 * " 0 1 0 3" + "\n"


# each call differs from the one before it in a flag that a parser keeping
# state between calls would carry over
INTERLEAVED = [
    ("eval", LIST_DOC, "--family", "two"),
    ("compose", LIST_DOC, "--outer", "two-x", "--inner", "square", "--both"),
    ("compose", LIST_DOC, "--outer", "two-x", "--inner", "square", "--structural"),
    ("tensor", LIST_DOC, "--left", "square", "--right", "two-x", "--json"),
    ("tensor", LIST_DOC, "--left", "square", "--right", "two-x"),
    ("check-laws", "--suite", "adjunction", "--seed", "1"),
    ("check-laws", "--suite", "adjunction"),
]


def test_calls_in_one_process_match_calls_in_their_own(capsys):
    shared = [run(capsys, *argv) for argv in INTERLEAVED]
    alone = []
    for argv in INTERLEAVED:
        done = subprocess.run([sys.executable, "-m", "polycat.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        alone.append((done.returncode, done.stdout, done.stderr))
    assert shared == alone
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 0, 0]
    assert shared[0][2] == "parse error: the following arguments are required: --diagram\n"


def _readme_examples():
    """The $ polycat lines of the README's command line section, each with
    the output lines that follow it."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples, output = [], None
    for line in section.splitlines():
        if line.startswith("$ polycat "):
            output = []
            examples.append((shlex.split(line)[2:], output))
        elif line.startswith("```"):
            output = None
        elif output is not None:
            output.append(line)
    return [(argv, "\n".join(out).rstrip("\n") + "\n") for argv, out in examples]


def test_readme_command_examples_print_what_they_show(capsys):
    examples = _readme_examples()
    assert len(examples) >= 8
    for argv, expected in examples:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, expected, ""), argv


# --- branches of the commands that the tests above do not reach -------------


def test_curry_with_no_transformations_has_nothing_to_curry(capsys, tmp_path):
    # no shape of 2X (x) X^2 has a target in the diagram with no shapes
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"diagrams": {
        "zero": {"source": 1, "target": 1, "shapes": []},
        "square": {"source": 1, "target": 1, "shapes": [{"sort": 0, "dir_sorts": [0, 0]}]},
        "two-x": doc.encode_diagram(poly.single_sorted((1, 1)))}}))
    code, out, _ = run(capsys, "curry", str(path), "--p1", "two-x", "--p2", "square",
                       "--p3", "zero")
    assert code == 0
    assert out == ("transformations: 0 out of the tensor, 0 into the hom\n"
                   "nothing to curry\n")


def test_curry_reports_counts_that_differ(capsys, monkeypatch):
    monkeypatch.setattr(smcc.Currying, "counts", lambda self: (16, 15))
    code, out, _ = run(capsys, *CURRY_ARGS)
    assert code == 4
    assert out == ("transformations: 16 out of the tensor, 15 into the hom\n"
                   "counts differ: LAW VIOLATION\n")


@pytest.mark.parametrize("mode, build", [("--direct", poly.compose_direct),
                                         ("--structural", poly.compose_structural),
                                         ("--both", poly.compose_direct)])
def test_compose_json_prints_only_the_composite(capsys, mode, build):
    code, out, _ = run(capsys, "compose", LIST_DOC, "--outer", "square",
                       "--inner", "two-x", mode, "--json")
    assert code == 0
    square, two_x = poly.single_sorted((2,)), poly.single_sorted((1, 1))
    assert json.loads(out) == doc.encode_diagram(build(square, two_x))


def test_compose_both_without_an_iso_witness_is_a_law_violation(capsys, monkeypatch):
    monkeypatch.setattr(poly, "iso_check", lambda p1, p2: None)
    code, out, _ = run(capsys, "compose", LIST_DOC, "--outer", "square",
                       "--inner", "two-x", "--both")
    assert code == 4
    assert out == ("structural: 4X^2\ndirect: 4X^2\n"
                   "structural and direct composites: NO ISO WITNESS\n")


def test_compose_family_with_a_failing_witness_is_a_law_violation(capsys, monkeypatch):
    monkeypatch.setattr(poly, "compose_witness",
                        lambda q, p, x: Report("composition witness", False, ("sizes differ",)))
    code, out, _ = run(capsys, "compose", LIST_DOC, "--outer", "square",
                       "--inner", "two-x", "--family", "three")
    assert code == 4
    assert out == "composite: 4X^2\ncomposition witness: FAIL\n  sizes differ\n"


def test_bang_json_is_the_truncated_replication(capsys):
    code, out, _ = run(capsys, "bang", LIST_DOC, "--diagram", "square", "--depth", "2",
                       "--json")
    assert code == 0
    assert json.loads(out) == doc.encode_diagram(
        poly.bang_truncated(poly.single_sorted((2,)), 2))


@pytest.mark.parametrize("argv, build", [
    (("tensor", "--left", "square", "--right", "two-x"),
     lambda d: poly.tensor(d.diagram("square"), d.diagram("two-x"))),
    (("plus", "--left", "square", "--right", "two-x"),
     lambda d: poly.plus(d.diagram("square"), d.diagram("two-x"))),
    (("hom", "--left", "square", "--right", "two-x"),
     lambda d: poly.hom_single_sorted(d.diagram("square"), d.diagram("two-x"))),
    (("bang", "--diagram", "two-x", "--depth", "1"),
     lambda d: poly.bang_truncated(d.diagram("two-x"), 1)),
    (("dual", "--diagram", "list3"),
     lambda d: poly.dualize(d.diagram("list3"))),
])
def test_diagram_commands_print_the_library_result_as_json(capsys, argv, build):
    code, out, err = run(capsys, argv[0], LIST_DOC, *argv[1:], "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == doc.encode_diagram(build(doc.load_document(LIST_DOC)))


def test_bang_refuses_a_negative_depth(capsys):
    code, out, err = run(capsys, "bang", LIST_DOC, "--diagram", "square", "--depth", "-1")
    assert (code, out) == (2, "")
    assert err == "validation failure: --depth must be nonnegative\n"


def test_check_laws_validates_a_given_document_first(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, out, err = run(capsys, "check-laws", str(bad), "--suite", "double-dual")
    assert (code, out) == (1, "")
    assert err.startswith("parse error: not valid JSON")
    code, out, _ = run(capsys, "check-laws", LIST_DOC, "--suite", "double-dual")
    assert code == 0
    assert out.startswith("double dual comparison: ok")


def test_a_suite_with_no_instance_under_the_guard_exits_three(capsys, monkeypatch):
    # with a guard of 0 every seeded pair trips it, and _drawn gives up
    monkeypatch.setenv("POLYCAT_GUARD", "0")
    code, out, err = run(capsys, "check-laws", "--suite", "composition")
    assert (code, out) == (3, "")
    assert err == "size guard exceeded: no instance fit under the size guard after redraws\n"
