"""The named law suites: registry behavior, determinism, the golden
report of every suite at its default seed, reduced-size runs, and the
reports of suites whose laws are made to fail."""
import itertools
from pathlib import Path

import pytest

from polycat import fam, poly, sim, smcc, suites
from polycat.errors import ValidationError
from polycat.poly import single_sorted
from polycat.report import Report

# the check-laws --seed 0 report of every suite, byte for byte
GOLDEN = Path(__file__).parent / "golden" / "check-laws-seed0"


def test_registry_names_are_stable():
    assert suites.suite_names() == [
        "tensor-unit",
        "tensor-assoc",
        "composition",
        "structural-direct",
        "adjunction",
        "tensor-universal",
        "sim-roundtrip",
        "sim-tensor",
        "sim-category",
        "additive",
        "exponential",
        "double-dual",
        "kernel-witnesses",
        "naturality",
    ]


def test_golden_reports_cover_every_suite():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(suites.suite_names())


def test_unknown_suite_is_rejected():
    with pytest.raises(ValidationError):
        suites.run_suite("no-such-suite")


@pytest.mark.parametrize("name", suites.suite_names())
def test_cheap_suites_pass_at_default_seed(name):
    rep = suites.run_suite(name, 0)
    assert isinstance(rep, Report)
    assert rep.ok, rep.render()
    assert rep.render() + "\n" == (GOLDEN / f"{name}.txt").read_text()


def test_composition_suite_reduced():
    rep = suites.composition_suite(seed=3, cases=25)
    assert rep.ok, rep.render()
    assert "25 of 25" in rep.lines[0]


def test_adjunction_suite_reduced():
    rep = suites.adjunction_suite(seed=1, cases=12)
    assert rep.ok, rep.render()
    assert rep.lines[0].startswith("exact case: Nat(X^2, 2X) = 4")


def test_sim_roundtrip_suite_reduced_budget():
    rep = suites.sim_roundtrip_suite(seed=2, cell_budget=16, samples_over=2)
    assert rep.ok, rep.render()
    assert "507 grid instances" in rep.lines[0]


def test_sim_tensor_suite_reduced():
    rep = suites.sim_tensor_suite(seed=1, cases=5)
    assert rep.ok, rep.render()
    assert all(line.startswith("5 of 5 seeded") for line in rep.lines)
    assert [line.rsplit("(", 1)[-1] for line in rep.lines[2:]] == [
        f"{n} draws skipped: no cell on a drawn span)" for n in (0, 0, 12, 4, 2, 1)]


def test_suites_are_deterministic_per_seed():
    a = suites.run_suite("tensor-unit", 7)
    b = suites.run_suite("tensor-unit", 7)
    assert a == b
    c = suites.kernel_witnesses_suite(seed=11, cases=5)
    d = suites.kernel_witnesses_suite(seed=11, cases=5)
    assert c.render() == d.render()


def test_double_dual_suite_quotes_the_counterexample():
    rep = suites.double_dual_suite()
    assert rep.ok
    assert rep.lines[-1] == "a = 2, b = 2: 2X^2 vs 16X^4 : NOT ISO"


# --- failing suites: what a suite prints when a law it checks fails ---------


def _failing_at(failures: dict[int, Report]):
    """A stand-in for a check: its n-th call returns failures[n], every
    other call an ok report."""
    calls = itertools.count(1)
    return lambda *args, **kwargs: failures.get(next(calls), Report("check", True))


def test_composition_suite_keeps_the_first_failures_first_two_lines(monkeypatch):
    monkeypatch.setattr(poly, "compose_witness", _failing_at({
        2: Report("witness", False, ("a1", "a2", "a3")),
        3: Report("witness", False, ("b1",)),
    }))
    assert suites.composition_suite(cases=3).render() == "\n".join([
        "composition homomorphism: FAIL",
        "  1 of 3 seeded pairs: composite evaluation matches the two-stage "
        "evaluation (exact sizes and bijection)",
        "  first failure: a1",
        "  first failure: a2",
    ])


def test_tensor_universal_suite_adds_one_coend_line_after_a_mediator_line(monkeypatch):
    monkeypatch.setattr(smcc, "theta_check", _failing_at({
        2: Report("theta", False), 3: Report("theta", False)}))
    monkeypatch.setattr(smcc, "day_coend_oracle", _failing_at({
        4: Report("coend", False), 5: Report("coend", False)}))
    assert suites.tensor_universal_suite().render() == "\n".join([
        "tensor universal property: FAIL",
        "  mediator: 167 of 169 grid pairs rebuild the canonical comparison map exactly",
        "  coend oracle: 505 of 507 (pair, family) instances match the convolution "
        "formula at skeleton bound 4",
        "  first mediator failure at 0 , 1",
        "  first coend failure at 0 , 1, |x| = 0",
    ])


def test_kernel_witnesses_suite_reports_a_failure_of_each_section(monkeypatch):
    monkeypatch.setattr(fam, "beck_chevalley_check", _failing_at({
        2: Report("square", False, ("c1", "c2"))}))
    monkeypatch.setattr(fam, "distributivity_check", _failing_at({
        1: Report("square", False, ("d1", "d2")),
        3: Report("square", False, ("e1",)),
    }))
    assert suites.kernel_witnesses_suite(cases=3).render() == "\n".join([
        "base category interchange witnesses: FAIL",
        "  2 of 3 pullback squares: base-change comparison is a bijection",
        "  1 of 3 map pairs: product-over-sum comparison is a bijection",
        "  first base-change failure: c1",
        "  first distributivity failure: d1",
    ])


def test_tensor_unit_suite_stops_at_the_first_failing_diagram(monkeypatch):
    # X^2 has a one-point extension at the point, so the first check
    # passes, and tensoring with it changes every diagram
    monkeypatch.setattr(poly, "tensor_unit", lambda: single_sorted((2,)))
    assert suites.tensor_unit_suite(seed=2).render() == "\n".join([
        "tensor unit laws: FAIL",
        "  unit law fails on X",
    ])


def test_tensor_unit_suite_prints_a_failing_diagram_with_more_target_sorts(monkeypatch):
    # seed 1 first draws a diagram from one sort to three, which notation
    # refuses, so the line shows its repr
    monkeypatch.setattr(poly, "tensor_unit", lambda: single_sorted((2,)))
    rep = suites.tensor_unit_suite(seed=1)
    assert not rep.ok and len(rep.lines) == 1
    assert rep.lines[0].startswith("unit law fails on PolyDiagram(source=FinSet(size=1, ")
    assert "target=FinSet(size=3, " in rep.lines[0]


def test_double_dual_suite_prints_the_expected_verdict_under_a_wrong_one(monkeypatch):
    real = smcc.double_dual_report

    def report(a, b):
        if (a, b) == (2, 2):
            return Report("double dual", True, ("2X^2 vs 16X^4 : ISO",))
        return real(a, b)

    monkeypatch.setattr(smcc, "double_dual_report", report)
    assert suites.double_dual_suite().render() == "\n".join([
        "double dual comparison: FAIL",
        "  a = 1, b = 1: X vs X : ISO",
        "  a = 2, b = 1: 2X vs 2X : ISO",
        "  a = 1, b = 2: X^2 vs X^2 : ISO",
        "  a = 2, b = 2: 2X^2 vs 16X^4 : ISO",
        "    expected: 2X^2 vs 16X^4 : NOT ISO",
    ])


def test_sim_category_suite_stops_each_section_at_its_first_failure(monkeypatch):
    monkeypatch.setattr(sim, "equivalence_check", lambda c1, c2: None)
    assert suites.sim_category_suite().render() == "\n".join([
        "simulation category laws: FAIL",
        "  0 seeded cells: identity cells act as units under composition",
        "  0 seeded triples: both bracketings of a triple composite are equivalent",
        "  first failure: identity cell is not a unit",
    ])


def test_sim_tensor_suite_keeps_the_first_failure(monkeypatch):
    # no two cells are equivalent: the four laws read up to equivalence
    # fail, and the laws read on the nose still hold
    monkeypatch.setattr(sim, "equivalence_check", lambda c1, c2: None)
    skipped = "draws skipped: no cell on a drawn span"
    assert suites.sim_tensor_suite(cases=2).render() == "\n".join([
        "tensor of simulation cells: FAIL",
        "  2 of 2 seeded diagram pairs: id (x) id is the identity of the tensor on the nose",
        "  0 of 2 seeded diagram triples: the symmetry is an involution and satisfies "
        "the hexagon up to equivalence",
        f"  2 of 2 seeded cells: c (x) 0 = 0 = 0 (x) c on the nose (2 {skipped})",
        "  2 of 2 seeded triples of cells: the unit and associativity hold on the nose "
        f"(1 {skipped})",
        "  0 of 2 seeded composable pairs of pairs: the tensor of composites is "
        f"equivalent to the composite of tensors (0 {skipped})",
        "  0 of 2 seeded triples of cells: the tensor is bilinear over sums of cells "
        f"up to equivalence (2 {skipped})",
        f"  0 of 2 seeded pairs of cells: the symmetry is natural up to equivalence (0 {skipped})",
        "  2 of 2 seeded pairs of cells at families with fibers <= 2: the component at a "
        "box is the external product of the components through the comparison maps "
        f"(0 {skipped})",
        "  first failure: the symmetry is not an involution or fails the hexagon",
    ])


def test_sim_category_suite_counts_every_case_of_a_failing_section(monkeypatch):
    # the unit law's 40 cases compare twice each, so the 81st comparison
    # is the first associativity case; the other 19 triples still run
    real = suites._equivalent
    calls = itertools.count(1)
    monkeypatch.setattr(suites, "_equivalent",
                        lambda c1, c2: next(calls) != 81 and real(c1, c2))
    assert suites.sim_category_suite().render() == "\n".join([
        "simulation category laws: FAIL",
        "  40 seeded cells: identity cells act as units under composition",
        "  19 seeded triples: both bracketings of a triple composite are equivalent",
        "  first failure: composition is not associative",
    ])


def test_naturality_suite_counts_every_cell_after_a_failure(monkeypatch):
    monkeypatch.setattr(sim, "sim_naturality_check",
                        _failing_at({3: Report("cell", False)}))
    assert suites.naturality_suite().render() == "\n".join([
        "naturality squares: FAIL",
        "  8 diagram pairs: comparison map natural in both arguments "
        "(all base morphisms with fibers <= 2)",
        "  8 enumerated morphisms pass exhaustive naturality at bound 2",
        "  7 seeded cells evaluate to natural transformations at bound 2",
        "  first failure: evaluated simulation cell is not natural",
    ])
