"""The named law suites: registry behavior, determinism, and a green run
for every cheap suite (the heavy ones are exercised by the acceptance
tests and get a reduced-size run here)."""
from pathlib import Path

import pytest

from polycat import suites
from polycat.errors import ValidationError
from polycat.report import Report

CHEAP = [
    "tensor-unit",
    "tensor-assoc",
    "structural-direct",
    "sim-category",
    "additive",
    "exponential",
    "double-dual",
    "kernel-witnesses",
    "naturality",
]

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


@pytest.mark.parametrize("name", CHEAP)
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
