"""Tests of the benchmark itself: every workload emits every metric with
its unit, traced counts repeat for a seed, tracing leaves polycat's
output alone, and the tracer patches every binding it wraps.

Run with ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import common, queries, run, trace  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace_flag: int, max_ops: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace_flag),
         "--max-ops", str(max_ops)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_declared_workload_has_a_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace_flag", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace_flag):
    result = _run(workload, trace_flag, max_ops=3)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace_flag else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload,max_ops", [("queries", 40), ("universal", 4)])
def test_traced_counts_repeat_for_a_seed(workload, max_ops):
    first, second = (_run(workload, 1, max_ops)["metrics"] for _ in range(2))
    counts = {name for name, m in first.items() if m["unit"] in ("count", "ratio")}
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def _outputs(ops):
    out = []
    for op in ops:
        try:
            out.append(op.call())
        except Exception as e:  # the known crash is part of the output
            out.append(type(e).__name__)
    return out


def test_tracing_leaves_cli_output_byte_identical(tmp_path):
    run.fresh_import()
    workload = queries.Queries()
    ops = workload.setup(7, tmp_path)
    plain = _outputs(ops)
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = _outputs(ops)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["cli"] == len(ops)


def test_tracer_patches_every_binding_and_restores_them():
    run.fresh_import()
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "polycat" or name.startswith("polycat.")}
    before = {(name, attr): obj for name, mod in modules.items()
              for attr, obj in vars(mod).items()}
    tracer = trace.Tracer()
    tracer.install()
    try:
        wrapped = {id(original) for _, _, original in tracer.patched}
        for layer in ("finset", "fam", "poly", "nat", "sim", "smcc"):
            guard = vars(modules[f"polycat.{layer}"])["check_guard"]
            assert guard.__wrapped__ is before[("polycat.finset", "check_guard")]
        # no binding anywhere in polycat still points at a wrapped original
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                assert id(obj) not in wrapped, f"{name}.{attr} left unwrapped"
        assert modules["polycat"].count_nat.__wrapped__ is before[("polycat.nat", "count_nat")]
    finally:
        tracer.uninstall()
    after = {(name, attr): obj for name, mod in modules.items()
             for attr, obj in vars(mod).items()}
    assert after == before


class SlowKey:
    """An argument whose hash takes a known time, like a deep hash of a
    large frozen dataclass."""

    def __hash__(self):
        time.sleep(0.05)
        return 0


def test_argument_keying_stays_out_of_the_callers_self_time():
    tracer = trace.Tracer()

    def extension_elements(*_args):
        return None

    wrapped = tracer._wrap(extension_elements, "poly.extension")
    tracer.span("bench", wrapped, (SlowKey(),), {})
    assert tracer.calls["poly.extension"] == 1
    assert tracer.self_s["trace.key"] >= 0.05
    assert tracer.self_s["bench"] < 0.02
    assert tracer.self_s["poly.extension"] < 0.02


def test_reference_sample_ignores_profile_hooks():
    hooks = []
    sys.setprofile(lambda *a: hooks.append(a))
    try:
        run.host_speed()
        inside = len(hooks)
    finally:
        sys.setprofile(None)
    # reference_loop's 250 _bump calls alone would fire 500 events; only the
    # few calls around the loop that switch the hooks off and on are seen
    assert inside < 100


def test_queries_fail_the_same_ops_for_every_seed(tmp_path):
    run.fresh_import()
    tallies = [run.run_round(queries.Queries().setup(seed, tmp_path / str(seed))).tally()
               for seed in (3, 17)]
    assert tallies[0] == tallies[1]
    assert sum(c[common.OK] for c in tallies[0].values()) == 89


def test_tail_percentile_has_ten_ops_beyond_it():
    assert run.tail_percentile(100) == 900
    assert run.tail_percentile(101) == 900
    assert run.tail_percentile(76) == 750
    assert run.tail_percentile(228) == 950
    assert run.tail_percentile(1000) == 990
    assert run.percentile(list(range(1, 101)), 900) == 90


def test_closed_forms_agree_with_polycat():
    run.fresh_import()
    from polycat import nat, poly
    cases = [((2, 0, 1), (1, 1)), ((1,), (2,)), ((), (1,)), ((3, 1), (0, 2, 1))]
    for p, q in cases:
        pp, qq = poly.single_sorted(p), poly.single_sorted(q)
        assert nat.count_nat(pp, qq) == common.nat_count(p, q)
        assert poly.notation(poly.compose_direct(qq, pp)) == \
            common.notation(common.compose_arities(q, p))
        assert poly.notation(poly.tensor(pp, qq)) == \
            common.notation(common.tensor_arities(p, q))
