"""polycat benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of universal, adjunction, simcells, queries, or ``all``,
which runs the four one after another, each in its own process. Run it
from anywhere; it imports polycat from the ``src`` directory next to
``perfbench``.

A workload's set-up (a fresh import of polycat plus building its inputs)
returns the list of ops of one round (see catalog.py and queries.py).
With ``--trace 0`` the runner fits ``--seconds`` with rounds (the
workload's ``round_seconds`` says how long one takes on the tuning
host), each starting from its own set-up, and runs the ops one at a
time in this single process. The number of rounds depends only on
``--seconds``, never on how long the rounds took, so every run of a
workload attempts the same number of ops and refuses the same number
of them. Every op's answer is checked after it is timed. An op's time
is its median over the rounds; ``wall_s`` and ``cpu_s`` add these up
over the ops of a round, and ``op_p50_ms`` and ``op_tail_ms`` are
percentiles of them (the tail is the highest percentile with at least
ten ops beyond it). ``setup_s`` is the median over at least
``SETUP_REPEATS`` set-ups.

Every declared time except ``peak_rss_mb`` is scaled to a fixed speed
of the host, measured by ``reference_loop``, a fixed pure-Python loop
(see ``host_speed``). Op times are scaled by samples taken just before
and after each op and every ``SAMPLE_EVERY`` seconds inside long ops
(see ``run_round``), each set-up by samples taken just before and after
it. On a shared host the speed of one
process swings by up to 2x within minutes, which moves raw times by as
much from run to run; a time divided by the loop's time at that moment
moves far less. The raw op times and set-up times are printed and
recorded too (``as timed``).

With ``--trace 1`` it runs one untraced round, then one round of the
same inputs under the layer tracer (trace.py), each from its own
set-up, and reports the per-layer metrics.

Metric names and units come from ``BENCHMARK.json``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The full
record, with the run environment, goes to
``perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json``. The exit
code is 0 when every answer was right, 1 when one was wrong, and 2
when the run could not start (for example, no polycat sources).
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.catalog import Adjunction, Simcells, Universal  # noqa: E402
from perfbench.common import CRASHED, OK, REFUSED, WRONG  # noqa: E402
from perfbench.queries import Queries  # noqa: E402
from perfbench.trace import MOVES, Tracer  # noqa: E402

WORKLOADS = {"universal": Universal, "adjunction": Adjunction,
             "simcells": Simcells, "queries": Queries}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
AS_TIMED = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
            "op_tail_ms": "ms"}
SETUP_REPEATS = 9
SETUP_SAMPLES = 3  # reference samples on each side of a set-up
REF_SECONDS = 0.0007  # about reference_loop's time on the tuning host, the unit of *_ref metrics
SAMPLE_EVERY = 0.1  # seconds between two reference samples inside an op
NEAREST = 3  # reference samples on each side of an op that scale its time
TAIL_LADDER = (999, 990, 950, 900, 750, 500)  # percentiles, in tenths of a percent


class SetupError(Exception):
    pass


# -- set-up -------------------------------------------------------------------


def fresh_import():
    """Drop every polycat module and import the package again from SRC,
    so each set-up pays the full import."""
    for name in [n for n in sys.modules if n == "polycat" or n.startswith("polycat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        polycat = importlib.import_module("polycat")
        importlib.import_module("polycat.cli")
    except ImportError as e:
        raise SetupError(f"cannot import polycat from {SRC}: {e}") from e
    if Path(polycat.__file__).resolve().parent != (SRC / "polycat").resolve():
        raise SetupError(f"imported polycat from {polycat.__file__}, not from {SRC}")


def setup_once(workload, seed: int, workdir: Path):
    start = time.perf_counter()
    fresh_import()
    ops = workload.setup(seed, workdir)
    return time.perf_counter() - start, ops


def scaled_setup(workload, seed: int, workdir: Path):
    """One set-up from a collected heap: its time as taken, its time at
    reference speed (by the median of SETUP_SAMPLES reference samples on
    each side), and its ops."""
    gc.collect()
    refs = [host_speed() for _ in range(SETUP_SAMPLES)]
    took, ops = setup_once(workload, seed, workdir)
    refs += [host_speed() for _ in range(SETUP_SAMPLES)]
    return took, took * REF_SECONDS / statistics.median(refs), ops


# -- rounds -------------------------------------------------------------------


@dataclass(frozen=True)
class _Cell:
    shape: int
    fiber: tuple


def _bump(seen: dict, cell: _Cell) -> int:
    seen[cell] = seen.get(cell, 0) + 1
    return cell.shape


def reference_loop() -> int:
    """Fixed pure-Python work, independent of polycat, whose time tracks
    how fast the host runs this process at the moment. It does what
    polycat's inner loops do (build and hash frozen dataclasses of tuples,
    key dicts by them, call small Python functions, sort with a key),
    because a host slowdown hits such code harder than plain integer
    arithmetic: scaling twelve runs of one 13 s adjunction op on a shared
    2-vCPU host, an integer-only loop left 1.6 times the spread of this
    one."""
    seen, total = {}, 0
    for i in range(250):
        total += _bump(seen, _Cell(i & 15, (i % 3, i & 1)))
    for cell in sorted(seen, key=lambda c: (c.shape, c.fiber)):
        total += seen[cell]
    return total


def host_speed() -> float:
    """Time of one reference_loop, with this process's profile and trace
    hooks and its cyclic garbage collector off, so that the sample
    measures the host and not a slowdown applied to the whole process."""
    profile, trace, collecting = sys.getprofile(), sys.gettrace(), gc.isenabled()
    sys.setprofile(None)
    sys.settrace(None)
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        sys.settrace(trace)
        sys.setprofile(profile)
        if collecting:
            gc.enable()


class Round:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []
        self.cpus: list[float] = []
        self.outcomes: list[tuple[str, str, str]] = []
        self.refs: list[tuple[float, float]] = []  # (end, duration) of reference_loop
        self.stolen = 0.0  # time spent sampling, taken back out of the ops' times

    def sample_speed(self, *_signal) -> None:
        start = time.perf_counter()
        took = host_speed()
        end = time.perf_counter()
        self.refs.append((end, took))
        self.stolen += end - start

    def at_reference_speed(self, values: list[float]) -> list[float]:
        """Scale each op's value by REF_SECONDS over the median of the
        reference samples taken during the op and the NEAREST on each side
        (the one just before and just after it among them)."""
        ends = [end for end, _ in self.refs]
        out = []
        for start, stop, value in zip(self.starts, self.ends, values):
            lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, stop)
            near = [d for _, d in self.refs[max(0, lo - NEAREST):hi + NEAREST]]
            out.append(value * REF_SECONDS / statistics.median(near))
        return out

    def tally(self) -> dict[str, Counter]:
        out: dict[str, Counter] = {}
        for kind, outcome, _ in self.outcomes:
            out.setdefault(kind, Counter())[outcome] += 1
        return out


def run_round(ops, tracer: Tracer | None = None) -> Round:
    """Run and time every op, then check its answer outside the timed span.

    reference_loop is timed just before and just after every op, outside
    its timed span: most ops are shorter than SAMPLE_EVERY, and the host's
    speed changes faster than that. Untraced, a SIGALRM every SAMPLE_EVERY
    seconds also times it in between two bytecodes inside long ops, and
    that time is taken out of the op it interrupted. Traced, there is no
    SIGALRM, so that no span's self time includes the loop."""
    done = Round()
    gc.collect()
    previous = signal.signal(signal.SIGALRM, done.sample_speed)
    if tracer is None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
    try:
        for op in ops:
            done.sample_speed()
            result = exc = None
            stolen = done.stolen
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.call() if tracer is None else tracer.span("bench", op.call, (), {})
            except Exception as e:  # an op that raises is classified by its check
                exc = e
            c1, t1 = time.process_time(), time.perf_counter()
            taken = done.stolen - stolen
            done.starts.append(t0)
            done.ends.append(t1)
            done.times.append(t1 - t0 - taken)
            done.cpus.append(c1 - c0 - taken)
            done.sample_speed()
            outcome, note = op.check(result, exc)
            done.outcomes.append((op.kind, outcome, note))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return done


# -- metrics ------------------------------------------------------------------


def _rank(q: int, n: int) -> int:
    """Nearest rank (1-based) of percentile q/10 among n values."""
    return max(1, -(-q * n // 1000))


def percentile(values: list[float], q: int) -> float:
    return sorted(values)[_rank(q, len(values)) - 1]


def tail_percentile(n_ops: int) -> int:
    """The highest ladder percentile with at least ten of n_ops values
    beyond it. n_ops is the number of ops in a round, fixed per
    workload, so every run reports the same percentile."""
    for q in TAIL_LADDER:
        if n_ops - _rank(q, n_ops) >= 10:
            return q
    return TAIL_LADDER[-1]


def outcome_counts(rounds: list[Round]) -> Counter:
    return Counter(outcome for r in rounds for _, outcome, _ in r.outcomes)


def verdict(workload, rounds: list[Round], full: bool):
    """Gate lines of the first round, and whether every round passed its gate."""
    gates = [workload.gate(r.tally(), full) for r in rounds]
    correct = outcome_counts(rounds)[WRONG] == 0 and \
        all(good for gate in gates for _, good in gate)
    return gates[0], correct


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    from polycat import finset
    digest = hashlib.sha256()
    for path in sorted((SRC / "polycat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "guard_limit": finset.guard_limit(),
    }


def timed_run(workload, args, workdir: Path) -> dict:
    n_rounds = max(1, int(args.seconds // workload.round_seconds))
    setups = [scaled_setup(workload, args.seed, workdir / f"setup-{k}")[:2]
              for k in range(SETUP_REPEATS - n_rounds)]
    rounds = []
    for k in range(n_rounds):
        took, at_ref, ops = scaled_setup(workload, args.seed, workdir / f"round-{k}")
        setups.append((took, at_ref))
        rounds.append(run_round(ops[:args.max_ops]))
        del ops
    q = tail_percentile(len(rounds[0].times))
    timed = {"setup_s": (statistics.median(t for t, _ in setups), len(setups)),
             **op_metrics([r.times for r in rounds], [r.cpus for r in rounds], q)}
    scaled = op_metrics([r.at_reference_speed(r.times) for r in rounds],
                        [r.at_reference_speed(r.cpus) for r in rounds], q)
    values = {
        "setup_s": (statistics.median(s for _, s in setups), len(setups)),
        "wall_ref_s": scaled["wall_s"],
        "cpu_ref_s": scaled["cpu_s"],
        "op_p50_ref_ms": scaled["op_p50_ms"],
        "op_tail_ref_ms": scaled["op_tail_ms"],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    gate, correct = verdict(workload, rounds, args.max_ops is None)
    refs = [d for r in rounds for _, d in r.refs]
    return {
        "metrics": {name: {"value": v, "unit": END_TO_END[name], "samples": n}
                    for name, (v, n) in values.items()},
        "as_timed": {name: {"value": v, "unit": AS_TIMED[name], "samples": n}
                     for name, (v, n) in timed.items()},
        "reference_loop_s": {"median": statistics.median(refs), "samples": len(refs)},
        "tail_percentile": q, "ops_per_round": len(rounds[0].times), "rounds": len(rounds),
        "round_walls": [sum(r.times) for r in rounds],
        "gate": gate, "correct": correct, "rounds_run": rounds,
    }


def op_metrics(times: list[list[float]], cpus: list[list[float]], q: int) -> dict:
    """Each op's time is its median over the rounds (times[k][j] is op j
    in round k); wall_s and cpu_s add them up over the ops, and the
    percentiles are taken over them."""
    per_op = [statistics.median(col) for col in zip(*times)]
    return {
        "wall_s": (sum(per_op), len(times)),
        "cpu_s": (sum(statistics.median(col) for col in zip(*cpus)), len(cpus)),
        "op_p50_ms": (1000 * statistics.median(per_op), len(per_op)),
        "op_tail_ms": (1000 * percentile(per_op, q), len(per_op)),
    }


def traced_run(workload, args, workdir: Path) -> dict:
    """One untraced round, then one traced round, each from its own set-up
    (a fresh import), so the traced round starts as cold as the untraced
    one. Outcomes and per-layer counts are those of the traced round; the
    gate must hold on both."""
    _, ops = setup_once(workload, args.seed, workdir / "untraced")
    untraced = run_round(ops[:args.max_ops])
    del ops
    untraced_wall = sum(untraced.at_reference_speed(untraced.times))

    _, ops = setup_once(workload, args.seed, workdir / "traced")
    tracer = Tracer()
    tracer.install()
    try:
        done = run_round(ops[:args.max_ops], tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_s"] = sum(done.at_reference_speed(done.times)) - untraced_wall
    gate, correct = verdict(workload, [untraced, done], args.max_ops is None)
    return {
        "metrics": {name: {"value": values[name], "unit": unit, "samples": 1,
                           "moves": MOVES[name]} for name, unit in PER_LAYER.items()},
        "ops_per_round": len(done.times), "rounds": 1, "gate": gate,
        "correct": correct, "rounds_run": [done], "untraced_wall_ref_s": untraced_wall,
    }


# -- entry points -------------------------------------------------------------


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = (traced_run if args.trace else timed_run)(workload, args, workdir)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = result.pop("rounds_run")
    counts = outcome_counts(rounds)
    attempted = sum(counts.values())
    failed = attempted - counts[OK]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(args.seed),
        "attempted": attempted, "failed": failed,
        "outcomes": {o: counts[o] for o in (OK, REFUSED, CRASHED, WRONG)},
        "fail_ratio": failed / attempted if attempted else 0.0,
        "failures": [f"{kind}: {outcome}: {note}" for r in rounds
                     for kind, outcome, note in r.outcomes if outcome != OK][:50],
        **result,
    }
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=list) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['rounds']} round(s) of {record['ops_per_round']} ops")
    for name, m in record["metrics"].items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']:<5} (n={m['samples']})")
    if not args.trace:
        for name, m in record["as_timed"].items():
            print(f"  {name:<24} {m['value']:>14.6g} {m['unit']:<5} (n={m['samples']}, "
                  "as timed)")
        ref = record["reference_loop_s"]
        print(f"  reference loop: median {ref['median'] * 1e3:.4f} ms over {ref['samples']} "
              f"samples; *_ref values are at {REF_SECONDS * 1e3:g} ms")
        print(f"  op tails are p{record['tail_percentile'] / 10:g} of the "
              f"{record['ops_per_round']} ops' medians over {record['rounds']} rounds")
    print(f"  {'fail_ratio':<24} {record['fail_ratio']:>14.6g} ratio "
          f"({failed} of {attempted} ops failed: {counts['refused']} refused, "
          f"{counts['crashed']} crashed, {counts['wrong']} wrong)")
    for line, good in record["gate"]:
        print(f"  gate: {line} [{'ok' if good else 'FAIL'}]")
    for line in record["failures"][:5]:
        print(f"  {line[:200]}")
    print(f"  env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"  verdict: {'correct' if record['correct'] else 'WRONG ANSWERS'}")
    print(json.dumps({
        "correct": record["correct"], "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.max_ops is not None:
            cmd += ["--max-ops", str(args.max_ops)]
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            print(child.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="truncate every round to its first N ops (for tests); "
                             "the gate then skips the pinned instance counts")
    args = parser.parse_args(argv)
    if not (SRC / "polycat" / "__init__.py").is_file():
        print(f"perfbench: no polycat sources under {SRC}", file=sys.stderr)
        return 2
    # the guard limit is part of the workload; pin the default
    os.environ.pop("POLYCAT_GUARD", None)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
