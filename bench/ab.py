"""Paired comparison of two versions of polycat's nat, poly, sim and smcc
code and of its command line in one process.

    python3 bench/ab.py [--rev REV] [--rounds N] [--seed S]

Exports ``src/polycat`` at the git revision REV (default HEAD) with
``git archive`` into a temporary directory, and loads it beside the
working tree's ``src/polycat`` in this process: each side is imported
once, and the ``polycat`` entries of ``sys.modules`` are swapped before
each side's set-up, so that everything a side builds is bound to its own
modules.

Four workloads are timed, each with its kernels: the ``simcells``
workload with the kernels of bench/test_sim_kernels.py, the
``universal`` workload with those of bench/test_smcc_kernels.py, the
``adjunction`` workload with those of bench/test_nat_kernels.py, and
the ``queries`` workload with those of bench/test_poly_kernels.py (the
workloads are perfbench/catalog.py's and perfbench/queries.py's,
imported read-only). The ``queries`` set-up writes its documents into a
working directory; in each round both sides get the same fresh one, so
that a path in an answer agrees. A kernel is a bench function that
takes the ``benchmark`` fixture, and perhaps ``capsys``, for which it
gets a stand-in that captures what it prints; a kernel that takes any
other argument stops the harness with exit code 1, naming it. The
``benchmark`` stand-in also offers ``pedantic`` with a ``setup``, which
runs outside the timed region.

Before timing, both sides run one round on the first seed and must give
equal results: the answers of the workloads' ops and the kernels'
results, compared as plain values. Then it runs N rounds. Each round
sets up every workload afresh on its own seed on both sides, then runs
it on the two sides in step: op j of one side and, at once, op j of the
other, then each kernel's fixed number of calls on one side and at once
on the other. The side that goes first alternates from op to op, from
kernel to kernel and from round to round, so that both sides meet the
same swings of the host's speed. A workload's round time on a side is
the sum of its ops' times there. The answers are compared again in
every round.

Per timed item it prints the median ratio of the working tree's time to
REV's, the quartiles of the ratios, and the number of rounds in which
the working tree is faster. With the working tree at REV it is an A/A
comparison, whose ratios should sit near 1. The exit code is 0 when the
two sides agree throughout and 1 when they differ.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import importlib.util
import inspect
import io
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KERNEL_SECONDS = 0.02  # the calls of one kernel per round take about this long

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.catalog import Adjunction, Simcells, Universal  # noqa: E402
from perfbench.queries import Queries  # noqa: E402

# each workload with the file of its kernels
WORKLOADS = [(Simcells, HERE / "test_sim_kernels.py"),
             (Universal, HERE / "test_smcc_kernels.py"),
             (Adjunction, HERE / "test_nat_kernels.py"),
             (Queries, HERE / "test_poly_kernels.py")]
# the fixtures a kernel may take
FIXTURES = ("benchmark", "capsys")
ROUNDS = [f"{workload.name} round" for workload, _ in WORKLOADS]
_Captured = collections.namedtuple("_Captured", "out err")


def _polycat_names() -> list[str]:
    return [n for n in sys.modules if n == "polycat" or n.startswith("polycat.")]


class Side:
    """One version of polycat: its modules, held out of sys.modules while
    the other side runs, and its kernels per workload."""

    def __init__(self, label: str, src: Path) -> None:
        self.label, self.modules = label, {}
        for name in _polycat_names():
            del sys.modules[name]
        sys.path.insert(0, str(src))
        try:
            polycat = importlib.import_module("polycat")
            importlib.import_module("polycat.cli")
        finally:
            sys.path.remove(str(src))
        if Path(polycat.__file__).resolve().parent != (src / "polycat").resolve():
            raise SystemExit(f"imported polycat from {polycat.__file__}, not from {src}")
        self.modules = {name: sys.modules.pop(name) for name in _polycat_names()}
        with self.active():
            self.kernels = [_load_kernels(label, path) for _, path in WORKLOADS]

    @contextlib.contextmanager
    def active(self):
        """Run with this side's modules as the polycat of sys.modules; a
        submodule first imported meanwhile stays with this side."""
        for name in _polycat_names():
            del sys.modules[name]
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            self.modules = {name: sys.modules.pop(name) for name in _polycat_names()}


class _Benchmark:
    """Stands in for pytest-benchmark's fixture: calls the kernel a fixed
    number of times, and keeps the time they took and the last result."""

    def __init__(self, calls: int) -> None:
        self.calls, self.took, self.result = calls, 0.0, None

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        for _ in range(self.calls):
            result = fn(*args, **kwargs)
        self.took, self.result = time.perf_counter() - start, result
        return result

    def pedantic(self, fn, *, setup, rounds):
        """pytest-benchmark's pedantic call with a setup: the fixed number
        of calls stands in for rounds, and each call's setup, which returns
        its arguments and keyword arguments, runs outside the timed
        region."""
        self.took = 0.0
        for _ in range(self.calls):
            args, kwargs = setup()
            start = time.perf_counter()
            self.result = fn(*args, **kwargs)
            self.took += time.perf_counter() - start
        return self.result


class _Capsys:
    """Stands in for pytest's capsys fixture: while the kernel runs, its
    stdout and stderr go to buffers, and readouterr returns what was
    written since the last read."""

    def __init__(self) -> None:
        self.out, self.err = io.StringIO(), io.StringIO()

    @contextlib.contextmanager
    def capturing(self):
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            yield

    def readouterr(self):
        read = [buffer.getvalue() for buffer in (self.out, self.err)]
        for buffer in (self.out, self.err):
            buffer.seek(0)
            buffer.truncate()
        return _Captured(*read)


def _load_kernels(label: str, path: Path) -> dict:
    """The kernels of one bench file, imported under the active side's
    polycat: every test function that takes the benchmark fixture, by
    name, with its arguments. None without pytest or pytest-benchmark.
    A kernel that takes an argument other than FIXTURES exits with code
    1, naming it."""
    try:
        import pytest
    except ImportError:
        return {}
    spec = importlib.util.spec_from_file_location(f"_ab_{path.stem}_{label}", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except pytest.skip.Exception:
        return {}
    kernels = {}
    for name, fn in vars(module).items():
        if not (name.startswith("test_") and callable(fn)):
            continue
        params = list(inspect.signature(fn).parameters)
        if "benchmark" not in params:
            continue
        if not set(params) <= set(FIXTURES):
            raise SystemExit(f"cannot call kernel {path.name}::{name}: it takes "
                             f"{', '.join(params)}; only {', '.join(FIXTURES)} are provided")
        kernels[name] = (fn, params)
    return kernels


def export(rev: str, into: Path) -> Path:
    """src/polycat at rev, written under into; returns its src directory."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/polycat"],
                         check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    return into / "src"


def plain(value):
    """A result as plain values, comparable across the two sides whatever
    their storage: a cell as its legs and the items of its three tables,
    a morphism as its endpoints' fibers and table,
    a transformation as its shape table and backward tables, an
    isomorphism as its two transformations, a report as its ok flag and
    lines."""
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if hasattr(value, "lines") and hasattr(value, "ok"):
        return ("report", value.ok, value.lines)
    if hasattr(value, "gamma") and hasattr(value, "span"):
        return ("cell", value.span.left.table, value.span.right.table,
                *(sorted(table.items()) for table in (value.alpha, value.beta, value.gamma)))
    if hasattr(value, "forward") and hasattr(value, "backward"):
        return ("iso", plain(value.forward), plain(value.backward))
    if hasattr(value, "alpha") and hasattr(value, "betas"):
        return ("transformation", value.alpha.table, value.betas)
    if hasattr(value, "map") and hasattr(value, "src"):
        return ("morphism", value.src.fiber_sizes(), value.dst.fiber_sizes(), value.map.table)
    return value


def _order(n: int) -> tuple[int, int]:
    """The indices of the two sides in the order they run the n-th item."""
    return (0, 1) if n % 2 == 0 else (1, 0)


def run_round(sides: tuple[Side, Side], seed: int, calls: dict, workdir: Path,
              k: int) -> tuple[tuple[dict, dict], tuple[list, list]]:
    """Round k on both sides, in step: per workload, both sides' ops of a
    fresh set-up on the seed in workdir, op j run on both sides back to
    back, then each of its kernels its number of calls on both sides back
    to back. The side that goes first alternates from op to op and from
    kernel to kernel, and flips with k. Returns, per side, the time of
    each timed item and the plain results, in order."""
    times, results = ({}, {}), ([], [])
    for (workload, _), name, *kernels in zip(WORKLOADS, ROUNDS, *(s.kernels for s in sides)):
        ops = []
        for side in sides:
            with side.active():
                ops.append(workload().setup(seed, workdir))
        gc.collect()
        took, answers = [0.0, 0.0], ([], [])
        for j, pair in enumerate(zip(*ops, strict=True)):
            for s in _order(k + j):
                with sides[s].active():
                    start = time.perf_counter()
                    answers[s].append(pair[s].call())
                    took[s] += time.perf_counter() - start
        for s in (0, 1):
            times[s][name] = took[s]
            results[s].append(plain(answers[s]))
        for i, kernel_name in enumerate(kernels[0]):
            for s in _order(k + i):
                kernel, params = kernels[s][kernel_name]
                bench = _Benchmark(calls.get(kernel_name, 1))
                fixtures = {"benchmark": bench, "capsys": _Capsys()}
                with sides[s].active():
                    gc.collect()
                    with fixtures["capsys"].capturing():
                        kernel(**{param: fixtures[param] for param in params})
                times[s][kernel_name] = bench.took
                results[s].append((kernel_name, plain(bench.result)))
    return times, results


def summary(ratios: list[float]) -> str:
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    lower = sum(r < 1 for r in ratios)
    return (f"ratio {statistics.median(ratios):.3f} [{quartiles[0]:.3f}, {quartiles[2]:.3f}]"
            f"  lower in {lower} of {len(ratios)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD", help="git revision to compare against")
    ap.add_argument("--rounds", type=int, default=20, help="timed rounds")
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first round")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory(prefix="polycat-ab-") as tmp:
        base = Side("base", export(args.rev, Path(tmp)))
        change = Side("change", ROOT / "src")
        if [k.keys() for k in base.kernels] != [k.keys() for k in change.kernels]:
            print("the two sides have different kernels", file=sys.stderr)
            return 1
        # the equality check, which also sizes each kernel's calls from the
        # base side's first call
        # each round's working directory is fresh and shared by both sides
        sides = (base, change)
        (base_times, _), (want, got) = run_round(sides, args.seed, {}, Path(tmp) / "check", 0)
        if got != want:
            print("the two sides give different results", file=sys.stderr)
            return 1
        calls = {name: max(1, math.ceil(KERNEL_SECONDS / max(took, 1e-9)))
                 for name, took in base_times.items() if name not in ROUNDS}
        ratios: dict = {name: [] for name in base_times}
        for k in range(args.rounds):
            seed = args.seed + k
            times, results = run_round(sides, seed, calls, Path(tmp) / f"round{k}", k)
            if results[0] != results[1]:
                print(f"the two sides give different results on seed {seed}", file=sys.stderr)
                return 1
            for name in ratios:
                ratios[name].append(times[1][name] / times[0][name])
    print(f"working tree against {args.rev}: {args.rounds} rounds from seed {args.seed},"
          f" equal results on every round")
    width = max(map(len, ratios))
    for name, values in ratios.items():
        calls_note = f"  ({calls[name]} calls)" if name in calls else ""
        print(f"{name:<{width}}  {summary(values)}{calls_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
