"""Per-layer tracing from outside the library.

The tracer replaces every public function of the polycat layers with a
wrapper that counts the call and times it on a span stack, so each
group's self time excludes the time spent in nested wrapped calls. It
patches the defining module's attribute and every other binding of the
same function object in any polycat module (``from .finset import
check_guard`` makes a separate binding in fam, poly, nat, sim and smcc),
and restores them all on ``uninstall``. Nothing inside ``src/polycat``
is modified on disk.

``MOVES`` names every per-layer metric the traced run reports (their
units are in ``BENCHMARK.json``) with the end-to-end metric and workload
it is expected to move.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("finset", "fam", "poly", "nat", "sim", "smcc", "doc", "cli")

# Function name -> group, per layer. Public functions not named here fall
# into the layer's catch-all group (the layer name itself for finset, fam
# and cli, "<layer>.other" for the rest).
GROUPS = {
    "poly": {
        "extension_elements": "poly.extension",
        "extension_index": "poly.extension",
        "tensor": "poly.tensor",
        "compose_data": "poly.compose",
        "compose_direct": "poly.compose",
        "compose_structural": "poly.compose",
        "compose_bijection": "poly.compose",
        "compose_witness": "poly.compose",
        "hom_data": "poly.hom",
        "hom_single_sorted": "poly.hom",
        "dualize": "poly.hom",
        "iso_check": "poly.iso",
    },
    "nat": {
        "count_nat": "nat.count",
        "enumerate_dm": "nat.enumerate",
        "eval_dm": "nat.eval",
    },
    "sim": {
        "count_sim": "sim.count",
        "enumerate_sim": "sim.enumerate",
        "random_cell": "sim.enumerate",
        "eval_sim": "sim.eval",
        "extract_sim": "sim.extract",
        "equivalence_check": "sim.equiv",
    },
    "smcc": {
        "theta": "smcc.theta",
        "theta_check": "smcc.theta",
        "epsilon": "smcc.epsilon",
        "epsilon_naturality_check": "smcc.epsilon",
        "day_coend_oracle": "smcc.coend",
        "rectangle_decomposition": "smcc.coend",
        "curry_dm": "smcc.curry",
        "uncurry_dm": "smcc.curry",
    },
    "doc": {
        "parse_document": "doc.parse",
        "load_document": "doc.parse",
    },
}
CATCH_ALL = {"finset": "finset", "fam": "fam", "cli": "cli"}
# cli's helpers are private; only the entry point is a layer boundary.
ONLY = {"cli": ("main",)}

# Per-layer metric -> the end-to-end metric and workload it should move
# when its layer changes.
MOVES = {
    "finset.guard_checks": "wall_ref_s on every workload",
    "finset.guard_trips": "fail_ratio on queries",
    "finset.guard_size": "wall_ref_s and peak_rss_mb on every workload",
    "finset.calls": "wall_ref_s on universal",
    "finset.self_s": "wall_ref_s on universal",
    "fam.calls": "op_p50_ref_ms on queries",
    "fam.self_s": "op_p50_ref_ms on queries",
    "poly.extension.calls": "wall_ref_s on simcells and universal; none on adjunction",
    "poly.extension.distinct": "wall_ref_s on simcells and universal; none on adjunction",
    "poly.extension.reuse": "wall_ref_s on simcells and universal; peak_rss_mb on queries",
    "poly.extension.self_s": "wall_ref_s on simcells and universal; none on adjunction",
    "poly.tensor.calls": "wall_ref_s on universal and adjunction",
    "poly.tensor.distinct": "wall_ref_s on universal and adjunction",
    "poly.tensor.self_s": "wall_ref_s on universal and adjunction",
    "poly.compose.calls": "op_tail_ref_ms and fail_ratio on queries",
    "poly.compose.self_s": "op_tail_ref_ms and fail_ratio on queries",
    "poly.hom.calls": "wall_ref_s on adjunction",
    "poly.hom.self_s": "wall_ref_s on adjunction",
    "poly.iso.calls": "op_tail_ref_ms and fail_ratio on queries",
    "poly.iso.self_s": "op_tail_ref_ms and fail_ratio on queries",
    "poly.other.calls": "op_p50_ref_ms on queries",
    "poly.other.self_s": "op_p50_ref_ms on queries",
    "nat.count.calls": "wall_ref_s on adjunction; fail_ratio on queries",
    "nat.count.self_s": "wall_ref_s on adjunction; fail_ratio on queries",
    "nat.enumerate.calls": "wall_ref_s on adjunction",
    "nat.enumerate.results": "wall_ref_s on adjunction",
    "nat.enumerate.self_s": "wall_ref_s on adjunction",
    "nat.eval.calls": "wall_ref_s on adjunction",
    "nat.eval.self_s": "wall_ref_s on adjunction",
    "nat.other.self_s": "wall_ref_s on simcells and universal",
    "sim.count.self_s": "wall_ref_s and op_p50_ref_ms on simcells",
    "sim.enumerate.results": "wall_ref_s and op_p50_ref_ms on simcells",
    "sim.enumerate.self_s": "wall_ref_s and op_p50_ref_ms on simcells",
    "sim.eval.calls": "wall_ref_s and op_p50_ref_ms on simcells",
    "sim.eval.self_s": "wall_ref_s and op_p50_ref_ms on simcells",
    "sim.extract.self_s": "wall_ref_s and op_p50_ref_ms on simcells",
    "sim.equiv.calls": "wall_ref_s and op_p50_ref_ms on simcells",
    "sim.equiv.self_s": "wall_ref_s and op_p50_ref_ms on simcells",
    "sim.other.self_s": "op_p50_ref_ms on queries",
    "smcc.theta.calls": "op_p50_ref_ms and wall_ref_s on universal",
    "smcc.theta.self_s": "op_p50_ref_ms and wall_ref_s on universal",
    "smcc.epsilon.calls": "op_p50_ref_ms and wall_ref_s on universal",
    "smcc.epsilon.self_s": "op_p50_ref_ms and wall_ref_s on universal",
    "smcc.coend.calls": "op_tail_ref_ms and wall_ref_s on universal",
    "smcc.coend.exact": "op_tail_ref_ms and wall_ref_s on universal",
    "smcc.coend.relations": "op_tail_ref_ms and wall_ref_s on universal",
    "smcc.coend.self_s": "op_tail_ref_ms and wall_ref_s on universal",
    "smcc.curry.calls": "wall_ref_s on adjunction",
    "smcc.curry.self_s": "wall_ref_s on adjunction",
    "smcc.other.self_s": "wall_ref_s on adjunction",
    "doc.parse.calls": "op_p50_ref_ms on queries",
    "doc.parse.self_s": "op_p50_ref_ms on queries",
    "doc.other.self_s": "op_p50_ref_ms on queries",
    "cli.self_s": "op_p50_ref_ms on queries",
    "cli.refused": "fail_ratio on queries",
    "cli.crashed": "fail_ratio on queries",
    "bench.self_s": "none: time inside ops outside every wrapped layer",
    "trace.key.self_s": "none: the tracer's time hashing extension and tensor arguments",
    "trace.overhead_s": "none: traced wall_ref_s minus untraced wall_ref_s",
}


def _group_of(layer: str, name: str) -> str:
    return GROUPS.get(layer, {}).get(name) or CATCH_ALL.get(layer) or f"{layer}.other"


def _key(args: tuple, kwargs: dict) -> tuple:
    return args + tuple(sorted(kwargs.items()))


class Tracer:
    """Counts and self times per group, gathered by wrapping functions.

    ``stack`` holds one child-time accumulator per open span; the
    runner opens the outermost span around each op so that time inside
    an op but outside every wrapped call lands in ``bench``. Time the
    tracer spends keying extension and tensor arguments (a deep hash of
    frozen dataclasses) is counted as child time of the enclosing span and
    lands in ``trace.key`` instead.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.stack: list[float] = []
        # (module, attribute, original) for every binding install() replaced
        self.patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, group: str, fn, args: tuple, kwargs: dict):
        stack = self.stack
        self.calls[group] += 1
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[group] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

    def _wrap(self, fn, group: str):
        name = fn.__name__
        span = self.span
        counts = self.counts

        if name == "check_guard":
            limit_of = sys.modules[fn.__module__].guard_limit

            def wrapper(*args, **kwargs):
                size = args[0] if args else kwargs["size"]
                limit = limit_of()
                counts["finset.guard_checks"] += 1
                counts["finset.guard_size"] += min(size, limit + 1)
                if size > limit:
                    counts["finset.guard_trips"] += 1
                return fn(*args, **kwargs)
        elif group in ("poly.extension", "poly.tensor"):
            seen = self.distinct[group]
            stack, self_s = self.stack, self.self_s

            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                seen.add((name, _key(args, kwargs)))
                took = time.perf_counter() - start
                self_s["trace.key"] += took
                if stack:
                    stack[-1] += took
                return span(group, fn, args, kwargs)
        elif group in ("nat.enumerate", "sim.enumerate"):
            results = group + ".results"

            def wrapper(*args, **kwargs):
                out = span(group, fn, args, kwargs)
                if isinstance(out, list):
                    counts[results] += len(out)
                elif out is not None:
                    counts[results] += 1
                return out
        elif name == "day_coend_oracle":
            def wrapper(*args, **kwargs):
                rep = span(group, fn, args, kwargs)
                if rep.lines[1].startswith("mode: exact"):
                    counts["smcc.coend.exact"] += 1
                    # "skeleton 0..s: T tuples, G generating relations"
                    counts["smcc.coend.relations"] += int(rep.lines[0].split(", ")[1].split()[0])
                return rep
        elif group == "cli":
            def wrapper(*args, **kwargs):
                try:
                    code = span(group, fn, args, kwargs)
                except Exception:
                    counts["cli.crashed"] += 1
                    raise
                if code == 3:
                    counts["cli.refused"] += 1
                return code
        else:
            def wrapper(*args, **kwargs):
                return span(group, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function and patch every binding of it."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"polycat.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")
                        and name in ONLY.get(layer, (name,))):
                    replacements[id(obj)] = self._wrap(obj, _group_of(layer, name))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "polycat" or modname.startswith("polycat.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self.patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs the
        untraced run."""
        out: dict[str, float] = {}
        for name in MOVES:
            group, _, stat = name.rpartition(".")
            if name == "trace.overhead_s":
                continue
            if stat == "calls":
                out[name] = self.calls[group]
            elif stat == "self_s":
                out[name] = self.self_s[group]
            elif stat == "distinct":
                out[name] = len(self.distinct[group])
            elif stat == "reuse":
                calls = self.calls[group]
                out[name] = 1.0 - len(self.distinct[group]) / calls if calls else 0.0
            else:
                out[name] = self.counts[name]
        return out
