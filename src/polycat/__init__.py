"""Exact computer algebra for polynomial diagrams over finite sets.

The package is organized in layers: finite sets and maps (finset),
indexed families and base-change functors (fam), polynomial diagrams
with tensor/plus/hom/composition (poly), natural transformations
between extensions (nat), simulation cells (sim), the monoidal-closed
comparison maps and oracles (smcc), named law suites (suites), the
JSON document format (doc), and the command line front end (cli).

The most commonly used names are re-exported here; each module keeps
the full toolkit.
"""

from .errors import (
    OracleNotNatural,
    ParseError,
    PolycatError,
    ShapeMismatch,
    SizeGuardExceeded,
    ValidationError,
)
from .fam import FamMorphism, Family, Span, family_from_fibers
from .finset import FinMap, FinSet, guard_limit, set_guard_limit
from .poly import (
    DiagIso,
    DiagMorphism,
    PolyDiagram,
    bang_truncated,
    compose_direct,
    compose_structural,
    dualize,
    eval_extension,
    extension_fiber_sizes,
    hom_single_sorted,
    iso_check,
    notation,
    plus,
    single_sorted,
    tensor,
    tensor_unit,
)
from .nat import count_nat, enumerate_dm, eval_dm
from .report import Report
from .sim import SimCell, compose_sim, enumerate_sim, eval_sim, extract_sim
from .suites import run_suite, suite_names

__all__ = [
    "DiagIso",
    "DiagMorphism",
    "FamMorphism",
    "Family",
    "FinMap",
    "FinSet",
    "OracleNotNatural",
    "ParseError",
    "PolyDiagram",
    "PolycatError",
    "Report",
    "ShapeMismatch",
    "SimCell",
    "SizeGuardExceeded",
    "Span",
    "ValidationError",
    "bang_truncated",
    "compose_direct",
    "compose_sim",
    "compose_structural",
    "count_nat",
    "dualize",
    "enumerate_dm",
    "enumerate_sim",
    "eval_dm",
    "eval_extension",
    "eval_sim",
    "extension_fiber_sizes",
    "extract_sim",
    "family_from_fibers",
    "guard_limit",
    "hom_single_sorted",
    "iso_check",
    "notation",
    "plus",
    "run_suite",
    "set_guard_limit",
    "single_sorted",
    "suite_names",
    "tensor",
    "tensor_unit",
]
