"""Singular-scale extensions of one-dimensional Brownian motion.

The library builds diffusions that move like Brownian motion in a strictly
increasing but heavily non-smooth scale: Cantor staircases inside, infinite
boundary stacks at excluded endpoints, countably many invariant intervals
side by side.  On top of the constructions sit their Dirichlet energies,
the orthogonal split into a smooth part and a singular complement, the
darning transform that collapses the singular set into an atomic measure,
trace forms on the leftover set, and seeded random-walk approximations for
checking all of it numerically.

Only the walks and the verification battery need numpy.  Their exports are
imported on first access, so the exact constructions load without it.
"""

import importlib

from .cantor import (
    CantorBlock,
    cantor_eval,
    cantor_fraction,
)
from .config import (
    DEFAULT_SEED,
    PRESET_NAMES,
    ComplementSpec,
    DustSpec,
    ExtensionConfig,
    IntervalSpec,
    PointClass,
    TraceMeasure,
    ValidationReport,
    build_trace_measure,
    classify_point,
    preset,
    validate,
)
from .darning import (
    DarnedSpec,
    DegenerateDarning,
    darn,
    darned_energy,
    darning_map,
    energy_equivalence_check,
)
from .forms import (
    BUILTIN_NAMES,
    CompensatorResult,
    IntervalPart,
    PiecewiseFn,
    bilinear,
    compensator,
    energy,
    in_extended_space,
    is_in_complement,
    named_function,
    orthogonal_decompose,
)
from .scale import ScaleFunction, make_scale
from .trace import (
    MembershipReport,
    TraceFn,
    TraceKind,
    TraceStructure,
    harmonic_extension,
    jump_contributions,
    trace_energy_bm,
    trace_energy_ext,
    trace_membership,
    trace_restriction,
    trace_structure,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "CantorBlock",
    "CheckResult",
    "ComplementSpec",
    "CompensatorResult",
    "DEFAULT_SEED",
    "DarnedSpec",
    "DegenerateDarning",
    "DustSpec",
    "ExtensionConfig",
    "GridChain",
    "IntervalPart",
    "IntervalSpec",
    "McEstimate",
    "MembershipReport",
    "OccupationStats",
    "PRESET_NAMES",
    "PathSample",
    "PiecewiseFn",
    "PointClass",
    "ScaleFunction",
    "TraceFn",
    "TraceKind",
    "TraceMeasure",
    "TraceStructure",
    "ValidationReport",
    "VisitTable",
    "bilinear",
    "build_chain",
    "build_trace_measure",
    "cantor_eval",
    "cantor_fraction",
    "classify_point",
    "compensator",
    "darn",
    "darned_energy",
    "darning_map",
    "energy",
    "energy_equivalence_check",
    "harmonic_extension",
    "hitting_probability",
    "in_extended_space",
    "is_in_complement",
    "jump_contributions",
    "make_scale",
    "named_function",
    "orthogonal_decompose",
    "preset",
    "run_all",
    "simulate_darned",
    "simulate_path",
    "simulate_trace_chain",
    "snap_grid",
    "trace_energy_bm",
    "trace_energy_ext",
    "trace_membership",
    "trace_restriction",
    "trace_structure",
    "validate",
]

# exports whose modules import numpy, by module: resolved on first access
_LAZY = {
    **dict.fromkeys(
        (
            "GridChain",
            "McEstimate",
            "OccupationStats",
            "PathSample",
            "VisitTable",
            "build_chain",
            "hitting_probability",
            "simulate_darned",
            "simulate_path",
            "simulate_trace_chain",
            "snap_grid",
        ),
        "sim",
    ),
    **dict.fromkeys(("CheckResult", "run_all"), "verify"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
