"""Sphere-bundle embedding bounds for lens spaces, with diagram construction.

The package walks the Farey graph (and its even subgraph) to bound how
many copies of S2 x S2 or its twisted cousin are needed for a lens space
to sit almost in the spine of a trisection, unfolds the witness walks
into trisection diagrams and Kirby diagrams, classifies the ambient
4-manifold, and cross-checks the classification with exact integer
invariants of the linking form.

`farey`, `evenfarey` and `lens`, which every bound needs, load with the
package.  `construct` and `forms`, and the names exported from them, load
on first access (the module `__getattr__` below), so that `lens-bounds`,
`table` and `dist` start without compiling or running the diagram and
form modules, which they never use.
"""

import importlib

from .farey import (
    DomainError,
    InvalidSlopeError,
    LONGITUDE,
    MERIDIAN,
    NoPathWithinCap,
    PathKind,
    Slope,
    SlopePath,
    canonical,
    common_neighbors,
    farey_det,
    farey_distance,
    farey_parents,
    is_even_vertex,
    neighbors,
)
from .evenfarey import even_distance, even_trace
from .lens import (
    BoundResult,
    Exactness,
    LensSpace,
    TableRow,
    equivalent_reps,
    normalize,
    prop_bound_table,
    twisted_bound,
    untwisted_bound,
)
# Each lazily loaded name, with the module it is read from.
_LAZY = dict.fromkeys(
    (
        "construct", "BlueCurve", "ConnectSum", "CutSystem", "DualPath", "FramedLink",
        "KirbyCurve", "PathMode", "PathViolation", "ScaffoldCurve", "TrisectionDiagram",
        "ViolationKind", "build_diagram", "classify", "kirby_link", "path_from_lens",
        "path_product", "validate_path",
    ),
    "construct",
) | dict.fromkeys(
    (
        "forms", "CongruenceError", "ConsistencyReport", "FormInvariants", "Parity",
        "TridiagonalForm", "congruence", "consistency_check", "det_int", "form_invariants",
        "identify", "parity", "signature", "smith_normal_form",
    ),
    "forms",
)


def __getattr__(name: str):
    """A name of `construct` or `forms`, or the module itself, loaded on first access."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
