"""Sphere-bundle embedding bounds for lens spaces, with diagram construction.

The package walks the Farey graph (and its even subgraph) to bound how
many copies of S2 x S2 or its twisted cousin are needed for a lens space
to sit almost in the spine of a trisection, unfolds the witness walks
into trisection diagrams and Kirby diagrams, classifies the ambient
4-manifold, and cross-checks the classification with exact integer
invariants of the linking form.
"""

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
from .evenfarey import even_distance, even_parent, even_trace, iteration_index
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
from .construct import (
    BlueCurve,
    ConnectSum,
    CutSystem,
    DualPath,
    FramedLink,
    KirbyCurve,
    PathMode,
    PathViolation,
    ScaffoldCurve,
    TrisectionDiagram,
    ViolationKind,
    blue_layer_path,
    build_diagram,
    classify,
    kirby_link,
    path_from_lens,
    path_product,
    validate_path,
)
from .forms import (
    CongruenceError,
    ConsistencyReport,
    FormInvariants,
    Parity,
    TridiagonalForm,
    congruence,
    consistency_check,
    det_int,
    form_invariants,
    identify,
    parity,
    signature,
    smith_normal_form,
)

__version__ = "0.1.0"
