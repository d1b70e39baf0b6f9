"""Exact integer homology of sphere-plumbing bundles over punctured surfaces."""

from .bundle_homology import (
    Representation,
    mapping_torus_homology,
    surface_bundle_homology,
    wang_pieces,
)
from .distinguisher import (
    FillingEntry,
    FillingReport,
    filling_family,
    torsion_closed_form,
)
from .exact_linalg import (
    AbelianGroup,
    IntMatrix,
    SnfResult,
    cokernel_group,
    det,
    format_matrix,
    mat_mul,
    mat_pow,
    parse_matrix,
    smith_invariants,
    snf,
)
from .plumbing import (
    GradedGroup,
    InvalidGraph,
    PlumbingGraph,
    base_homology,
    graph_from_json,
    graph_to_json,
    intersection_form,
    parse_graph,
    validate,
)
from .presets import GRAPH_PRESETS, graph_preset
from .twist_engine import (
    GradedAction,
    IDENTITY_ACTION,
    TwistWord,
    parse_word,
    word_action,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "FillingEntry",
    "FillingReport",
    "GRAPH_PRESETS",
    "GradedAction",
    "GradedGroup",
    "IDENTITY_ACTION",
    "IntMatrix",
    "InvalidGraph",
    "PlumbingGraph",
    "Representation",
    "SnfResult",
    "TwistWord",
    "base_homology",
    "cokernel_group",
    "det",
    "filling_family",
    "format_matrix",
    "graph_from_json",
    "graph_preset",
    "graph_to_json",
    "intersection_form",
    "mapping_torus_homology",
    "mat_mul",
    "mat_pow",
    "parse_graph",
    "parse_matrix",
    "parse_word",
    "smith_invariants",
    "snf",
    "surface_bundle_homology",
    "torsion_closed_form",
    "validate",
    "wang_pieces",
    "word_action",
]
