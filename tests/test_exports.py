"""The package's public names: a stale export would break ``import *``, and the
sorted list is pinned."""

from __future__ import annotations

from collections import Counter

import plumbhom


def test_every_export_resolves_once():
    assert [name for name, n in Counter(plumbhom.__all__).items() if n > 1] == []
    assert [name for name in plumbhom.__all__ if not hasattr(plumbhom, name)] == []
    namespace: dict = {}
    exec("from plumbhom import *", namespace)
    assert set(plumbhom.__all__) <= set(namespace)


def test_public_names_are_pinned():
    # a name added to or dropped from the public surface is a deliberate change
    assert sorted(plumbhom.__all__) == [
        "AbelianGroup", "FillingEntry", "FillingReport", "GRAPH_PRESETS", "GradedAction",
        "GradedGroup", "IDENTITY_ACTION", "IntMatrix", "InvalidGraph", "PlumbingGraph",
        "Representation", "SnfResult", "TwistWord", "base_homology", "cokernel_group", "det",
        "filling_family", "format_matrix", "graph_from_json", "graph_preset", "graph_to_json",
        "intersection_form", "mapping_torus_homology", "mat_mul", "mat_pow", "parse_graph",
        "parse_matrix", "parse_word", "smith_invariants", "snf", "surface_bundle_homology",
        "torsion_closed_form", "validate", "wang_pieces", "word_action",
    ]
