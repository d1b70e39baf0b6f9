"""Exact integer homology of sphere-plumbing bundles over punctured surfaces.

Public names and submodules load on first use (PEP 562), so ``import
plumbhom`` compiles no submodule and each command pays only for the modules
it runs.
"""

__version__ = "0.1.0"

# the public names each submodule defines
_EXPORTS = {
    "bundle_homology": "Representation mapping_torus_homology surface_bundle_homology "
                       "wang_pieces",
    "distinguisher": "FillingEntry FillingReport filling_family torsion_closed_form",
    "exact_linalg": "AbelianGroup IntMatrix SnfResult cokernel_group det format_matrix mat_mul "
                    "mat_pow parse_matrix smith_invariants snf",
    "plumbing": "GradedGroup InvalidGraph PlumbingGraph base_homology graph_from_json "
                "graph_to_json intersection_form parse_graph validate",
    "presets": "GRAPH_PRESETS graph_preset",
    "twist_engine": "GradedAction IDENTITY_ACTION TwistWord parse_word word_action",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
_SUBMODULES = {*_EXPORTS, "cli"}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # importing a submodule binds it here, so only public names need storing
    module = import_module(f"{__name__}.{home or name}")
    if home is None:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
