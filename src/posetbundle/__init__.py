"""Non-Abelian cohomology of finite posets with finite-group values:
simplicial sets, cochains, principal bundles as 1-cocycles, connections,
curvature, holonomy, and gauge transformations.

The public names below are imported from their modules on first use
(PEP 562), so `import posetbundle` and the CLI load only the modules
they need."""

import importlib

_EXPORTS = {
    "cochains": "Cochain0 Cochain1 Cochain2 Cochain3 Morphism1 are_equivalent "
    "associated_cocycle classify_cocycles coboundary "
    "coboundary_from_assignment enumerate_cocycles extend_to_path "
    "find_morphism is_cocycle is_path_independent pushforward "
    "trivial_cochain1",
    "connections": "ambrose_singer_reduce central_decompose "
    "construct_from_cochain construct_nonflat curvature enumerate_connections "
    "holonomy holonomy_conjugacy_check induced_cocycle is_central "
    "is_connection is_flat restricted_holonomy star_compose star_inverse",
    "errors": "PosetBundleError",
    "gauge": "GaugeTransformation gauge_act gauge_group",
    "groups": "FiniteGroup GroupHom InnerAut ad compose_2g compose_3g "
    "cyclic_group hom_compose symmetric_group trivial_group",
    "paths": "Path Presentation compose count_hom_classes deformations "
    "homotopic pi1_presentation reverse_path",
    "poset": "Poset build_poset fundamental_open generate is_directed "
    "is_pathwise_connected is_totally_ordered",
    "simplicial": "Simplex0 Simplex1 Simplex2 Simplex3 boundary degeneracy "
    "enumerate_simplices is_degenerate is_inflating permute2 reverse",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
