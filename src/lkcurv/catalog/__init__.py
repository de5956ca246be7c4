"""Data model for closed semi-algebraic sets and their topological oracles."""

from .charts import CHART_BUILDERS, Chart, build_chart, gauss_legendre_nodes
from .graphs import SphericalGraph, builtin_graphs, validate_graph
from .links import (
    LinkSection,
    euler_char,
    full_space,
    link_chi,
    link_chi_batch,
    link_infinity_chi,
    section,
    subspace_intersection,
)
from .polynomial import Poly
from .sets import (
    ConicGraph,
    LinearSubspace,
    SetDescriptor,
    SmoothSet,
    builtin_sets,
    coefficient_scale,
    describe,
    kind_of,
    load_set_file,
    resolve_set,
    set_from_dict,
    set_to_dict,
    validate_set,
)

__all__ = [
    "CHART_BUILDERS",
    "Chart",
    "ConicGraph",
    "LinearSubspace",
    "LinkSection",
    "Poly",
    "SetDescriptor",
    "SmoothSet",
    "SphericalGraph",
    "build_chart",
    "builtin_graphs",
    "builtin_sets",
    "coefficient_scale",
    "describe",
    "euler_char",
    "full_space",
    "gauss_legendre_nodes",
    "kind_of",
    "link_chi",
    "link_chi_batch",
    "link_infinity_chi",
    "load_set_file",
    "resolve_set",
    "section",
    "set_from_dict",
    "set_to_dict",
    "subspace_intersection",
    "validate_graph",
    "validate_set",
]
