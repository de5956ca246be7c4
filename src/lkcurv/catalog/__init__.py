"""Data model for closed semi-algebraic sets and their topological oracles.

The package exports the set types, the builtin catalog and the link routes;
charts, set files and the other helpers are imported from their modules.
"""

from .graphs import SphericalGraph, builtin_graphs
from .links import link_chi, link_chi_batch
from .polynomial import Poly
from .sets import (
    ConicGraph,
    LinearSubspace,
    SetDescriptor,
    SmoothSet,
    builtin_sets,
    resolve_set,
)

__all__ = [
    "ConicGraph",
    "LinearSubspace",
    "Poly",
    "SetDescriptor",
    "SmoothSet",
    "SphericalGraph",
    "builtin_graphs",
    "builtin_sets",
    "link_chi",  # the benchmark's probe calls it as ``lkcurv.link_chi``
    "link_chi_batch",
    "resolve_set",
]
