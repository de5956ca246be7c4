"""Numerical integral geometry for closed semi-algebraic sets.

Curvature measures, Grassmannian means, links at infinity, and a harness
that checks the Gauss-Bonnet-type identities tying them to the Euler
characteristic.  The public surface is the batched routes
(``link_chi_batch`` and ``grassmann_mean_batch``, whose hyperplanes are slot
normals; ``curvature_sweep`` and its one-radius form ``curvature_measures``),
``run_theorem``, the set and report types, and the errors.  Planes of lower
dimension, and hyperplanes whose links agree almost everywhere, are closed
forms only (``catalog.links.generic_link_chi``), and the hyperplanes of cones
and indefinite quadrics of R^3 are sliced quadratures
(``grassmann.sliced_mean``).  No link takes a center: a link at infinity
depends only on asymptotic data.
"""

from .catalog import (
    ConicGraph,
    LinearSubspace,
    Poly,
    SetDescriptor,
    SmoothSet,
    SphericalGraph,
    builtin_graphs,
    builtin_sets,  # with ``resolve_set``, called by the benchmark's set-up timing
    link_chi,  # with ``grassmann_mean``, called by the benchmark's probe
    link_chi_batch,
    resolve_set,
)
from .errors import (
    ChiUnknownError,
    DegenerateChartError,
    DegenerateSample,
    GenericityError,
    LkError,
    SetValidationError,
    UnsupportedSection,
)
from .grassmann import MonteCarloEstimate, Subspace, grassmann_mean, grassmann_mean_batch
from .limits import LimitEstimate, curvature_measures, curvature_sweep
from .report import TheoremReport, TheoremRow
from .verify import run_theorem

__version__ = "0.1.0"
