"""Numerical integral geometry for closed semi-algebraic sets.

Curvature measures, Grassmannian Monte Carlo, links at infinity, and a
harness that checks the Gauss-Bonnet-type identities tying them to the Euler
characteristic.
"""

from .catalog import (
    ConicGraph,
    LinearSubspace,
    LinkSection,
    Poly,
    SmoothSet,
    SphericalGraph,
    builtin_graphs,
    builtin_sets,
    euler_char,
    full_space,
    link_chi,
    link_chi_batch,
    link_infinity_chi,
    resolve_set,
    section,
)
from .curvature import (
    CubatureSpec,
    CurvatureDensity,
    SecondFundamentalForm,
    elementary_symmetric,
    lk_density,
    lk_measure,
    lk_measure_detailed,
    lk_measures_detailed,
    second_fundamental_form,
    weyl_density,
)
from .errors import (
    ChiUnknownError,
    CoverageGapError,
    DegenerateChartError,
    DegenerateSample,
    GenericityError,
    LkError,
    NonGenericDirectionError,
    SetValidationError,
    UnsupportedSection,
)
from .geomconst import ball_volume, sphere_volume
from .grassmann import (
    AffineFlat,
    MonteCarloEstimate,
    Subspace,
    grassmann_mean,
    grassmann_mean_batch,
    haar_sample,
    shift_subspace,
    substream,
)
from .limits import LimitEstimate, estimate_limit, estimate_limits, normalized_lk
from .report import TheoremReport, TheoremRow, report_from_dict, report_to_dict
from .spherical import (
    SphericalLK,
    conic_lk_measure,
    spherical_gauss_bonnet_check,
    spherical_lk,
    vertex_morse_index,
)
from .verify import Lambda0Result, lambda0, run_theorem

__version__ = "0.1.0"
