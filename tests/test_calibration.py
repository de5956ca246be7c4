"""Error bars checked against the truth.

Cubature bounds: the reported bound of a curvature measure (the change under
halving the rule) must cover its error against a reference.  The rows are
the off-center balls whose bounds once under-covered, when an inside mask put
a jump into the integrand, and a curve that leaves the ball and comes back.
The reference of a surface is the same rule with 4 times the nodes per axis;
a curve's panels already hold the most nodes a panel takes, so its reference
is the length in closed form.  Both rules integrate the curve's smooth
integrand to rounding, so its bound is compared above a rounding floor of
1e-13 relative.

Monte Carlo standard errors: ``tools/seed_sweep.py`` runs the drawn right
side of the two rows with exact values that still draw planes, at 60 seeds
of 400 samples.  The bounds were fixed before the sweep was run in this
suite: at most 5 of 60 seeds beyond 3 sigma, and an RMSE between 0.5 and 2
mean sigmas.

Sliced right sides: every golden row whose hyperplane term is a sliced
quadrature (it was drawn before) lies within its reported uncertainty of its
exact value, above a rounding floor of 1e-14.
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import lkcurv as lk
from lkcurv.catalog import SmoothSet
from lkcurv.catalog.charts import build_chart
from lkcurv.curvature import CubatureSpec

REFERENCE = CubatureSpec(nodes_2d=4 * CubatureSpec().nodes_2d, nodes_1d=4 * CubatureSpec().nodes_1d)

# (set, center, radius, order)
OFF_CENTER_ROWS = [
    ("hyperboloid_r3", (1.5, 0.7, 3.0), 8.0, 2),
    ("hyperboloid_r3", (1.5, 0.7, 3.0), 16.0, 0),
    ("cylinder_r3", (0.4, 0.3, 1.0), 1.2, 2),
    ("cylinder_r3", (0.4, 0.3, 1.0), 32.0, 2),
    ("cylinder_r3", (0.4, 0.3, 1.0), 64.0, 2),
]


@pytest.mark.parametrize("name, center, radius, k", OFF_CENTER_ROWS)
def test_off_center_bound_covers_the_error(sets, name, center, radius, k):
    x, center = sets[name], np.array(center)
    (value, bound), = lk.curvature_measures(x, (k,), radius, center=center)
    (reference, _), = lk.curvature_measures(x, (k,), radius, spec=REFERENCE, center=center)
    assert abs(value - reference) <= bound, (value, reference, bound)


def test_two_piece_curve_bound_covers_the_error():
    # (t^2 - 4, t, 0) in the radius-3 ball: |t| in [a, b], with
    # a^2, b^2 = (7 -+ sqrt 21) / 2, and arc length t sqrt(1 + 4 t^2) / 2 + asinh(2 t) / 4
    chart = build_chart("poly_curve", params={"coefficients": [[-4.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                                               [0.0, 0.0, 0.0]]})
    x = SmoothSet(ambient_dim=3, dim=1, chart=chart, declared_chi=1, compact=False)

    def primitive(t):
        return t * math.sqrt(1.0 + 4.0 * t * t) / 2.0 + math.asinh(2.0 * t) / 4.0

    a, b = math.sqrt((7.0 - math.sqrt(21.0)) / 2.0), math.sqrt((7.0 + math.sqrt(21.0)) / 2.0)
    exact = 2.0 * (primitive(b) - primitive(a))
    (value, bound), = lk.curvature_measures(x, (1,), 3.0)
    assert abs(value - exact) <= bound + 1e-13 * exact, (value, exact, bound)


def test_seed_sweep_sigmas_are_calibrated(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    rows = importlib.import_module("seed_sweep").sweep(60, 400)
    assert len(rows) == 2
    for row in rows:
        assert row["share_beyond_3sigma"] * row["seeds"] <= 5, row
        assert 0.5 <= row["rmse"] / row["mean_sigma"] <= 2.0, row


# (set, theorem, row k, exact right side): 1/2 is the star's arc length pi
# over 2 pi, 1 the flat plane's, sqrt(2) half the hyperboloid's mean of 2
# sqrt(2), and the defect formula chi - chi_link/2 - mean/2 gives 0 on the
# cones and -sqrt(2) on the hyperboloid
SLICED_ROWS = (
    [("star3_cone_r3", theorem, 2, 0.5) for theorem in ("prop3.1", "thm3.7", "cor3.8")]
    + [("plane_cone_r3", theorem, 2, 1.0) for theorem in ("prop3.1", "thm3.7", "cor3.8")]
    + [("hyperboloid_r3", theorem, 2, math.sqrt(2.0))
       for theorem in ("thm3.7", "cor3.8", "thm4.1", "thm4.2")]
    + [("star3_cone_r3", "du_lambda0", 0, 0.0), ("plane_cone_r3", "du_lambda0", 0, 0.0),
       ("hyperboloid_r3", "du_lambda0", 0, -math.sqrt(2.0))]
)


@pytest.mark.parametrize("name, theorem, k, exact", SLICED_ROWS)
def test_sliced_right_sides_cover_their_exact_values(sets, name, theorem, k, exact):
    report = lk.run_theorem(theorem, sets[name], n_samples=200, seed=42)
    row, = [row for row in report.rows if row.k == k]
    assert "sliced_quadrature(" in row.route_lhs + row.route_rhs
    assert abs(row.rhs - exact) <= row.uncertainty + 1e-14, (row.rhs, row.uncertainty)
