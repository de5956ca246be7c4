import math

import numpy as np
import pytest

from lkcurv import limits
from lkcurv.catalog import SmoothSet
from lkcurv.curvature import measure_sweep
from lkcurv.geomconst import ball_volume
from lkcurv.limits import (
    curvature_measures, estimate_limit, estimate_limits, fit_limit_sequence, validate_radii,
)
from lkcurv.spherical import conic_lk_measure_detailed

RADII = (8.0, 16.0, 32.0, 64.0)


def normalized_lk(x, k, radius, center=None):
    """The order-k curvature measure of X in the ball over b_k R^k."""
    (value, _), = curvature_measures(x, (k,), radius, center=center)
    return value / (ball_volume(k) * radius**k)


def test_schedule_validation():
    validate_radii(RADII)
    with pytest.raises(ValueError):
        validate_radii((8.0, 16.0))
    with pytest.raises(ValueError):
        validate_radii((8.0, 16.0, 48.0))
    with pytest.raises(ValueError):
        validate_radii((16.0, 8.0, 4.0))
    with pytest.raises(ValueError):
        validate_radii((float("nan"),) * 3)
    with pytest.raises(ValueError, match="positive"):
        validate_radii((0.0, 8.0, 16.0))


def test_plane_normalized_value_is_exact(sets):
    plane = sets["plane_r2_in_r3"]
    for radius in RADII:
        assert normalized_lk(plane, 2, radius) == pytest.approx(1.0, rel=1e-10)
    est = estimate_limit(plane, 2, RADII)
    assert est.value == pytest.approx(1.0, rel=1e-10)
    assert est.converged


def test_linear_subspace_exact(sets):
    est = estimate_limit(sets["line_r3"], 1, RADII)
    assert est.value == 1.0 and est.uncertainty == 0.0 and est.converged
    assert estimate_limit(sets["line_r3"], 2, RADII).value == 0.0


def test_conic_plateau_bit_identical(sets):
    cross = sets["cross_r2"]
    values = [normalized_lk(cross, 1, r) for r in RADII]
    assert all(v == values[0] for v in values)
    assert values[0] == pytest.approx(2.0, rel=1e-14)
    est = estimate_limit(cross, 1, RADII)
    assert est.value == pytest.approx(2.0, rel=1e-14) and est.converged
    assert values == [est.value] * 4


def test_star3_cone_plateau(sets):
    cone = sets["star3_cone_r3"]
    values = [normalized_lk(cone, 1, r) for r in RADII]
    assert max(values) - min(values) <= 1e-12 * max(1.0, abs(values[0]))


def test_hyperboloid_limit(sets):
    hyp = sets["hyperboloid_r3"]
    est = estimate_limit(hyp, 2, RADII)
    assert abs(est.value - math.sqrt(2.0)) <= 0.02
    assert est.converged
    # monotone approach from above toward sqrt(2)
    diffs = np.diff([normalized_lk(hyp, 2, r) for r in RADII])
    assert np.all(diffs < 0)


def test_paraboloid_limit_is_small(sets):
    est = estimate_limit(sets["paraboloid_r3"], 2, RADII)
    assert abs(est.value) <= 3.0 * est.uncertainty


def _count_cubature(monkeypatch):
    # (orders, radii) of each cubature sweep
    calls = []
    sweep = limits.measure_sweep

    def counted(*args, **kwargs):
        calls.append((tuple(args[1]), tuple(args[2])))
        return sweep(*args, **kwargs)

    monkeypatch.setattr(limits, "measure_sweep", counted)
    return calls


def test_compact_limits_vanish_exactly(sets, monkeypatch):
    calls = _count_cubature(monkeypatch)
    for name in ("sphere_s2", "torus_r3"):
        for k in (1, 2, 3):
            est = estimate_limit(sets[name], k, RADII)
            assert est.value == 0.0 and est.uncertainty == 0.0 and est.converged
    assert calls == []
    # the normalized values themselves still decay like 1/R^2
    assert normalized_lk(sets["sphere_s2"], 2, 8.0) == pytest.approx(4.0 / 64.0, rel=1e-9)


def test_compact_order0_limit_runs_cubature(sets, monkeypatch):
    # order 0 has no compact shortcut: the total curvature of S^2 is chi = 2
    calls = _count_cubature(monkeypatch)
    est = estimate_limit(sets["sphere_s2"], 0, RADII)
    assert calls == [((0,), tuple(RADII))]
    assert est.value == pytest.approx(2.0, abs=1e-9)


def test_order0_only_for_smooth_sets(sets):
    with pytest.raises(ValueError):
        estimate_limit(sets["cross_r2"], 0, RADII)
    with pytest.raises(ValueError):
        estimate_limit(sets["sphere_s2"], 4, RADII)


def test_limit_routes_name_each_set_kind(sets):
    for name, k, route in (("line_r3", 1, "linear_exact"),
                           ("cross_r2", 1, "conic_homogeneity"),
                           ("sphere_s2", 2, "compact_exact_zero"),
                           ("hyperboloid_r3", 2, "cubature_limit"),
                           ("paraboloid_r3", 2, "cubature_limit,not_converged")):
        est, = estimate_limits(sets[name], (k,), RADII)
        assert est.route == route, name


def test_curvature_measures_follow_each_kind_route(sets):
    hyp = sets["hyperboloid_r3"]
    values, bounds = measure_sweep(hyp, (0, 1, 2), (8.0,))
    assert curvature_measures(hyp, (0, 1, 2), 8.0) == list(zip(values[0].tolist(),
                                                               bounds[0].tolist()))
    cross = sets["cross_r2"]
    for center in (None, np.array([1.0, 2.0])):
        assert curvature_measures(cross, (1, 2), 8.0, center=center) == [
            conic_lk_measure_detailed(cross, k, 8.0, center=center) for k in (1, 2)]
    # a line meets the ball in a segment of length 2 sqrt(R^2 - dist^2); the
    # normalized value keeps the bits of (1 - dist^2/R^2)^(1/2)
    line, b1 = sets["line_r3"], ball_volume(1)
    assert curvature_measures(line, (1, 2, 3), 8.0) == [(b1 * 8.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
    shift = np.array([0.0, 0.5, 0.0])
    for radius in RADII:
        closed = (1.0 - 0.25 / (radius * radius)) ** 0.5
        assert curvature_measures(line, (1,), radius, center=shift) == [(b1 * radius * closed, 0.0)]
        assert normalized_lk(line, 1, radius, center=shift) == closed
    assert curvature_measures(line, (1,), 0.5, center=shift) == [(0.0, 0.0)]


def test_cylinder_limit(sets):
    est = estimate_limit(sets["cylinder_r3"], 2, RADII)
    assert abs(est.value) <= 3.0 * est.uncertainty + 1e-4


def test_schedule_extension_stability(sets):
    for name, k in [("hyperboloid_r3", 2), ("twisted_cubic_r3", 1),
                    ("cylinder_r3", 2)]:
        short = estimate_limit(sets[name], k, RADII)
        longer = estimate_limit(sets[name], k, RADII + (128.0,))
        assert abs(longer.value - short.value) <= short.uncertainty, name


def test_fit_limit_sequence_exact_plateau():
    value, unc, converged = fit_limit_sequence([8.0, 16.0, 32.0, 64.0],
                                               [2.0, 2.0, 2.0, 2.0],
                                               [0.0, 0.0, 0.0, 0.0])
    assert value == pytest.approx(2.0, rel=1e-14)
    assert unc <= 1e-12 and converged


def test_fit_limit_sequence_inverse_radius_family():
    radii = [8.0, 16.0, 32.0, 64.0]
    values = [3.0 + 5.0 / r for r in radii]
    value, unc, converged = fit_limit_sequence(radii, values, [0.0] * 4)
    assert value == pytest.approx(3.0, abs=1e-12)
    # the extrapolant is exact but the raw values have not plateaued yet,
    # which is what the converged flag reports
    assert not converged


def test_batched_fit_columns_match_one_column_fits(sets):
    # estimate_limits fits every swept order of a sweep in one multi-column
    # solve per window; each column must get the bits of its own one-column fit
    smooth = {name: x for name, x in sets.items() if isinstance(x, SmoothSet)}
    assert len(smooth) >= 7
    for name, x in smooth.items():
        for center in (None, np.full(x.ambient_dim, 0.5)):
            ks = range(x.ambient_dim + 1)
            values, errors = limits._normalized_sweep(x, ks, RADII, center)
            fit = limits._fit_limits(RADII, values, errors)
            for i in ks:
                value, uncertainty, converged = fit_limit_sequence(
                    RADII, values[:, i].tolist(), errors[:, i].tolist())
                got = np.array([fit[0][i], fit[1][i]])
                assert got.tobytes() == np.array([value, uncertainty]).tobytes(), (name, i)
                assert bool(fit[2][i]) is converged, (name, i)


def test_fit_window_drift_covers_faster_decay():
    # values converging like 1/R^2 leave a model bias that the in-window
    # residual alone misses; the window drift must cover it
    radii = [8.0, 16.0, 32.0, 64.0]
    values = [2.0 - 5.0 / (2.0 * r * r) for r in radii]
    value, unc, _ = fit_limit_sequence(radii, values, [0.0] * 4)
    assert abs(value - 2.0) <= 3.0 * unc
