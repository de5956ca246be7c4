import math

import pytest

from lkcurv.geomconst import ball_volume, sphere_volume


def recursion_ball_volume(k):
    """Independent oracle: b_k = (2 pi / k) b_{k-2}, seeded by b_0 = 1, b_1 = 2."""
    values = [1.0, 2.0]
    for j in range(2, k + 1):
        values.append(2.0 * math.pi / j * values[j - 2])
    return values[k]


def test_ball_volume_small_cases():
    assert ball_volume(0) == pytest.approx(1.0, rel=1e-14)
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-13)


def test_ball_volume_matches_recursion_oracle():
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)
    for k in range(13):
        assert ball_volume(k) == pytest.approx(recursion_ball_volume(k), rel=1e-12)


def test_sphere_volume_small_cases():
    assert sphere_volume(0) == 2.0
    assert sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-13)


def test_sphere_volume_cross_check():
    # oracle: s_k = (k+1) b_{k+1}
    assert sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-13)
    for k in range(13):
        assert sphere_volume(k) == pytest.approx((k + 1) * ball_volume(k + 1), rel=1e-12)


def test_sphere_ball_identity():
    for k in range(1, 13):
        s = sphere_volume(k - 1)
        assert abs(s - k * ball_volume(k)) <= 1e-12 * s


def test_ball_recursion_identity():
    for k in range(2, 13):
        b = ball_volume(k)
        assert abs(b - 2.0 * math.pi / k * ball_volume(k - 2)) <= 1e-12 * b


def test_large_orders_stay_finite():
    for k in (25, 50, 120):
        assert 0.0 < ball_volume(k) < float("inf")
        assert 0.0 < sphere_volume(k) < float("inf")


def test_rejects_negative_or_fractional():
    with pytest.raises(ValueError):
        ball_volume(-1)
    with pytest.raises(ValueError):
        sphere_volume(2.5)
