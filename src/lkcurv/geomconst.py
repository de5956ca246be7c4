"""Volumes of unit balls and unit spheres.

These constants normalize every curvature density in the package:
``ball_volume(k)`` is the Lebesgue volume of the unit ball in R^k and
``sphere_volume(k)`` the k-dimensional surface measure of the unit sphere
S^k in R^{k+1}.  Both are evaluated through log-gamma so they stay finite
and accurate for k up to several hundred.

Conventions: ``ball_volume(0) == 1`` (a point) and ``sphere_volume(0) == 2``
(two points), which is exactly what the spherical Gauss-Bonnet sums assume.
"""

from math import exp, lgamma, log, pi

_LOG_PI = log(pi)


def ball_volume(k: int) -> float:
    """Volume of the k-dimensional unit ball, pi^(k/2) / Gamma(k/2 + 1)."""
    k = _check_index(k, "ball_volume")
    return exp(0.5 * k * _LOG_PI - lgamma(0.5 * k + 1.0))


def sphere_volume(k: int) -> float:
    """Volume of the k-dimensional unit sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    k = _check_index(k, "sphere_volume")
    if k == 0:
        return 2.0  # the log-gamma route rounds to 1.9999999999999993
    return 2.0 * exp(0.5 * (k + 1) * _LOG_PI - lgamma(0.5 * (k + 1)))


def _check_index(k, name):
    ik = int(k)
    if ik != k or ik < 0:
        raise ValueError(f"{name} expects a non-negative integer, got {k!r}")
    return ik
