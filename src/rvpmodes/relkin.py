"""Relativistic kinematics and the scaled Bessel K2 the Jüttner law needs.

Units: speed of light c = 1, particle mass m = 1, so momenta are measured in
units of m*c and speeds lie in [0, 1).  Everything here is pure and operates
elementwise on scalars or numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "v_of_p",
    "bessel_k2_scaled",
]

# e^-745 is below the smallest subnormal double: integrand values under it
# are zero, so the trapezoid sum of bessel_k2_scaled stops there.
_K2_LOG_FLOOR = 745.0

# Below this argument the trapezoid grid of bessel_k2_scaled reaches t where
# cosh 2t overflows (from about 3e-151 down), while e^x K2(x) =
# (2/x^2)(1 + x + O(x^2)) equals its leading term to double precision.
_K2_SMALL_X = 1e-150


def scalarize(out):
    """A 0-d result as a Python scalar; arrays pass through unchanged."""
    return out if np.ndim(out) else out.item()


def _asarray(x, name):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return a


def v_of_p(p):
    """Speed from momentum magnitude: v = p / sqrt(1 + p^2), in [0, 1).

    For p beyond ~6.7e7 the exact value rounds to 1.0 in double precision;
    the result is clamped to the largest double below 1 so the [0, 1)
    contract survives.
    """
    a = _asarray(p, "p")
    if np.any(a < 0):
        raise ValueError(f"momentum magnitude must be >= 0, got {p!r}")
    return scalarize(np.minimum(a / np.hypot(1.0, a),
                                np.nextafter(1.0, 0.0)))


def _k2_scaled(x):
    # e^x K2(x) = int_0^inf exp(-2x sinh^2(t/2)) cosh 2t dt; sinh^2 avoids
    # the cancellation in cosh t - 1.  The integrand is even and analytic
    # in a strip, so the trapezoid rule on [0, inf) converges geometrically
    # in 1/h; h = 0.2/sqrt(1 + x) resolves both the e^-t and the Gaussian
    # (width 1/sqrt(x)) regimes.  The cut t solves
    # 2x sinh^2(t/2) - 2t = _K2_LOG_FLOOR (cosh 2t <= e^2t) by iteration.
    if x < _K2_SMALL_X:
        return 2.0 / x / x  # not 2/(x*x): x*x is subnormal near 1e-154
    h = 0.2 / math.sqrt(1.0 + x)
    t_cut = 0.0
    for _ in range(4):
        t_cut = 2.0 * math.asinh(math.sqrt((_K2_LOG_FLOOR + 2.0 * t_cut)
                                           / (2.0 * x)))
    t = h * np.arange(int(t_cut / h) + 1)
    f = np.exp(-2.0 * x * np.sinh(0.5 * t) ** 2) * np.cosh(2.0 * t)
    return h * (np.sum(f) - 0.5 * f[0])


def bessel_k2_scaled(x):
    """Exponentially scaled e^x * K_2(x) for x > 0.

    Trapezoid rule on the integral representation; within 1e-15 relative
    of ``scipy.special.kve(2, x)``, without importing SciPy.  The value
    exceeds the largest double, and is inf, for x below about 1.05e-154.
    """
    a = _asarray(x, "x")
    if np.any(a <= 0):
        raise ValueError(f"bessel_k2_scaled requires x > 0, got {x!r}")
    out = np.array([_k2_scaled(float(v)) for v in a.ravel()])
    return scalarize(out.reshape(a.shape))
