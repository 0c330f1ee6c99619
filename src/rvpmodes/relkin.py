"""Relativistic kinematics, the two special functions the model factories
need, and the one rule every model scale keeps.

Units: speed of light c = 1, particle mass m = 1, so momenta are measured in
units of m*c and speeds lie in [0, 1).  The kinematics are pure and operate
elementwise on scalars or numpy arrays, as do the special functions: the
scaled Bessel K2 of the Jüttner normalisation and the scaled complementary
error function erfcx of the Gaussian profile's tail moment, both written
here so that no module imports SciPy.  A mode is built from three model
scales, the kernel prefactor 4 pi/kappa^3, the equilibrium's normalisation
and the datum's tail moment at P = 0; ``positive_normal`` refuses each one
that is not a positive normal double, and each factory checks its scale by
that rule alone.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

__all__ = [
    "v_of_p",
    "bessel_k2_scaled",
    "erfcx",
    "positive_normal",
]

# e^-745 is below the smallest subnormal double: integrand values under it
# are zero, so the trapezoid sum of bessel_k2_scaled stops there.
_K2_LOG_FLOOR = 745.0

# Below this argument the trapezoid grid of bessel_k2_scaled reaches t where
# cosh 2t overflows (from about 3e-151 down), while e^x K2(x) =
# (2/x^2)(1 + x + O(x^2)) equals its leading term to double precision.
_K2_SMALL_X = 1e-150

# Weideman's series for erfcx: N terms, L = N^(1/2) / 2^(1/4)
_ERFCX_N = 40
_ERFCX_L = math.sqrt(_ERFCX_N / math.sqrt(2.0))

# Above this argument erfcx(x) = (1/(sqrt(pi) x)) (1 - 1/(2 x^2) + ...)
# equals its leading term to within 5e-17 relative.
_ERFCX_ASYMPTOTIC = 1e8


def scalarize(out):
    """A 0-d result as a Python scalar; arrays pass through unchanged."""
    return out if np.ndim(out) else out.item()


def positive_normal(compute, subject, what):
    """The model scale ``compute()``, where it is a positive normal double.

    Otherwise raises ValueError("{subject} is out of range: {what} is not
    a positive normal double").  A Python float power or quotient that
    raises ArithmeticError (it overflows, or its divisor underflows to 0)
    is out of range, and so is a numpy overflow to inf, silenced here.
    """
    try:
        with np.errstate(over="ignore"):
            value = compute()
    except ArithmeticError:
        value = math.nan
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"{subject} is out of range: {what} is not a "
                         "positive normal double")
    return value


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


@functools.cache
def _coefficients():
    """a_N, ..., a_1 of Weideman's erfcx series (Horner order), from one
    4N-point FFT of e^{-t^2} (L^2 + t^2), t = L tan(theta/2), sampled at
    theta = k pi / 2N, |k| < 2N."""
    m = 2 * _ERFCX_N
    theta = np.arange(-m + 1, m) * math.pi / m
    t = _ERFCX_L * np.tan(0.5 * theta)
    f = np.concatenate(([0.0],
                        np.exp(-t * t) * (_ERFCX_L * _ERFCX_L + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return tuple(a[_ERFCX_N:0:-1].tolist())  # cached: immutable


def erfcx(x):
    """e^{x^2} erfc(x) for x >= 0, on scalars or numpy arrays.

    Weideman's (1994, SIAM J. Numer. Anal. 31:1497) rational series for
    the Faddeeva function w(z), taken at z = ix:
    erfcx(x) = 2 p(Z) / (L + x)^2 + 1 / (sqrt(pi) (L + x)),
    p(Z) = sum_n a_{n+1} Z^n, Z = (L - x)/(L + x), with N = 40 terms,
    whose coefficients are formed on the first call.  Above x = 1e8 it is
    the leading asymptotic term 1/(sqrt(pi) x).  Within 1e-15 relative of
    ``scipy.special.erfcx``.  A negative x raises ``ValueError``; NaN
    passes through.
    """
    a = np.asarray(x, dtype=float)
    if np.any(a < 0):
        raise ValueError(f"erfcx is implemented for x >= 0, got {x!r}")
    xs = np.minimum(a, _ERFCX_ASYMPTOTIC)
    d = _ERFCX_L + xs
    z = (_ERFCX_L - xs) / d
    p = np.zeros_like(z)
    for c in _coefficients():
        p = p * z + c
    series = 2.0 * p / d**2 + 1.0 / (math.sqrt(math.pi) * d)
    tail = 1.0 / (math.sqrt(math.pi) * np.maximum(a, _ERFCX_ASYMPTOTIC))
    return scalarize(np.where(a > _ERFCX_ASYMPTOTIC, tail, series))
