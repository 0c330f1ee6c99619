"""The scaled complementary error function, for the Gaussian profile.

Only ``gaussian_profile``'s tail moment needs it, and it imports this
module on first use: a run with a thermal profile neither imports nor
compiles it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .relkin import scalarize

__all__ = ["erfcx"]

# Weideman's series: N terms, L = N^(1/2) / 2^(1/4)
_N = 40
_L = math.sqrt(_N / math.sqrt(2.0))

# Above this argument erfcx(x) = (1/(sqrt(pi) x)) (1 - 1/(2 x^2) + ...)
# equals its leading term to within 5e-17 relative.
_X_ASYMPTOTIC = 1e8


@functools.cache
def _coefficients():
    """a_N, ..., a_1 of Weideman's series (Horner order), from one
    4N-point FFT of e^{-t^2} (L^2 + t^2), t = L tan(theta/2), sampled at
    theta = k pi / 2N, |k| < 2N."""
    m = 2 * _N
    theta = np.arange(-m + 1, m) * math.pi / m
    t = _L * np.tan(0.5 * theta)
    f = np.concatenate(([0.0], np.exp(-t * t) * (_L * _L + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return tuple(a[_N:0:-1].tolist())  # cached: immutable


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
    xs = np.minimum(a, _X_ASYMPTOTIC)
    d = _L + xs
    z = (_L - xs) / d
    p = np.zeros_like(z)
    for c in _coefficients():
        p = p * z + c
    series = 2.0 * p / d**2 + 1.0 / (math.sqrt(math.pi) * d)
    tail = 1.0 / (math.sqrt(math.pi) * np.maximum(a, _X_ASYMPTOTIC))
    return scalarize(np.where(a > _X_ASYMPTOTIC, tail, series))
