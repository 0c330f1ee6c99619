"""Relativistic kinematics and the few special functions the model needs.

Units: speed of light c = 1, particle mass m = 1, so momenta are measured in
units of m*c and speeds lie in [0, 1).  Everything here is pure and operates
elementwise on scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = [
    "v_of_p",
    "p_of_v",
    "f_cap",
    "f_cap_complex",
    "arctanh_complex",
    "bessel_k2",
    "bessel_k2_scaled",
]

# Beyond this argument K2 underflows to zero in double precision.
K2_UNDERFLOW_X = 700.0

# x/v above which F(x, v) switches from the direct formula to its series;
# the direct x*arctanh(v/x) - v loses ~6 digits to cancellation out here.
_F_SERIES_RATIO = 1e3


def _asarray(x, name):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return a


def v_of_p(p):
    """Speed from momentum magnitude: v = p / sqrt(1 + p^2), in [0, 1).

    For p beyond ~6.7e7 the exact value rounds to 1.0 in double precision;
    the result is clamped to the largest double below 1 so the [0, 1)
    contract (and the domain of p_of_v) survives.
    """
    a = _asarray(p, "p")
    if np.any(a < 0):
        raise ValueError(f"momentum magnitude must be >= 0, got {p!r}")
    out = np.minimum(a / np.hypot(1.0, a), np.nextafter(1.0, 0.0))
    return out if out.ndim else float(out)


def p_of_v(v):
    """Momentum magnitude from speed: p = v / sqrt(1 - v^2).

    Inverse of :func:`v_of_p`.  Factored as (1-v)(1+v) so values of v within
    1e-12 of the light speed still produce a large finite result, never NaN.
    """
    a = _asarray(v, "v")
    if np.any(a < 0) or np.any(a >= 1):
        raise ValueError(f"speed must lie in [0, 1), got {v!r}")
    out = a / np.sqrt((1.0 - a) * (1.0 + a))
    return out if out.ndim else float(out)


def _f_profile(z, v):
    """z*arctanh(v/z) - v, real or complex, with the series tail
    v^3/(3z^2) + v^5/(5z^4) + v^7/(7z^6) where |z|/v is large."""
    z, v = np.broadcast_arrays(z, v)
    series = (np.abs(z) > _F_SERIES_RATIO * np.maximum(v, 1e-300)) | (v == 0.0)
    out = np.empty_like(z)
    zs, vs = z[series], v[series]
    r2 = (vs / zs) ** 2
    out[series] = (vs**3 / zs**2) * (1.0 / 3.0 + r2 * (0.2 + r2 / 7.0))
    zd, vd = z[~series], v[~series]
    out[~series] = zd * np.arctanh(vd / zd) - vd
    return out


def f_cap(x, v):
    """F(x, v) = x*arctanh(v/x) - v for real x > v >= 0.

    Nonnegative and strictly decreasing in x; this is the profile of the
    one-sided transform of the memory kernel on the real-frequency branch.
    For x/v large the direct expression cancels catastrophically, so the
    tail uses the series v^3/(3x^2) + v^5/(5x^4) + v^7/(7x^6).
    """
    xa = _asarray(x, "x")
    va = _asarray(v, "v")
    if np.any(va < 0) or np.any(va >= 1):
        raise ValueError(f"speed must lie in [0, 1), got {v!r}")
    if np.any(xa <= va):
        raise ValueError("f_cap requires x > v (arctanh argument below 1)")
    out = _f_profile(xa, va)
    return out if out.ndim else float(out)


def f_cap_complex(z, v):
    """Complex continuation z*arctanh(v/z) - v for z off [-1, 1] scaled by v.

    Same series switch as :func:`f_cap` when |z| >> v.
    """
    out = _f_profile(np.asarray(z, dtype=complex), _asarray(v, "v"))
    return out if out.ndim else complex(out)


def arctanh_complex(z):
    """Principal-branch complex arctanh.

    Branch cuts are the real rays (-inf, -1] and [1, inf); evaluation exactly
    on a cut is rejected rather than silently picking a side.
    """
    za = np.asarray(z, dtype=complex)
    on_cut = (za.imag == 0.0) & (np.abs(za.real) >= 1.0)
    if np.any(on_cut):
        raise ValueError(f"arctanh branch cut at {z!r}")
    out = np.arctanh(za)
    return out if out.ndim else complex(out)


def bessel_k2(x):
    """Modified Bessel function K_2(x) for x > 0.

    Underflows to zero for x > ~700; callers needing the small-temperature
    regime should use :func:`bessel_k2_scaled` instead.
    """
    a = _asarray(x, "x")
    if np.any(a <= 0):
        raise ValueError(f"bessel_k2 requires x > 0, got {x!r}")
    out = _sp.kv(2, a)
    return out if out.ndim else float(out)


def bessel_k2_scaled(x):
    """Exponentially scaled e^x * K_2(x); finite for all x > 0."""
    a = _asarray(x, "x")
    if np.any(a <= 0):
        raise ValueError(f"bessel_k2_scaled requires x > 0, got {x!r}")
    out = _sp.kve(2, a)
    return out if out.ndim else float(out)
