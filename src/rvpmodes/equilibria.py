"""The model layer: radial kinetic equilibria f0(|p|), the data's tail
moments, the kinematics and special functions they use, and the one rule
every model scale keeps.

Units: speed of light c = 1, particle mass m = 1, so momenta are measured in
units of m*c and speeds lie in [0, 1).  The kinematics are pure and operate
elementwise on scalars or numpy arrays, as do the special functions: the
scaled Bessel K2 of the Juttner normalisation and the scaled complementary
error function erfcx of the Gaussian profile's tail moment, both written
here so that no module imports SciPy.

An :class:`Equilibrium` bundles f0 (unit mass, 4 pi int p^2 f0 dp = 1) and
its tail moment T(U) = int_P^inf (1+p^2)(-f0') dp in closed form,
U = sqrt(1+P^2).  T is all the memory envelope b reads of f0: T is
analytic in U, so b continues off the axis through it, and the dispersion
transform takes b' from that continuation by a complex step.  f0' itself
is carried nowhere.  A datum is its closed-form tail moment alone: a
profile factory returns the callable P -> int_P^inf p sqrt(1+p^2) h(p) dp,
vectorized over P, which is all the source envelope reads of h.  The
frequency envelopes of the spectral transforms are these tails.

The thermal equilibrium is evaluated with an exponent-shifted scaled Bessel
factor so temperatures down to 1e-4 neither overflow nor underflow.  It
shares one closed form with the thermal profile, written once in
``_thermal``: the edge factor e^{(1-U)/theta}, U = sqrt(1+p^2), and the
U-moment that p dp = U dU makes of both tails (norm M(U) and amp theta
M(U)).

A mode is built from three model scales, the kernel prefactor
4 pi/kappa^3, the equilibrium's normalisation and the datum's tail moment
at P = 0 with amp = 1.  ``positive_normal`` refuses each one that is not a
positive normal double, and each factory checks its scale by that rule
alone; the checks beside it refuse only what would make that scale's own
evaluation raise a different error or warning first (a temperature the
Bessel factor cannot take, a width or profile temperature that is not
positive, a non-finite amp).
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "v_of_p",
    "bessel_k2_scaled",
    "erfcx",
    "positive_normal",
    "Equilibrium",
    "juttner",
    "compact_decreasing",
    "gaussian_profile",
    "thermal_profile",
]

# e^-745 is below the smallest subnormal double: integrand values under it
# are zero, so the trapezoid sum of bessel_k2_scaled stops there.
_K2_LOG_FLOOR = 745.0

# Below this argument the trapezoid grid of bessel_k2_scaled reaches t where
# cosh 2t overflows (from about 3e-151 down), while e^x K2(x) =
# (2/x^2)(1 + x + O(x^2)) equals its leading term to double precision.
_K2_SMALL_X = 1e-150

# Above this argument e^x K2(x) = sqrt(pi/(2x)) (1 + 15/(8x) + O(x^-2))
# equals its leading term to double precision; the trapezoid's exponent
# -2x overflows from about 9e307 on, where 0 * -inf would be NaN.
_K2_LARGE_X = 1e17

# Weideman's series for erfcx: N terms, L = N^(1/2) / 2^(1/4)
_ERFCX_N = 40
_ERFCX_L = math.sqrt(_ERFCX_N / math.sqrt(2.0))

# Above this argument erfcx(x) = (1/(sqrt(pi) x)) (1 - 1/(2 x^2) + ...)
# equals its leading term to within 5e-17 relative.
_ERFCX_ASYMPTOTIC = 1e8


# --- kinematics, special functions and the scale rule -----------------------

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
    if x > _K2_LARGE_X:
        return math.sqrt(0.5 * math.pi / x)  # 0 at x = inf
    h = 0.2 / math.sqrt(1.0 + x)
    t_cut = 0.0
    for _ in range(4):
        t_cut = 2.0 * math.asinh(math.sqrt((_K2_LOG_FLOOR + 2.0 * t_cut)
                                           / (2.0 * x)))
    t = h * np.arange(int(t_cut / h) + 1)
    f = np.exp(-2.0 * x * np.sinh(0.5 * t) ** 2) * np.cosh(2.0 * t)
    return h * (np.sum(f) - 0.5 * f[0])


def bessel_k2_scaled(x):
    """Exponentially scaled e^x * K_2(x) for x > 0, 0 at x = inf.

    Trapezoid rule on the integral representation, and the leading terms
    of the two asymptotic series beyond it; within 1e-15 relative of
    ``scipy.special.kve(2, x)``, without importing SciPy.  The value
    exceeds the largest double, and is inf, for x below about 1.05e-154.
    """
    a = np.asarray(x, dtype=float)
    if not np.all(a > 0):
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


# --- equilibria --------------------------------------------------------------

@dataclass(frozen=True)
class Equilibrium:
    """Spherically symmetric, decreasing momentum distribution.

    ``value`` accepts scalars or numpy arrays of |p|.  ``support_bound`` is
    inf for rapidly decaying families.  ``tail_kernel_moment(U)`` =
    int_P^inf (1 + p^2) (-f0'(p)) dp in closed form in U = sqrt(1 + P^2),
    vectorized over real or complex U: the memory envelope, its
    continuation off the axis and its slope all read it, so no closed form
    of f0' is needed.  ``p_scale`` hints where the momentum integrand mass
    sits (quadrature map).
    """

    value: Callable
    support_bound: float
    tail_kernel_moment: Callable
    p_scale: float = 1.0


def _thermal(theta: float, scale: float):
    """The thermal family's closed forms at temperature ``theta``: the
    edge factor U -> e^{(1-U)/theta} (0, with no warning, where the
    exponent overflows), and its U-moment U -> scale M(U), M(U) =
    e^{(1-U)/theta} (U^2 + 2 theta U + 2 theta^2), for real or complex U.

    As p dp = U dU, int_P^inf p U e^{(1-U)/theta} dp = theta M(U), so the
    Juttner tail moment ((1+p^2)(-f0') = norm p U e^{(1-U)/theta} / theta)
    is norm M(U) and the thermal profile's is amp theta M(U).
    """

    def edge(u):
        with np.errstate(over="ignore"):  # e^-inf = 0 is exact
            return np.exp((1.0 - u) / theta)

    def moment(u):
        u = np.asarray(u)
        return scalarize(scale * edge(u)
                         * (u * u + 2.0 * theta * u + 2.0 * theta * theta))

    return edge, moment


def juttner(theta: float) -> Equilibrium:
    """Relativistic thermal equilibrium at temperature theta = k_B T.

    f0(p) = exp(-sqrt(1+p^2)/theta) / (4 pi theta K_2(1/theta)), which has
    unit total mass.  Internally the equivalent exponent-shifted form
    exp((1 - sqrt(1+p^2))/theta) / (4 pi theta e^{1/theta} K_2(1/theta))
    is used so that small theta stays in range.  Raises ValueError unless
    0 < theta < inf, and where that normalisation is not a positive normal
    double: theta above about 1.2e102, or so small that the denominator
    underflows.  Both refusals come before the cold-regime warning.
    """
    theta = float(theta)
    if not 0 < theta < math.inf:
        raise ValueError(f"temperature must be finite and positive, got "
                         f"{theta}")
    # f0 would underflow to zero everywhere (hot) or overflow (cold)
    norm = positive_normal(
        lambda: 1.0 / (4.0 * math.pi * theta * bessel_k2_scaled(1.0 / theta)),
        f"theta={theta:g}", "the Juttner normalisation")
    if theta < 1e-3:
        warnings.warn(
            f"theta={theta:g} is deep in the cold regime; values rely on the "
            "scaled-Bessel evaluation", stacklevel=2)
    edge, tail_kernel_moment = _thermal(theta, norm)

    def value(p):
        p = np.asarray(p, dtype=float)
        return scalarize(norm * edge(np.hypot(1.0, p)))

    return Equilibrium(
        value=value,
        support_bound=math.inf,
        p_scale=math.sqrt(2.0 * theta) + 2.0 * theta,
        tail_kernel_moment=tail_kernel_moment,
    )


def compact_decreasing(P: float) -> Equilibrium:
    """C^1 bump equilibrium c (1 - (p/P)^2)^4 on [0, P], unit mass.

    The normalization is exact: c = 3465 / (512 pi P^3).  Raises ValueError
    unless c is a positive normal double: P from about 2.3e-103 to 4.8e101
    (a P that is not finite and positive leaves no such c).
    """
    P = float(P)
    c = positive_normal(lambda: 3465.0 / (512.0 * math.pi * P**3),
                        f"support bound P={P:g}",
                        "the normalisation 3465/(512 pi P^3)")

    def value(p):
        p = np.asarray(p, dtype=float)
        w = np.clip(1.0 - (p / P) ** 2, 0.0, None)
        return scalarize(c * w**4)

    def tail_kernel_moment(u):
        # int_x^P (1+p^2)(-f0') dp = c [(1+P^2) w^4 - (4/5) P^2 w^5],
        # w = 1 - (x/P)^2 = 1 - (U^2 - 1)/P^2, U = sqrt(1+x^2); a real U
        # beyond the support (w < 0) gives 0.
        u = np.asarray(u)
        w = 1.0 - (u - 1.0) * (u + 1.0) / (P * P)
        if not np.iscomplexobj(w):
            w = np.clip(w, 0.0, None)
        return scalarize(c * ((1.0 + P * P) * w**4 - 0.8 * P * P * w**5))

    return Equilibrium(
        value=value,
        support_bound=P,
        p_scale=0.5 * P,
        tail_kernel_moment=tail_kernel_moment,
    )


# --- data: each profile is its tail moment ----------------------------------

def gaussian_profile(width: float, amp: float) -> Callable:
    """The tail moment P -> int_P^inf p sqrt(1+p^2) h(p) dp of the datum
    h(p) = amp * exp(-(p/width)^2), in closed form, vectorized over P.

    Raises ValueError unless width > 0, amp is finite and the tail moment
    at P = 0 with amp = 1, w^2/2 + sqrt(pi) w^3 erfcx(1/w)/4, is a positive
    normal double: width from about 2.1e-154 to 5.6e102.
    """
    width = float(width)
    amp = float(amp)
    if not (width > 0 and math.isfinite(amp)):
        raise ValueError(f"need width > 0 and finite amp, got "
                         f"width={width}, amp={amp}")

    def moment(scale, P):
        # int_P^inf p sqrt(1+p^2) e^{-p^2/w^2} dp, via u = sqrt(1+p^2):
        #   e^{-P^2/w^2} [ (w^2/2) U + (sqrt(pi) w^3 / 4) erfcx(U/w) ],
        # U = sqrt(1+P^2); erfcx keeps the e^{1/w^2} factor in range, and
        # (P/w)^2 = inf beyond about 1.3e154 w gives e^-inf = 0 exactly.
        P = np.asarray(P, dtype=float)
        u = np.hypot(1.0, P)
        with np.errstate(over="ignore"):
            edge = np.exp(-((P / width) ** 2))
        return scalarize(scale * edge * (
            0.5 * width**2 * u
            + 0.25 * math.sqrt(math.pi) * width**3 * erfcx(u / width)))

    positive_normal(lambda: moment(1.0, 0.0), f"width={width:g}",
                    "its tail moment at P = 0")
    return lambda P: moment(amp, P)


def thermal_profile(theta: float, amp: float = 1.0) -> Callable:
    """The tail moment P -> int_P^inf p sqrt(1+p^2) h(p) dp of the datum
    h(p) = amp * exp((1 - sqrt(1+p^2))/theta), a thermal-shaped bump, in
    closed form, vectorized over P.

    Shares the momentum-edge flatness class of the thermal equilibrium, so a
    mode seeded with it decays at the equilibrium's own stretched rate rather
    than the faster rate a Gaussian seed imposes.  Raises ValueError unless
    the tail moment at P = 0 with amp = 1, theta (1 + 2 theta + 2 theta^2),
    is a positive normal double: theta from about 2.3e-308 to 4.47e102.
    """
    theta = float(theta)
    amp = float(amp)
    if not (theta > 0 and math.isfinite(amp)):
        raise ValueError(f"need theta > 0 and finite amp, got "
                         f"theta={theta}, amp={amp}")
    positive_normal(lambda: _thermal(theta, theta)[1](1.0),
                    f"theta={theta:g}", "its tail moment at P = 0")
    moment = _thermal(theta, amp * theta)[1]
    return lambda P: moment(np.hypot(1.0, P))
