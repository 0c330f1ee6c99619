"""Radial kinetic equilibria f0(|p|) and radial perturbation profiles.

An :class:`Equilibrium` bundles f0 (unit mass, 4 pi int p^2 f0 dp = 1), its
analytic radial derivative and its closed-form tail moment; a
:class:`PerturbationProfile` carries its closed-form tail moment too.  The
frequency envelopes of the spectral transforms are these tails, so both
are required.

Carrying f0' analytically matters: the dispersion integrands weight (-f0')
directly and numerical differentiation would dominate their error budget.
The thermal equilibrium is evaluated with an exponent-shifted scaled Bessel
factor so temperatures down to 1e-4 neither overflow nor underflow.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .relkin import bessel_k2_scaled, scalarize

__all__ = [
    "Equilibrium",
    "PerturbationProfile",
    "juttner",
    "compact_decreasing",
    "gaussian_profile",
    "thermal_profile",
]


@dataclass(frozen=True)
class Equilibrium:
    """Spherically symmetric, decreasing momentum distribution.

    ``value`` and ``derivative`` accept scalars or numpy arrays of |p|.
    ``support_bound`` is inf for rapidly decaying families.
    ``tail_kernel_moment(U)`` = int_P^inf (1 + p^2) (-f0'(p)) dp in closed
    form in U = sqrt(1 + P^2), vectorized over real or complex U.
    ``p_scale`` hints where the momentum integrand mass sits (quadrature map).
    """

    value: Callable
    derivative: Callable
    support_bound: float
    tail_kernel_moment: Callable
    p_scale: float = 1.0


@dataclass(frozen=True)
class PerturbationProfile:
    """Real radial profile of the transformed initial datum at one mode.

    ``tail_weighted_moment(P)`` = int_P^inf p sqrt(1+p^2) h(p) dp in closed
    form, vectorized over P (it is the envelope of the source transform).
    """

    value: Callable
    tail_weighted_moment: Callable
    p_scale: float = 1.0


def juttner(theta: float) -> Equilibrium:
    """Relativistic thermal equilibrium at temperature theta = k_B T.

    f0(p) = exp(-sqrt(1+p^2)/theta) / (4 pi theta K_2(1/theta)), which has
    unit total mass.  Internally the equivalent exponent-shifted form
    exp((1 - sqrt(1+p^2))/theta) / (4 pi theta e^{1/theta} K_2(1/theta))
    is used so that small theta stays in range.  Raises ValueError where
    that normalisation is not a positive normal double: theta above about
    1.2e102, or so small that the denominator underflows.
    """
    theta = float(theta)
    if theta <= 0:
        raise ValueError(f"temperature must be positive, got {theta}")
    if theta < 1e-3:
        warnings.warn(
            f"theta={theta:g} is deep in the cold regime; values rely on the "
            "scaled-Bessel evaluation", stacklevel=2)
    denom = 4.0 * math.pi * theta * bessel_k2_scaled(1.0 / theta)
    norm = 1.0 / denom if denom > 0 else math.inf
    if not sys.float_info.min <= norm < math.inf:
        # f0 would underflow to zero everywhere (hot) or overflow (cold)
        raise ValueError(f"theta={theta:g} is out of range: the Juttner "
                         f"normalisation {norm:g} is not a positive normal "
                         "double")

    def value(p):
        p = np.asarray(p, dtype=float)
        u = np.hypot(1.0, p)
        return scalarize(norm * np.exp((1.0 - u) / theta))

    def derivative(p):
        p = np.asarray(p, dtype=float)
        u = np.hypot(1.0, p)
        return scalarize(-(p / (theta * u)) * norm
                         * np.exp((1.0 - u) / theta))

    def tail_kernel_moment(u):
        # int_P^inf (1+p^2)(-f0') dp = (norm_shifted) e^{(1-U)/theta}
        #   * (U^2 + 2 theta U + 2 theta^2),  U = sqrt(1+P^2).
        u = np.asarray(u)
        return scalarize(norm * np.exp((1.0 - u) / theta)
                         * (u * u + 2.0 * theta * u + 2.0 * theta * theta))

    return Equilibrium(
        value=value,
        derivative=derivative,
        support_bound=math.inf,
        p_scale=math.sqrt(2.0 * theta) + 2.0 * theta,
        tail_kernel_moment=tail_kernel_moment,
    )


def compact_decreasing(P: float) -> Equilibrium:
    """C^1 bump equilibrium c (1 - (p/P)^2)^4 on [0, P], unit mass.

    The normalization is exact: c = 3465 / (512 pi P^3).
    """
    P = float(P)
    if not 0 < P < math.inf:
        raise ValueError(f"support bound must be finite and positive, got {P}")
    try:
        c = 3465.0 / (512.0 * math.pi * P**3)
    except ArithmeticError:  # P^3 overflows, or underflows to 0
        c = math.nan
    if not sys.float_info.min <= c < math.inf:
        raise ValueError(f"support bound P={P:g} is out of range: the "
                         "normalisation 3465/(512 pi P^3) is not a positive "
                         "normal double")

    def value(p):
        p = np.asarray(p, dtype=float)
        w = np.clip(1.0 - (p / P) ** 2, 0.0, None)
        return scalarize(c * w**4)

    def derivative(p):
        p = np.asarray(p, dtype=float)
        w = np.clip(1.0 - (p / P) ** 2, 0.0, None)
        return scalarize(-8.0 * c * (p / P**2) * w**3)

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
        derivative=derivative,
        support_bound=P,
        p_scale=0.5 * P,
        tail_kernel_moment=tail_kernel_moment,
    )


def gaussian_profile(width: float, amp: float) -> PerturbationProfile:
    """h(p) = amp * exp(-(p/width)^2).

    Raises ValueError unless the width's tail moment at P = 0, the largest
    (with amp = 1), is a positive normal double: width from about 2.1e-154
    to 5.6e102.
    """
    width = float(width)
    amp = float(amp)
    if not (0 < width < math.inf and math.isfinite(amp)):
        raise ValueError(f"need finite width > 0 and finite amp, got "
                         f"width={width}, amp={amp}")
    # that moment lies between w^2/2 and w^2/2 + sqrt(pi) w^3/4 (erfcx <= 1),
    # each within rounding of it where it leaves the normal doubles; a
    # float w**3 would raise OverflowError, a numpy one gives inf
    w = np.float64(width)
    with np.errstate(over="ignore"):
        low = 0.5 * w**2
        high = low + 0.25 * math.sqrt(math.pi) * w**3
    if not sys.float_info.min <= low <= high < math.inf:
        raise ValueError(f"width={width:g} is out of range: its tail moment "
                         "at P = 0 is not a positive normal double")

    def gauss(p):
        # (p/w)^2 = inf beyond about 1.3e154 w: e^-inf = 0 is exact
        with np.errstate(over="ignore"):
            return np.exp(-((p / width) ** 2))

    def value(p):
        p = np.asarray(p, dtype=float)
        return scalarize(amp * gauss(p))

    def tail_weighted_moment(P):
        # int_P^inf p sqrt(1+p^2) e^{-p^2/w^2} dp, via u = sqrt(1+p^2):
        #   e^{-P^2/w^2} [ (w^2/2) U + (sqrt(pi) w^3 / 4) erfcx(U/w) ],
        # U = sqrt(1+P^2); erfcx keeps the e^{1/w^2} factor in range.
        from .special import erfcx  # only Gaussian tails compile it

        P = np.asarray(P, dtype=float)
        u = np.hypot(1.0, P)
        return scalarize(amp * gauss(P) * (
            0.5 * width**2 * u
            + 0.25 * math.sqrt(math.pi) * width**3 * erfcx(u / width)))

    return PerturbationProfile(
        value=value,
        p_scale=width,
        tail_weighted_moment=tail_weighted_moment,
    )


def thermal_profile(theta: float, amp: float = 1.0) -> PerturbationProfile:
    """h(p) = amp * exp((1 - sqrt(1+p^2))/theta): a thermal-shaped bump.

    Shares the momentum-edge flatness class of the thermal equilibrium, so a
    mode seeded with it decays at the equilibrium's own stretched rate rather
    than the faster rate a Gaussian seed imposes.
    """
    theta = float(theta)
    amp = float(amp)
    if not (0 < theta < math.inf and math.isfinite(amp)):
        raise ValueError(f"need finite theta > 0 and finite amp, got "
                         f"theta={theta}, amp={amp}")

    def value(p):
        p = np.asarray(p, dtype=float)
        u = np.hypot(1.0, p)
        return scalarize(amp * np.exp((1.0 - u) / theta))

    def tail_weighted_moment(P):
        # Same u-substitution as the thermal tail moment.
        P = np.asarray(P, dtype=float)
        u = np.hypot(1.0, P)
        return scalarize(amp * theta * np.exp((1.0 - u) / theta) * (
            u * u + 2.0 * theta * u + 2.0 * theta * theta))

    return PerturbationProfile(
        value=value,
        p_scale=math.sqrt(2.0 * theta) + 2.0 * theta,
        tail_weighted_moment=tail_weighted_moment,
    )
