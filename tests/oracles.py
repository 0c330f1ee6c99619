"""Independent routes that the library's evaluators are checked against.

None of these is on a production path; each computes an object that
``rvpmodes`` computes another way, or checks a paper claim on sampled
data:

* the direct time-domain kernels (``alpha_direct``, ``beta_direct``) and
  their reconstructions from the frequency envelopes (``alpha_via_inverse``,
  ``beta_via_inverse``), which must agree: the cross-path kernel identity;
* globally adaptive Gauss-Kronrod (G7, K15) integration
  (``integrate_adaptive``, and ``integrate_semi_infinite_adaptive`` on the
  maps of ``quadrature.integrate_semi_infinite``), which copes with
  endpoint singularities and kinks that the production Gauss-Legendre
  doubling refuses; every momentum integral below goes through it;
* each equilibrium's radial slope f0'(p) (``juttner_derivative``,
  ``compact_derivative``), written here from the factory's formula, which
  the library never evaluates: it carries only the closed-form tail moment
  T, and takes b' by a complex step of b; the chain-rule slope
  ``beta_envelope_slope`` of the memory envelope from T and f0';
* the integration-by-parts twins of both critical-wavenumber integrals;
* the source transform beyond the support (``laplace_alpha_imag_tail``);
* each profile's datum h(p) pointwise with its momentum scale
  (``gaussian_density``, ``thermal_density``), written here from the
  profile's own formula, which the library never evaluates: it carries
  only the closed-form tail moment of h;
* the Filon panel sum taken directly at any omegas, O(T P)
  (``filon_sums_direct``), which the chirp-z transform of
  ``quadrature.filon_sums`` must meet; one-frequency Filon quadrature
  with panel doubling on it (``integrate_oscillatory``), and the Filon
  weights from the complex monomial moments (``filon_weights_monomial``);
* the memory-kernel transform off the axis by one adaptive momentum
  integral per point (``laplace_beta_halfplane_momentum``);
* the resolvent by integration of W/(1 - W) along the whole imaginary
  axis (``resolvent_kernel_axis``), with the exponential integral on the
  imaginary axis for its y^-2 tail (``exp1_neg_imag``);
* the refined march in its earlier coarse-first order
  (``solve_mode_coarse_first``), whose bits the half-step-first order
  keeps;
* the kinematic inverse ``p_of_v``, the profile ``f_cap`` with its
  complex continuation ``f_cap_complex``, and the unscaled Bessel factor
  ``bessel_k2``;
* the closed-form derivatives ``f_derivative`` and ``g_derivative`` of
  the appendix profile functions, on the C and D coefficient rows, which
  the battery's power series at R are checked against;
* the rational-envelope scan and the finite-order transform-decay
  certificate;
* the bootstrap's bounded draws one generator word at a time
  (``bounded_draws``).

Tests import them as ``from oracles import ...``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rvpmodes.gevrey import GevreyParams, _check_order, c_coeffs, d_coeffs
from rvpmodes.quadrature import (QuadResult, QuadratureError, _filon_weights,
                                 _scalar, filon_nodes, filon_sums)
from rvpmodes.equilibria import (_asarray, bessel_k2_scaled, scalarize,
                                 v_of_p)
from rvpmodes.spectral import (ModeSpec, alpha_hat, beta_hat_envelope,
                               laplace_beta_imag, sample_kernels)
from rvpmodes.volterra import ModeTrajectory, TimeGrid, solve_volterra


# --- kinematics and special functions ---------------------------------------

def p_of_v(v):
    """Momentum magnitude from speed: p = v / sqrt(1 - v^2).

    Inverse of ``v_of_p``.  Factored as (1-v)(1+v) so values of v within
    1e-12 of the light speed still produce a large finite result, never NaN.
    """
    a = _asarray(v, "v")
    if np.any(a < 0) or np.any(a >= 1):
        raise ValueError(f"speed must lie in [0, 1), got {v!r}")
    return scalarize(a / np.sqrt((1.0 - a) * (1.0 + a)))


# x/v above which F(x, v) switches from the direct formula to its series;
# the direct x*arctanh(v/x) - v loses ~6 digits to cancellation out here.
_F_SERIES_RATIO = 1e3


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
    return scalarize(_f_profile(xa, va))


def f_cap_complex(z, v):
    """Complex continuation z*arctanh(v/z) - v for z off [-1, 1] scaled by v.

    For |z| >> v the direct expression cancels catastrophically, so the
    tail uses the series v^3/(3z^2) + v^5/(5z^4) + v^7/(7z^6).
    """
    return scalarize(_f_profile(np.asarray(z, dtype=complex),
                                _asarray(v, "v")))


def bessel_k2(x):
    """Modified Bessel function K_2(x) for x > 0, from SciPy.

    Underflows to zero for x > ~700, where only the scaled e^x K_2(x) of
    ``equilibria.bessel_k2_scaled`` stays in range.
    """
    a = _asarray(x, "x")
    if np.any(a <= 0):
        raise ValueError(f"bessel_k2 requires x > 0, got {x!r}")
    from scipy.special import kv

    return scalarize(kv(2, a))


# E1(-ix) is summed as its power series up to this x and as its continued
# fraction beyond.  At x <= 2 the series terms x^k/(k k!) fall below 1e-37
# by k = _E1_SERIES_TERMS; at x > 2 the fraction converges within depth 256.
_E1_SERIES_MAX = 2.0
_E1_SERIES_TERMS = 40
_E1_MAX_DEPTH = 4096


def _e1_fraction(z, depth):
    """e^z E1(z) = 1/(z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...))), the
    fraction cut after ``depth`` levels and evaluated from the bottom up."""
    f = z + (2.0 * depth + 1.0)
    for k in range(depth, 0, -1):
        f = z + (2.0 * k - 1.0) - float(k * k) / f
    return 1.0 / f


def exp1_neg_imag(x):
    """Exponential integral E1(-i x) for real x > 0, in place of
    ``scipy.special.exp1(-1j * x)``, without importing SciPy.

    The power series -gamma - log(-ix) - sum (ix)^k / (k k!) for x <= 2,
    and beyond that the continued fraction e^{ix}/(-ix + 1 - 1^2/(-ix + 3
    - ...)) (Abramowitz & Stegun 5.1.11 and 5.1.22).  The fraction is
    evaluated from the bottom up at depths 16, 32, ... until two depths
    agree to 1e-15 relative; a non-finite value, or no agreement by depth
    4096, raises ``ArithmeticError``.
    """
    a = _asarray(x, "x")
    if np.any(a <= 0):
        raise ValueError(f"exp1_neg_imag requires x > 0, got {x!r}")
    out = np.empty(a.shape, dtype=complex)
    small = a <= _E1_SERIES_MAX
    xs = a[small]
    term = np.ones(xs.shape, dtype=complex)  # (ix)^k / k!
    acc = np.zeros(xs.shape, dtype=complex)
    for k in range(1, _E1_SERIES_TERMS + 1):
        term = term * (1j * xs) / k
        acc += term / k
    out[small] = -np.euler_gamma - (np.log(xs) - 0.5j * math.pi) - acc

    z = -1j * a[~small]
    depth = 16
    frac = _e1_fraction(z, depth)
    todo = np.arange(z.size)
    while todo.size:
        depth *= 2
        if depth > _E1_MAX_DEPTH:
            raise ArithmeticError(
                f"exp1_neg_imag: continued fraction not converged at depth "
                f"{_E1_MAX_DEPTH} for x = {-z[todo[0]].imag!r}")
        deeper = _e1_fraction(z[todo], depth)
        if not np.all(np.isfinite(deeper)):
            raise ArithmeticError(
                f"exp1_neg_imag: non-finite continued fraction at depth "
                f"{depth} for x = {-z[todo[~np.isfinite(deeper)][0]].imag!r}")
        done = np.abs(deeper - frac[todo]) <= 1e-15 * np.abs(deeper)
        frac[todo] = deeper
        todo = todo[~done]
    out[~small] = np.exp(-z) * frac
    return scalarize(out)


# --- adaptive Gauss-Kronrod integration --------------------------------------

# QUADPACK (G7, K15) abscissae and weights on [-1, 1], from the centre out
# (the rule is symmetric), and the Gauss-7 weights of the odd abscissae.
_XK = np.array([
    0.0, 0.20778495500789846760068940377324,
    0.40584515137739716690660641207696, 0.58608723546769113029414483825873,
    0.74153118559939443986386477328079, 0.86486442335976907278971278864093,
    0.94910791234275852452618968404785, 0.99145537112081263920685469752633,
])
_WK = np.array([
    0.20948214108472782801299917489171, 0.20443294007529889241416199923465,
    0.19035057806478540991325640242101, 0.16900472663926790282658342659855,
    0.14065325971552591874518959051024, 0.10479001032225018383987632254152,
    0.06309209262997855329070066318921, 0.02293532201052922496373200805897,
])
_WG = np.array([
    0.41795918367346938775510204081633, 0.38183005050511894495036977548898,
    0.27970539148927666790146777142378, 0.12948496616886969327061143267908,
])
_XK = np.concatenate((-_XK[:0:-1], _XK))
_WK = np.concatenate((_WK[:0:-1], _WK))
_WG = np.concatenate((_WG[:0:-1], _WG))
_GAUSS_IDX = np.arange(1, 15, 2)


def _gk15(f, a, b):
    """One (G7, K15) panel.  Returns (kronrod, error_estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = f(c + h * _XK)
    y = np.asarray(y)
    k = h * np.sum(_WK * y)
    g = h * np.sum(_WG * y[_GAUSS_IDX])
    return k, abs(k - g)


def integrate_adaptive(f, a, b, tol=1e-9, max_subdiv=2000):
    """Adaptive int_a^b f(x) dx to absolute tolerance ``tol``.

    Panels never evaluate the endpoints, so integrable endpoint
    singularities (1/sqrt(x), log x, ...) converge without special casing.
    Raises :class:`QuadratureError` carrying the best estimate if the
    subdivision budget is exhausted or the value or its error estimate is
    not finite, and ``ValueError`` unless ``tol`` is finite and positive.
    An estimate up to 100 ``tol`` (or within 1e-14 of the value) is
    accepted without a signal.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    val, err = _gk15(f, a, b)
    evals = 15
    # Heap of (-error, seq, a, b, value, error); seq breaks value ties.
    seq = 0
    heap = [(-err, seq, a, b, val, err)]
    total_val, total_err = val, err
    while total_err > tol and len(heap) < max_subdiv:
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # Interval at floating-point resolution: keep as is.
            heapq.heappush(heap, (0.0, seq + 1, pa, pb, pval, perr))
            seq += 1
            continue
        v1, e1 = _gk15(f, pa, mid)
        v2, e2 = _gk15(f, mid, pb)
        evals += 30
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - perr
        seq += 1
        heapq.heappush(heap, (-e1, seq, pa, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, pb, v2, e2))
    total_err = abs(total_err)
    res = QuadResult(_scalar(total_val), float(total_err), evals)
    if not (np.isfinite(total_val) and np.isfinite(total_err)):
        raise QuadratureError(
            "integrate_adaptive hit a non-finite value or error estimate "
            f"({res.value}, {total_err}) after {evals} evaluations", res)
    if total_err > 100 * tol and not total_err <= 1e-14 * abs(total_val):
        raise QuadratureError(
            f"integrate_adaptive did not reach tol={tol:g} "
            f"(estimate {total_err:g} after {evals} evaluations)", res)
    return res


def integrate_semi_infinite_adaptive(f, tol=1e-9, support=None, scale=1.0):
    """``quadrature.integrate_semi_infinite`` on ``integrate_adaptive``:
    [0, support] for a finite ``support``, else [0, inf) through the
    rational map p = scale*u/(1-u)."""
    if support is not None and np.isfinite(support):
        return integrate_adaptive(f, 0.0, float(support), tol=tol)
    s = float(scale)
    if s <= 0:
        raise ValueError("scale must be positive")

    def g(u):
        w = 1.0 - u
        return f(s * u / w) * (s / (w * w))

    return integrate_adaptive(g, 0.0, 1.0, tol=tol)


# --- the direct Filon panel sum, and one-frequency Filon quadrature ---------

_DIRECT_CHUNK = 512  # omegas per block of the direct (T x P) panel sum


def filon_sums_direct(env_nodes, a, b, omegas, parts=None):
    """``quadrature.filon_sums`` at any omegas, uniform or not, by the
    direct panel sum: e^{i omega c_p} at every panel centre c_p, the panel
    sums of each node column, then the Filon weights, 512 omegas at a
    time.  Same arguments and shapes; ``parts`` keeps each row's real or
    imaginary part."""
    omegas = np.asarray(omegas, dtype=float)
    stack = np.asarray(env_nodes)
    if stack.ndim == 2:
        return filon_sums_direct(stack[None], a, b, omegas, parts)[0]
    n_panels = stack.shape[1]
    h = (b - a) / n_panels
    centers = a + (np.arange(n_panels) + 0.5) * h
    sums = np.empty((len(stack), omegas.size), dtype=complex)
    for i0 in range(0, omegas.size, _DIRECT_CHUNK):
        om = omegas[i0:i0 + _DIRECT_CHUNK]
        lam = _filon_weights(om * (h / 2.0))                    # (T, 4)
        phase = np.exp(1j * np.outer(om, centers))              # (T, P)
        bsum = np.einsum("tp,kpm->ktm", phase, stack)           # (K, T, 4)
        sums[:, i0:i0 + _DIRECT_CHUNK] = np.sum(bsum * lam, 2) * (h / 2.0)
    if parts is None:
        return sums
    return np.stack([getattr(row, part) for row, part in zip(sums, parts)])


_OSC_MAX_PANELS = 2 ** 14


def integrate_oscillatory(f, omega, a, b, tol=1e-9):
    """int_a^b f(x) e^{i omega x} dx for a smooth envelope f.

    Composite Filon with global panel doubling until the update falls below
    ``tol``; the panel count is set by envelope resolution, not frequency.
    omega = 0 degenerates to plain (non-oscillatory) integration.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if omega == 0.0:
        res = integrate_adaptive(f, a, b, tol=tol)
        return QuadResult(complex(res.value), res.abs_error_estimate,
                          res.evaluations)

    n = 8
    prev = None
    evals = 0
    while True:
        nodes = filon_nodes(a, b, n)
        vals = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
        evals += nodes.size
        cur = complex(filon_sums_direct(vals, a, b, [float(omega)])[0])
        if prev is not None:
            err = abs(cur - prev)
            if err <= tol:
                return QuadResult(cur, err, evals)
            if 2 * n > _OSC_MAX_PANELS:
                raise QuadratureError(
                    f"integrate_oscillatory stalled at {n} panels "
                    f"(estimate {err:g})", QuadResult(cur, err, evals))
        prev = cur
        n *= 2


def _filon_moments(omega_half):
    """mu_j(Om) = int_{-1}^{1} s^j e^{i Om s} ds for j = 0..3, vectorized
    over Om; shape (..., 4).  A 24-term complex Taylor series below
    |Om| = 1, integration by parts in complex exponentials above."""
    om = np.asarray(omega_half, dtype=float)
    out = np.empty(om.shape + (4,), dtype=complex)
    small = np.abs(om) < 1.0
    if np.any(small):
        w = om[small]
        acc = np.zeros(w.shape + (4,), dtype=complex)
        term = np.ones_like(w, dtype=complex)  # (i*Om)^n / n!
        for n in range(24):
            for j in range(4):
                if (n + j) % 2 == 0:
                    acc[..., j] += term * (2.0 / (n + j + 1))
            term = term * (1j * w) / (n + 1)
        out[small] = acc
    big = ~small
    if np.any(big):
        w = om[big]
        iw = 1j * w
        e_plus = np.exp(iw)
        e_minus = np.exp(-iw)
        mu = np.empty(w.shape + (4,), dtype=complex)
        mu[..., 0] = (e_plus - e_minus) / iw
        for j in range(1, 4):
            sign = -1.0 if j % 2 else 1.0
            mu[..., j] = ((e_plus - sign * e_minus) / iw
                          - (j / iw) * mu[..., j - 1])
        out[big] = mu
    return out


def filon_weights_monomial(omega_half):
    """The Filon weights int_{-1}^{1} l_m(s) e^{i Om s} ds of the cardinal
    cubics l_m on the nodes -1, -1/3, 1/3, 1, from the monomial moments
    and the inverse Vandermonde matrix; shape (..., 4)."""
    s = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
    # row m holds the monomial coefficients of l_m
    coeffs = np.linalg.inv(np.vander(s, 4, increasing=True).T)
    return _filon_moments(omega_half) @ coeffs.T


# --- the data h(p) of the profile factories ---------------------------------

@dataclass(frozen=True)
class Density:
    """A datum h(p), on scalars or numpy arrays of |p|, and the momentum
    scale where its mass sits (the scale of the half-line map)."""

    value: Callable
    p_scale: float


def gaussian_density(width, amp):
    """h(p) = amp exp(-(p/width)^2), the datum whose tail moment
    ``gaussian_profile(width, amp)`` is."""
    def value(p):
        with np.errstate(over="ignore"):  # e^-inf = 0 is exact
            return amp * np.exp(-((np.asarray(p, dtype=float) / width) ** 2))
    return Density(value, width)


def thermal_density(theta, amp=1.0):
    """h(p) = amp exp((1 - sqrt(1+p^2))/theta), the datum whose tail
    moment ``thermal_profile(theta, amp)`` is."""
    def value(p):
        with np.errstate(over="ignore"):  # e^-inf = 0 is exact
            return amp * np.exp((1.0 - np.hypot(1.0, p)) / theta)
    return Density(value, math.sqrt(2.0 * theta) + 2.0 * theta)


# --- the radial slopes f0'(p) of the equilibrium factories -----------------

def juttner_derivative(theta):
    """f0'(p) = -(p/(theta U)) f0(p), U = sqrt(1+p^2), of ``juttner(theta)``,
    on scalars or numpy arrays of |p|; 0 without a warning where the
    exponent (1 - U)/theta overflows."""
    norm = 1.0 / (4.0 * math.pi * theta * bessel_k2_scaled(1.0 / theta))

    def derivative(p):
        p = np.asarray(p, dtype=float)
        u = np.hypot(1.0, p)
        with np.errstate(over="ignore"):  # e^-inf = 0 is exact
            return scalarize(-(p / (theta * u)) * norm
                             * np.exp((1.0 - u) / theta))
    return derivative


def compact_derivative(P):
    """f0'(p) = -8 c (p/P^2) (1 - (p/P)^2)^3 on [0, P] and 0 beyond, of
    ``compact_decreasing(P)``, c = 3465/(512 pi P^3)."""
    c = 3465.0 / (512.0 * math.pi * P**3)

    def derivative(p):
        p = np.asarray(p, dtype=float)
        w = np.clip(1.0 - (p / P) ** 2, 0.0, None)
        return scalarize(-8.0 * c * (p / P**2) * w**3)
    return derivative


def beta_envelope_slope(mode: ModeSpec, df0, y):
    """b'(y) = (4 pi sigma / kappa^3) [T(U) + r f0'(P) / (1 - r^2)^{5/2}]
    for |y| < kappa and 0 beyond, r = |y|/kappa, P = r/sqrt(1 - r^2),
    U = sqrt(1+P^2), T the equilibrium's tail moment and ``df0`` its f0':
    the chain rule on b(y) = (4 pi sigma / kappa^3) y T(U)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < mode.kappa
    r = np.abs(y[inside]) / mode.kappa
    p = r / np.sqrt((1.0 - r) * (1.0 + r))
    out[inside] = (4.0 * math.pi * mode.sigma / mode.kappa**3) * (
        mode.equilibrium.tail_kernel_moment(np.hypot(1.0, p))
        + r * df0(p) / ((1.0 - r) * (1.0 + r))**2.5)
    return out


# --- kernels: direct time-domain reductions and inverse transforms ----------

def _eq_integral(eq, integrand, tol):
    return integrate_semi_infinite_adaptive(integrand, tol=tol,
                                            scale=eq.p_scale,
                                            support=eq.support_bound)


def _sinc_kernel(w):
    """sin(w)/w with the w -> 0 series, elementwise."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-3
    ws = w[small]
    out[small] = 1.0 - ws * ws / 6.0 * (1.0 - ws * ws / 20.0)
    wb = w[~small]
    out[~small] = np.sin(wb) / wb
    return out


def _beta_kernel(w):
    """cos(w)/w - sin(w)/w^2 with the w -> 0 series, elementwise."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-3
    ws = w[small]
    w2 = ws * ws
    out[small] = -ws / 3.0 + ws * w2 / 30.0 - ws * w2 * w2 / 840.0
    wb = w[~small]
    out[~small] = np.cos(wb) / wb - np.sin(wb) / (wb * wb)
    return out


def alpha_direct(mode: ModeSpec, h: Density, t: float,
                 tol=1e-11) -> complex:
    """Source kernel: 4 pi int p^2 h(p) sinc(2 pi kappa v(p) t) dp, with
    h the datum of ``mode.profile``.

    Real for real radial profiles and even in t.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    w = 2.0 * math.pi * mode.kappa * t

    def integrand(p):
        return 4.0 * math.pi * p * p * h.value(p) \
            * _sinc_kernel(w * v_of_p(p))

    res = integrate_semi_infinite_adaptive(integrand, tol=tol,
                                           scale=h.p_scale)
    return complex(res.value)


def beta_direct(mode: ModeSpec, df0, t: float, tol=1e-11) -> float:
    """Memory kernel: (8 pi sigma / kappa) *
    int p^2 (-f0'(p)) [cos(W)/W - sin(W)/W^2] dp,  W = 2 pi kappa v(p) t,
    with ``df0`` the f0' of ``mode.equilibrium``.

    Real, odd in t, and zero at t = 0.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t == 0.0:
        return 0.0
    w = 2.0 * math.pi * mode.kappa * t
    eq = mode.equilibrium

    def integrand(p):
        return p * p * (-df0(p)) * _beta_kernel(w * v_of_p(p))

    res = _eq_integral(eq, integrand, tol)
    return 8.0 * math.pi * mode.sigma / mode.kappa * res.value


def alpha_via_inverse(mode: ModeSpec, t: float, tol=1e-11) -> complex:
    """Source kernel reconstructed from its transform:
    2 int_0^kappa alpha_hat(y) cos(2 pi y t) dy."""
    res = integrate_oscillatory(lambda y: alpha_hat(mode, y),
                                2.0 * math.pi * t, 0.0, mode.kappa, tol=tol)
    return complex(2.0 * res.value.real)


def beta_via_inverse(mode: ModeSpec, t: float, tol=1e-11) -> float:
    """Memory kernel reconstructed from its transform:
    -2 int_0^kappa b(y) sin(2 pi y t) dy with beta_hat = i*b."""
    res = integrate_oscillatory(lambda y: beta_hat_envelope(mode, y),
                                2.0 * math.pi * t, 0.0, mode.kappa, tol=tol)
    return float(-2.0 * res.value.imag)


def laplace_alpha_imag_tail(mode: ModeSpec, h: Density, y: float,
                            tol=1e-10) -> complex:
    """Transform of the source kernel at s = 2*pi*i*y for |y| >= kappa:
    purely imaginary, (-2i/kappa) int arctanh((kappa/|y|) v(p))
    p sqrt(1+p^2) h(p) dp, decaying like 1/|y|, with h the datum of
    ``mode.profile``."""
    kap = mode.kappa
    ay = abs(y)
    if ay < kap:
        raise ValueError("tail formula applies for |y| >= kappa only")

    def integrand(p):
        return np.arctanh((kap / ay) * v_of_p(p)) * p * np.hypot(1.0, p) \
            * h.value(p)

    res = integrate_semi_infinite_adaptive(integrand, tol=tol,
                                           scale=h.p_scale)
    return complex(0.0, -2.0 / kap * res.value)


def laplace_beta_halfplane_momentum(mode: ModeSpec, df0, x: float, y: float,
                                    tol=1e-10) -> complex:
    """Transform of the memory kernel at s = x + 2*pi*i*y for x > 0 via
    the closed complex form (4 sigma / kappa^2) int [z arctanh(v/z) - v]
    (1+p^2)(-f0') dp, z = (x + 2*pi*i*y) / (2*pi*i*kappa), with ``df0``
    the f0' of ``mode.equilibrium``: one adaptive momentum integral per
    point."""
    if not x > 0:
        raise ValueError("laplace_beta_halfplane_momentum requires x > 0")
    kap = mode.kappa
    eq = mode.equilibrium
    z = complex(y / kap, -x / (2.0 * math.pi * kap))

    def integrand(p):
        return f_cap_complex(z, v_of_p(p)) * (1.0 + p * p) \
            * (-df0(p))

    res = _eq_integral(eq, integrand, tol)
    return 4.0 * mode.sigma / kap**2 * complex(res.value)


_RESOLVENT_Y_MAX = 64.0  # quadrature in y stops at this multiple of kappa


def resolvent_kernel_axis(mode: ModeSpec, times, tol=1e-8) -> np.ndarray:
    """Resolvent samples R(t) = int G(y) e^{2 pi i y t} dy over the whole
    imaginary axis, G = W/(1 - W), for a supercritical mode (not checked).

    Fixed Filon panels: 1024 on the support, 64 on each dyadic segment
    [kappa 2^k, kappa 2^(k+1)] up to ``_RESOLVENT_Y_MAX * kappa``, and the
    rest in closed form from the y^-2 asymptote of G via
    ``exp1_neg_imag``.  ``tol`` reaches only the transform; at the
    criterion-6 mode this is 4.1e-7 of max|R| off the jump form.
    """
    def transform(y):
        w = laplace_beta_imag(mode, y, tol=tol)
        return w / (1.0 - w)

    kap = mode.kappa
    om = 2.0 * math.pi * np.asarray(times, dtype=float)

    # Inside the support: G complex (W carries the i b/2 part).
    n_in = 1024
    nodes = filon_nodes(0.0, kap, n_in)
    total = filon_sums(transform(nodes.ravel()).reshape(nodes.shape),
                       0.0, kap, om)

    # Outside: G real on geometric panels [kap, Y].
    seg_lo, seg_hi = kap, 2.0 * kap
    while seg_lo < _RESOLVENT_Y_MAX * kap:
        nodes = filon_nodes(seg_lo, seg_hi, 64)
        g_seg = transform(nodes.ravel()).reshape(nodes.shape)
        total = total + filon_sums(g_seg, seg_lo, seg_hi, om)
        g_edge = g_seg[-1, -1]
        seg_lo, seg_hi = seg_hi, 2.0 * seg_hi

    # Tail: G(y) ~ A / y^2 beyond Y.
    Y = seg_lo
    A = g_edge * Y * Y
    tail = np.empty_like(total)
    pos = om > 0
    tail[~pos] = A / Y
    w = om[pos]
    # int_Y^inf e^{i w y} / y^2 dy = e^{i w Y}/Y + i w E1(-i w Y)
    tail[pos] = A * (np.exp(1j * w * Y) / Y + 1j * w * exp1_neg_imag(w * Y))
    total = total + tail

    # Every piece covers y > 0 only; add the mirror image (complex
    # conjugate at -y) by taking twice the real part.
    return 2.0 * total.real + 0j


def solve_mode_coarse_first(mode: ModeSpec, grid: TimeGrid,
                            tol=1e-11) -> ModeTrajectory:
    """``volterra.solve_mode(refine=True)`` in its earlier order: the
    coarse grid sampled and marched first, then the half-step solve while
    the coarse arrays stay alive (skipped if the coarse march grows)."""
    table = sample_kernels(mode, grid.times, tol=tol)
    rho, growth = solve_volterra(table.alpha, table.beta, grid.dt)
    if not growth:
        half = TimeGrid(dt=grid.dt / 2.0, n_steps=2 * grid.n_steps)
        table_h = sample_kernels(mode, half.times, tol=tol)
        rho_h, growth_h = solve_volterra(table_h.alpha, table_h.beta, half.dt)
        if not growth_h:
            rho = (4.0 * rho_h[::2] - rho) / 3.0
    return ModeTrajectory(rho=rho, alpha_samples=table.alpha,
                          beta_samples=table.beta, growth=growth)


# --- integration-by-parts twins of the critical wavenumbers -----------------

def threshold_plasma_from_derivative(eq, df0, tol=1e-11) -> float:
    """Twin of ``threshold_plasma``: 4 int [arctanh(v) - v] (1+p^2)
    (-f0') dp, with ``df0`` the f0' of ``eq``."""

    def integrand(p):
        return f_cap(1.0, v_of_p(p)) * (1.0 + p * p) * (-df0(p))

    return 4.0 * float(_eq_integral(eq, integrand, tol).value)


def threshold_astro_from_derivative(eq, df0, tol=1e-11) -> float:
    """Twin of ``threshold_astro``: 4 int p sqrt(1+p^2) (-f0') dp, with
    ``df0`` the f0' of ``eq``."""

    def integrand(p):
        return p * np.hypot(1.0, p) * (-df0(p))

    return 4.0 * float(_eq_integral(eq, integrand, tol).value)


# --- closed-form derivatives of the appendix profile functions --------------

def _poly_eval(entries, lw2, kv2):
    """sum entries[(i,j)] (L^2 w^2)^i (K^2 v^2)^j: at float precision for
    float arguments, exact for Fractions."""
    return sum(cf * lw2**i * kv2**j for (i, j), cf in entries.items())


def _vanishes(params: GevreyParams, m: int, omega) -> bool:
    """The checks f_derivative and g_derivative share: the order and the
    domain |omega| > Kv/L; True at v = 0, where f and g vanish."""
    _check_order(m, 0)
    if abs(omega) * params.L <= params.K * params.v:
        raise ValueError("omega inside the singular interval |omega|<=Kv/L")
    return params.v == 0


def f_derivative(params: GevreyParams, m: int, omega):
    """m-th derivative of f(omega) = arctanh(K v/(L omega)), |omega|>Kv/L,
    by its closed form on the C rows; exact where K, L, v and omega are
    Fractions and m >= 1."""
    if _vanishes(params, m, omega):
        return 0.0
    K, L, v = params.K, params.L, params.v
    if m == 0:
        return math.atanh(K * v / (L * omega))
    lw2 = (L * omega) ** 2
    kv2 = (K * v) ** 2
    den = lw2 - kv2
    s = _poly_eval(c_coeffs(m), lw2, kv2)
    if m % 2 == 1:
        n = (m - 1) // 2
        return -math.factorial(2 * n) * K * v * L**(2 * n + 1) \
            / den**(2 * n + 1) * s
    n = (m - 2) // 2
    return math.factorial(2 * n + 2) * K * v * L**(2 * n + 3) * omega \
        / den**(2 * n + 2) * s


def g_derivative(params: GevreyParams, m: int, omega):
    """m-th derivative of g(omega) = (L omega/K) f(omega) - v.

    Orders 0 and 1 use their explicit forms, which cancel at small v;
    beyond that the closed form runs on the D rows, exact as
    ``f_derivative`` is.
    """
    if _vanishes(params, m, omega):
        return 0.0
    K, L, v = params.K, params.L, params.v
    if m == 0:
        return (L * omega / K) * math.atanh(K * v / (L * omega)) - v
    lw2 = (L * omega) ** 2
    kv2 = (K * v) ** 2
    den = lw2 - kv2
    if m == 1:
        return (L / K) * math.atanh(K * v / (L * omega)) \
            - v * L * L * omega / den
    s = _poly_eval(d_coeffs(m), lw2, kv2)
    if m % 2 == 0:
        n = m // 2
        return 2 * math.factorial(2 * n - 2) * K * K * v**3 * L**(2 * n) \
            / den**(2 * n) * s
    n = (m - 1) // 2
    return -2 * math.factorial(2 * n) * K * K * v**3 * L**(2 * n + 2) \
        * omega / den**(2 * n + 1) * s


# --- decay checks on sampled data -------------------------------------------

def rational_bound_check(t, value, m, kappa):
    """Scan d_m = sup |value| (1 + kappa t)^m over the samples.

    Returns (d_m, t_attained, ok); the bound is genuine only when the sup
    is attained early, so ok requires the argmax in the first half of the
    window and not at the final sample.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    t = np.asarray(t, dtype=float)
    v = np.abs(np.asarray(value))
    scan = v * (1.0 + kappa * t) ** m
    i = int(np.argmax(scan))
    ok = (i < t.size - 1) and (t[i] <= 0.5 * t[-1])
    return float(scan[i]), float(t[i]), bool(ok)


def bounded_draws(gen, n, size):
    """``size`` draws from range(n) by Lemire's rule, one word at a time:
    w = ``gen.getrandbits(32)`` gives (w n) >> 32, and w is drawn again
    while the low word of w n lies below 2^32 mod n."""
    out = []
    for _ in range(size):
        m = gen.getrandbits(32) * n
        while m % 2 ** 32 < 2 ** 32 % n:
            m = gen.getrandbits(32) * n
        out.append(m >> 32)
    return out


@dataclass(frozen=True)
class DecayCertificate:
    """Finite-order transform-decay check |xi|^(N/s)|phi| <= C (C N)^N."""

    s: float
    n_max: int
    c_per_order: tuple
    c_star: float
    budget: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.c_star) and self.c_star <= self.budget


def gevrey_decay_check(transform: Callable, s: float, xi,
                       n_max: int = 6, budget: float = 10.0
                       ) -> DecayCertificate:
    """Smallest C with |xi|^(N/s) |transform(xi)| <= C (C N)^N for
    N = 1..n_max over the grid ``xi``.

    This is the finite-order surrogate of stretched-exponential decay of
    the inverse transform: a genuinely sub-exponential transform admits a
    bounded C, rational decay forces C to grow with the grid extent.
    """
    if s <= 1:
        raise ValueError("Gevrey index s must exceed 1")
    xi = np.asarray(xi, dtype=float)
    vals = np.abs(np.asarray(transform(xi)))
    cs = []
    for n in range(1, n_max + 1):
        m_n = float(np.max(np.abs(xi) ** (n / s) * vals))
        if m_n == 0.0:
            cs.append(0.0)
            continue
        cs.append((m_n / float(n) ** n) ** (1.0 / (n + 1)))
    c_star = max(cs) if cs else math.inf
    return DecayCertificate(s=s, n_max=n_max, c_per_order=tuple(cs),
                            c_star=float(c_star), budget=budget)
