"""Memory kernels of the linearized mode equation and their transforms.

Each spatial Fourier mode with effective wavenumber kappa (|k|/L on the
torus, |xi| in free space) evolves through two time kernels: a source term
built from the perturbation profile and a memory kernel built from the
equilibrium gradient.  Spherical symmetry reduces both to 1D radial
integrals; this module provides

* the compactly supported frequency envelopes (``alpha_hat``,
  ``beta_hat_envelope``), supported on |y| < kappa because particle speeds
  never reach 1; the kernel tables are their inverse transforms,
* the one-sided (Fourier-Laplace) transform of the memory kernel on the
  closed right half-plane, whose avoidance of the value 1 certifies an
  integrable resolvent,
* the critical wavenumber thresholds for both interaction signs, and the
  root y0 where the dispersion value reaches 1 below threshold.

Batch sampling of kernel tables for the Volterra solver runs the composite
Filon rule of :func:`rvpmodes.quadrature.filon_sums` on [0, kappa]: one
panelization resolves the envelope, after which every time sample costs
O(panels) regardless of how large t is.  The envelopes take their momentum
tails from the closed forms that every equilibrium and profile carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equilibria import Equilibrium, PerturbationProfile
from .quadrature import (QuadResult, QuadratureError, filon_nodes,
                         filon_sums, gauss_legendre_nodes,
                         integrate_semi_infinite)
from .relkin import scalarize, v_of_p

__all__ = [
    "ModeSpec",
    "ThresholdReport",
    "KernelTable",
    "alpha_hat",
    "beta_hat_envelope",
    "laplace_beta_imag",
    "laplace_beta_halfplane",
    "threshold_plasma",
    "threshold_astro",
    "find_y0",
    "sample_kernels",
]


@dataclass(frozen=True)
class ModeSpec:
    """One spatial Fourier mode: wavenumber, interaction sign, and data."""

    kappa: float
    sigma: int
    equilibrium: Equilibrium
    profile: PerturbationProfile

    def __post_init__(self):
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")


@dataclass(frozen=True)
class ThresholdReport:
    """Squared critical wavenumber for one interaction sign."""

    kappa_crit_sq: float


@dataclass(frozen=True)
class KernelTable:
    """alpha and beta sampled on a shared time grid, with error bounds."""

    t: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    abs_error: float


# --- momentum integrals ------------------------------------------------------

def _eq_integral(eq: Equilibrium, integrand, tol):
    return integrate_semi_infinite(integrand, tol=tol, scale=eq.p_scale,
                                   support=eq.support_bound)


# --- frequency-domain envelopes ---------------------------------------------

def _inside_support(mode: ModeSpec, y):
    """y as an array, the mask |y| < kappa, and on it r = |y|/kappa and
    P = r/sqrt(1 - r^2), the momentum of a particle at speed r."""
    ya = np.asarray(y, dtype=float)
    mask = np.abs(ya) < mode.kappa
    r = np.abs(ya[mask]) / mode.kappa
    return ya, mask, r, r / np.sqrt((1.0 - r) * (1.0 + r))


def beta_hat_envelope(mode: ModeSpec, y):
    """Real odd envelope b with beta_hat = i*b:
    b(y) = (4 pi sigma / kappa^3) y int_{P(|y|/kappa)}^inf (1+p^2)(-f0') dp
    for |y| < kappa and 0 beyond (no particle outpaces its mode).
    """
    ya, mask, _, plo = _inside_support(mode, y)
    out = np.zeros_like(ya)
    if np.any(mask):
        out[mask] = (4.0 * math.pi * mode.sigma / mode.kappa**3) * ya[mask] \
            * mode.equilibrium.tail_kernel_moment(np.hypot(1.0, plo))
    return scalarize(out)


def alpha_hat(mode: ModeSpec, y):
    """Time-Fourier transform of the source kernel: real, even,
    (2 pi / kappa) int_{P(|y|/kappa)}^inf p sqrt(1+p^2) h(p) dp inside
    |y| < kappa and 0 beyond."""
    ya, mask, _, plo = _inside_support(mode, y)
    out = np.zeros_like(ya)
    if np.any(mask):
        out[mask] = (2.0 * math.pi / mode.kappa) \
            * mode.profile.tail_weighted_moment(plo)
    return scalarize(out)


# --- Fourier-Laplace transform on the closed right half-plane ---------------

_PV_ROWS = 32            # real z values per block of the (rows x nodes) array
_PV_PANELS = (8, 2 ** 10)  # first and largest panel count per segment
_PV_NEAR = 1e-5          # |y - s| / kappa below which the quotient uses b'
_PV_SUBTRACT = 1.0 / 16  # |Im z| / e below which b(z) is subtracted


def _envelope_derivative(mode: ModeSpec, y):
    """b'(y) = (4 pi sigma / kappa^3) [T(P) + r f0'(P) / (1 - r^2)^{5/2}],
    r = |y|/kappa, P = r/sqrt(1 - r^2), T the kernel tail moment."""
    ya, mask, r, plo = _inside_support(mode, y)
    out = np.zeros_like(ya)
    eq = mode.equilibrium
    out[mask] = (4.0 * math.pi * mode.sigma / mode.kappa**3) * (
        eq.tail_kernel_moment(np.hypot(1.0, plo))
        + r * eq.derivative(plo) / ((1.0 - r) * (1.0 + r))**2.5)
    return out


def _cauchy_sums(mode: ModeSpec, z, b_z, edge, n_panels):
    """sum_j w_j (b(s_j) - b(z)) / (z - s_j) for each z, real or complex.
    Panels are uniform in phi = arctan(p) on [-edge, 0] and [0, edge],
    s = kappa sin(phi) = kappa v(p), which crowds nodes toward the support
    edges, where hot envelopes die off steeply."""
    phi, w = gauss_legendre_nodes([-edge, 0.0, edge], n_panels)
    s = mode.kappa * np.sin(phi)
    w = w * mode.kappa * np.cos(phi)
    b_s = beta_hat_envelope(mode, s)
    rows = _PV_ROWS * 8 // z.itemsize  # complex blocks hold half the rows
    out = np.empty_like(z)
    for i in range(0, z.size, rows):
        d = z[i:i + rows, None] - s
        near = np.isrealobj(d) & (np.abs(d) < _PV_NEAR * mode.kappa)
        quot = (b_s - b_z[i:i + rows, None]) / np.where(near, 1.0, d)
        if near.any():
            # A node on (or next to) y on the axis: b(s) - b(y) cancels, so
            # use -(mean of b' between s and y), two-point Gauss; its limit
            # at s = y is -b'(y).  Off the axis |d| >= -Im z > 0.
            mid = s[np.nonzero(near)[1]] + 0.5 * d[near]
            off = d[near] / (2.0 * math.sqrt(3.0))
            quot[near] = -0.5 * (_envelope_derivative(mode, mid - off)
                                 + _envelope_derivative(mode, mid + off))
        # complex blocks: a zgemv would wake the BLAS worker thread, which
        # then spins as long as the main one; einsum runs its own loop.
        # The real gemv stays: it does parallel work on the resolvent.
        out[i:i + rows] = (np.einsum("rn,n->r", quot, w)
                           if np.iscomplexobj(quot) else quot @ w)
    return out


def _dispersion(mode: ModeSpec, x, y, tol):
    """W at z = y - i x/(2 pi) for x >= 0, y a float or an array; x = 0 is
    the axis, z = y - i0 (see ``laplace_beta_imag``)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    ya = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(ya)):
        raise ValueError(f"y must be finite, got {ya[~np.isfinite(ya)][0]}")
    kap = mode.kappa
    edge = math.atan(mode.equilibrium.support_bound)  # pi/2 if unbounded
    e = kap * math.sin(edge)  # kappa v(P): b vanishes for |y| >= e
    depth = x / (2.0 * math.pi)  # -Im z
    z = ya.ravel() - 1j * depth if x else ya.ravel()
    # Off the axis b(z) is subtracted only near the support, where the pole
    # needs it: farther off, a cold envelope continued to z outgrows its
    # axis values by e^{(1 - Re U)/theta}, costing digits (theta = 0.003
    # missed 1e-10 at |Im z| = e/4), while the plain sum converges fast.
    inside = (np.abs(z.real) < e) & (depth < _PV_SUBTRACT * e)
    zi = z[inside]
    if x:
        b_z = np.zeros_like(z)
        b_z[inside] = (4.0 * math.pi * mode.sigma / kap**3) * zi \
            * mode.equilibrium.tail_kernel_moment(
                1.0 / np.sqrt((1.0 - zi / kap) * (1.0 + zi / kap)))
        log_in = np.log((zi + e) / (zi - e))
    else:
        b_z = beta_hat_envelope(mode, z)
        log_in = np.log((e + zi) / (e - zi))
    log_term = np.zeros_like(z)
    log_term[inside] = b_z[inside] * log_in
    n = _PV_PANELS[0]
    prev = _cauchy_sums(mode, z, b_z, edge, n)
    while True:
        n *= 2
        cur = _cauchy_sums(mode, z, b_z, edge, n)
        err = np.max(np.abs(cur - prev), initial=0.0) / (2.0 * math.pi)
        if not err > tol or 2 * n > _PV_PANELS[1]:  # NaN stops too
            break
        prev = cur
    out = (cur + log_term) / (2.0 * math.pi)
    if not x:
        out = out + 0.5j * b_z  # the i pi of the log, taken apart on the axis
    if not err <= tol:
        raise QuadratureError(
            f"dispersion transform: change {err:g} > tol {tol:g} at {n} "
            "panels per segment", QuadResult(out, float(err), 32 * n))
    return complex(out[0]) if ya.ndim == 0 else out.reshape(ya.shape)


def laplace_beta_imag(mode: ModeSpec, y, tol=1e-10):
    """Transform of the memory kernel at s = 2*pi*i*y (imaginary axis).

    The limit of ``laplace_beta_halfplane`` as x -> 0+, with the same
    nodes, panel doubling, QuadratureError and input rules:
    W = (1/2pi) PV int_{-e}^{e} b(s) / (y - s) ds + (i/2) b(y)
    = (1/2pi) [sum_j w_j (b(s_j) - b(y)) / (y - s_j)
    + b(y) log|(e + y)/(e - y)|] + (i/2) b(y).  A node within 1e-5 kappa
    of y takes -(mean of b' between them) for the cancelling quotient.
    """
    return _dispersion(mode, 0.0, y, tol)


def laplace_beta_halfplane(mode: ModeSpec, x: float, y, tol=1e-10):
    """Transform of the memory kernel at s = x + 2*pi*i*y for x > 0.

    With b = beta_hat_envelope, odd and zero for |y| >= e (e = kappa, or
    kappa v(P) for an equilibrium supported on [0, P]), at z = y - ix/2pi
    W = (1/2pi) int_{-e}^{e} b(s) / (z - s) ds
    = (1/2pi) [sum_j w_j (b(s_j) - b(z)) / (z - s_j)
    + b(z) log((z + e)/(z - e))]
    on composite 16-point Gauss-Legendre panels in phi = arctan(p).  b(z)
    is the envelope continued through the kernel tail moment at complex
    U = 1/sqrt(1 - (z/kappa)^2) where |Re z| < e and |Im z| < e/16, and 0
    elsewhere.  Panels double until W changes by at most ``tol`` anywhere
    in the batch; the panel cap raises QuadratureError.  A float ``y``
    returns a complex, an array a complex array.  A non-finite x or y, or
    an x too small to move z off the axis, raises ValueError.
    """
    if not (math.isfinite(x) and x / (2.0 * math.pi) > 0.0):
        raise ValueError("laplace_beta_halfplane requires finite x > 0; "
                         f"use laplace_beta_imag on the axis, got x = {x!r}")
    return _dispersion(mode, x, y, tol)


# --- critical wavenumbers ----------------------------------------------------

def threshold_plasma(eq: Equilibrium, tol=1e-11) -> ThresholdReport:
    """Repulsive-case squared critical wavenumber:
    4 int p [2 arctanh(v(p)) - v(p)] f0(p) dp.

    Note arctanh(v(p)) = asinh(p), so no cancellation at large p.
    """

    def integrand(p):
        return p * (2.0 * np.arcsinh(p) - v_of_p(p)) * eq.value(p)

    res = _eq_integral(eq, integrand, tol)
    return ThresholdReport(float(res.value) * 4.0)


def threshold_astro(eq: Equilibrium, tol=1e-11) -> ThresholdReport:
    """Attractive-case squared critical wavenumber:
    4 int (sqrt(1+p^2) + p^2/sqrt(1+p^2)) f0(p) dp."""

    def integrand(p):
        u = np.hypot(1.0, p)
        return (u + p * p / u) * eq.value(p)

    res = _eq_integral(eq, integrand, tol)
    return ThresholdReport(float(res.value) * 4.0)


_Y0_XTOL = 1e-12  # width in y of the bracket at which find_y0 stops


def find_y0(mode: ModeSpec, tol=1e-11) -> Optional[float]:
    """Frequency y0 >= kappa where the dispersion value reaches 1.

    Only meaningful for the repulsive interaction.  For y >= kappa the
    transform is (4/kappa^2) int F(y/kappa, v(p)) (1+p^2)(-f0') dp with
    F(x, v) = x arctanh(v/x) - v = sum_{k>=1} v^(2k+1) u^k / (2k+1) in
    u = (kappa/y)^2, so h(u) = W - 1 is increasing and convex on [0, 1],
    with h(0) = -1 and h(1) = kappa_crit^2/kappa^2 - 1.  Returns None
    exactly when kappa^2 > kappa_crit^2 (``threshold_plasma``), kappa at
    equality, and otherwise the root of h by Illinois regula falsi (Dowell
    & Jarratt 1971, BIT 11:168) once the bracket is ``_Y0_XTOL`` wide in
    y.  A non-finite transform value, or 100 steps without converging,
    raises RuntimeError.
    """
    if mode.sigma != +1:
        raise ValueError("dispersion crossing applies to the repulsive case")
    kap = mode.kappa
    kc2 = threshold_plasma(mode.equilibrium).kappa_crit_sq
    if kap * kap > kc2:
        return None  # supercritical: 1 is never reached
    a, fa, b, fb = 0.0, -1.0, 1.0, kc2 / (kap * kap) - 1.0
    if fb == 0.0:
        return kap  # critical: the crossing sits at kappa itself
    side = 0  # which end the last step replaced: -1 for a, +1 for b
    for _ in range(100):
        u = (a * fb - b * fa) / (fb - fa)
        y = kap / math.sqrt(u)
        fu = laplace_beta_imag(mode, y, tol=tol).real - 1.0
        if not math.isfinite(fu):
            raise RuntimeError(f"find_y0: transform value {fu} at y = {y!r}")
        # an end kept twice in a row has its value halved (Illinois)
        if fu < 0.0:
            a, fa = u, fu
            fb *= 0.5 if side < 0 else 1.0
            side = -1
        else:
            b, fb = u, fu
            fa *= 0.5 if side > 0 else 1.0
            side = +1
        # kappa/sqrt(a) - kappa/sqrt(b) <= _Y0_XTOL, free of a = 0
        if fu == 0.0 or (kap * (math.sqrt(b) - math.sqrt(a))
                         <= _Y0_XTOL * math.sqrt(a * b)):
            return y
    raise RuntimeError(f"find_y0: no convergence in 100 steps, y in "
                       f"[{kap / math.sqrt(b)!r}, {kap / math.sqrt(a)!r}]")


# --- batch kernel tables -----------------------------------------------------

def sample_kernels(mode: ModeSpec, times, tol=1e-11,
                   max_panels=2 ** 16) -> KernelTable:
    """Sample both kernels on a time grid through their transforms.

    One Filon panelization of [0, kappa] is refined until probe values
    stabilize, then reused for every t; the cost per sample is independent
    of t, which is what makes dense long-horizon tables affordable.  Stopping
    at ``max_panels`` short of ``tol`` raises QuadratureError.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    t = np.asarray(times, dtype=float)
    kap = mode.kappa
    t_probe = np.array([0.0, max(1.0, 0.37 * t.max()), max(2.0, t.max())])
    om_probe = 2.0 * math.pi * t_probe

    def envelopes(n):
        """(2, n, 4) alpha and beta envelopes at the Filon nodes, and their
        transforms at the probe times."""
        y = filon_nodes(0.0, kap, n).ravel()
        env = np.stack((alpha_hat(mode, y), beta_hat_envelope(mode, y)))
        env = env.reshape(2, n, 4)
        return env, filon_sums(env, 0.0, kap, om_probe).ravel()

    n = 64
    env, probe = envelopes(n)
    err = math.inf
    while err > 0.5 * tol and 2 * n <= max_panels:
        n *= 2
        env, new = envelopes(n)
        err, probe = np.max(np.abs(new - probe)), new
    if not 2.0 * err <= tol:  # a NaN change fails too
        raise QuadratureError(
            f"sample_kernels: change {2.0 * err:g} > tol {tol:g} at {n} "
            "panels", QuadResult(probe, 2.0 * err, 8 * (2 * n - 64)))

    sums = filon_sums(env, 0.0, kap, 2.0 * math.pi * t)
    alpha = 2.0 * sums[0].real
    beta = -2.0 * sums[1].imag
    return KernelTable(t=t, alpha=alpha.astype(complex), beta=beta,
                       abs_error=float(2.0 * err))
