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
* the critical wavenumber of each interaction sign (``kappa_crit_sq``),
  and the root y0 where the dispersion value reaches 1 below it.

Batch sampling of the real kernel tables for the Volterra solver runs
the composite Filon rule of :func:`rvpmodes.quadrature.filon_table` on
[0, kappa]: one panelization resolves the envelope, after which every time
sample costs O(panels) regardless of how large t is.  The envelopes take
their momentum tails from the closed forms that every equilibrium carries
and that every profile is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .equilibria import Equilibrium, positive_normal, scalarize, v_of_p
from .quadrature import (QuadratureError, QuadResult, double_panels,
                         filon_table, gauss_legendre_nodes, integrate_finite,
                         integrate_semi_infinite)

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
    "kappa_crit_sq",
    "find_y0",
    "sample_kernels",
]


@dataclass(frozen=True)
class ModeSpec:
    """One spatial Fourier mode: wavenumber, interaction sign, and data.

    ``kappa`` must keep the kernel prefactor 4 pi/kappa^3 a positive
    normal double: about 4.2e-103 <= kappa <= 5.6e102, which refuses a
    kappa that is not finite and positive too.  ``profile`` is the datum's
    tail moment P -> int_P^inf p sqrt(1+p^2) h(p) dp, as a profile factory
    of ``equilibria`` returns it; only the source kernel (``alpha_hat``)
    reads it.
    """

    kappa: float
    sigma: int
    equilibrium: Equilibrium
    profile: Optional[Callable] = None

    def __post_init__(self):
        positive_normal(lambda: 4.0 * math.pi / float(self.kappa) ** 3,
                        f"kappa={self.kappa:g}",
                        "the kernel prefactor 4 pi/kappa^3")
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")


@dataclass(frozen=True)
class ThresholdReport:
    """Squared critical wavenumber for one interaction sign."""

    kappa_crit_sq: float


@dataclass(frozen=True)
class KernelTable:
    """Real alpha and beta on a shared time grid, with error bounds."""

    alpha: np.ndarray
    beta: np.ndarray
    abs_error: float


# --- momentum integrals ------------------------------------------------------

def _eq_integral(eq: Equilibrium, integrand, tol) -> float:
    """int integrand(p) dp over the support of ``eq``, to ``tol``.

    On a hot equilibrium (unbounded, ``p_scale`` > 2) the map p =
    p_scale u/(1 - u) squeezes the p ~ 1 structure into u ~ 1/p_scale,
    where two coarse passes can agree to tol before they resolve it; there
    [0, 1] runs on plain panels and [1, inf) on the map, each to tol/2.
    """
    if math.isfinite(eq.support_bound):
        return integrate_finite(integrand, 0.0, eq.support_bound,
                                tol=tol).value
    if eq.p_scale <= 2.0:
        return integrate_semi_infinite(integrand, tol=tol,
                                       scale=eq.p_scale).value
    head = integrate_finite(integrand, 0.0, 1.0, tol=0.5 * tol)
    tail = integrate_semi_infinite(lambda p: integrand(1.0 + p),
                                   tol=0.5 * tol, scale=eq.p_scale)
    return head.value + tail.value


# --- frequency-domain envelopes ---------------------------------------------

def _on_support(mode: ModeSpec, y, formula):
    """formula(y, r, P) on |y| < kappa, 0 beyond, r = |y|/kappa and P =
    r/sqrt(1 - r^2) the momentum at speed r; a float y gives a float."""
    ya = np.asarray(y, dtype=float)
    mask = np.abs(ya) < mode.kappa
    out = np.zeros_like(ya)
    if np.any(mask):
        r = np.abs(ya[mask]) / mode.kappa
        out[mask] = formula(ya[mask], r, r / np.sqrt((1.0 - r) * (1.0 + r)))
    return scalarize(out)


def _b(mode: ModeSpec, y, u):
    """b(y) = (4 pi sigma / kappa^3) y T(U), real or continued to complex."""
    return (4.0 * math.pi * mode.sigma / mode.kappa**3) * y \
        * mode.equilibrium.tail_kernel_moment(u)


def beta_hat_envelope(mode: ModeSpec, y):
    """Real odd envelope b with beta_hat = i*b:
    b(y) = (4 pi sigma / kappa^3) y int_{P(|y|/kappa)}^inf (1+p^2)(-f0') dp
    for |y| < kappa and 0 beyond (no particle outpaces its mode).
    """
    return _on_support(mode, y, lambda y, r, p: _b(mode, y, np.hypot(1.0, p)))


def alpha_hat(mode: ModeSpec, y):
    """Time-Fourier transform of the source kernel: real, even,
    (2 pi / kappa) int_{P(|y|/kappa)}^inf p sqrt(1+p^2) h(p) dp inside
    |y| < kappa and 0 beyond.  A mode with no profile raises ValueError."""
    if mode.profile is None:
        raise ValueError("alpha_hat needs a mode with a perturbation profile")
    return _on_support(mode, y, lambda y, r, p: (2.0 * math.pi / mode.kappa)
                       * mode.profile(p))


# --- Fourier-Laplace transform on the closed right half-plane ---------------

_PV_ROWS = 32            # real z values per block of the (rows x nodes) array
_PV_PANELS = (8, 2 ** 10)  # first and largest panel count per segment
_PV_NEAR = 1e-5          # |y - s| / kappa below which the quotient uses b'
_PV_SUBTRACT = 1.0 / 16  # |Im z| / e below which b(z) is subtracted
_PV_STEP = 2.0 ** -64    # the complex step in r = y/kappa that gives b'


def _b_prime(mode: ModeSpec, y, e):
    """b'(y) = Im b(kappa (r + i eta)) / (kappa eta) for |y| < e, 0 beyond:
    the complex step (Squire & Trapp 1998, SIAM Rev. 40:110) on b's own
    continuation, U = 1/sqrt((1 - rho)(1 + rho)) at rho = r + i eta, which
    cancels nothing; b' is even, so r = |y|/kappa.  r is formed in real
    arithmetic: as the complex quotient z/kappa it rounds one ulp off,
    which near |y| = kappa moved b' by 7.9e-11 of max|b'| (theta = 100).
    The zero beyond e is needed: the compact tail moment continued off the
    axis does not clip."""

    def step(y, r, p):
        rho = r + 1j * _PV_STEP
        u = 1.0 / np.sqrt((1.0 - rho) * (1.0 + rho))
        return _b(mode, mode.kappa * rho, u).imag / (mode.kappa * _PV_STEP)

    return np.where(np.abs(y) < e, _on_support(mode, y, step), 0.0)


def _cauchy_sums(mode: ModeSpec, z, b_z, edge, n_panels):
    """sum_j w_j (b(s_j) - b(z)) / (z - s_j) for each z, real or complex,
    and whether any b(s_j) is nonzero.  Panels are uniform in phi =
    arctan(p) on [-edge, 0] and [0, edge], s = kappa sin(phi) = kappa v(p):
    nodes crowd toward the support edges, where hot envelopes die off."""
    phi, w = gauss_legendre_nodes([-edge, 0.0, edge], n_panels)
    s = mode.kappa * np.sin(phi)
    w = w * mode.kappa * np.cos(phi)
    b_s = beta_hat_envelope(mode, s)
    e = mode.kappa * math.sin(edge)  # b vanishes for |y| >= e
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
            quot[near] = -0.5 * (_b_prime(mode, mid - off, e)
                                 + _b_prime(mode, mid + off, e))
        # einsum runs its own loop: a gemv would wake the BLAS worker
        # thread, which then spins as long as the main one
        out[i:i + rows] = np.einsum("rn,n->r", quot, w)
    return out, b_s.any()


def _dispersion(mode: ModeSpec, x, y, tol):
    """W at z = y - i x/(2 pi) for x >= 0, y a float or an array (see
    ``laplace_beta_halfplane``)."""
    ya = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(ya)):
        raise ValueError(f"y must be finite, got {ya[~np.isfinite(ya)][0]}")
    kap = mode.kappa
    edge = math.atan(mode.equilibrium.support_bound)  # pi/2 if unbounded
    e = kap * math.sin(edge)  # kappa v(P): b vanishes for |y| >= e
    depth = x / (2.0 * math.pi)  # -Im z
    # On the axis z stays real: real node sums and the near-node patch.  A
    # subnormal depth is the axis too: 1/depth would overflow in the
    # quotient at a node, and W there is within depth |W'| of the axis.
    z = (ya.ravel() - 1j * depth if depth >= np.finfo(float).tiny
         else ya.ravel())
    # Off the axis b(z) is subtracted only near the support, where the pole
    # needs it: farther off, a cold envelope continued to z outgrows its
    # axis values by e^{(1 - Re U)/theta}, costing digits (theta = 0.003
    # missed 1e-10 at |Im z| = e/4), while the plain sum converges fast.
    inside = (np.abs(z.real) < e) & (depth < _PV_SUBTRACT * e)
    zi = z[inside]
    b_z = np.zeros_like(z)
    b_z[inside] = _b(mode, zi, 1.0 / np.sqrt((1.0 - zi / kap)
                                             * (1.0 + zi / kap)))
    log_term = np.zeros(z.shape, dtype=complex)
    log_term[inside] = b_z[inside] * (np.log((e + zi) / (e - zi))
                                      + 1j * math.pi)

    def transform(n):
        sums, live = _cauchy_sums(mode, z, b_z, edge, n)
        w = (sums + log_term) / (2.0 * math.pi)
        return (w, live), w

    # near the least kappa, where 4 pi/kappa^3 nears the largest double,
    # b' can overflow at a node next to y: W is then not finite, and
    # double_panels raises on its change with no numpy warning ahead
    with np.errstate(over="ignore", invalid="ignore"):
        (out, live), change = double_panels(transform, *_PV_PANELS, tol,
                                            "dispersion transform")
    if not live:  # b is 0 at every node: a cold envelope underflows
        raise QuadratureError("dispersion transform: W is 0 at every point",
                              QuadResult(0.0, change, out.size))
    return complex(out[0]) if ya.ndim == 0 else out.reshape(ya.shape)


def laplace_beta_imag(mode: ModeSpec, y, tol=1e-10):
    """Transform of the memory kernel at s = 2*pi*i*y (imaginary axis):
    ``laplace_beta_halfplane`` at x = 0, bit for bit,
    W = (1/2pi) PV int_{-e}^{e} b(s) / (y - s) ds + (i/2) b(y).
    """
    return _dispersion(mode, 0.0, y, tol)


def laplace_beta_halfplane(mode: ModeSpec, x: float, y, tol=1e-10):
    """Transform of the memory kernel at s = x + 2*pi*i*y for x >= 0.

    With b = beta_hat_envelope, odd and zero for |y| >= e (e = kappa, or
    kappa v(P) for an equilibrium supported on [0, P]), at z = y - ix/2pi
    W = (1/2pi) int_{-e}^{e} b(s) / (z - s) ds
    = (1/2pi) [sum_j w_j (b(s_j) - b(z)) / (z - s_j)
    + b(z) (log((e + z)/(e - z)) + i pi)]
    on composite 16-point Gauss-Legendre panels in phi = arctan(p).  b(z)
    is the envelope continued through the kernel tail moment at
    U = 1/sqrt(1 - (z/kappa)^2) where |Re z| < e and |Im z| < e/16, and 0
    elsewhere.  On the axis (x/2pi below the least normal double) W is
    the x -> 0+ limit: the log is real, its i pi gives the jump (i/2) b(y),
    and a node within 1e-5 kappa of y takes -(mean of b' between them) for
    the cancelling quotient, b' the complex step of b's continuation.
    Panels double until W changes by at most ``tol`` anywhere in the
    batch; the panel cap raises QuadratureError, as does an envelope b
    that is 0 at every node (a cold equilibrium); a W that merely
    underflows is returned.  A float ``y`` returns a complex, an array a
    complex array.  A negative or non-finite x, or a non-finite y, raises
    ValueError.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError("laplace_beta_halfplane requires finite x >= 0, "
                         f"got x = {x!r}")
    return _dispersion(mode, x, y, tol)


# --- critical wavenumbers ----------------------------------------------------

def threshold_plasma(eq: Equilibrium, tol=1e-11) -> ThresholdReport:
    """Repulsive-case squared critical wavenumber:
    4 int p [2 arctanh(v(p)) - v(p)] f0(p) dp.

    Note arctanh(v(p)) = asinh(p), so no cancellation at large p.
    """

    def integrand(p):
        return p * (2.0 * np.arcsinh(p) - v_of_p(p)) * eq.value(p)

    return ThresholdReport(_eq_integral(eq, integrand, tol) * 4.0)


def threshold_astro(eq: Equilibrium, tol=1e-11) -> ThresholdReport:
    """Attractive-case squared critical wavenumber:
    4 int (sqrt(1+p^2) + p^2/sqrt(1+p^2)) f0(p) dp."""

    def integrand(p):
        u = np.hypot(1.0, p)
        return (u + p * p / u) * eq.value(p)

    return ThresholdReport(_eq_integral(eq, integrand, tol) * 4.0)


def kappa_crit_sq(eq: Equilibrium, sigma: int, tol=1e-11) -> float:
    """The kappa^2 above which a mode of sign ``sigma`` is supercritical."""
    if sigma not in (+1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    threshold = threshold_plasma if sigma == +1 else threshold_astro
    return threshold(eq, tol).kappa_crit_sq


_Y0_XTOL = 1e-12  # width in y of the bracket at which find_y0 stops


def find_y0(mode: ModeSpec, kc2: float, tol=1e-11) -> Optional[float]:
    """Frequency y0 >= kappa where the dispersion value reaches 1.

    Only meaningful for the repulsive interaction.  For y >= kappa the
    transform is (4/kappa^2) int F(y/kappa, v(p)) (1+p^2)(-f0') dp with
    F(x, v) = x arctanh(v/x) - v = sum_{k>=1} v^(2k+1) u^k / (2k+1) in
    u = (kappa/y)^2, so h(u) = W - 1 is increasing and convex on [0, 1],
    with h(0) = -1 and h(1) = kc2/kappa^2 - 1, kc2 the caller's kappa_crit^2
    (``kappa_crit_sq(mode.equilibrium, +1)``).  Returns None exactly when
    kappa^2 > kc2, kappa at equality, and otherwise the root of h by
    Illinois regula falsi (Dowell & Jarratt 1971, BIT 11:168) once the
    bracket is ``_Y0_XTOL`` wide in y.  A non-finite transform value, or
    100 steps without converging, raises RuntimeError.
    """
    if mode.sigma != +1:
        raise ValueError("dispersion crossing applies to the repulsive case")
    kap = mode.kappa
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

_NODE_BLOCK = 4096  # Filon nodes per block of the envelope evaluation


def sample_kernels(mode: ModeSpec, times, tol=1e-11) -> KernelTable:
    """Sample both kernels on a time grid through their transforms.

    One Filon panelization of [0, kappa] is refined until probe values
    stabilize, then reused for every t (``quadrature.filon_table``); the
    cost per sample is independent of t, which is what makes dense
    long-horizon tables affordable.  Both tables are real.  Stopping at
    the panel cap short of ``tol`` raises QuadratureError, as does a beta
    table that is 0 at every sample (no node inside the envelope's
    support); a mode with no profile raises ValueError.  Both envelopes
    are elementwise, so they are evaluated ``_NODE_BLOCK`` nodes at a time
    into one (2, nodes) array: their temporaries stay block-sized however
    many panels the tolerance takes.
    """
    t = np.asarray(times, dtype=float)

    def envelopes(y):
        env = np.empty((2, y.size))
        for i0 in range(0, y.size, _NODE_BLOCK):
            b = slice(i0, i0 + _NODE_BLOCK)
            env[0, b] = alpha_hat(mode, y[b])
            env[1, b] = beta_hat_envelope(mode, y[b])
        return env

    # alpha = 2 Re and beta = -2 Im of the sums: half of tol on the sums
    sums, err = filon_table(envelopes, mode.kappa, t, 0.5 * tol,
                            ("real", "imag"))
    sums[0] *= 2.0
    sums[1] *= -2.0
    alpha, beta = sums
    if not beta.any():  # it would write out an uncoupled mode as this one
        raise QuadratureError("sample_kernels: beta is 0 at every sample",
                              QuadResult(0.0, 2.0 * err, t.size))
    return KernelTable(alpha=alpha, beta=beta, abs_error=2.0 * err)
