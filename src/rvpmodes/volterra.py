"""Per-mode Volterra evolution and the resolvent kernel.

Each mode obeys a Volterra equation of the second kind,

    rho(t) = alpha(t) + int_0^t beta(t - tau) rho(tau) d tau,

discretized by product trapezoidal rule.  beta(0) = 0 for every radial
equilibrium, which makes the step explicit; the scalar implicit correction
is applied automatically if a kernel with beta(0) != 0 is supplied (the
synthetic constant-kernel benchmark does this).

The resolvent kernel R is the function whose one-sided transform equals
W / (1 - W) where W is the transform of beta; it expresses the solution as
rho = alpha + R * alpha.  It is reconstructed here by inverse transform over
the imaginary axis, which is legitimate only when 1 - W is bounded away
from zero, i.e. for supercritical modes; subcritical input is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import filon_nodes, filon_sums, next_fast_len
from .relkin import exp1_neg_imag
from .spectral import (ModeSpec, laplace_beta_imag, sample_kernels,
                       threshold_astro, threshold_plasma)

__all__ = [
    "TimeGrid",
    "ModeTrajectory",
    "SubcriticalModeError",
    "solve_volterra",
    "solve_mode",
    "resolvent_kernel",
    "apply_resolvent",
    "convolve_product_trapezoid",
]

GROWTH_CAP = 1e12
_BASE = 128  # steps below which the march runs the direct loop


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, dt, ..., n_steps*dt (n_steps + 1 samples)."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class ModeTrajectory:
    """Solution samples together with the kernel tables that produced them."""

    grid: TimeGrid
    rho: np.ndarray
    alpha_samples: np.ndarray
    beta_samples: np.ndarray
    growth: bool = False


class SubcriticalModeError(ValueError):
    """Resolvent reconstruction refused: transform reaches 1 on the path."""


def solve_volterra(alpha, beta, dt, growth_cap=GROWTH_CAP):
    """March the product-trapezoidal discretization.

    rho_n = alpha_n + dt*(beta_n rho_0 / 2 + sum_{j=1}^{n-1} beta_{n-j} rho_j
                          + beta_0 rho_n / 2)

    solved for rho_n (exactly explicit when beta_0 = 0).  Returns
    (rho, growth_flag); on overflow past ``growth_cap`` the remaining
    samples are frozen at the saturated value and the flag is set.
    Non-finite ``alpha`` or ``beta`` samples raise ``ValueError``.
    Divide and conquer (Hairer, Lubich & Schlichte 1985), O(N log^2 N): the
    history of a block's left half reaches its right half as one FFT (the
    kernel's spectrum is taken once per padded length and call), and a
    base block of at most ``_BASE`` steps, a lower-triangular Toeplitz
    system, is one convolution with the march's impulse response.
    """
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    if alpha.shape != beta.shape or alpha.ndim != 1:
        raise ValueError("alpha and beta must be 1D arrays of equal length")
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError("alpha and beta must be finite")
    n = alpha.size
    rho = np.zeros(n, dtype=np.result_type(alpha, beta, 1.0 + 0j))
    beta = beta.astype(rho.dtype)
    rho[0] = alpha[0]
    denom = 1.0 - 0.5 * dt * beta[0]
    if abs(denom) < 1e-12:
        raise ValueError("implicit step is singular: dt*beta(0)/2 too close to 2")
    hist = 0.5 * beta * rho[0]  # history sums, seeded with the rho_0 term

    # g: the base block's response to a unit impulse at its first step; it
    # may overflow for violently growing kernels, which only sends the
    # affected samples to the step-by-step loop below
    g = np.zeros(min(n, _BASE), dtype=rho.dtype)
    g[0] = 1.0 / denom
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, g.size):
            g[i] = dt * np.dot(beta[i:0:-1], g[:i]) / denom

    spectra = {}  # fft(beta[:m], m) by padded length m: blocks share them

    def march(lo, hi):
        """Fill rho[lo:hi], hist[lo:hi] holding the history of rho[1:lo];
        True once the growth cap has frozen the tail."""
        if hi - lo > _BASE:
            mid = (lo + hi) // 2
            if march(lo, mid):
                return True
            m = next_fast_len(hi - lo)  # wraps only into slots < mid-lo
            if m not in spectra:
                spectra[m] = np.fft.fft(beta[:m], m)
            conv = np.fft.ifft(np.fft.fft(rho[lo:mid], m) * spectra[m])
            hist[mid:hi] += conv[mid - lo:hi - lo]
            return march(mid, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.convolve(g[:hi - lo], alpha[lo:hi] + dt * hist[lo:hi])
        ok = np.abs(vals[:hi - lo]) <= growth_cap
        stop = hi if ok.all() else lo + int(np.argmin(ok))
        rho[lo:stop] = vals[:stop - lo]
        # from the first sample past the cap (or lost to overflow) on, the
        # direct loop decides: it freezes at a true crossing at once
        for i in range(stop, hi):
            conv = hist[i] + np.dot(beta[i - lo:0:-1], rho[lo:i])
            val = (alpha[i] + dt * conv) / denom
            if abs(val) > growth_cap:
                rho[i:] = val * (growth_cap / abs(val))
                return True
            rho[i] = val
        return False

    try:
        return rho, n > 1 and march(1, n)
    finally:
        # march refers to itself; the cycle would keep rho, hist, beta, g
        # and the caller's alpha alive until the cyclic collector runs
        del march


def convolve_product_trapezoid(kernel, source, dt):
    """Trapezoidal (kernel * source)(t_n) on a shared uniform grid: one FFT
    convolution with the end-point halves taken back out."""
    kernel, source = np.asarray(kernel), np.asarray(source)
    n = source.size
    m = next_fast_len(2 * n - 1)
    full = np.fft.ifft(np.fft.fft(kernel[:n], m) * np.fft.fft(source, m))[:n]
    if not (np.iscomplexobj(kernel) or np.iscomplexobj(source)):
        full = full.real
    out = dt * (full - 0.5 * (kernel[:n] * source[0] + kernel[0] * source))
    out[0] = 0.0
    return out


def solve_mode(mode: ModeSpec, grid: TimeGrid, tol=1e-11,
               refine: bool = False) -> ModeTrajectory:
    """Evolve one mode on ``grid``.

    ``refine=True`` runs an additional half-step solve and Richardson
    extrapolates (the trapezoidal error is a clean dt^2 series for these
    analytic kernels), pushing the floor low enough to follow stretched
    tails down to ~1e-10 of the initial amplitude.
    """
    times = grid.times
    table = sample_kernels(mode, times, tol=tol)
    rho, growth = solve_volterra(table.alpha, table.beta, grid.dt)
    if refine and not growth:
        half = TimeGrid(dt=grid.dt / 2.0, n_steps=2 * grid.n_steps)
        table_h = sample_kernels(mode, half.times, tol=tol)
        rho_h, growth_h = solve_volterra(table_h.alpha, table_h.beta, half.dt)
        if not growth_h:
            rho = (4.0 * rho_h[::2] - rho) / 3.0
    return ModeTrajectory(grid=grid, rho=rho, alpha_samples=table.alpha,
                          beta_samples=table.beta, growth=growth)


def _resolvent_transform(mode: ModeSpec, y, tol):
    w = laplace_beta_imag(mode, y, tol=tol)
    return w / (1.0 - w)


_RESOLVENT_Y_MAX = 64.0  # quadrature in y stops at this multiple of kappa


def resolvent_kernel(mode: ModeSpec, grid: TimeGrid,
                     tol=1e-8) -> np.ndarray:
    """Resolvent samples R(t_j) = int G(y) e^{2 pi i y t} dy with
    G = W/(1 - W), W the kernel transform on the imaginary axis.

    Requires the mode supercritical (checked first); G then decays like
    y^-2, the integral is truncated at ``_RESOLVENT_Y_MAX * kappa`` panels
    of geometric width, and the remaining tail is added in closed form from
    the y^-2 asymptote via the exponential integral E1 on the imaginary
    axis, :func:`rvpmodes.relkin.exp1_neg_imag`.
    """
    kap = mode.kappa
    thr = (threshold_plasma(mode.equilibrium) if mode.sigma == +1
           else threshold_astro(mode.equilibrium))
    if kap * kap <= thr.kappa_crit_sq:
        raise SubcriticalModeError(
            f"kappa^2 = {kap*kap:.6g} <= critical {thr.kappa_crit_sq:.6g}: "
            "transform reaches 1 on the integration path; no integrable "
            "resolvent reconstruction")

    times = grid.times
    om = 2.0 * math.pi * times

    # Inside the support: G complex (W carries the i b/2 part).
    n_in = 1024
    nodes = filon_nodes(0.0, kap, n_in)
    g_in = _resolvent_transform(mode, nodes.ravel(), tol).reshape(nodes.shape)
    inner = filon_sums(g_in, 0.0, kap, om)

    # Outside: G real on geometric panels [kap, Y].
    total = inner
    seg_lo = kap
    seg_hi = 2.0 * kap
    g_edge = None
    while seg_lo < _RESOLVENT_Y_MAX * kap:
        n_seg = 64
        nodes = filon_nodes(seg_lo, seg_hi, n_seg)
        g_seg = _resolvent_transform(mode, nodes.ravel(), tol).reshape(
            nodes.shape)
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


def apply_resolvent(resolvent, alpha, dt):
    """alpha + R * alpha on the grid: the closed solution form."""
    conv = convolve_product_trapezoid(resolvent, alpha, dt)
    return np.asarray(alpha) + conv
