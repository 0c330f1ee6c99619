"""Per-mode Volterra evolution and the resolvent kernel.

Each mode obeys a Volterra equation of the second kind,

    rho(t) = alpha(t) + int_0^t beta(t - tau) rho(tau) d tau,

discretized by product trapezoidal rule and marched in real (float64)
arithmetic.  beta(0) = 0 for every radial equilibrium, which makes the
step explicit; the scalar implicit correction applies to a kernel with
beta(0) != 0 (the synthetic constant-kernel benchmark).

The resolvent kernel R is the function whose one-sided transform equals
W / (1 - W) where W is the transform of beta; it expresses the solution as
rho = alpha + R * alpha, with R and alpha real.  It is reconstructed here
from its jump across the support [-kappa, kappa] of the imaginary axis,
the only singularity of W / (1 - W) for supercritical modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import filon_table, next_fast_len
from .spectral import (ModeSpec, kappa_crit_sq, laplace_beta_imag,
                       sample_kernels)

__all__ = [
    "TimeGrid",
    "ModeTrajectory",
    "SubcriticalModeError",
    "solve_volterra",
    "solve_mode",
    "resolvent_kernel",
    "apply_resolvent",
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

    @classmethod
    def ending_at(cls, dt, t_max):
        """The grid of round(t_max/dt) steps of dt, refused with ValueError
        (or the ArithmeticError of t_max/dt) unless t_max/dt is a whole
        number to 1e-9 relative: a grid that ends elsewhere than t_max is
        not the one asked for."""
        n_steps = round(t_max / dt)
        if not abs(t_max / dt - n_steps) <= 1e-9 * n_steps:
            raise ValueError(f"t_max {t_max} is no whole number of dt {dt}")
        return cls(dt=dt, n_steps=n_steps)


@dataclass(frozen=True)
class ModeTrajectory:
    """Real solution samples with the kernel tables that produced them."""

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
    float64 throughout: complex input raises TypeError, non-finite input
    ValueError.  Divide and conquer (Hairer, Lubich & Schlichte 1985),
    O(N log^2 N): a block's left half reaches its right half as one real
    FFT (the kernel's taken once per padded length and call), and a base
    block of at most ``_BASE`` steps, a lower-triangular Toeplitz system,
    is one convolution with the march's impulse response.
    """
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    if np.iscomplexobj(alpha) or np.iscomplexobj(beta):
        raise TypeError("alpha and beta must be real")
    if alpha.shape != beta.shape or alpha.ndim != 1:
        raise ValueError("alpha and beta must be 1D arrays of equal length")
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError("alpha and beta must be finite")
    n = alpha.size
    rho = np.zeros(n)
    rho[0] = alpha[0]
    denom = 1.0 - 0.5 * dt * beta[0]
    if abs(denom) < 1e-12:
        raise ValueError("implicit step is singular: dt*beta(0)/2 too close to 2")
    hist = 0.5 * beta * rho[0]  # history sums, seeded with the rho_0 term

    # g: the base block's response to a unit impulse at its first step; it
    # may overflow for violently growing kernels, which only sends the
    # affected samples to the step-by-step loop below
    g = np.zeros(min(n, _BASE))
    g[0] = 1.0 / denom
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, g.size):
            g[i] = dt * np.dot(beta[i:0:-1], g[:i]) / denom

    spectra = {}  # rfft(beta[:m], m) by padded length m: blocks share them

    def march(lo, hi):
        """Fill rho[lo:hi], hist[lo:hi] holding the history of rho[1:lo];
        True once the growth cap has frozen the tail."""
        if hi - lo > _BASE:
            mid = (lo + hi) // 2
            if march(lo, mid):
                return True
            m = next_fast_len(hi - lo)  # wraps only into slots < mid-lo
            if m not in spectra:
                spectra[m] = np.fft.rfft(beta[:m], m)
            conv = np.fft.irfft(np.fft.rfft(rho[lo:mid], m) * spectra[m], m)
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


def solve_mode(mode: ModeSpec, grid: TimeGrid, tol=1e-11,
               refine: bool = False) -> ModeTrajectory:
    """Evolve one mode on ``grid``.

    ``refine=True`` runs an additional half-step solve and Richardson
    extrapolates (the trapezoidal error is a clean dt^2 series for these
    analytic kernels), pushing the floor low enough to follow stretched
    tails down to ~1e-10 of the initial amplitude.  The half-step solve
    runs first and frees its tables, keeping every other sample of its
    rho, so the peak is that solve's own; a growing mode pays for it too.
    """
    rho_h = None
    if refine:
        half = TimeGrid(dt=grid.dt / 2.0, n_steps=2 * grid.n_steps)
        table = sample_kernels(mode, half.times, tol=tol)
        rho_h, growth = solve_volterra(table.alpha, table.beta, half.dt)
        rho_h = None if growth else rho_h[::2].copy()
        del table
    table = sample_kernels(mode, grid.times, tol=tol)
    rho, growth = solve_volterra(table.alpha, table.beta, grid.dt)
    if rho_h is not None and not growth:
        rho = (4.0 * rho_h - rho) / 3.0
    return ModeTrajectory(rho=rho, alpha_samples=table.alpha,
                          beta_samples=table.beta, growth=growth)


def resolvent_kernel(mode: ModeSpec, grid: TimeGrid,
                     tol=1e-8) -> np.ndarray:
    """Real resolvent samples R(t_j) from the jump of G = W/(1 - W), W the
    kernel transform on the imaginary axis.

    Requires the mode supercritical (checked first): then G has no
    singularity but its jump across the support, Im G = Im W / |1 - W|^2
    = b / (2 |1 - W|^2), zero for |y| >= e (Plemelj-Sokhotski), and a
    causal R is its sine transform, R(t) = -4 int_0^kappa Im G(y)
    sin(2 pi y t) dy.  That is one Filon row on [0, kappa], panels doubled
    until the transform at the probe times moves by at most ``tol / 4``,
    so R by at most ``tol`` (``quadrature.filon_table``; its panel cap
    raises QuadratureError).
    """
    kap = mode.kappa
    kc2 = kappa_crit_sq(mode.equilibrium, mode.sigma)
    if kap * kap <= kc2:
        raise SubcriticalModeError(
            f"kappa^2 = {kap*kap:.6g} <= critical {kc2:.6g}: "
            "transform reaches 1 on the integration path; no integrable "
            "resolvent reconstruction")

    def im_g(y):
        w = laplace_beta_imag(mode, y, tol=tol)
        return w.imag / np.abs(1.0 - w) ** 2

    sums, _ = filon_table(im_g, kap, grid.times, 0.25 * tol, ("imag",))
    sums *= -4.0
    return sums[0]


def apply_resolvent(resolvent, alpha, dt):
    """alpha + R * alpha on the grid, the closed solution form: the
    trapezoidal convolution as one real FFT product, the end-point halves
    taken back out.  Complex input raises TypeError (``np.fft.rfft``)."""
    r, alpha = np.asarray(resolvent), np.asarray(alpha)
    n = alpha.size
    m = next_fast_len(2 * n - 1)
    conv = np.fft.irfft(np.fft.rfft(r[:n], m) * np.fft.rfft(alpha, m), m)[:n]
    conv = dt * (conv - 0.5 * (r[:n] * alpha[0] + r[0] * alpha))
    conv[0] = 0.0
    return alpha + conv
