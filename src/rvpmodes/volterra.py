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
from scipy import special as _sp

from .quadrature import filon_nodes
from .spectral import (ModeSpec, _filon_batch, laplace_beta_imag,
                       sample_kernels, threshold_astro, threshold_plasma)

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
    """
    alpha = np.asarray(alpha)
    beta = np.asarray(beta, dtype=complex if np.iscomplexobj(alpha) else float)
    if alpha.shape != beta.shape or alpha.ndim != 1:
        raise ValueError("alpha and beta must be 1D arrays of equal length")
    n = alpha.size
    rho = np.zeros(n, dtype=np.result_type(alpha, beta, 1.0 + 0j))
    beta = beta.astype(rho.dtype)
    rho[0] = alpha[0]
    denom = 1.0 - 0.5 * dt * beta[0]
    if abs(denom) < 1e-12:
        raise ValueError("implicit step is singular: dt*beta(0)/2 too close to 2")
    growth = False
    for i in range(1, n):
        conv = 0.5 * beta[i] * rho[0]
        if i > 1:
            conv += np.dot(beta[i - 1:0:-1], rho[1:i])
        val = (alpha[i] + dt * conv) / denom
        if abs(val) > growth_cap:
            rho[i:] = val * (growth_cap / abs(val))
            growth = True
            break
        rho[i] = val
    return rho, growth


def convolve_product_trapezoid(kernel, source, dt):
    """Trapezoidal (kernel * source)(t_n) on a shared uniform grid."""
    kernel = np.asarray(kernel)
    source = np.asarray(source)
    n = source.size
    out = np.zeros(n, dtype=np.result_type(kernel, source, 1.0))
    for i in range(1, n):
        acc = 0.5 * (kernel[i] * source[0] + kernel[0] * source[i])
        if i > 1:
            acc += np.dot(kernel[i - 1:0:-1], source[1:i])
        out[i] = dt * acc
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


def resolvent_kernel(mode: ModeSpec, grid: TimeGrid, tol=1e-8,
                     y_max_factor=64.0) -> np.ndarray:
    """Resolvent samples R(t_j) = int G(y) e^{2 pi i y t} dy with
    G = W/(1 - W), W the kernel transform on the imaginary axis.

    Requires the mode supercritical (checked first); G then decays like
    y^-2, the integral is truncated at ``y_max_factor * kappa`` panels of
    geometric width, and the remaining tail is added in closed form from
    the y^-2 asymptote via the exponential integral.
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
    nodes, _ = filon_nodes(0.0, kap, n_in)
    g_in = _resolvent_transform(mode, nodes.ravel(), tol).reshape(nodes.shape)
    inner = _filon_batch(g_in, 0.0, kap, n_in, om)

    # Outside: G real on geometric panels [kap, Y].
    total = inner
    seg_lo = kap
    seg_hi = 2.0 * kap
    g_edge = None
    while seg_lo < y_max_factor * kap:
        n_seg = 64
        nodes, _ = filon_nodes(seg_lo, seg_hi, n_seg)
        g_seg = _resolvent_transform(mode, nodes.ravel(), tol).reshape(
            nodes.shape)
        total = total + _filon_batch(g_seg, seg_lo, seg_hi, n_seg, om)
        g_edge = g_seg[-1, -1]
        seg_lo, seg_hi = seg_hi, 2.0 * seg_hi

    # Tail: G(y) ~ A / y^2 beyond Y.
    Y = seg_lo
    A = g_edge * Y * Y
    tail = np.empty_like(total)
    pos = om > 0
    tail[~pos] = A / Y
    if np.any(pos):
        w = om[pos]
        # int_Y^inf e^{i w y} / y^2 dy = e^{i w Y}/Y + i w E1(-i w Y)
        e1 = _sp.exp1(-1j * w * Y)
        tail[pos] = A * (np.exp(1j * w * Y) / Y + 1j * w * e1)
    total = total + tail

    # Every piece covers y > 0 only; add the mirror image (complex
    # conjugate at -y) by taking twice the real part.
    return 2.0 * total.real + 0j


def apply_resolvent(resolvent, alpha, dt):
    """alpha + R * alpha on the grid: the closed solution form."""
    conv = convolve_product_trapezoid(resolvent, alpha, dt)
    return np.asarray(alpha) + conv
