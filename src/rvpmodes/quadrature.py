"""Controlled-accuracy 1D integration used throughout the package.

Three entry points:

* :func:`integrate_finite` -- globally adaptive Gauss-Kronrod (G7, K15)
  bisection on a finite interval.  Integrands must accept numpy arrays
  (all nodes of a panel are evaluated in one call) and may return complex.
* :func:`integrate_semi_infinite` -- [0, inf) via the rational map
  p = scale*u/(1-u), or plain clipping for compactly supported integrands.
* :func:`integrate_oscillatory` -- int f(x) e^{i omega x} dx by composite
  Filon panels, exact for cubic envelopes per panel at any frequency.

The Filon node/moment helpers are exposed for the batch kernel-table builder
in :mod:`rvpmodes.spectral`, which reuses one panelization across thousands
of frequencies; the Gauss-Legendre panels serve its principal values.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_oscillatory",
    "filon_nodes",
    "filon_node_weights",
    "gauss_legendre_nodes",
]

# QUADPACK (G7, K15) abscissae and weights on [-1, 1].
_XK = np.array([
    -0.99145537112081263920685469752633,
    -0.94910791234275852452618968404785,
    -0.86486442335976907278971278864093,
    -0.74153118559939443986386477328079,
    -0.58608723546769113029414483825873,
    -0.40584515137739716690660641207696,
    -0.20778495500789846760068940377324,
    0.0,
    0.20778495500789846760068940377324,
    0.40584515137739716690660641207696,
    0.58608723546769113029414483825873,
    0.74153118559939443986386477328079,
    0.86486442335976907278971278864093,
    0.94910791234275852452618968404785,
    0.99145537112081263920685469752633,
])
_WK = np.array([
    0.02293532201052922496373200805897,
    0.06309209262997855329070066318921,
    0.10479001032225018383987632254152,
    0.14065325971552591874518959051024,
    0.16900472663926790282658342659855,
    0.19035057806478540991325640242101,
    0.20443294007529889241416199923465,
    0.20948214108472782801299917489171,
    0.20443294007529889241416199923465,
    0.19035057806478540991325640242101,
    0.16900472663926790282658342659855,
    0.14065325971552591874518959051024,
    0.10479001032225018383987632254152,
    0.06309209262997855329070066318921,
    0.02293532201052922496373200805897,
])
# Gauss-7 weights aligned with the odd Kronrod abscissae.
_WG = np.array([
    0.12948496616886969327061143267908,
    0.27970539148927666790146777142378,
    0.38183005050511894495036977548898,
    0.41795918367346938775510204081633,
    0.38183005050511894495036977548898,
    0.27970539148927666790146777142378,
    0.12948496616886969327061143267908,
])
_GAUSS_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class QuadResult:
    """Value, an absolute-error estimate, and the evaluation count."""

    value: complex | float
    abs_error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Non-convergence; carries the best value and its error estimate."""

    def __init__(self, message, result: QuadResult):
        super().__init__(message)
        self.result = result


def _gk15(f, a, b):
    """One (G7, K15) panel.  Returns (kronrod, error_estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = f(c + h * _XK)
    y = np.asarray(y)
    k = h * np.sum(_WK * y)
    g = h * np.sum(_WG * y[_GAUSS_IDX])
    return k, abs(k - g)


def integrate_finite(f, a, b, tol=1e-9, max_subdiv=2000):
    """Adaptive int_a^b f(x) dx to absolute tolerance ``tol``.

    Panels never evaluate the endpoints, so integrable endpoint
    singularities (1/sqrt(x), log x, ...) converge without special casing.
    Raises :class:`QuadratureError` carrying the best estimate if the
    subdivision budget is exhausted or the value or its error estimate is
    not finite.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
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
            "integrate_finite hit a non-finite value or error estimate "
            f"({res.value}, {total_err}) after {evals} evaluations", res)
    if total_err > 100 * tol and not total_err <= 1e-14 * abs(total_val):
        raise QuadratureError(
            f"integrate_finite did not reach tol={tol:g} "
            f"(estimate {total_err:g} after {evals} evaluations)", res)
    return res


def _scalar(x):
    x = complex(x)
    return x.real if x.imag == 0.0 else x


@functools.lru_cache(maxsize=1)
def _gauss_legendre_16():
    return np.polynomial.legendre.leggauss(16)


def gauss_legendre_nodes(edges, n_panels):
    """Composite 16-point Gauss-Legendre rule, ``n_panels`` equal panels
    between each pair of consecutive ``edges``; returns flat (nodes,
    weights).  The rule has even order, so no node lands on a panel edge
    or a panel centre."""
    x16, w16 = _gauss_legendre_16()
    k = np.arange(n_panels * (len(edges) - 1) + 1) / n_panels
    cuts = np.interp(k, np.arange(len(edges)), edges)
    half = 0.5 * np.diff(cuts)[:, None]
    nodes = (cuts[:-1, None] + half) + half * x16
    return nodes.ravel(), (half * w16).ravel()


def integrate_semi_infinite(f, tol=1e-9, support=None, scale=1.0,
                            max_subdiv=2000):
    """int_0^inf f(p) dp for integrands decaying at least exponentially.

    ``support``: finite upper support bound, integrates [0, support] directly.
    ``scale``: characteristic p where the integrand mass sits; the map
    p = scale*u/(1-u) places that region mid-interval so the adaptive pass
    starts near the action.
    """
    if support is not None and np.isfinite(support):
        return integrate_finite(f, 0.0, float(support), tol=tol,
                                max_subdiv=max_subdiv)
    s = float(scale)
    if s <= 0:
        raise ValueError("scale must be positive")

    def g(u):
        w = 1.0 - u
        return f(s * u / w) * (s / (w * w))

    return integrate_finite(g, 0.0, 1.0, tol=tol, max_subdiv=max_subdiv)


# ---------------------------------------------------------------------------
# Filon-type oscillatory quadrature
# ---------------------------------------------------------------------------
# Per panel the envelope is interpolated by the cubic through 4 equispaced
# nodes; int l_m(s) e^{i Om s} ds is evaluated from the monomial moments
# mu_j(Om) = int_{-1}^{1} s^j e^{i Om s} ds, so the rule is exact for cubic
# envelopes at every frequency.

_FILON_S = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
# Row m holds the monomial coefficients of the Lagrange cardinal l_m.
_FILON_L = np.linalg.inv(np.vander(_FILON_S, 4, increasing=True).T)


def _filon_moments(omega_half):
    """mu_j(Om) for j = 0..3, vectorized over Om; shape (..., 4)."""
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
            mu[..., j] = (e_plus - sign * e_minus) / iw - (j / iw) * mu[..., j - 1]
        out[big] = mu
    return out


def filon_nodes(a, b, n_panels):
    """Node abscissae for ``n_panels`` uniform cubic panels on [a, b].

    Returns (nodes, h) where nodes has shape (n_panels, 4); interior panel
    edges appear twice (once per neighbour), which keeps the bookkeeping
    trivial at negligible cost.
    """
    edges = np.linspace(a, b, n_panels + 1)
    h = (b - a) / n_panels
    left = edges[:-1]
    return left[:, None] + (h / 2.0) * (_FILON_S + 1.0)[None, :], h


def filon_node_weights(omega, a, b, n_panels):
    """Complex weights w with  sum_{p,m} w[p,m] f(nodes[p,m])
    = int_a^b f(x) e^{i omega x} dx  exactly for per-panel cubic f.

    ``omega`` may be an array; the returned weights then have shape
    omega.shape + (n_panels, 4).
    """
    om = np.asarray(omega, dtype=float)
    h = (b - a) / n_panels
    centers = np.linspace(a, b, n_panels + 1)[:-1] + 0.5 * h
    mu = _filon_moments(om[..., None] * (h / 2.0))         # (..., 1, 4)
    lam = mu @ _FILON_L.T                                  # (..., 1, 4)
    phase = np.exp(1j * om[..., None] * centers)           # (..., P)
    return (h / 2.0) * phase[..., :, None] * lam


def integrate_oscillatory(f, omega, a, b, tol=1e-9, max_panels=2 ** 14):
    """int_a^b f(x) e^{i omega x} dx for a smooth envelope f.

    Composite Filon with global panel doubling until the update falls below
    ``tol``; the panel count is set by envelope resolution, not frequency.
    omega = 0 degenerates to plain (non-oscillatory) integration.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if omega == 0.0:
        res = integrate_finite(f, a, b, tol=tol)
        return QuadResult(complex(res.value), res.abs_error_estimate,
                          res.evaluations)

    n = 8
    prev = None
    evals = 0
    while True:
        nodes, _ = filon_nodes(a, b, n)
        w = filon_node_weights(float(omega), a, b, n)
        vals = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
        evals += nodes.size
        cur = complex(np.sum(w * vals))
        if prev is not None:
            err = abs(cur - prev)
            if err <= tol:
                return QuadResult(cur, err, evals)
            if 2 * n > max_panels:
                raise QuadratureError(
                    f"integrate_oscillatory stalled at {n} panels "
                    f"(estimate {err:g})", QuadResult(cur, err, evals))
        prev = cur
        n *= 2
