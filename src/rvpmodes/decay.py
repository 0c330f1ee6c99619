"""Decay diagnostics for evolved mode trajectories.

|rho(t)| oscillates under a decaying envelope; the statements worth testing
concern that envelope:

* :func:`envelope` extracts strict local maxima;
* :func:`fit_stretched` fits c * exp(-eps * t^(1/s)) to the peaks in
  log-amplitude space by variable projection: log c and eps enter
  linearly, so for each x = 1/s they are an exact box-bounded linear
  least-squares solve, and only x is searched (a grid, then rescans);
* :func:`bootstrap_s_interval` refits every peak resample at once, by
  secant steps on the profiled gradient, for a percentile interval of s;
* :func:`exp_test` classifies the decay as exponential vs sub-exponential
  from the behaviour of lambda(t) = -ln|rho| / t, which plateaus for a true
  exponential and falls like a power for stretched decay.

Distinguishing exp(-eps t^(1/s)) from a plain power law at a finite horizon
is ill-posed; the verdict logic therefore keys off lambda's log-log slope
and a minimum total decay, and the synthetic battery fixing the thresholds
is frozen in the test suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

__all__ = [
    "DecayFit",
    "Envelope",
    "NoDecayError",
    "envelope",
    "fit_stretched",
    "bootstrap_s_interval",
    "exp_test",
    "fit_mode_decay",
]

# exp_test discriminator: log-log slope of lambda(t) above this is a
# plateau (exponential); require at least this much total envelope decay
# before claiming any verdict.
SLOPE_PLATEAU = -0.1
MIN_DECAY_FACTOR = 4.0


@dataclass(frozen=True)
class Envelope:
    """Peak sequence of |rho|."""

    t: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class DecayFit:
    c: float
    eps: float
    s: float
    s_ci: Optional[tuple] = None


class NoDecayError(RuntimeError):
    pass


def envelope(t, value) -> Envelope:
    """Strict local maxima of a sampled |rho|; falls back to all samples
    when fewer than 3 maxima exist."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(value, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("t and value must be 1D arrays of equal shape")
    if t.size >= 3:
        interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
        idx = np.nonzero(interior)[0] + 1
    else:
        idx = np.array([], dtype=int)
    if idx.size < 3:
        return Envelope(t=t.copy(), value=v.copy())
    return Envelope(t=t[idx], value=v[idx])


# Box of the fit, as (log c, eps, x = 1/s).
_LOGC_MAX = 50.0
_EPS_MIN, _EPS_MAX = math.exp(-50.0), math.exp(50.0)
_X_MIN, _X_MAX = 1e-3, 1.5
_X_GRID = 301      # exponents of the first scan; rescans go ten times finer
_X_TOL = 1e-10     # absolute tolerance on x of the rescans and the refits
_SECANT_ITERS = 40  # cap; bootstrap replicates settle in about 5 steps
_BLOCK_ELEMS = 2 ** 14  # (rows, peaks) elements per _profile call
_BOOT_ELEMS = 2 ** 18  # (replicates, peaks) resample indices held at once
_DRAW_WORDS = 2 ** 12  # 32-bit generator words turned into draws at once
_BOOT_LEVEL = 0.95  # of the bootstrap's percentile interval of s


def _positive_peaks(env):
    t = np.asarray(env.t, dtype=float)
    v = np.asarray(env.value, dtype=float)
    keep = (t > 0) & (v > 0)
    return t[keep], v[keep]


def _profile(x, logt, logv):
    """Variable projection of log v = log c - eps t^x: for each exponent
    x (shape (m,)) the exact box-bounded least-squares (log c, eps).

    ``logt`` and ``logv`` have shape (n,) or (m, n).  The problem is convex
    in (log c, eps): the unconstrained solution stands when it lies in the
    box, otherwise the optimum lies on one of the four edges, each a
    clipped 1-D solve.  Returns (log c, eps, t^x, residuals), the last two
    of shape (m, n).
    """
    u = np.exp(x[:, None] * logt)
    y = np.broadcast_to(logv, u.shape)
    um, ym = u.mean(axis=1), y.mean(axis=1)
    du = u - um[:, None]
    e = -np.sum(du * (y - ym[:, None]), axis=1) / np.sum(du * du, axis=1)
    a = ym + e * um
    out = ~((np.abs(a) <= _LOGC_MAX) & (e >= _EPS_MIN) & (e <= _EPS_MAX))
    if out.any():
        ub, yb = u[out], y[out]
        edge_a = np.array([-_LOGC_MAX, _LOGC_MAX])
        edge_e = np.array([_EPS_MIN, _EPS_MAX])
        suu = np.sum(ub * ub, axis=1)[:, None]
        suy = np.sum(ub * yb, axis=1)[:, None]
        # columns: log c = -50, +50 with eps solved, then eps = e^-50, e^50
        # with log c solved
        cand_a = np.hstack([np.broadcast_to(edge_a, (ub.shape[0], 2)),
                            np.clip(ym[out, None] + edge_e * um[out, None],
                                    -_LOGC_MAX, _LOGC_MAX)])
        cand_e = np.hstack([np.clip((edge_a * np.sum(ub, axis=1)[:, None]
                                     - suy) / suu, _EPS_MIN, _EPS_MAX),
                            np.broadcast_to(edge_e, (ub.shape[0], 2))])
        sse = np.sum((cand_a[:, :, None] - cand_e[:, :, None] * ub[:, None]
                      - yb[:, None]) ** 2, axis=2)
        best = np.argmin(sse, axis=1)[:, None]
        a[out] = np.take_along_axis(cand_a, best, axis=1)[:, 0]
        e[out] = np.take_along_axis(cand_e, best, axis=1)[:, 0]
    return a, e, u, a[:, None] - e[:, None] * u - y


def _row_blocks(m, n, elems=_BLOCK_ELEMS):
    """Slices of m rows, each block at most ``elems`` elements of n peaks
    (one row at least): every row of _profile is its own problem, so a
    block's rows equal the same rows solved together."""
    rows = max(1, elems // n)
    return [slice(i, min(i + rows, m)) for i in range(0, m, rows)]


def _sse(x, logt, logv):
    x = np.atleast_1d(x)
    return np.concatenate([
        np.sum(_profile(x[b], logt, logv)[3] ** 2, axis=1)
        for b in _row_blocks(x.size, logt.size)])


def _quantile(a, q):
    """``np.quantile(a, q)`` of a non-empty 1-D array free of NaN and -0.0,
    for q in [0, 1], to the bit, by a sort (``np.quantile`` loads
    ``numpy.ma``): numpy's 'linear' method, virtual index (n - 1) q between
    sorted neighbours, interpolated as numpy's ``_lerp`` does.  The decay
    tests' medians are its 0.5-quantile, which may differ from
    ``np.median`` by one ulp on even lengths; only comparisons read them.
    A sort and numpy's partition may order -0.0 and 0.0 differently."""
    s = np.sort(a)
    v = (s.size - 1) * np.asarray(q, dtype=float)
    top = v >= s.size - 1
    lo = np.where(top, -1, np.floor(v)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    gamma = v - lo
    below, above = s[lo], s[hi]
    diff = above - below
    return np.where(gamma >= 0.5, above - diff * (1 - gamma),
                    below + diff * gamma)


def _slope(x, y):
    """Least-squares slope of y on x, centred: sum(dx dy) / sum(dx^2).

    The straight lines of the decay tests need only this number, which
    ``np.polyfit`` would get from LAPACK's ``dgelsd`` (and page its code
    into the process).  NaN when x is constant or holds a NaN.
    """
    if not x.max() > x.min():
        return math.nan
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def fit_stretched(env: Envelope) -> DecayFit:
    """Least-squares fit of c * exp(-eps t^(1/s)) to a peak sequence.

    Stage 1 profiles c out via the early-time maximum and fits
    ln(-ln(v/c)) against ln t; it raises :class:`NoDecayError` when the
    envelope does not decrease.  Stage 2 minimises the squared residuals of
    log v = log c - eps t^x, x = 1/s, over the box |log c| <= 50,
    e^-50 <= eps <= e^50, 1e-3 <= x <= 1.5 by variable projection (Golub &
    Pereyra 1973): (log c, eps) are solved exactly for each x, and the
    profiled sum is scanned on a grid of x, then rescanned about the best
    x, ten times finer each time and clipped to the box, to _X_TOL.
    """
    t, v = _positive_peaks(env)
    if t.size < 4:
        raise NoDecayError("too few positive peaks to fit")
    c0 = float(v.max()) * (1.0 + 1e-12)
    head = max(1, t.size // 5)
    if _quantile(v[-head:], 0.5) >= 0.9 * _quantile(v[:head], 0.5):
        raise NoDecayError("no decay detected")

    ratio = v / c0
    # keep the linearized stage away from the peak that defines c0, where
    # -ln(ratio) collapses to rounding noise
    ok = -np.log(ratio) > 1e-3
    if np.count_nonzero(ok) < 3:
        ok = ratio < 1.0
    if not _slope(np.log(t[ok]), np.log(-np.log(ratio[ok]))) > 0:
        raise NoDecayError("no decay detected (flat log-log envelope)")

    logt, logv = np.log(t), np.log(v)
    xs = np.linspace(_X_MIN, _X_MAX, _X_GRID)
    step = xs[1] - xs[0]
    x = xs[np.argmin(_sse(xs, logt, logv))]
    while step > _X_TOL:  # 21 points over +-step, the middle one x itself
        xs = np.clip(x + step * np.linspace(-1.0, 1.0, 21), _X_MIN, _X_MAX)
        x = xs[np.argmin(_sse(xs, logt, logv))]
        step /= 10.0
    logc, eps, _, _ = _profile(np.array([x]), logt, logv)
    return DecayFit(c=math.exp(logc[0]), eps=float(eps[0]), s=float(1.0 / x))


def bootstrap_s_interval(env: Envelope, fit: DecayFit, n_boot=200, seed=0):
    """95 % percentile bootstrap over peaks of the fitted exponent s.

    Replicates refit by variable projection, _BOOT_ELEMS resampled peaks
    at a time (memory does not grow with ``n_boot``): secant steps on the
    profiled gradient -2 eps sum(r t^x log t), started from the fit of the
    full data.  Replicates that end non-finite (a resample of one repeated
    peak leaves x undetermined) are dropped.  The resamples come from one
    Mersenne Twister stream, ``random.Random(seed)``, replicate after
    replicate (see :func:`_bounded_draws`); a negative seed, which would
    repeat the stream of its absolute value, raises ``ValueError``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    t, v = _positive_peaks(env)
    logt, logv = np.log(t), np.log(v)
    gen = random.Random(seed)
    x = np.empty(n_boot)
    for b in _row_blocks(n_boot, t.size, _BOOT_ELEMS):
        idx = np.empty((b.stop - b.start, t.size), dtype=np.int32)
        _bounded_draws(gen, t.size, idx.reshape(-1))
        idx.sort(axis=1)
        x[b] = _secant_refits(idx, logt, logv, 1.0 / fit.s)
    s = 1.0 / x[np.isfinite(x)]
    if not s.size:
        return (math.nan, math.nan)
    lo, hi = _quantile(s, [(1 - _BOOT_LEVEL) / 2, (1 + _BOOT_LEVEL) / 2])
    return (float(lo), float(hi))


def _bounded_draws(gen, n, out):
    """Fill the 1-D ``out`` with uniform draws from range(n), 1 <= n <= 2^32.

    Lemire's multiply-shift, the rule of numpy's ``integers``: a 32-bit
    word w of ``gen.getrandbits`` gives (w n) >> 32, unless the low word
    of w n lies below 2^32 mod n, when w is rejected.  Words are taken in
    stream order, _DRAW_WORDS at most at once and never more than the
    draws still missing, so each word is used or rejected and a fill of
    several arrays continues one stream exactly as a single fill would.
    ``import numpy`` has loaded ``random`` already; ``numpy.random`` would
    add its bit generators and OpenSSL's ``_hashlib`` (6.3 MB of RSS) to a
    ``fit`` process.
    """
    done = 0
    while done < out.size:
        k = min(_DRAW_WORDS, out.size - done)
        words = gen.getrandbits(32 * k).to_bytes(4 * k, "little")
        m = np.frombuffer(words, dtype="<u4") * np.uint64(n)
        m = m[(m & 0xFFFFFFFF) >= (1 << 32) % n]
        out[done:done + m.size] = m >> 32
        done += m.size


def _secant_refits(idx, logt, logv, x0):
    """x = 1/s refit from ``x0`` for each row of peak indices ``idx``."""

    def grad(x, rows):
        g = np.empty(rows.size)
        for b in _row_blocks(rows.size, logt.size):
            peaks = idx[rows[b]]
            lt = logt[peaks]
            _, eps, u, res = _profile(x[b], lt, logv[peaks])
            g[b] = -2.0 * eps * np.sum(res * u * lt, axis=1)
        return g

    x_prev = np.full(len(idx), x0)
    h = 1e-4 * (_X_MAX - _X_MIN)
    x = np.where(x_prev - h >= _X_MIN, x_prev - h, x_prev + h)
    live = np.arange(len(idx))
    with np.errstate(divide="ignore", invalid="ignore"):
        g_prev, g = grad(x_prev, live), grad(x, live)
        for _ in range(_SECANT_ITERS):
            step = g * (x[live] - x_prev[live]) / (g - g_prev)
            new = np.clip(x[live] - step, _X_MIN, _X_MAX)
            x_prev[live] = x[live]
            x[live] = new
            moving = np.abs(new - x_prev[live]) > _X_TOL
            live, g_prev = live[moving], g[moving]
            if not live.size:
                break
            g = grad(x[live], live)
    return x


def exp_test(env: Envelope) -> str:
    """Verdict 'exponential', 'sub-exponential', or 'none'.

    Computes lambda(t) = -ln v / t on the peaks and fits its log-log slope
    b.  A plateau (b > SLOPE_PLATEAU) at a positive level is exponential
    decay; a falling lambda with genuine total decay is sub-exponential;
    envelopes that barely decay, or whose b is NaN, return 'none'.
    """
    t, v = _positive_peaks(env)
    if t.size < 5:
        return "none"
    head = max(1, t.size // 5)
    if _quantile(v[:head], .5) < MIN_DECAY_FACTOR * _quantile(v[-head:], .5):
        return "none"
    lam = -np.log(v) / t
    ok = lam > 0
    if np.count_nonzero(ok) < 5:
        return "none"
    b = _slope(np.log(t[ok]), np.log(lam[ok]))
    if not math.isfinite(b):
        return "none"
    late = lam[ok][-max(1, np.count_nonzero(ok) // 5):]
    if b > SLOPE_PLATEAU and _quantile(late, 0.5) > 0:
        return "exponential"
    return "sub-exponential"


_FLOOR_FACTOR = 1e3  # solver noise floor, in machine epsilons of the peak


def fit_mode_decay(times, rho_abs, kappa, seed=0, n_boot=200, t_min=None):
    """Windowed envelope fit for one evolved mode.

    Drops the transient t < 10/kappa (``t_min``) and peaks below
    _FLOOR_FACTOR * machine epsilon * max (solver noise floor), then fits
    and bootstraps.  Returns (DecayFit with CI, Envelope, verdict);
    ``n_boot=0`` skips the bootstrap and leaves the CI (nan, nan).
    """
    if n_boot < 0:
        raise ValueError(f"n_boot must be >= 0, got {n_boot}")
    times = np.asarray(times, dtype=float)
    rho_abs = np.asarray(rho_abs, dtype=float)
    if t_min is None:
        t_min = 10.0 / kappa
    env_all = envelope(times, rho_abs)
    floor = _FLOOR_FACTOR * np.finfo(float).eps * rho_abs.max()
    keep = (env_all.t >= t_min) & (env_all.value > floor)
    env = Envelope(t=env_all.t[keep], value=env_all.value[keep])
    fit = fit_stretched(env)
    ci = (bootstrap_s_interval(env, fit, n_boot=n_boot, seed=seed) if n_boot
          else (math.nan, math.nan))
    verdict = exp_test(env)
    return replace(fit, s_ci=ci), env, verdict
