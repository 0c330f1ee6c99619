"""Controlled-accuracy 1D integration used throughout the package.

Entry points:

* :func:`integrate_finite` -- composite 16-point Gauss-Legendre panels
  on a finite interval, doubled to ``tol`` by :func:`double_panels`, for
  smooth integrands that take a numpy array and may return complex; an
  endpoint singularity or a kink raises at the panel cap (the adaptive
  Gauss-Kronrod route for those is an oracle in ``tests/oracles.py``).
* :func:`integrate_semi_infinite` -- [0, inf) via the rational map
  p = scale*u/(1-u).
* :func:`filon_sums` -- the one Filon evaluator: composite cubic panels,
  exact for cubic envelopes per panel at any frequency, for many
  frequencies on one panelization (kernel tables, the resolvent); a
  uniform frequency grid costs four chirp-z transforms on ``numpy.fft``,
  padded to :func:`next_fast_len`.
* :func:`filon_table` -- transforms of frequency envelopes on a time
  grid through :func:`filon_sums`, on uniform panels doubled to ``tol``
  by :func:`double_panels`, which the dispersion transform shares.

The Gauss-Legendre panels also serve the principal values of
:mod:`rvpmodes.spectral`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureError",
    "double_panels",
    "integrate_finite",
    "integrate_semi_infinite",
    "filon_nodes",
    "filon_sums",
    "filon_table",
    "gauss_legendre_nodes",
    "next_fast_len",
]


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


def _scalar(x):
    x = complex(x)
    return x.real if x.imag == 0.0 else x


# 16-point Gauss-Legendre rule on [-1, 1], the positive half (the rule is
# symmetric): the doubles of numpy.polynomial.legendre.leggauss(16),
# without importing that package.
_GL16_X = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499,
])
_GL16_W = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176,
])
_GL16_X = np.concatenate((-_GL16_X[::-1], _GL16_X))
_GL16_W = np.concatenate((_GL16_W[::-1], _GL16_W))


def gauss_legendre_nodes(edges, n_panels):
    """Composite 16-point Gauss-Legendre rule, ``n_panels`` equal panels
    between each pair of consecutive ``edges``; returns flat (nodes,
    weights).  The rule has even order, so no node lands on a panel edge
    or a panel centre."""
    k = np.arange(n_panels * (len(edges) - 1) + 1) / n_panels
    cuts = np.interp(k, np.arange(len(edges)), edges)
    half = 0.5 * np.diff(cuts)[:, None]
    nodes = (cuts[:-1, None] + half) + half * _GL16_X
    return nodes.ravel(), (half * _GL16_W).ravel()


_GL_START_PANELS = 4  # first pass; from 1 or 2, coarse passes agree early
_GL_MAX_PANELS = 2 ** 12  # its panel cap: 65 536 nodes in the last pass


def integrate_finite(f, a, b, tol=1e-9):
    """int_a^b f(x) dx to absolute tolerance ``tol``, for a smooth ``f``.

    Equal panels of [a, b], 16 Gauss-Legendre nodes each, double from
    ``_GL_START_PANELS`` to at most ``_GL_MAX_PANELS`` (``double_panels``)
    until the value moves by at most ``tol``, the error estimate;
    ``evaluations`` counts the integrand values of every pass, also in
    the QuadratureError raised on a non-finite value or at the cap, where
    an endpoint singularity (1/sqrt(x), log x) or a kink ends up; the
    adaptive Gauss-Kronrod route in ``tests/oracles.py`` handles those.
    Raises ``ValueError`` unless a < b and ``tol`` is finite and positive.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    evaluations = 0

    def evaluate(n):
        nonlocal evaluations
        x, w = gauss_legendre_nodes((a, b), n)
        evaluations += x.size
        value = np.sum(w * np.asarray(f(x)))
        return value, value

    try:
        value, change = double_panels(evaluate, _GL_START_PANELS,
                                      _GL_MAX_PANELS, tol, "integrate_finite")
    except QuadratureError as exc:  # it counts panels, not evaluations
        raise QuadratureError(str(exc), replace(
            exc.result, evaluations=evaluations)) from None
    return QuadResult(_scalar(value), change, evaluations)


def integrate_semi_infinite(f, tol=1e-9, scale=1.0):
    """int_0^inf f(p) dp for integrands decaying at least exponentially.

    ``scale``: characteristic p where the integrand mass sits; the map
    p = scale*u/(1-u) places that region mid-interval, where the first
    panels already resolve it.
    """
    s = float(scale)
    if s <= 0:
        raise ValueError("scale must be positive")

    def g(u):
        w = 1.0 - u
        return f(s * u / w) * (s / (w * w))

    return integrate_finite(g, 0.0, 1.0, tol=tol)


# ---------------------------------------------------------------------------
# Filon-type oscillatory quadrature
# ---------------------------------------------------------------------------
# Per panel the envelope is interpolated by the cubic through 4 equispaced
# nodes, and lam_m(Om) = int_{-1}^{1} l_m(s) e^{i Om s} ds weighs the node
# values, so the rule is exact for cubic envelopes at every frequency.  The
# weights come from four real moments, C_j = int s^j cos(Om s) ds (j = 0, 2)
# and S_j = int s^j sin(Om s) ds (j = 1, 3); the symmetric nodes give
# lam_3 = conj(lam_0) and lam_2 = conj(lam_1).

_FILON_S = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
# Taylor coefficients in Om^2 of C_0, S_1 / Om, C_2, S_3 / Om, highest
# power first, for Horner below |Om| = 1 (the 14th term is below 1e-27):
# the term Om^(2n+q) s^(2n+q) / (2n+q)! of cos (q = 0) or sin (q = 1)
# integrates against s^j to 2 / (2n+q+j+1).
_FILON_SERIES = np.array([
    [(-1) ** n * 2.0 / (math.factorial(2 * n + q) * (2 * n + q + j + 1))
     for n in reversed(range(13))]
    for j, q in ((0, 0), (1, 1), (2, 0), (3, 1))])


def _filon_weights(omega_half):
    """lam_m(Om) for m = 0..3, vectorized over Om; shape (..., 4)."""
    om = np.asarray(omega_half, dtype=float)
    mom = np.empty((4,) + om.shape)  # C_0, S_1, C_2, S_3
    small = np.abs(om) < 1.0
    if np.any(small):
        w = om[small]
        x = w * w
        acc = np.zeros((4, w.size))
        for c in _FILON_SERIES.T:
            acc *= x
            acc += c[:, None]
        acc[1::2] *= w
        mom[:, small] = acc
    big = ~small
    if np.any(big):
        # int s^j e^{i Om s} ds by parts, split into real and imaginary
        w = om[big]
        sin, cos = np.sin(w), np.cos(w)
        c0 = 2.0 * sin / w
        s1 = (c0 - 2.0 * cos) / w
        c2 = (2.0 * sin - 2.0 * s1) / w
        mom[:, big] = c0, s1, c2, (3.0 * c2 - 2.0 * cos) / w
    c0, s1, c2, s3 = mom
    lam0 = (9.0 * c2 - c0) / 16.0 + 1j * ((s1 - 9.0 * s3) / 16.0)
    lam1 = 9.0 * (c0 - c2) / 16.0 + 1j * (27.0 * (s3 - s1) / 16.0)
    return np.stack((lam0, lam1, lam1.conj(), lam0.conj()), axis=-1)


def filon_nodes(a, b, n_panels):
    """Node abscissae for ``n_panels`` uniform cubic panels on [a, b],
    shape (n_panels, 4).  Interior edges appear twice, once per neighbour,
    and ``filon_table`` evaluates each pass afresh: the criterion-6
    resolvent evaluates W at 7 936 nodes where the 3 073 distinct nodes of
    its last pass (1 024 panels) would do."""
    edges = np.linspace(a, b, n_panels + 1)
    h = (b - a) / n_panels
    return edges[:-1, None] + (h / 2.0) * (_FILON_S + 1.0)[None, :]


@functools.lru_cache(maxsize=1024)
def next_fast_len(target):
    """Smallest 2^a 3^b 5^c 7^d 11^e >= ``target``: the padded length
    SciPy's ``next_fast_len`` gives a complex FFT.  The padding sets the
    rounding of an FFT convolution, so matching it keeps results bit-equal
    to the SciPy route."""
    best = 1 << (target - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # times the smallest power of two reaching target
                    best = min(best, p3 << (-(-target // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _chirp(n, m, w):
    """Bluestein's chirp w^{k^2/2} for k < max(m, n), the padded length
    and the FFT of the reciprocal chirp: what every n-to-m chirp-z
    transform with ratio w shares.  SciPy forms w ** (k**2 / 2.): numpy's
    complex power, which is libm's cpow, cexp(e clog w), except that it
    multiplies out integer exponents below 100, k = 0, 2, ..., 14.  So
    one clog and a cexp per k give its bits, for a fraction of the cost.
    The exponential is taken in place, and the reciprocal chirp is formed
    and transformed in its one zero-padded buffer, so the chirp and its
    transform are all that is held.
    """
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    e = k ** 2 / 2.
    wk2 = e * np.log(w)
    np.exp(wk2, out=wk2)
    wk2[:15:2] = w ** e[:15:2]
    del k, e
    nfft = next_fast_len(n + m - 1)
    fwk2 = np.zeros(nfft, dtype=complex)
    np.divide(1, wk2[n - 1:0:-1], out=fwk2[:n - 1])
    np.divide(1, wk2[:m], out=fwk2[n - 1:n + m - 1])
    return wk2, nfft, np.fft.fft(fwk2, out=fwk2)


def _czt(x, m, w, chirp=None):
    """sum_p x[p] w^{j p} for j < m along axis 0: Bluestein, with SciPy's
    ``czt`` operations in its order, so the two agree to the bit.
    ``chirp``, from ``_chirp(len(x), m, w)``, spares recomputing it.  x
    is premultiplied by the chirp straight into the zero-padded FFT
    buffer, which is transformed in place; the result is a view of it."""
    n = x.shape[0]
    wk2, nfft, fwk2 = chirp or _chirp(n, m, w)
    y = np.zeros(x.shape[1:] + (nfft,), dtype=complex)
    np.multiply(x.T, wk2[:n], out=y[..., :n])
    y = np.fft.fft(y, out=y)
    np.multiply(fwk2, y, out=y)  # fwk2 first: the operand order sets bits
    y = np.fft.ifft(y, out=y)[..., n - 1:n + m - 1]
    y *= wk2[:m]
    return y.T


def _phase(nt, step, c):
    """e^{i j step c} for j < nt, formed in place in one buffer with the
    bits of np.exp(1j * np.arange(nt) * step * c)."""
    phase = np.arange(nt, dtype=complex)
    phase *= 1j
    phase *= step
    phase *= c
    return np.exp(phase, out=phase)


_FILON_CHUNK = 512  # omegas per block of the direct (T x P) panel sum
_CZT_BLOCK = 4096  # omegas per block of the chirp-z branch's weights
_UNIFORM_TOL = 8  # |omega_j - (omega_0 + j step)| allowed, in eps max|omega|


def _part(z, part):
    """The floats of complex ``z`` that ``part`` names: its "real" or
    "imag" part, or for None both, interleaved.  Sums and scalings of
    these views are those of the complex values, one float at a time."""
    return z.view(float) if part is None else getattr(z, part)


def filon_sums(env_nodes, a, b, omegas, parts=None):
    """int_a^b env(y) e^{i omega y} dy for many omegas at once.

    env_nodes: (P, 4) envelope values at the nodes of
    ``filon_nodes(a, b, P)``, or a stack (K, P, 4) of K envelopes.  Returns
    a complex array, one integral value per omega, shape (T,) or (K, T);
    each row of a stack equals its own call to the bit.  ``parts``, one
    "real" or "imag" per envelope (a one-item sequence for a single
    envelope), keeps only that part of each row: a float array, each row
    the ``.real`` or ``.imag`` of the complex one to the bit.  For a
    uniformly spaced grid of more than 64 omegas the panel sum collapses
    to four chirp-z transforms, so dense time grids cost O((P + T) log)
    instead of O(P * T).  The chirp, its transform, the phase and the
    weights lam_0, lam_1 are formed once per call, and the four node
    columns of each envelope of a stack are shifted and transformed one at
    a time, in one FFT buffer, so besides the output, one row of pair sums
    and one shifted column the working memory is six T-length complex
    vectors whatever P.  Fewer or non-uniform omegas take the direct panel
    sum, 512 omegas at a time, which copies out one envelope's node
    columns at a time and forms its (omegas, P) phase in place.
    """
    omegas = np.asarray(omegas, dtype=float)
    stack = np.asarray(env_nodes)
    if stack.ndim == 2:
        return filon_sums(stack[None], a, b, omegas, parts)[0]
    dtype = complex if parts is None else float
    if parts is None:
        parts = [None] * len(stack)
    elif len(parts) != len(stack) or not set(parts) <= {"real", "imag"}:
        raise ValueError(f"parts needs one 'real' or 'imag' per envelope, "
                         f"got {parts!r} for {len(stack)}")
    n_panels = stack.shape[1]
    h = (b - a) / n_panels
    centers = a + (np.arange(n_panels) + 0.5) * h
    nt = len(omegas)

    # uniform when every omega sits within rounding of om0 + j step, the
    # grid the chirp-z transform evaluates; rounding grows with |omega|
    step = omegas[1] - omegas[0] if nt > 1 else 0.0
    uniform = nt > 64 and step != 0.0 and np.all(
        np.abs(omegas - (omegas[0] + np.arange(nt) * step))
        <= _UNIFORM_TOL * np.finfo(float).eps * np.max(np.abs(omegas)))
    out = np.empty((len(stack), nt), dtype=dtype)

    if uniform:
        # e^{i om_j c_p} = e^{i om0 c_p} * e^{i j step (a + h/2)}
        #                  * (e^{i step h})^{j p}
        w = np.exp(1j * step * h)
        chirp = _chirp(n_panels, nt, w)
        shift = np.exp(1j * omegas[0] * centers)
        # the phase and the weights lam_0, lam_1, once for the whole stack
        phase = _phase(nt, step, a + 0.5 * h)
        lam01 = np.empty((2, nt), dtype=complex)
        for i0 in range(0, nt, _CZT_BLOCK):
            b = slice(i0, i0 + _CZT_BLOCK)
            lam01[:, b] = _filon_weights(omegas[b] * (h / 2.0))[:, :2].T

        def term(env_col, lam, conj=False):
            """Panel sum of node column env_col, shifted on its own, times
            phase, times lam or (for lam_2, lam_3) its conjugate, formed a
            block at a time: in the transform's own FFT buffer, freed with
            the result."""
            col = _czt(env_col * shift, nt, w, chirp)
            col *= phase
            for i0 in range(0, nt, _CZT_BLOCK):
                b = slice(i0, i0 + _CZT_BLOCK)
                col[b] *= np.conjugate(lam[b]) if conj else lam[b]
            return col

        pair = np.empty(nt, dtype=out.dtype).view(float)
        for env, row, part in zip(stack, out, parts):
            acc = row.view(float)
            # (t0 + t1) + (t2 + t3), as np.sum adds a row of four, so the
            # tables keep their bits; lam_2, lam_3 conjugate lam_1, lam_0
            pair[:] = _part(term(env[:, 2], lam01[1], conj=True), part)
            pair += _part(term(env[:, 3], lam01[0], conj=True), part)
            acc[:] = _part(term(env[:, 0], lam01[0]), part)
            acc += _part(term(env[:, 1], lam01[1]), part)
            acc += pair
            acc *= h / 2.0
        return out

    # the panel sums of each node, then the weights, as in the chirp-z
    # branch; einsum without ``optimize`` runs its own loops, where a
    # matmul would wake the BLAS threads, which then spin between calls.
    # The phase is formed in place in one complex buffer, with the bits of
    # np.exp(1j * np.outer(om, centers)), and one envelope's node columns
    # are copied out at a time
    for i0 in range(0, nt, _FILON_CHUNK):
        om = omegas[i0:i0 + _FILON_CHUNK]
        lam = _filon_weights(om * (h / 2.0))                   # (T, 4)
        phase = np.empty((om.size, n_panels), dtype=complex)   # (T, P)
        np.multiply(om[:, None], centers, out=phase)
        phase *= 1j
        np.exp(phase, out=phase)
        for k, env in enumerate(stack):
            env_t = np.ascontiguousarray(env.T)                # (4, P)
            bsum = np.einsum("tp,mp->tm", phase, env_t)        # (T, 4)
            np.multiply(_part(np.sum(bsum * lam, axis=1), parts[k]),
                        h / 2.0, out=out[k, i0:i0 + _FILON_CHUNK].view(float))
    return out


def double_panels(evaluate, n, n_max, tol, what):
    """Double ``n`` until ``evaluate(n) -> (result, probe)`` settles: the
    result of the first pass whose probe moved by at most ``tol``, and
    that change.  A NaN change, or ``n_max`` reached short of ``tol``,
    raises QuadratureError naming ``what`` (with the last probe, the change
    and the last panel count); ``tol`` must be finite and positive."""
    if not 0 < tol < math.inf:
        raise ValueError(f"{what}: tol must be finite and positive, got {tol}")
    result, probe = evaluate(n)
    change = math.inf
    while change > tol and 2 * n <= n_max:  # a NaN change stops too
        n *= 2
        result, new = evaluate(n)
        change, probe = float(np.max(np.abs(new - probe), initial=0.0)), new
    if not change <= tol:
        raise QuadratureError(
            f"{what}: change {change:g} > tol {tol:g} at {n} panels",
            QuadResult(probe, change, n))
    return result, change


_FILON_MAX_PANELS = 2 ** 16  # panel cap of filon_table's doubling


def filon_table(envelope, a, b, times, tol, parts):
    """The ``parts`` ("real" or "imag", one per envelope) of int_a^b
    env(y) e^{2 pi i y t} dy at each t of ``times``, and the last change
    of the complex values at the probe times.

    ``envelope(y)`` gives the envelope at the flat node array ``y``, shape
    (y.size,), or (K, y.size) for a stack of K envelopes (values (K, T)).
    Uniform panels of [a, b] double from 64 to at most
    ``_FILON_MAX_PANELS`` (``double_panels``) until the values at three
    probe times (0, 0.37 max t and max t; at least 1 and 2) move by at
    most ``tol``; that one panelization then serves every t, so a sample
    costs the same whatever its t.  Only the table keeps to ``parts``: the
    probes stay complex, so the panels do not depend on them.  Sums that
    are not finite (an envelope near the top of the doubles overflows
    them) raise QuadratureError.
    """
    t = np.asarray(times, dtype=float)
    t_probe = np.array([0.0, max(1.0, 0.37 * t.max()), max(2.0, t.max())])
    om_probe = 2.0 * math.pi * t_probe

    def finite_sums(env, omegas, parts=None):
        with np.errstate(over="ignore", invalid="ignore"):
            sums = filon_sums(env, a, b, omegas, parts)
        if not np.isfinite(sums).all():
            raise QuadratureError(f"filon_table: the Filon sums are not "
                                  f"finite at {env.shape[-2]} panels",
                                  QuadResult(math.nan, math.inf, env.size))
        return sums

    def tabulate(n):
        """The envelope at the nodes of n panels, shape (..., n, 4), and
        its transforms at the probe times."""
        env = np.asarray(envelope(filon_nodes(a, b, n).ravel()))
        env = env.reshape(env.shape[:-1] + (n, 4))
        return env, finite_sums(env, om_probe)

    env, err = double_panels(tabulate, 64, _FILON_MAX_PANELS, tol,
                             "filon_table")
    return finite_sums(env, 2.0 * math.pi * t, parts), err
