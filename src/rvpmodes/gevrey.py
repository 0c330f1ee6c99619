"""Derivative bounds of the profile functions, their coefficient
recurrences, and the appendix battery that checks them.

The transform of the memory kernel is built from two scalar profile
functions of the frequency omega (parameters K, L > 0 and a speed
0 <= v < 1):

    f(omega) = arctanh(K v / (L omega))
    g(omega) = (L omega / K) f(omega) - v

Their derivatives of every order have closed forms whose integer-indexed
coefficient families C (for f) and D (for g) obey two-term recurrences;
the recurrences are evaluated here in exact rational arithmetic because
the even steps divide by (n+1)(2n+1), and the battery checks their row
sums.

Everything is certified on the complement of [-R, R] with R = sqrt(2) K/L.
For omega > a = Kv/L, f, g and f g are power series in a/omega with
positive coefficients, so they are completely monotone there: each
derivative keeps one sign and |h^(m)| decreases.  The sup of |h^(m)| on
|omega| >= R sits at R, and the L1 norm of h^(m) telescopes to 2 |H(R)|
for H = h^(m-1), the antiderivative vanishing at infinity when m = 0; the
factor 2 is from |h^(m)| being even.  At R the series ratio is
x^2 = v^2/2 <= 1/2, so one evaluator, ``_sum_at_R``, sums every value the
battery reads, with no cancellation at any v, and nothing is integrated:

* sup-norm bounds   |f^(m)| <= (6L/K)^m m!        (family C sums <= 18^n)
* L1 norms of g^(m)  (family D sums bounded by powers of 2 sqrt(21))
* the product lemma: L1 derivative bounds of phi*psi from L1 x Linf factor
  bounds, with the constant built exactly as in its proof
* the partition-count asymptote used by the composition (Faa di Bruno)
  estimate.

The battery's one entry point is ``appendix_battery(params, m_max)``: the
seven verdicts, each judged on its own values, and the margin rows.  A
value or bound that is not a finite double raises an ArithmeticError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType

__all__ = [
    "GevreyParams",
    "appendix_battery",
    "c_coeffs",
    "d_coeffs",
    "sup_bounds_check",
    "g_l1_norm",
    "partition_bound",
    "product_l1_bound_check",
]

MAX_ORDER = 30  # factorial prefactors exceed double range not far beyond


@dataclass(frozen=True)
class GevreyParams:
    """Fixed (K, L, v) of the profile functions; R = sqrt(2) K / L."""

    K: float
    L: float
    v: float

    def __post_init__(self):
        if not (0 < self.K < math.inf and 0 < self.L < math.inf):
            raise ValueError(f"K and L must be finite and positive, got "
                             f"K={self.K}, L={self.L}")
        if not (0 <= self.v < 1):
            raise ValueError(f"v must lie in [0, 1), got {self.v}")

    @property
    def R(self) -> float:
        return math.sqrt(2.0) * self.K / self.L


def _check_order(m, low):
    if not (low <= m <= MAX_ORDER):
        raise ValueError(f"order must lie in [{low}, {MAX_ORDER}], got {m}")


def _next_row(prev, grow, weights, den=1):
    """The read-only row after ``prev`` of a two-term recurrence: entries
    (a prev[i - grow, j] + b prev[i - grow + 1, j - 1]) / den, (a, b) =
    weights(i), for i = 0..top ascending and j = top - i, where top is
    ``prev``'s plus ``grow`` (0 or 1); an index ``prev`` lacks counts 0."""
    top = sum(next(iter(prev))) + grow
    row = {}
    for i in range(top + 1):
        a, b = weights(i)
        j = top - i
        row[(i, j)] = Fraction(a * prev.get((i - grow, j), 0)
                               + b * prev.get((i - grow + 1, j - 1), 0), den)
    return MappingProxyType(row)


@lru_cache(maxsize=None)
def c_coeffs(m: int):
    """Coefficient row C^m for the derivatives of f: {(i, j): Fraction}.

    C^1 = C^2 = {(0,0): 1}; odd rows build from the preceding even row,
    even rows divide by (n+1)(2n+1), hence the exact rationals.  Row m
    holds indices (i, n-i) with n = (m-1)//2.  The row is shared by the
    cache, so it is a read-only mapping.
    """
    _check_order(m, 1)
    if m in (1, 2):
        return MappingProxyType({(0, 0): Fraction(1)})
    prev = c_coeffs(m - 1)
    if m % 2 == 1:  # m = 2n+1 from row 2n
        n = (m - 1) // 2
        return _next_row(prev, 1, lambda i: (4 * n - 2 * i + 1, 2 * i + 1))
    n = (m - 2) // 2  # m = 2n+2 from row 2n+1
    return _next_row(prev, 0, lambda i: (2 * n - i + 1, i + 1),
                     (n + 1) * (2 * n + 1))


@lru_cache(maxsize=None)
def d_coeffs(m: int):
    """Coefficient row D^m for the derivatives of g (defined for m >= 2).

    D^2 = {(0,0): 1}; odd rows divide by (2n)(2n-1).  Row m holds indices
    (i, j) with i + j = n-1 for both m = 2n and m = 2n+1.  Read-only, as
    ``c_coeffs``.
    """
    _check_order(m, 2)
    if m == 2:
        return MappingProxyType({(0, 0): Fraction(1)})
    prev = d_coeffs(m - 1)
    if m % 2 == 1:  # m = 2n+1 from row 2n
        n = (m - 1) // 2
        return _next_row(prev, 0, lambda i: (4 * n - 2 * i, 2 * i + 2),
                         (2 * n) * (2 * n - 1))
    n = (m - 2) // 2  # m = 2n+2 from row 2n+1
    return _next_row(prev, 1, lambda i: (4 * n - 2 * i + 3, 2 * i + 1))


# Beyond |omega| > a = K v / L the profile functions are power series in
# y = a/omega with positive coefficients:
#     f   = sum_{n odd} y^n / n,
#     g   = v sum_{n even >= 2} y^n / (n + 1),
#     f g = v sum_{n odd >= 3} (2 O_n - 1 - 1/n) y^n / (n + 1),
# O_n the sum of 1/k over odd k <= n: the Cauchy product, summed by the
# partial fractions 1/(i (n+1-i)) = (1/i + 1/(n+1-i)) / (n+1).  The term
# y^n integrates to -a y^(n-1) / (n-1), which vanishes at infinity, so
# _G_INT and _FG_INT times -a v are the antiderivatives of g and f g.
# Each series is cut at n < _TERMS: at R its terms fall by the ratio
# x^2 = v^2/2 <= 1/2 once n passes about 3m, and at the top order m = 30
# the term n = 400 lies below 1e-27 of the largest one, far beneath the
# rounding of the sum.
_TERMS = 400
_ODD = range(1, _TERMS, 2)
_F = tuple((n, 1.0 / n) for n in _ODD)
_G_INT = tuple((n - 1, 1.0 / ((n + 1) * (n - 1)))
               for n in range(2, _TERMS, 2))
_FG_INT = tuple((n - 1, (2.0 * o - 1.0 - 1.0 / n) / ((n + 1) * (n - 1)))
                for n, o in zip(_ODD, accumulate(1.0 / k for k in _ODD))
                if n > 1)


def _sum_at_R(params: GevreyParams, series, m: int) -> float:
    """S_m = sum c_n n (n+1) ... (n+m-1) x^n, x = a/R = v/sqrt 2, for h =
    sum c_n (a/omega)^n, ``series`` the (n, c_n): h^(m)(R) = (-1)^m R^-m
    S_m.  The terms share one sign, so the sum cancels nothing at any v,
    and S_m depends on v alone."""
    x = params.v / math.sqrt(2.0)
    return math.fsum(c * math.perm(n + m - 1, m) * x**n for n, c in series)


def _at_R(params: GevreyParams, series, m: int) -> float:
    """|h^(m)(R)| = R^-m S_m, S_m from ``_sum_at_R``; h^(m)(R) itself has
    the sign (-1)^m."""
    return _sum_at_R(params, series, m) * _power(params.R, -m)


def _power(base: float, n: int) -> float:
    """base ** n, inf where it overflows: a float power raises instead."""
    try:
        return base**n
    except OverflowError:
        return math.inf


def _l1_norm(params: GevreyParams, antiderivative, m: int) -> float:
    """L1 norm on |omega| >= R of h^(m), h = -a v H' with H the series
    ``antiderivative``: h^(m) keeps one sign and |h^(m)| is even and
    decreasing, so the norm is 2 a v |H^(m)(R)| for every m >= 0."""
    a = params.K * params.v / params.L
    return 2.0 * a * params.v * _at_R(params, antiderivative, m)


def _margins(orders, row):
    """(m, value, bound, margin) for each order m, ``row(m)`` the (value,
    bound, margin); a value or bound that is not finite is an overflow."""
    rows = tuple((m, *row(m)) for m in orders)
    for m, val, cap, _ in rows:
        if not (math.isfinite(val) and math.isfinite(cap)):
            raise OverflowError(f"order {m}: value {val}, bound {cap}")
    return rows


def _ratio(val: float, cap: float):
    """(val, cap, val / cap), the row of a value against its bound."""
    return val, cap, val / cap


def _row_sums(coeffs, low: int, base: float, m_max: int):
    """The rows of the sum of row m of ``coeffs`` against base^m, m from
    ``low`` to m_max."""
    return _margins(range(low, m_max + 1),
                    lambda m: _ratio(float(sum(coeffs(m).values())), base**m))


def _f_sup(params: GevreyParams, m: int):
    """(|f^(m)(R)|, (6L/K)^m m!, margin) from one S_m.  As R = sqrt(2)
    K/L, the margin is S_m / ((6 sqrt 2)^m m!), free of K and L: it is
    formed so, by the arithmetic of K = L = 1, and stays defined where
    |f^(m)(R)| and its bound both underflow to 0."""
    s, fact = _sum_at_R(params, _F, m), math.factorial(m)
    return (s * _power(params.R, -m),
            _power(6.0 * params.L / params.K, m) * fact,
            s * math.sqrt(2.0) ** -m / (6.0**m * fact))


def _within(rows):
    return all(r[3] <= 1.0 for r in rows)


def sup_bounds_check(params: GevreyParams, m_max: int):
    """Rows (m, value, bound, value / bound) of three families:
    |f^(m)(R)| against (6L/K)^m m! (|f^(m)| decreases on |omega| >= R, so
    the sup sits at R), and the row sums of C^m against (sqrt 18)^m and
    of D^m against (2 sqrt 21)^m; the f rows are ``_f_sup``'s."""
    _check_order(m_max, 0)
    f_rows = _margins(range(m_max + 1), lambda m: _f_sup(params, m))
    c_rows = _row_sums(c_coeffs, 1, math.sqrt(18.0), m_max)
    d_rows = _row_sums(d_coeffs, 2, 2.0 * math.sqrt(21.0), m_max)
    return f_rows, c_rows, d_rows


def g_l1_norm(params: GevreyParams, m: int) -> float:
    """L1 norm of g^(m) on [-R, R]^c, from the series of g's
    antiderivative."""
    _check_order(m, 0)
    return _l1_norm(params, _G_INT, m)


def partition_bound(m: int):
    """(p(m), asymptote, ratio): exact partition count against
    exp(pi sqrt(2m/3)) / (4 sqrt(3) m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    p = table[m]
    asym = math.exp(math.pi * math.sqrt(2.0 * m / 3.0)) \
        / (4.0 * math.sqrt(3.0) * m)
    return p, asym, p / asym


def product_l1_bound_check(params: GevreyParams, m_max: int):
    """Check the derivative-of-product L1 bound for phi = g, psi = f at
    the lemma's m0 = 1.

    Returns the rows (m, ||(f g)^(m)||_L1, CC^(m+1) (m+1)!, margin)
    and (delta, epsilon, CC).  delta and epsilon are the smallest
    constants with ||g^(m)||_L1 <= delta^(m+1) (m+1)! and
    ||f^(m)||_Linf <= epsilon^(m+1) (m+1)! over m <= m_max; the product
    constant is CC = 2c * max(1, ((m0!)^2 (2c)^m0)^(1/m0)) = 2c max(1, 2c)
    with c = max(delta, epsilon), exactly the construction in the lemma's
    proof (factor-2 inflation absorbing the binomial sum).

    Each norm of (f g)^(m) is read from the series of f g's
    antiderivative, as ``g_l1_norm`` reads g's.
    """
    delta = max((g_l1_norm(params, m) / math.factorial(m + 1))
                ** (1.0 / (m + 1)) for m in range(m_max + 1))
    eps = max((_at_R(params, _F, m) / math.factorial(m + 1))
              ** (1.0 / (m + 1)) for m in range(m_max + 1))
    c = max(delta, eps)
    cc = 2.0 * c * max(1.0, 2.0 * c)
    if cc == 0.0:  # v = 0: f = g = 0, so each norm and each bound is 0
        return (tuple((m, 0.0, 0.0, 0.0) for m in range(m_max + 1)),
                (delta, eps, cc))
    rows = _margins(range(m_max + 1), lambda m: _ratio(_l1_norm(
        params, _FG_INT, m), _power(cc, m + 1) * math.factorial(m + 1)))
    return rows, (delta, eps, cc)


def appendix_battery(params: GevreyParams, m_max: int):
    """``(checks, rows)`` of the appendix battery through order m_max:
    seven ``(name, passed)`` verdicts, each judged on its own values only,
    and the margin rows ``(family, m, value, bound, margin)`` of f_sup,
    c_sum, d_sum and product_l1.  An ArithmeticError means the parameters
    overflow the battery."""
    f_rows, c_rows, d_rows = sup_bounds_check(params, m_max)
    prod_rows, _ = product_l1_bound_check(params, m_max)
    l1 = [g_l1_norm(params, m) for m in range(3)]
    caps = (params.K / params.L, 0.5, 4.0 * params.L / params.K)
    ratios = [partition_bound(m)[2] for m in (50, 100, 200)]
    checks = [
        ("sup_bounds_f", _within(f_rows)),
        ("coeff_sums_C", _within(c_rows)),
        ("coeff_sums_D", _within(d_rows)),
        ("l1_caps_g", all(val <= cap for val, cap in zip(l1, caps))),
        ("product_lemma", _within(prod_rows)),
        ("partition_p5", partition_bound(5)[0] == 7),
        ("partition_ratio_monotone", ratios[0] < ratios[1] < ratios[2] < 1.0),
    ]
    rows = [(family, *row)
            for family, margins in (("f_sup", f_rows), ("c_sum", c_rows),
                                    ("d_sum", d_rows),
                                    ("product_l1", prod_rows))
            for row in margins]
    return checks, rows
