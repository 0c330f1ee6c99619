"""Closed-form high derivatives, coefficient recurrences, and decay bounds.

The transform of the memory kernel is built from two scalar profile
functions of the frequency omega (parameters K, L > 0 and a speed
0 <= v < 1):

    f(omega) = arctanh(K v / (L omega))
    g(omega) = (L omega / K) f(omega) - v

Their derivatives of every order have closed forms whose integer-indexed
coefficient families C (for f) and D (for g) obey two-term recurrences;
the recurrences are evaluated here in exact rational arithmetic because
the even steps divide by (n+1)(2n+1) and float rounding would contaminate
the bound checks downstream.

Everything is certified on the complement of [-R, R] with R = sqrt(2) K/L,
where |f^(m)| and |g^(m)| are decreasing in |omega|:

* sup-norm bounds   |f^(m)| <= (6L/K)^m m!        (family C sums <= 18^n)
* L1 norms of g^(m) in closed form for m <= 2, and 2|g^(m-1)(R)| beyond
  (family D sums bounded by powers of 2 sqrt(21))
* the product lemma: L1 derivative bounds of phi*psi from L1 x Linf factor
  bounds, with the constant built exactly as in its proof
* the partition-count asymptote used by the composition (Faa di Bruno)
  estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .quadrature import integrate_semi_infinite

__all__ = [
    "CoeffTable",
    "GevreyParams",
    "c_coeffs",
    "d_coeffs",
    "c_row_sum",
    "d_row_sum",
    "f_derivative",
    "g_derivative",
    "sup_bounds_check",
    "g_l1_norm",
    "partition_bound",
    "product_l1_bound_check",
]

MAX_ORDER = 30  # factorial prefactors exceed double range not far beyond


@dataclass(frozen=True)
class CoeffTable:
    """One row of a coefficient family: entries[(i, j)] with i + j fixed."""

    entries: Dict[Tuple[int, int], Fraction]

    def sum(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))


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


@lru_cache(maxsize=None)
def c_coeffs(m: int) -> CoeffTable:
    """Coefficient row C^m for the derivatives of f.

    C^1 = C^2 = {(0,0): 1}; odd rows build from the preceding even row,
    even rows divide by (n+1)(2n+1), hence the exact rationals.  Row m
    holds indices (i, n-i) with n = (m-1)//2.
    """
    _check_order(m, 1)
    if m in (1, 2):
        return CoeffTable({(0, 0): Fraction(1)})
    prev = c_coeffs(m - 1).entries

    def at(i, j):  # no row holds a negative index
        return prev.get((i, j), Fraction(0))

    entries = {}
    if m % 2 == 1:  # m = 2n+1 from row 2n
        n = (m - 1) // 2
        for i in range(n + 1):
            entries[(i, n - i)] = ((4 * n - 2 * i + 1) * at(i - 1, n - i)
                                   + (2 * i + 1) * at(i, n - 1 - i))
    else:  # m = 2n+2 from row 2n+1
        n = (m - 2) // 2
        den = (n + 1) * (2 * n + 1)
        for i in range(n + 1):
            entries[(i, n - i)] = ((2 * n - i + 1) * at(i, n - i)
                                   + (i + 1) * at(i + 1, n - i - 1)) \
                / Fraction(den)
    return CoeffTable(entries)


@lru_cache(maxsize=None)
def d_coeffs(m: int) -> CoeffTable:
    """Coefficient row D^m for the derivatives of g (defined for m >= 2).

    D^2 = {(0,0): 1}; odd rows divide by (2n)(2n-1).  Row m holds indices
    (i, j) with i + j = (m - 2 + (m % 2)) // 2 ... concretely i + j equals
    n-1 for both m = 2n and m = 2n+1.
    """
    _check_order(m, 2)
    if m == 2:
        return CoeffTable({(0, 0): Fraction(1)})
    prev = d_coeffs(m - 1).entries

    def at(i, j):  # no row holds a negative index
        return prev.get((i, j), Fraction(0))

    entries = {}
    if m % 2 == 1:  # m = 2n+1 from row 2n
        n = (m - 1) // 2
        den = (2 * n) * (2 * n - 1)
        for i in range(n):
            entries[(i, n - 1 - i)] = ((4 * n - 2 * i) * at(i, n - 1 - i)
                                       + (2 * i + 2) * at(i + 1, n - 2 - i)) \
                / Fraction(den)
    else:  # m = 2n+2 from row 2n+1
        n = (m - 2) // 2
        for i in range(n + 1):
            entries[(i, n - i)] = ((2 * i + 1) * at(i, n - i - 1)
                                   + (4 * n - 2 * i + 3) * at(i - 1, n - i))
    return CoeffTable(entries)


def c_row_sum(m: int) -> float:
    return float(c_coeffs(m).sum())


def d_row_sum(m: int) -> float:
    return float(d_coeffs(m).sum())


def _poly_eval(entries, lw2, kv2):
    """sum entries[(i,j)] (L^2 w^2)^i (K^2 v^2)^j at float precision."""
    acc = 0.0
    for (i, j), cf in entries.items():
        acc += float(cf) * lw2**i * kv2**j
    return acc


def f_derivative(params: GevreyParams, m: int, omega: float) -> float:
    """m-th derivative of f(omega) = arctanh(K v/(L omega)), |omega|>Kv/L."""
    _check_order(m, 0)
    K, L, v = params.K, params.L, params.v
    if abs(omega) * L <= K * v:
        raise ValueError("omega inside the singular interval |omega|<=Kv/L")
    if v == 0.0:
        return 0.0
    if m == 0:
        return math.atanh(K * v / (L * omega))
    lw2 = (L * omega) ** 2
    kv2 = (K * v) ** 2
    den = lw2 - kv2
    if m % 2 == 1:
        n = (m - 1) // 2
        s = _poly_eval(c_coeffs(m).entries, lw2, kv2)
        return -math.factorial(2 * n) * K * v * L**(2 * n + 1) \
            / den**(2 * n + 1) * s
    n = (m - 2) // 2
    s = _poly_eval(c_coeffs(m).entries, lw2, kv2)
    return math.factorial(2 * n + 2) * K * v * L**(2 * n + 3) * omega \
        / den**(2 * n + 2) * s


def g_derivative(params: GevreyParams, m: int, omega: float) -> float:
    """m-th derivative of g(omega) = (L omega/K) f(omega) - v.

    Orders 0 and 1 use their explicit forms; beyond that the closed form
    runs on the D coefficient rows.
    """
    _check_order(m, 0)
    K, L, v = params.K, params.L, params.v
    if abs(omega) * L <= K * v:
        raise ValueError("omega inside the singular interval |omega|<=Kv/L")
    if v == 0.0:
        return 0.0
    if m == 0:
        return (L * omega / K) * math.atanh(K * v / (L * omega)) - v
    lw2 = (L * omega) ** 2
    kv2 = (K * v) ** 2
    den = lw2 - kv2
    if m == 1:
        return (L / K) * math.atanh(K * v / (L * omega)) \
            - v * L * L * omega / den
    if m % 2 == 0:
        n = m // 2
        s = _poly_eval(d_coeffs(m).entries, lw2, kv2)
        return 2.0 * math.factorial(2 * n - 2) * K * K * v**3 * L**(2 * n) \
            / den**(2 * n) * s
    n = (m - 1) // 2
    s = _poly_eval(d_coeffs(m).entries, lw2, kv2)
    return -2.0 * math.factorial(2 * n) * K * K * v**3 * L**(2 * n + 2) \
        * omega / den**(2 * n + 1) * s


@dataclass(frozen=True)
class SupBoundsReport:
    """Margins (value / bound) for the f sup bounds and coefficient sums."""

    f_margins: tuple       # (m, |f^(m)(R)|, (6L/K)^m m!, margin)
    c_sum_margins: tuple   # (m, sum C^m, (sqrt 18)^m, margin)
    d_sum_margins: tuple   # (m, sum D^m, (2 sqrt 21)^m, margin)

    @property
    def all_within(self) -> bool:
        rows = self.f_margins + self.c_sum_margins + self.d_sum_margins
        return all(r[3] <= 1.0 for r in rows)


def sup_bounds_check(params: GevreyParams, m_max: int) -> SupBoundsReport:
    """Evaluate |f^(m)(R)| against (6L/K)^m m! and the coefficient-sum
    bounds; |f^(m)| decreases on |omega| >= R so the sup sits at R."""
    _check_order(m_max, 0)
    K, L = params.K, params.L
    f_rows = []
    for m in range(m_max + 1):
        sup = abs(f_derivative(params, m, params.R))
        bound = (6.0 * L / K) ** m * math.factorial(m)
        f_rows.append((m, sup, bound, sup / bound))
    c_rows = []
    for m in range(1, m_max + 1):
        s = c_row_sum(m)
        bound = math.sqrt(18.0) ** m
        c_rows.append((m, s, bound, s / bound))
    d_rows = []
    for m in range(2, m_max + 1):
        s = d_row_sum(m)
        bound = (2.0 * math.sqrt(21.0)) ** m
        d_rows.append((m, s, bound, s / bound))
    return SupBoundsReport(tuple(f_rows), tuple(c_rows), tuple(d_rows))


def g_l1_norm(params: GevreyParams, m: int) -> float:
    """L1 norm of g^(m) on [-R, R]^c.

    Orders 0..2 have explicit closed forms; beyond, monotone decay gives
    the telescoped value 2 |g^(m-1)(R)|.
    """
    _check_order(m, 0)
    K, L, v = params.K, params.L, params.v
    r2 = math.sqrt(2.0)
    if m == 0:
        return (K / (2.0 * L)) * (2.0 * r2 * v - (2.0 - v * v)
                                  * math.log((r2 + v) / (r2 - v)))
    if m == 1:
        return 2.0 * r2 * math.atanh(v / r2) - 2.0 * v
    if m == 2:
        return (2.0 * L / K) * (r2 * v - (2.0 - v * v)
                                * math.atanh(v / r2)) / (2.0 - v * v)
    return 2.0 * abs(g_derivative(params, m - 1, params.R))


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


@dataclass(frozen=True)
class ProductBoundReport:
    """Lemma-style product check: margins of ||(f g)^(m)||_L1 against
    CC^(m0+m) (m0+m)! with CC built from the factor constants."""

    delta: float
    epsilon: float
    constant: float
    margins: tuple  # (m, numeric L1, bound, margin)

    @property
    def all_within(self) -> bool:
        return all(r[3] <= 1.0 for r in self.margins)


def product_l1_bound_check(params: GevreyParams, m_max: int = 6,
                           m0: int = 1, tol: float = 1e-10
                           ) -> ProductBoundReport:
    """Check the derivative-of-product L1 bound for phi = g, psi = f.

    delta and epsilon are the smallest constants with
    ||g^(m)||_L1 <= delta^(m0+m) (m0+m)! and
    ||f^(m)||_Linf <= epsilon^(m0+m) (m0+m)! over m <= m_max; the product
    constant is CC = 2c * max(1, ((m0!)^2 (2c)^m0)^(1/m0)) with
    c = max(delta, epsilon), exactly the construction in the lemma's
    proof (factor-2 inflation absorbing the binomial sum).
    """
    if m0 < 1:
        raise ValueError("the product bound is implemented for m0 >= 1")
    R = params.R
    delta = max((g_l1_norm(params, m) / math.factorial(m0 + m))
                ** (1.0 / (m0 + m)) for m in range(m_max + 1))
    eps = max((abs(f_derivative(params, m, R)) / math.factorial(m0 + m))
              ** (1.0 / (m0 + m)) for m in range(m_max + 1))
    c = max(delta, eps)
    cc = 2.0 * c * max(1.0, ((math.factorial(m0) ** 2 * (2.0 * c) ** m0)
                             ** (1.0 / m0)))

    rows = []
    for m in range(m_max + 1):
        binom = [math.comb(m, i) for i in range(m + 1)]

        def deriv_abs(w):
            w = np.atleast_1d(np.asarray(w, dtype=float))
            out = np.zeros_like(w)
            for k, wk in enumerate(w):
                acc = 0.0
                for i in range(m + 1):
                    acc += binom[i] * f_derivative(params, i, wk) \
                        * g_derivative(params, m - i, wk)
                out[k] = abs(acc)
            return out

        res = integrate_semi_infinite(lambda q: deriv_abs(q + R), tol=tol,
                                      scale=R)
        num = 2.0 * res.value  # |(fg)^(m)| is even
        bound = cc ** (m0 + m) * math.factorial(m0 + m)
        rows.append((m, num, bound, num / bound))
    return ProductBoundReport(delta=delta, epsilon=eps, constant=cc,
                              margins=tuple(rows))
