import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from rvpmodes import gevrey
from rvpmodes.gevrey import (GevreyParams, c_coeffs, d_coeffs, f_derivative,
                             g_derivative, g_l1_norm, partition_bound,
                             product_l1_bound_check, sup_bounds_check)

from oracles import (gevrey_decay_check, integrate_semi_infinite_adaptive,
                     laplace_alpha_imag_tail)

# Exact coefficient rows frozen after validation against the symbolic
# differentiation oracle below.
C_GOLDEN = {
    1: {(0, 0): Fraction(1)},
    2: {(0, 0): Fraction(1)},
    3: {(0, 1): Fraction(1), (1, 0): Fraction(3)},
    4: {(0, 1): Fraction(1), (1, 0): Fraction(1)},
    5: {(0, 2): Fraction(1), (1, 1): Fraction(10), (2, 0): Fraction(5)},
    6: {(0, 2): Fraction(1), (1, 1): Fraction(10, 3), (2, 0): Fraction(1)},
    7: {(0, 3): Fraction(1), (1, 2): Fraction(21), (2, 1): Fraction(35),
        (3, 0): Fraction(7)},
    8: {(0, 3): Fraction(1), (1, 2): Fraction(7), (2, 1): Fraction(7),
        (3, 0): Fraction(1)},
    9: {(0, 4): Fraction(1), (1, 3): Fraction(36), (2, 2): Fraction(126),
        (3, 1): Fraction(84), (4, 0): Fraction(9)},
    10: {(0, 4): Fraction(1), (1, 3): Fraction(12),
         (2, 2): Fraction(126, 5), (3, 1): Fraction(12),
         (4, 0): Fraction(1)},
}
D_GOLDEN = {
    2: {(0, 0): Fraction(1)},
    3: {(0, 0): Fraction(2)},
    4: {(0, 1): Fraction(2), (1, 0): Fraction(10)},
    5: {(0, 1): Fraction(3), (1, 0): Fraction(5)},
    6: {(0, 2): Fraction(3), (1, 1): Fraction(42), (2, 0): Fraction(35)},
    7: {(0, 2): Fraction(4), (1, 1): Fraction(56, 3),
        (2, 0): Fraction(28, 3)},
    8: {(0, 3): Fraction(4), (1, 2): Fraction(108), (2, 1): Fraction(252),
        (3, 0): Fraction(84)},
    9: {(0, 3): Fraction(5), (1, 2): Fraction(45), (2, 1): Fraction(63),
        (3, 0): Fraction(15)},
    10: {(0, 4): Fraction(5), (1, 3): Fraction(220), (2, 2): Fraction(990),
         (3, 1): Fraction(924), (4, 0): Fraction(165)},
}

PARAMS = GevreyParams(K=1.3, L=0.7, v=0.55)


class TestCoefficientTables:
    def test_base_rows(self):
        assert c_coeffs(1) == {(0, 0): 1}
        assert c_coeffs(2) == {(0, 0): 1}
        assert d_coeffs(2) == {(0, 0): 1}
        assert d_coeffs(3) == {(0, 0): 2}
        assert c_coeffs(3) == {(1, 0): 3, (0, 1): 1}

    @pytest.mark.parametrize("m", sorted(C_GOLDEN))
    def test_c_golden(self, m):
        assert c_coeffs(m) == C_GOLDEN[m]

    @pytest.mark.parametrize("m", sorted(D_GOLDEN))
    def test_d_golden(self, m):
        assert d_coeffs(m) == D_GOLDEN[m]

    def test_recomputation_identical(self):
        a = dict(c_coeffs(12))
        c_coeffs.cache_clear()
        d_coeffs.cache_clear()
        assert dict(c_coeffs(12)) == a

    def test_rows_are_read_only(self):
        # the cache hands every caller the same row
        with pytest.raises(TypeError):
            c_coeffs(3)[(0, 0)] = Fraction(5)
        with pytest.raises(TypeError):
            d_coeffs(3)[(0, 0)] = Fraction(5)

    def test_reach_order_thirty(self):
        assert all(v > 0 for v in c_coeffs(30).values())
        assert all(v > 0 for v in d_coeffs(30).values())

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            c_coeffs(0)
        with pytest.raises(ValueError):
            d_coeffs(1)
        with pytest.raises(ValueError):
            c_coeffs(31)


@pytest.fixture(scope="module")
def symbolic():
    w = sp.Symbol("w", positive=True)
    K, L, v = sp.symbols("K L v", positive=True)
    subs = {K: sp.Rational(13, 10), L: sp.Rational(7, 10),
            v: sp.Rational(55, 100)}
    f = sp.atanh(K * v / (L * w))
    g = (L * w / K) * sp.atanh(K * v / (L * w)) - v
    return w, f.subs(subs), g.subs(subs)


class TestSymbolicOracle:
    """Closed forms against sympy differentiation, m <= 10."""

    @pytest.mark.parametrize("m", range(0, 11))
    def test_derivatives_match(self, symbolic, m):
        w, f, g = symbolic
        fd = sp.diff(f, w, m)
        gd = sp.diff(g, w, m)
        for om in (1.9, 3.3):
            ref_f = float(fd.subs({w: sp.Rational(om).limit_denominator()}))
            ref_g = float(gd.subs({w: sp.Rational(om).limit_denominator()}))
            assert f_derivative(PARAMS, m, om) == pytest.approx(
                ref_f, rel=1e-10, abs=1e-300)
            assert g_derivative(PARAMS, m, om) == pytest.approx(
                ref_g, rel=1e-10, abs=1e-300)


def _fornberg_weights(m, n_side):
    """Exact central finite-difference weights for the m-th derivative on
    the integer stencil -n_side..n_side: solve the moment system
    sum_j w_j o_j^k = m! [k == m] for k < stencil size, in rationals."""
    offsets = list(range(-n_side, n_side + 1))
    n = len(offsets)
    a = sp.Matrix(n, n, lambda k, j: sp.Integer(offsets[j]) ** k)
    b = sp.Matrix(n, 1, lambda k, _: sp.factorial(m) if k == m else 0)
    sol = a.solve(b)
    return offsets, [Fraction(int(sp.fraction(q)[0]), int(sp.fraction(q)[1]))
                     for q in sol]


def _fd_derivative(func_mp, m, x, h):
    """8th-order central stencil for the m-th derivative with a two-level
    Richardson step, evaluated in extended precision (the float64 noise
    floor of a direct m-th difference sits near 1e-5 by m = 8)."""
    import mpmath
    n_side = (m + 8) // 2 + (1 if (m % 2) else 0)
    offsets, weights = _fornberg_weights(m, n_side)
    order = 2 * n_side + 1 - m - (1 if m % 2 == 0 else 0)

    with mpmath.workdps(50):
        xm, hm = mpmath.mpf(x), mpmath.mpf(h)

        def stencil(step):
            acc = mpmath.mpf(0)
            for off, wgt in zip(offsets, weights):
                acc += mpmath.mpf(wgt.numerator) / wgt.denominator \
                    * func_mp(xm + off * step)
            return acc / step**m

        c1 = stencil(hm)
        c2 = stencil(hm / 2)
        rich = (2**order * c2 - c1) / (2**order - 1)
        return float(rich)


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_against_richardson_stencil(self, m):
        import mpmath
        rng = np.random.default_rng(42)
        for _ in range(3):
            K = rng.uniform(0.5, 2.0)
            L = rng.uniform(0.5, 2.0)
            v = rng.uniform(0.1, 0.9)
            params = GevreyParams(K=K, L=L, v=v)
            om = rng.uniform(2.0, 4.0) * params.R
            h = 0.01 * (om - K * v / L)

            def f_mp(x):
                return mpmath.atanh(K * v / (L * x))

            def g_mp(x):
                return (L * x / K) * mpmath.atanh(K * v / (L * x)) - v

            assert f_derivative(params, m, om) == pytest.approx(
                _fd_derivative(f_mp, m, om, h), rel=1e-6)
            assert g_derivative(params, m, om) == pytest.approx(
                _fd_derivative(g_mp, m, om, h), rel=1e-6)


class TestHandAlgebra:
    def test_f_prime(self):
        K, L, v = PARAMS.K, PARAMS.L, PARAMS.v
        a = K * v / L
        for om in (1.5, 4.0):
            assert f_derivative(PARAMS, 1, om) == pytest.approx(
                -a / (om * om - a * a), rel=1e-12)

    def test_g_second(self):
        K, L, v = PARAMS.K, PARAMS.L, PARAMS.v
        for om in (1.5, 4.0):
            ref = 2.0 * K**2 * v**3 * L**2 / (L**2 * om**2
                                              - K**2 * v**2) ** 2
            assert g_derivative(PARAMS, 2, om) == pytest.approx(ref,
                                                                rel=1e-12)

    def test_g_third(self):
        K, L, v = PARAMS.K, PARAMS.L, PARAMS.v
        om = 2.2
        ref = -8.0 * K**2 * v**3 * L**4 * om / (L**2 * om**2
                                                - K**2 * v**2) ** 3
        assert g_derivative(PARAMS, 3, om) == pytest.approx(ref, rel=1e-12)

    def test_zero_speed(self):
        params = GevreyParams(K=1.0, L=1.0, v=0.0)
        for m in range(0, 9):
            assert f_derivative(params, m, 3.0) == 0.0
            assert g_derivative(params, m, 3.0) == 0.0

    def test_large_omega_tail_of_g(self):
        K, L, v = PARAMS.K, PARAMS.L, PARAMS.v
        target = K * K * v**3 / (3.0 * L * L)
        vals = [g_derivative(PARAMS, 0, om) * om * om
                for om in (1e2, 1e3, 1e4)]
        errs = [abs(x - target) for x in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6 * target

    def test_domain(self):
        with pytest.raises(ValueError):
            f_derivative(PARAMS, 2, 0.5 * PARAMS.K * PARAMS.v / PARAMS.L)


class TestMonotonicity:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
    def test_decreasing_magnitude_beyond_r(self, m):
        oms = np.linspace(PARAMS.R, 10.0 * PARAMS.R, 100)
        fv = np.abs([f_derivative(PARAMS, m, om) for om in oms])
        gv = np.abs([g_derivative(PARAMS, m, om) for om in oms])
        assert np.all(np.diff(fv) <= 1e-15 * fv[0])
        assert np.all(np.diff(gv) <= 1e-15 * gv[0])


class TestBounds:
    @pytest.mark.parametrize("v", [0.1, 0.5, 0.9])
    def test_sup_bounds_hold(self, v):
        params = GevreyParams(K=1.0, L=1.0, v=v)
        f_rows, c_rows, d_rows = sup_bounds_check(params, 16)
        assert all(r[3] <= 1.0 for r in f_rows + c_rows + d_rows)

    def test_order_zero_below_one(self):
        # |f(R)| = arctanh(v / sqrt 2) <= arctanh(1/sqrt 2) < 1
        assert abs(f_derivative(GevreyParams(K=2.0, L=3.0, v=0.999), 0,
                                GevreyParams(K=2.0, L=3.0, v=0.999).R)) \
            <= math.atanh(1.0 / math.sqrt(2.0)) < 1.0

    def test_c_sums_power_bound(self):
        for n in range(1, 13):
            assert float(sum(c_coeffs(2 * n).values())) <= 18.0 ** n

    def test_d_sums_power_bound(self):
        for m in range(2, 25):
            assert float(sum(d_coeffs(m).values())) \
                <= (2.0 * math.sqrt(21.0)) ** m


class TestL1Norms:
    def test_zero_speed(self):
        params = GevreyParams(K=1.0, L=1.0, v=0.0)
        assert [g_l1_norm(params, m) for m in range(3)] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_matches_quadrature(self, m):
        params = GevreyParams(K=1.0, L=1.0, v=0.5)

        def absg(q):
            q = np.atleast_1d(q)
            return np.array([abs(g_derivative(params, m, x + params.R))
                             for x in q])

        ref = 2.0 * integrate_semi_infinite_adaptive(absg, tol=1e-11,
                                                     scale=params.R).value
        assert g_l1_norm(params, m) == pytest.approx(ref, abs=1e-8)

    def test_caps(self):
        for v in (0.1, 0.4, 0.7, 0.95, 0.999):
            params = GevreyParams(K=1.7, L=0.6, v=v)
            g0, g1, g2 = (g_l1_norm(params, m) for m in range(3))
            assert g0 <= params.K / params.L
            assert g1 <= 0.5
            assert g2 <= 4.0 * params.L / params.K


class TestDecayCertificate:
    XI = np.logspace(0, 12, 400)

    def test_gevrey_two_transform_passes(self):
        cert = gevrey_decay_check(lambda x: np.exp(-np.sqrt(np.abs(x))),
                                  2.0, self.XI)
        assert cert.passed
        assert cert.c_star < 1.0

    def test_rational_transform_fails(self):
        cert = gevrey_decay_check(lambda x: 1.0 / (1.0 + x * x), 2.0,
                                  self.XI)
        assert not cert.passed

    def test_requires_s_above_one(self):
        with pytest.raises(ValueError):
            gevrey_decay_check(lambda x: x, 1.0, self.XI)


class TestPartitions:
    def test_small_values(self):
        # enumeration oracle for p(5): brute force over partitions
        def count(n, max_part):
            if n == 0:
                return 1
            return sum(count(n - k, k) for k in range(min(n, max_part),
                                                      0, -1))

        assert partition_bound(1)[0] == 1
        assert partition_bound(5)[0] == 7 == count(5, 5)
        assert partition_bound(10)[0] == count(10, 10) == 42

    def test_ratio_monotone_toward_one(self):
        r = [partition_bound(m)[2] for m in (50, 100, 200)]
        assert r[0] < r[1] < r[2] < 1.0


class TestProductLemma:
    @pytest.mark.parametrize("params", [PARAMS,
                                        GevreyParams(K=1.0, L=1.0, v=0.3)])
    def test_margins_within_one(self, params):
        rows, (delta, eps, cc) = product_l1_bound_check(params, m_max=6)
        assert all(r[3] <= 1.0 for r in rows)
        assert cc >= 2.0 * max(delta, eps) * 0.999

    @pytest.mark.parametrize("params", [PARAMS,
                                        GevreyParams(K=1.0, L=1.0, v=0.3),
                                        GevreyParams(K=1.0, L=1.0, v=0.5)])
    def test_tails_match_adaptive_route(self, params, monkeypatch):
        # each tail 2 int_0^inf |(fg)^(m)(q + R)| dq at the default tol
        # 1e-10, against the adaptive route at 1e-13
        ours, _ = product_l1_bound_check(params, m_max=6)
        monkeypatch.setattr(
            gevrey, "integrate_semi_infinite",
            lambda f, tol, scale: integrate_semi_infinite_adaptive(
                f, tol=1e-13, scale=scale))
        ref, _ = product_l1_bound_check(params, m_max=6)
        for (m, num, bound, _), (m_ref, num_ref, bound_ref, _) in zip(ours,
                                                                      ref):
            assert (m, bound) == (m_ref, bound_ref)
            assert num == pytest.approx(num_ref, abs=2e-10)

    def test_zero_speed(self):
        # f = g = 0: CC = 0, each norm and each bound is 0, no 0/0 margin
        rows, (delta, eps, cc) = product_l1_bound_check(
            GevreyParams(K=1.0, L=1.0, v=0.0), m_max=6)
        assert (delta, eps, cc) == (0.0, 0.0, 0.0)
        assert rows == tuple((m, 0.0, 0.0, 0.0) for m in range(7))

    def test_requires_m0_at_least_one(self):
        with pytest.raises(ValueError):
            product_l1_bound_check(PARAMS, m0=0)


class TestPipelineCertificate:
    def test_mode_convolution_transform_is_gevrey_three(self):
        """End-to-end: the transform of the memory convolution of a deep
        supercritical thermal mode admits a bounded stretched-decay
        constant at s = 3 through order 6."""
        import math
        from rvpmodes.equilibria import juttner, thermal_profile
        from rvpmodes.spectral import (ModeSpec, laplace_beta_imag,
                                       threshold_plasma)

        eq = juttner(0.5)
        kc = math.sqrt(threshold_plasma(eq).kappa_crit_sq)
        mode = ModeSpec(kappa=2.0 * kc, sigma=+1, equilibrium=eq,
                        profile=thermal_profile(0.5, 1.0))
        kap = mode.kappa
        omegas = kap * np.logspace(math.log10(1.01), math.log10(50.0), 30)

        def conv_transform(oms):
            out = np.empty(len(oms), dtype=complex)
            for i, om in enumerate(np.atleast_1d(oms)):
                w_val = laplace_beta_imag(mode, float(om))
                out[i] = (w_val / (1.0 - w_val)) \
                    * laplace_alpha_imag_tail(mode, float(om))
            return out

        cert = gevrey_decay_check(conv_transform, 3.0, omegas, n_max=6)
        assert cert.passed, f"c_star = {cert.c_star}"
