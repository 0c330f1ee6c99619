import math
import warnings

import numpy as np
import pytest

from rvpmodes.equilibria import (compact_decreasing, gaussian_profile,
                                 juttner, thermal_profile)

from oracles import (bessel_k2, integrate_adaptive,
                     integrate_semi_infinite_adaptive)

THETAS = [0.01, 0.1, 0.2, 1.0, 10.0]


def mass(eq, tol=1e-11):
    return integrate_semi_infinite_adaptive(
        lambda p: 4.0 * math.pi * p * p * eq.value(p), tol=tol,
        support=eq.support_bound if math.isfinite(eq.support_bound) else None,
        scale=eq.p_scale).value


class TestJuttner:
    def test_value_at_origin(self):
        eq = juttner(1.0)
        ref = math.exp(-1.0) / (4.0 * math.pi * bessel_k2(1.0))
        assert eq.value(0.0) == pytest.approx(ref, rel=1e-12)
        assert eq.value(0.0) == pytest.approx(0.01802, rel=1e-3)

    @pytest.mark.parametrize("theta", THETAS)
    def test_unit_mass(self, theta):
        assert mass(juttner(theta)) == pytest.approx(1.0, abs=1e-8)

    def test_log_derivative(self):
        eq = juttner(1.0)
        assert eq.derivative(1.0) / eq.value(1.0) == pytest.approx(
            -1.0 / math.sqrt(2.0), rel=1e-13)

    @pytest.mark.parametrize("theta", [0.05, 0.3, 2.0])
    def test_derivative_matches_finite_difference(self, theta):
        eq = juttner(theta)
        ps = np.linspace(0.05, 4.0 * eq.p_scale, 100)
        h = 1e-6 * max(eq.p_scale, 0.1)
        fd = (eq.value(ps + h) - eq.value(ps - h)) / (2.0 * h)
        assert np.allclose(eq.derivative(ps), fd, rtol=1e-6, atol=1e-300)

    def test_derivative_nonpositive_on_log_grid(self):
        eq = juttner(0.2)
        ps = np.logspace(-4, 2, 1000)
        assert np.all(eq.derivative(ps) <= 0.0)

    def test_cold_regime_warns_but_works(self):
        with pytest.warns(UserWarning):
            eq = juttner(1e-4)
        assert mass(eq) == pytest.approx(1.0, abs=1e-8)

    def test_tail_kernel_moment_matches_quadrature(self):
        eq = juttner(0.35)
        for p0 in (0.0, 0.4, 2.0):
            ref = integrate_semi_infinite_adaptive(
                lambda q: (1.0 + (q + p0) ** 2) * (-eq.derivative(q + p0)),
                tol=1e-13, scale=eq.p_scale).value
            assert eq.tail_kernel_moment(math.hypot(1.0, p0)) \
                == pytest.approx(ref, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            juttner(0.0)
        with pytest.raises(ValueError):
            juttner(-1.0)

    @pytest.mark.parametrize("theta", [1.3e102, 1e103, 1e200, 1e-300])
    def test_unrepresentable_normalisation_raises(self, theta):
        # hot: the normalisation underflows and f0 would vanish everywhere;
        # cold: its denominator underflows to zero
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cold regime
            with pytest.raises(ValueError, match="normalisation"):
                juttner(theta)


class TestCompact:
    def test_support_edge(self):
        eq = compact_decreasing(2.0)
        assert eq.value(2.0) == 0.0
        assert eq.value(2.5) == 0.0

    def test_unit_mass(self):
        eq = compact_decreasing(1.5)
        val = integrate_adaptive(lambda p: 4.0 * math.pi * p * p * eq.value(p),
                                 0.0, 1.5, tol=1e-12).value
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_derivative_nonpositive(self):
        eq = compact_decreasing(1.0)
        ps = np.linspace(1e-6, 1.0, 500)
        assert np.all(eq.derivative(ps) <= 0.0)

    def test_derivative_matches_finite_difference(self):
        eq = compact_decreasing(1.3)
        ps = np.linspace(0.05, 1.2, 100)
        h = 1e-7
        fd = (eq.value(ps + h) - eq.value(ps - h)) / (2.0 * h)
        assert np.allclose(eq.derivative(ps), fd, rtol=1e-6)

    def test_tail_kernel_moment_matches_quadrature(self):
        eq = compact_decreasing(1.5)
        for p0 in (0.0, 0.5, 1.2):
            ref = integrate_adaptive(
                lambda p: (1.0 + p * p) * (-eq.derivative(p)), p0, 1.5,
                tol=1e-13).value
            assert eq.tail_kernel_moment(math.hypot(1.0, p0)) \
                == pytest.approx(ref, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            compact_decreasing(-2.0)

    @pytest.mark.parametrize("P", [1e-300, 1e-104, 1e102, 1e150])
    def test_unrepresentable_normalisation_raises(self, P):
        # P^3 underflowed to a ZeroDivisionError or overflowed to an
        # OverflowError
        with pytest.raises(ValueError, match="normalisation"):
            compact_decreasing(P)


class TestProfiles:
    def test_gaussian_values(self):
        g = gaussian_profile(1.0, 1.0)
        assert g.value(0.0) == 1.0
        z = gaussian_profile(1.0, 0.0)
        assert np.all(z.value(np.linspace(0, 5, 50)) == 0.0)

    def test_gaussian_mass_moment(self):
        g = gaussian_profile(1.0, 1.0)
        val = integrate_semi_infinite_adaptive(
            lambda p: 4.0 * math.pi * p * p * g.value(p), tol=1e-11).value
        assert val == pytest.approx(math.pi ** 1.5, rel=1e-9)

    def test_gaussian_tail_weighted_moment(self):
        g = gaussian_profile(0.8, 1.7)
        for p0 in (0.0, 0.5, 2.0):
            ref = integrate_semi_infinite_adaptive(
                lambda q: (q + p0) * np.hypot(1.0, q + p0)
                * g.value(q + p0), tol=1e-13, scale=0.8).value
            assert g.tail_weighted_moment(p0) == pytest.approx(ref, rel=1e-9)

    def test_thermal_tail_weighted_moment(self):
        pr = thermal_profile(0.4, 2.0)
        for p0 in (0.0, 1.0):
            ref = integrate_semi_infinite_adaptive(
                lambda q: (q + p0) * np.hypot(1.0, q + p0)
                * pr.value(q + p0), tol=1e-13, scale=pr.p_scale).value
            assert pr.tail_weighted_moment(p0) == pytest.approx(ref,
                                                                rel=1e-9)

    def test_domains(self):
        with pytest.raises(ValueError):
            gaussian_profile(0.0, 1.0)

    @pytest.mark.parametrize("width", [1e-300, 2.1e-154, 5.7e102, 1e200])
    def test_gaussian_width_out_of_range(self, width):
        # the tail moment at P = 0 underflows (1e-300 once gave alpha = 0
        # after an overflow warning) or overflows (w**3 raised)
        with pytest.raises(ValueError, match="tail moment at P = 0"):
            gaussian_profile(width, 1.0)

    @pytest.mark.parametrize("width", [2.2e-154, 5.6e102])
    def test_gaussian_width_at_the_ends(self, width):
        # the accepted ends: the tail moment at P = 0 is normal and finite,
        # and (p/w)^2 overflowing far out gives e^-inf = 0 without a warning
        # (P = 1e8 is beyond every node: 1 - v(P) is below rounding there)
        g = gaussian_profile(width, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            head = g.tail_weighted_moment(0.0)
            far = g.tail_weighted_moment(1e8)
            assert g.value(1e300) == 0.0
        assert 2.2250738585072014e-308 <= head < math.inf
        assert 0.0 <= far <= head
        with pytest.raises(ValueError):
            thermal_profile(-0.2)
