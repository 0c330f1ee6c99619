import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvpmodes.quadrature import (QuadratureError, gauss_legendre_nodes,
                                 integrate_finite, integrate_oscillatory,
                                 integrate_semi_infinite)


class TestFinite:
    def test_polynomial(self):
        r = integrate_finite(lambda x: x**2, 0.0, 1.0, tol=1e-10)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert r.evaluations > 0

    def test_endpoint_singularity(self):
        r = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-9)
        assert r.value == pytest.approx(2.0, abs=1e-8)

    def test_log_endpoint_blowup(self):
        # |arctanh(v) - v| over [-1, 1]; closed form 2 (ln 2 - 1/2)
        r = integrate_finite(lambda v: np.abs(np.arctanh(v) - v),
                             -1.0, 1.0, tol=1e-9)
        assert r.value == pytest.approx(2.0 * (math.log(2.0) - 0.5), abs=1e-8)

    def test_complex_integrand(self):
        r = integrate_finite(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-12)
        assert r.value == pytest.approx((np.exp(1j) - 1.0) / 1j, abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0)

    def test_nonconvergence_carries_best_value(self):
        # genuinely nasty: x^{-0.99} needs more panels than allowed
        with pytest.raises(QuadratureError) as err:
            integrate_finite(lambda x: np.abs(x) ** -0.999, 0.0, 1.0,
                             tol=1e-14, max_subdiv=20)
        assert err.value.result.abs_error_estimate > 0
        assert err.value.result.value > 0

    def test_nan_integrand_raises(self):
        # nan > tol is False: a NaN must not come back as converged
        with pytest.raises(QuadratureError):
            integrate_finite(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_nonintegrable_pole_raises(self):
        # the K15 centre node sits on the pole: value inf, estimate nan
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(QuadratureError):
            integrate_finite(lambda x: 1.0 / (x - 0.5) ** 2, 0.0, 1.0)

    # estimate may overshoot, must not undershoot true error by > 10x
    BATTERY = [
        (lambda x: np.sin(x), 0.0, 2.0, 1.0 - math.cos(2.0)),
        (lambda x: np.cos(3 * x), 0.0, 1.5, math.sin(4.5) / 3.0),
        (lambda x: np.exp(-x), 0.0, 4.0, 1.0 - math.exp(-4.0)),
        (lambda x: np.exp(x), -1.0, 1.0, math.e - 1.0 / math.e),
        (lambda x: x**3, -1.0, 2.0, 15.0 / 4.0),
        (lambda x: x**7 - x, 0.0, 1.0, 1.0 / 8.0 - 0.5),
        (lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, math.pi / 2.0),
        (lambda x: np.exp(-x * x), -3.0, 3.0, math.sqrt(math.pi)
         * math.erf(3.0)),
        (lambda x: np.log1p(x), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0),
        (lambda x: np.sqrt(1.0 + x), 0.0, 3.0, 14.0 / 3.0),
        (lambda x: np.sinh(x), 0.0, 1.0, math.cosh(1.0) - 1.0),
        (lambda x: np.cosh(x), -1.0, 0.5, math.sinh(0.5) + math.sinh(1.0)),
        (lambda x: x * np.exp(-x), 0.0, 10.0, 1.0 - 11.0 * math.exp(-10.0)),
        (lambda x: np.sin(x) ** 2, 0.0, math.pi, math.pi / 2.0),
        (lambda x: 1.0 / (2.0 + np.cos(x)), 0.0, 2.0 * math.pi,
         2.0 * math.pi / math.sqrt(3.0)),
        (lambda x: x / (1.0 + x * x), 0.0, 2.0, 0.5 * math.log(5.0)),
        (lambda x: np.arctan(x), 0.0, 1.0, math.pi / 4.0
         - 0.5 * math.log(2.0)),
        (lambda x: np.exp(x) * np.sin(x), 0.0, math.pi,
         (math.exp(math.pi) + 1.0) / 2.0),
        (lambda x: x**2 * np.cos(x), 0.0, 1.0,
         (1.0 - 2.0) * math.sin(1.0) + 2.0 * math.cos(1.0)),
        (lambda x: 1.0 / np.sqrt(4.0 - x * x), 0.0, 1.0, math.asin(0.5)),
    ]

    @pytest.mark.parametrize("f,a,b,exact", BATTERY)
    def test_error_estimate_validity(self, f, a, b, exact):
        r = integrate_finite(f, a, b, tol=1e-10)
        true_err = abs(r.value - exact)
        assert true_err <= 10.0 * r.abs_error_estimate + 1e-13 * abs(exact)
        assert true_err < 1e-9 * max(1.0, abs(exact))


class TestGaussLegendre:
    def test_composite_rule_exact_for_degree_31(self):
        x, w = gauss_legendre_nodes([-1.0, 0.3, 2.0], 3)
        assert x.shape == w.shape == (2 * 3 * 16,)
        assert np.all((x > -1.0) & (x < 2.0) & (x != 0.3))
        assert np.sum(w * x**31) == pytest.approx((2.0**32 - 1.0) / 32.0,
                                                  rel=1e-13)


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda p: np.exp(-p), tol=1e-11)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_bessel_identity(self):
        import mpmath
        r = integrate_semi_infinite(
            lambda p: p * p * np.exp(-np.hypot(1.0, p)), tol=1e-10)
        assert r.value == pytest.approx(float(mpmath.besselk(2, 1)),
                                        abs=1e-8)

    def test_support_clipping(self):
        calls = []

        def f(p):
            calls.append(np.max(p))
            return np.where(p <= 2.0, p, 0.0)

        r = integrate_semi_infinite(f, tol=1e-11, support=2.0)
        assert r.value == pytest.approx(2.0, abs=1e-10)
        assert max(calls) <= 2.0

    def test_scale_hint_handles_narrow_peak(self):
        w = 1e-3
        r = integrate_semi_infinite(
            lambda p: np.exp(-((p / w) ** 2)), tol=1e-13, scale=w)
        assert r.value == pytest.approx(0.5 * math.sqrt(math.pi) * w,
                                        rel=1e-9)


class TestOscillatory:
    def test_constant_envelope(self):
        w = 100.0
        r = integrate_oscillatory(lambda x: np.ones_like(x), w, 0.0, 1.0,
                                  tol=1e-12)
        assert r.value == pytest.approx((np.exp(1j * w) - 1.0) / (1j * w),
                                        abs=1e-10)

    def test_zero_frequency_degenerates(self):
        r = integrate_oscillatory(lambda x: x * x, 0.0, 0.0, 1.0, tol=1e-11)
        assert isinstance(r.value, complex)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_linear_envelope_closed_form(self):
        # integration by parts: int_0^1 x e^{iwx} dx
        w = 50.0
        exact = (np.exp(1j * w) / (1j * w)
                 - (np.exp(1j * w) - 1.0) / (1j * w) ** 2)
        r = integrate_oscillatory(lambda x: x, w, 0.0, 1.0, tol=1e-12)
        assert r.value == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("w", [1.0, 7.5, 20.0, 50.0])
    def test_agrees_with_brute_force(self, w):
        f = lambda x: np.exp(-0.5 * x) * (1.0 + 0.3 * np.sin(x))
        r = integrate_oscillatory(f, w, 0.0, 4.0, tol=1e-11)
        re = integrate_finite(lambda x: f(x) * np.cos(w * x), 0.0, 4.0,
                              tol=1e-12).value
        im = integrate_finite(lambda x: f(x) * np.sin(w * x), 0.0, 4.0,
                              tol=1e-12).value
        assert r.value == pytest.approx(re + 1j * im, abs=1e-8)

    @given(st.integers(min_value=0, max_value=3),
           st.floats(min_value=1.0, max_value=80.0))
    @settings(max_examples=40, deadline=None)
    def test_exact_for_cubics(self, k, w):
        # single-panel exactness class: polynomial degree <= 3;
        # oracle from the integration-by-parts recursion
        # I_k = (e^{iw} - k I_{k-1}) / (iw),  I_0 = (e^{iw} - 1)/(iw)
        r = integrate_oscillatory(lambda x: x**k, w, 0.0, 1.0, tol=1e-13)
        ref = (np.exp(1j * w) - 1.0) / (1j * w)
        for j in range(1, k + 1):
            ref = (np.exp(1j * w) - j * ref) / (1j * w)
        assert abs(r.value - ref) < 1e-10
