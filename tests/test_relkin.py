import math
import warnings

import numpy as np
import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvpmodes.equilibria import (bessel_k2_scaled, juttner, positive_normal,
                                 v_of_p)

import oracles
from oracles import bessel_k2, exp1_neg_imag, f_cap, f_cap_complex, p_of_v


class TestScalarInScalarOut:
    def test_python_scalars_for_scalar_input(self):
        eq = juttner(0.5)
        for val in (v_of_p(1.0), p_of_v(0.5), f_cap(2.0, 0.5), bessel_k2(1.0),
                    bessel_k2_scaled(1.0), eq.value(1.0),
                    eq.tail_kernel_moment(1.0)):
            assert type(val) is float
        assert type(f_cap_complex(2.0 + 1j, 0.5)) is complex

    def test_arrays_keep_shape(self):
        p = np.linspace(0.0, 2.0, 6).reshape(2, 3)
        assert v_of_p(p).shape == (2, 3)
        assert juttner(0.5).value(p).shape == (2, 3)


class TestVelocityMomentum:
    def test_zero(self):
        assert v_of_p(0.0) == 0.0
        assert p_of_v(0.0) == 0.0

    def test_unit_momentum(self):
        assert v_of_p(1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14,
                                            abs=0.0)
        assert p_of_v(1.0 / math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14,
                                                             abs=0.0)

    def test_ultrarelativistic_gap(self):
        # stays below light speed even where 1 - v underflows the double
        # spacing at 1.0
        assert v_of_p(1e8) < 1.0
        # asymptotic oracle 1 - v = 1/(2 p^2)(1 - 3/(4 p^2) + ...), checked
        # where the gap is still representable (quantization ~ 2e-16/gap)
        for p in (1e4, 1e5, 1e6):
            gap = 1.0 - v_of_p(p)
            assert gap * 2.0 * p * p == pytest.approx(
                1.0, rel=max(1e-6, 4.4e-16 * p * p / 2.0))

    def test_near_light_speed_is_finite(self):
        v = 1.0 - 1e-12
        p = p_of_v(v)
        assert math.isfinite(p)
        # high-precision oracle
        with mpmath.workdps(40):
            ref = float(mpmath.mpf(v) / mpmath.sqrt(1 - mpmath.mpf(v) ** 2))
        assert p == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, math.inf, math.nan])
    def test_v_of_p_domain(self, bad):
        with pytest.raises(ValueError):
            v_of_p(bad)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_p_of_v_domain(self, bad):
        with pytest.raises(ValueError):
            p_of_v(bad)

    @given(st.floats(min_value=1e-12, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, p):
        # dp/dv = (1+p^2)^{3/2} amplifies the eps-level rounding of v by
        # (1+p^2), so the double-precision-optimal relative tolerance is
        # max(1e-12, a few eps (1+p^2)); strictly 1e-12 is representable
        # only for p up to ~1e2
        tol = max(1e-12, 4.0 * 2.3e-16 * (1.0 + p * p))
        assert p_of_v(v_of_p(p)) == pytest.approx(p, rel=tol, abs=0.0)

    @given(st.floats(min_value=1e-9, max_value=30.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_moderate_momenta_strict(self, p):
        assert p_of_v(v_of_p(p)) == pytest.approx(p, rel=1e-12, abs=0.0)

    @given(st.floats(min_value=0.0, max_value=0.999999))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_from_speed(self, v):
        assert v_of_p(p_of_v(v)) == pytest.approx(v, rel=1e-12, abs=1e-15)


class TestFCap:
    def test_zero_speed(self):
        for x in (1.0, 3.0, 50.0):
            assert f_cap(x, 0.0) == 0.0

    def test_at_one(self):
        v = 0.7
        assert f_cap(1.0, v) == pytest.approx(math.atanh(v) - v, rel=1e-13,
                                              abs=0.0)

    def test_taylor_tail(self):
        # Taylor oracle: x = 100, v = 0.5 -> ~ v^3/(3 x^2) within 1%
        assert f_cap(100.0, 0.5) == pytest.approx(0.5**3 / 3.0e4, rel=1e-2,
                                                  abs=0.0)

    def test_series_switch_continuity(self):
        v = 0.5
        for x in (v * 1e3 * (1 - 1e-9), v * 1e3 * (1 + 1e-9)):
            direct = x * math.atanh(v / x) - v
            assert f_cap(x, v) == pytest.approx(direct, rel=1e-8, abs=0.0)

    def test_nonnegative_and_decreasing(self):
        xs = np.logspace(math.log10(1.01), 3, 60)
        for v in (0.0, 0.3, 0.7, 0.999):
            vals = f_cap(xs, np.full_like(xs, v))
            assert np.all(vals >= 0.0)
            assert np.all(np.diff(vals) <= 1e-18)
            # finite-difference slope is nonpositive too
            h = 1e-6
            mid = xs[5]
            slope = (f_cap(mid + h, v) - f_cap(mid - h, v)) / (2 * h)
            assert slope <= 1e-12

    def test_large_x_limit(self):
        v = 0.8
        errs = [abs(f_cap(x, v) * 3.0 * x * x / v**3 - 1.0)
                for x in (1e2, 1e3, 1e4)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            f_cap(0.5, 0.7)


class TestBesselK2:
    def test_zero_refused(self):
        with pytest.raises(ValueError, match="x > 0"):
            bessel_k2_scaled(0.0)

    def test_integral_representation_oracle(self):
        # K_2(x) = int_0^inf e^{-x cosh t} cosh(2t) dt at high precision
        # cosh(40) ~ 1e17 makes the remainder beyond t = 40 identically 0
        with mpmath.workdps(40):
            ref = float(mpmath.quad(
                lambda t: mpmath.e**(-mpmath.cosh(t)) * mpmath.cosh(2 * t),
                [0, 5, 40]))
        assert bessel_k2(1.0) == pytest.approx(ref, rel=1e-12)
        assert bessel_k2(1.0) == pytest.approx(1.6248388986, rel=1e-9)

    def test_accuracy_across_range(self):
        # production e^x K2(x) against mpmath's, with no absolute slack:
        # K2(700) itself is 3e-306 and kv(2, x) underflows to 0 beyond;
        # from x = 1e17 on the value is the leading asymptotic term, and
        # 1.7e308 is past where the trapezoid's exponent -2x overflows
        xs = (1e-3, 0.03, 0.5, 2.0, 30.0, 300.0, 700.0, 1e4, 1e8, 1e16,
              1e17, 1.0000000000000002e17, 1e20, 1e300, 1.7e308)
        with mpmath.workdps(40):
            for x in xs:
                v = mpmath.mpf(x)
                ref = float(mpmath.exp(v) * mpmath.besselk(2, v))
                assert bessel_k2_scaled(x) == pytest.approx(ref, rel=1e-15,
                                                            abs=0.0)
        assert bessel_k2_scaled(math.inf) == 0.0

    def test_small_argument_asymptote(self):
        x = 1e-3
        assert bessel_k2(x) == pytest.approx(2.0 / x**2, rel=1e-5)

    def test_large_argument_asymptote(self):
        x = 600.0
        lead = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert bessel_k2(x) == pytest.approx(lead, rel=5e-3, abs=0.0)

    def test_recurrence(self):
        from scipy.special import kv
        xs = np.logspace(-1, 2, 40)
        lhs = bessel_k2(xs)
        rhs = kv(0, xs) + (2.0 / xs) * kv(1, xs)
        assert np.allclose(lhs, rhs, rtol=1e-9)

    def test_underflow_documented(self):
        assert bessel_k2(710.0) <= 1e-300
        assert bessel_k2_scaled(710.0) == pytest.approx(
            math.sqrt(math.pi / 1420.0), rel=1e-2, abs=0.0)

    def test_scaled_matches_scipy_kve(self):
        # the Juttner normalisation, on the threshold sweep's range and
        # beyond it
        from scipy.special import kve
        x = 1.0 / np.logspace(-5.0, math.log10(50.0), 400)
        rel = np.abs(bessel_k2_scaled(x) / kve(2, x) - 1.0)
        assert rel.max() <= 1e-15

    def test_scaled_tiny_arguments(self):
        # below x = 1e-150 the trapezoid grid reaches cosh 2t = inf; the
        # value is finite while it stays below the largest double
        x = np.array([3e-151, 1e-151, 1e-153, 2e-154, 1.06e-154])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.exp(mpmath.mpf(v))
                                  * mpmath.besselk(2, mpmath.mpf(v)))
                            for v in x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rel = np.abs(bessel_k2_scaled(x) / ref - 1.0)
            assert rel.max() <= 1e-15
            assert np.all(bessel_k2_scaled(np.array([1.05e-154, 1e-160,
                                                     5e-324])) == math.inf)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            bessel_k2(bad)


class TestPositiveNormal:
    def test_returns_the_scale(self):
        for scale in (2.2250738585072014e-308, 1.0, 1.7976931348623157e308):
            assert positive_normal(lambda: scale, "s", "it") is scale

    @pytest.mark.parametrize("compute", [
        lambda: 0.0, lambda: -1.0, lambda: 5e-324, lambda: 2.2e-308,
        lambda: math.inf, lambda: math.nan,
        lambda: 1.0 / 1e-300 ** 2,  # the divisor underflows to 0
        lambda: 1e200 ** 2,  # a float power overflows: OverflowError
        lambda: np.float64(1e200) ** 2],  # a numpy power overflows to inf
        ids=["zero", "negative", "subnormal", "below-normal", "inf", "nan",
             "ZeroDivisionError", "OverflowError", "numpy-overflow"])
    def test_refuses_with_one_message(self, compute):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the numpy overflow is silent
            with pytest.raises(ValueError) as exc:
                positive_normal(compute, "x=3", "its scale")
        assert str(exc.value) == ("x=3 is out of range: its scale is not a "
                                  "positive normal double")


class TestExp1NegImag:
    def test_matches_scipy_exp1(self):
        # a log grid over the resolvent's range and beyond, and dense points
        # around the switch from the power series to the continued fraction
        from scipy.special import exp1
        x = np.concatenate([np.logspace(-12.0, 8.0, 2001),
                            2.0 + np.linspace(-0.1, 0.1, 401)])
        ref = exp1(-1j * x)
        assert np.max(np.abs(exp1_neg_imag(x) - ref) / np.abs(ref)) <= 1e-14

    def test_matches_mpmath(self):
        # SciPy's own error reaches about 1.2e-14 near x = 4.5; mpmath pins
        # both branches closer
        x = np.concatenate([np.logspace(-12.0, 8.0, 41),
                            [1.9999999, 2.0, np.nextafter(2.0, 3.0), 2.0000001,
                             4.5232725, 4.5758075]])
        with mpmath.workdps(40):
            ref = np.array([complex(mpmath.e1(mpmath.mpc(0.0, -v)))
                            for v in x])
        assert np.max(np.abs(exp1_neg_imag(x) - ref) / np.abs(ref)) <= 2e-15

    def test_array_matches_scalar_calls(self):
        x = np.array([[1e-3, 2.0, 2.5], [7.0, 300.0, 1e6]])
        out = exp1_neg_imag(x)
        assert out.shape == x.shape
        for idx in np.ndindex(x.shape):
            val = exp1_neg_imag(float(x[idx]))
            assert isinstance(val, complex) and val == out[idx]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            exp1_neg_imag(np.array([1.0, bad]))

    def test_unconverged_fraction_raises(self, monkeypatch):
        # x = 2.5 needs depth 128; capped at 32 the fraction must not return
        monkeypatch.setattr(oracles, "_E1_MAX_DEPTH", 32)
        assert isinstance(exp1_neg_imag(1e3), complex)
        with pytest.raises(ArithmeticError, match="not converged"):
            exp1_neg_imag(2.5)

    def test_nonfinite_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(oracles, "_e1_fraction",
                            lambda z, depth: np.full(z.shape, np.nan + 0j))
        with pytest.raises(ArithmeticError, match="non-finite"):
            exp1_neg_imag(np.array([1.0, 3.0]))
