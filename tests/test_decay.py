import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvpmodes import decay
from rvpmodes.decay import (Envelope, NoDecayError, bootstrap_s_interval,
                            envelope, exp_test, fit_mode_decay, fit_stretched,
                            rational_bound_check)


def synthetic_peaks(c, eps, s, t_lo=2.0, t_hi=300.0, n=120):
    t = np.linspace(t_lo, t_hi, n)
    return Envelope(t=t, value=c * np.exp(-eps * t ** (1.0 / s)))


class TestEnvelope:
    def test_damped_cosine_peaks(self):
        # slow envelope so the product peaks sit at k pi up to the
        # arctan(rate) phase shift
        rate = 0.05
        t = np.linspace(0.0, 60.0, 60001)
        sig = np.exp(-rate * t) * np.abs(np.cos(t))
        env = envelope(t, sig)
        assert not env.fallback
        for k in range(1, 15):
            et = k * math.pi
            j = np.argmin(np.abs(env.t - et))
            assert abs(env.t[j] - et) < math.atan(rate) + 2e-3
            assert env.value[j] == pytest.approx(math.exp(-rate * et),
                                                 rel=5e-3)

    def test_monotone_falls_back(self):
        t = np.linspace(0, 10, 100)
        env = envelope(t, np.exp(-t))
        assert env.fallback
        assert env.t.size == 100

    def test_constant_falls_back(self):
        t = np.linspace(0, 10, 50)
        env = envelope(t, np.ones(50))
        assert env.fallback


class TestFitStretched:
    def test_recovers_generating_model(self):
        env = synthetic_peaks(2.0, 0.7, 3.0)
        fit = fit_stretched(env)
        assert fit.c == pytest.approx(2.0, rel=0.02)
        assert fit.eps == pytest.approx(0.7, rel=0.02)
        assert fit.s == pytest.approx(3.0, rel=0.02)
        assert fit.rms_residual < 1e-8

    def test_pure_exponential_reads_s_one(self):
        env = synthetic_peaks(1.0, 1.0, 1.0, t_hi=30.0)
        fit = fit_stretched(env)
        assert fit.s == pytest.approx(1.0, rel=0.02)
        assert exp_test(env) == "exponential"

    def test_no_decay_raises(self):
        t = np.linspace(1, 50, 60)
        with pytest.raises(NoDecayError):
            fit_stretched(Envelope(t=t, value=np.ones(60)))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, gamma):
        env = synthetic_peaks(1.3, 0.5, 2.5)
        scaled = Envelope(t=env.t, value=gamma * env.value)
        f0 = fit_stretched(env)
        f1 = fit_stretched(scaled)
        assert f1.c == pytest.approx(gamma * f0.c, rel=1e-10)
        assert f1.eps == pytest.approx(f0.eps, rel=1e-10)
        assert f1.s == pytest.approx(f0.s, rel=1e-10)

    def test_bootstrap_brackets_truth_and_is_seeded(self):
        env = synthetic_peaks(2.0, 0.7, 3.0)
        rng = np.random.default_rng(11)
        noisy = Envelope(t=env.t,
                         value=env.value * np.exp(rng.normal(0, 0.02,
                                                             env.t.size)))
        fit = fit_stretched(noisy)
        lo, hi = bootstrap_s_interval(noisy, fit, n_boot=100, seed=5)
        assert lo <= 3.0 <= hi
        again = bootstrap_s_interval(noisy, fit, n_boot=100, seed=5)
        assert (lo, hi) == again


class TestFitModeDecay:
    @staticmethod
    def trajectory():
        t = np.linspace(0.0, 200.0, 8001)
        return t, np.abs(np.cos(3.0 * t)) * np.exp(-0.7 * t ** (1.0 / 3.0))

    def test_zero_replicates_skip_the_bootstrap(self, monkeypatch):
        t, a = self.trajectory()
        full, _, verdict = fit_mode_decay(t, a, 1.0, n_boot=20)

        def refuse(*args, **kwargs):
            raise AssertionError("bootstrap ran with n_boot=0")
        monkeypatch.setattr(decay, "bootstrap_s_interval", refuse)
        point, _, verdict0 = fit_mode_decay(t, a, 1.0, n_boot=0)
        assert all(math.isnan(x) for x in point.s_ci)
        assert (point.c, point.eps, point.s) == (full.c, full.eps, full.s)
        assert verdict0 == verdict

    def test_negative_replicates_refused(self):
        t, a = self.trajectory()
        with pytest.raises(ValueError, match="n_boot"):
            fit_mode_decay(t, a, 1.0, n_boot=-1)


class TestExpTest:
    # frozen verdicts of the synthetic battery; the rational tail reads as
    # sub-exponential under the lambda-slope discriminator
    BATTERY = [
        (lambda t: np.exp(-t), "exponential"),
        (lambda t: np.exp(-np.sqrt(t)), "sub-exponential"),
        (lambda t: np.exp(-t ** (1.0 / 3.0)), "sub-exponential"),
        (lambda t: 1.0 / (1.0 + t) ** 2, "sub-exponential"),
    ]

    @pytest.mark.parametrize("f,verdict", BATTERY)
    def test_battery_golden(self, f, verdict):
        t = np.linspace(1.0, 300.0, 200)
        assert exp_test(Envelope(t=t, value=f(t))) == verdict

    def test_flat_envelope_is_none(self):
        t = np.linspace(1.0, 300.0, 100)
        assert exp_test(Envelope(t=t, value=np.full(100, 0.5))) == "none"

    def test_too_few_points_is_none(self):
        assert exp_test(Envelope(t=np.array([1.0, 2.0]),
                                 value=np.array([1.0, 0.5]))) == "none"


class TestRationalBound:
    def test_even_signal_m0(self):
        t = np.linspace(0, 50, 500)
        sig = 3.0 * np.exp(-0.5 * t)  # max at t = 0
        d0, t0, ok = rational_bound_check(t, sig, 0, 1.0)
        assert d0 == 3.0 and t0 == 0.0 and ok

    def test_constant_signal_fails(self):
        t = np.linspace(0, 50, 500)
        d1, t1, ok = rational_bound_check(t, np.ones(500), 1, 1.0)
        assert not ok
        assert t1 == t[-1]

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            rational_bound_check([0, 1], [1, 1], -1, 1.0)
