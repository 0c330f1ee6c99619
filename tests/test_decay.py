import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rvpmodes import decay
from rvpmodes.decay import (DecayFit, Envelope, NoDecayError,
                            bootstrap_s_interval, envelope, exp_test,
                            fit_mode_decay, fit_stretched)
from rvpmodes.equilibria import juttner, thermal_profile
from rvpmodes.spectral import ModeSpec
from rvpmodes.volterra import TimeGrid, solve_mode

from oracles import bounded_draws, rational_bound_check


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
        assert env.t.size < t.size  # the peaks, not every sample
        for k in range(1, 15):
            et = k * math.pi
            j = np.argmin(np.abs(env.t - et))
            assert abs(env.t[j] - et) < math.atan(rate) + 2e-3
            assert env.value[j] == pytest.approx(math.exp(-rate * et),
                                                 rel=5e-3, abs=0.0)

    def test_monotone_falls_back(self):
        t = np.linspace(0, 10, 100)
        env = envelope(t, np.exp(-t))
        assert np.array_equal(env.t, t)
        assert np.array_equal(env.value, np.exp(-t))

    def test_constant_falls_back(self):
        t = np.linspace(0, 10, 50)
        env = envelope(t, np.ones(50))
        assert np.array_equal(env.t, t)
        assert np.array_equal(env.value, np.ones(50))


    def test_unequal_shapes_refused(self):
        with pytest.raises(ValueError, match="equal shape"):
            envelope(np.arange(3.0), np.ones(4))

    def test_two_samples_returned_as_they_are(self):
        env = envelope([0.0, 1.0], [3.0, 2.0])
        assert env.t.tolist() == [0.0, 1.0]
        assert env.value.tolist() == [3.0, 2.0]


class TestFitStretched:
    def test_peaks_at_the_maximum_use_every_falling_ratio(self):
        # three peaks at c0 leave one -ln(v/c0) above 1e-3, too few for the
        # log-log slope: the slope is taken over every ratio below 1
        fit = fit_stretched(Envelope(t=np.arange(1.0, 5.0),
                                     value=np.array([1.0, 1.0, 1.0, 0.5])))
        assert all(math.isfinite(x) for x in (fit.c, fit.eps, fit.s))

    def test_one_peak_bootstrap_is_nan(self):
        # every resample repeats the one peak: no replicate has an s
        fit = DecayFit(c=1.0, eps=1.0, s=2.0)
        lo, hi = bootstrap_s_interval(Envelope(t=np.array([1.0]),
                                               value=np.array([0.5])),
                                      fit, n_boot=10)
        assert math.isnan(lo) and math.isnan(hi)

    def test_recovers_generating_model(self):
        env = synthetic_peaks(2.0, 0.7, 3.0)
        fit = fit_stretched(env)
        assert fit.c == pytest.approx(2.0, rel=0.02)
        assert fit.eps == pytest.approx(0.7, rel=0.02, abs=0.0)
        assert fit.s == pytest.approx(3.0, rel=0.02)
        res = (np.log(fit.c) - fit.eps * env.t ** (1.0 / fit.s)
               - np.log(env.value))
        assert np.sqrt(np.mean(res ** 2)) < 1e-8

    def test_pure_exponential_reads_s_one(self):
        env = synthetic_peaks(1.0, 1.0, 1.0, t_hi=30.0)
        fit = fit_stretched(env)
        assert fit.s == pytest.approx(1.0, rel=0.02)
        assert exp_test(env) == "exponential"

    def test_no_decay_raises(self):
        t = np.linspace(1, 50, 60)
        with pytest.raises(NoDecayError):
            fit_stretched(Envelope(t=t, value=np.ones(60)))

    def test_rising_tail_after_early_drop_raises(self):
        # the last peaks sit below 0.9 of the first, so the median gate
        # passes, but after the drop the peaks rise: ln(-ln(v/c)) falls
        # with ln t, and only the slope gate refuses a fit
        t = np.arange(1.0, 11.0)
        v = np.array([1.0, 1.0, 0.01, 0.1, 0.2, 0.3, 0.5, 0.6, 0.8, 0.8])
        with pytest.raises(NoDecayError, match="flat log-log envelope"):
            fit_stretched(Envelope(t=t, value=v))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, gamma):
        env = synthetic_peaks(1.3, 0.5, 2.5)
        scaled = Envelope(t=env.t, value=gamma * env.value)
        f0 = fit_stretched(env)
        f1 = fit_stretched(scaled)
        assert f1.c == pytest.approx(gamma * f0.c, rel=1e-10, abs=0.0)
        assert f1.eps == pytest.approx(f0.eps, rel=1e-10, abs=0.0)
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


class TestSlope:
    @given(st.lists(st.floats(min_value=0.0, max_value=7.0), min_size=3,
                    max_size=60, unique=True),
           st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=-5.0, max_value=5.0),
           st.sampled_from([0.0, 1e-8, 1e-3, 1.0]),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_polyfit(self, x, a, b, noise, seed):
        # the decay tests' lines: ln t of peaks at t in [1, 1 100] against
        # a noisy line.  Errors are relative to the data's slope scale
        # max |y| / |x - mean x|, which stands in for |b| where b is 0 or the
        # noise hides the line.  np.polyfit, through lstsq on the scaled
        # Vandermonde matrix, is itself off by up to about 3e-13 of it
        # there; the centred sums hold the exact slope of the data to a
        # few ulps
        x = np.array(x)
        assume(x.max() - x.min() >= 1.0)
        rng = random.Random(seed)
        y = a + b * x + noise * np.array([rng.gauss(0.0, 1.0) for _ in x])
        dx = x - x.mean()
        ref = np.polyfit(x, y, 1)[0]
        scale = max(abs(ref), np.max(np.abs(y)) / math.sqrt(np.sum(dx * dx)))
        assert abs(decay._slope(x, y) - ref) <= 1e-12 * scale
        fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
        mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
        exact = (sum((u - mx) * (v - my) for u, v in zip(fx, fy))
                 / sum((u - mx) ** 2 for u in fx))
        assert abs(decay._slope(x, y) - float(exact)) <= 1e-14 * scale

    def test_nan_for_constant_or_nan_abscissae(self):
        assert math.isnan(decay._slope(np.full(5, 0.1), np.arange(5.0)))
        x = np.array([1.0, math.nan, 3.0])
        assert math.isnan(decay._slope(x, np.arange(3.0)))

    def test_degenerate_slope_raises(self):
        # peaks that share one time: ln t is constant, and no line through
        # the peaks counts as decay
        env = Envelope(t=np.full(10, 5.0), value=np.geomspace(1.0, 1e-3, 10))
        with pytest.raises(NoDecayError, match="flat log-log envelope"):
            fit_stretched(env)
        assert exp_test(env) == "none"

    def test_nan_slope_raises(self, monkeypatch):
        env = synthetic_peaks(2.0, 0.7, 3.0)
        monkeypatch.setattr(decay, "_slope", lambda x, y: math.nan)
        with pytest.raises(NoDecayError, match="flat log-log envelope"):
            fit_stretched(env)
        assert exp_test(env) == "none"


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

    def test_memory_is_bounded_in_the_peak_count(self):
        # 9 950 peaks and 200 replicates: the grid scan and the refits are
        # solved in row blocks, and each block gathers its own resamples,
        # instead of (301 or 200) x 9 950 arrays (146 MB traced)
        t = 0.01 * np.arange(200001)
        a = np.abs(np.cos(5.0 * np.pi * t)) * np.exp(-0.5 * t ** (1.0 / 3.0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit, env, _ = fit_mode_decay(t, a, 1.0, n_boot=200)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert env.t.size > 9900
        assert fit.s == pytest.approx(3.0, rel=1e-9)
        assert peak <= 40e6

    def test_bootstrap_memory_is_bounded_in_the_replicates(self):
        # 2 000 replicates of 1 000 peaks refit _BOOT_ELEMS resampled peaks
        # at a time (3.0 MB traced), not all 2e6 indices at once (10.1 MB)
        t = np.linspace(1.0, 300.0, 1000)
        v = 2.0 * np.exp(-0.7 * t ** (1.0 / 3.0)) * (1 + 0.01 * np.sin(7 * t))
        env = Envelope(t=t, value=v)
        fit = fit_stretched(env)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lo, hi = bootstrap_s_interval(env, fit, n_boot=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert lo < fit.s < hi
        assert peak <= 5e6

    def test_bootstrap_blocks_equal_one_block(self, monkeypatch):
        # each replicate is its own problem, drawn in the same stream order
        env = synthetic_peaks(2.0, 0.7, 3.0)
        rng = np.random.default_rng(3)
        noisy = Envelope(t=env.t, value=env.value
                         * np.exp(rng.normal(0, 0.05, env.t.size)))
        fit = fit_stretched(noisy)
        cis = []
        for elems in (10 ** 9, 7 * env.t.size, 1):
            monkeypatch.setattr(decay, "_BOOT_ELEMS", elems)
            cis.append(bootstrap_s_interval(noisy, fit, n_boot=50, seed=2))
        assert cis[0] == cis[1] == cis[2]

    def test_no_lapack(self, request):
        # the line fits are closed forms: no numpy.linalg call, so no
        # LAPACK code paged into a fit process
        t, a = self.trajectory()
        ref = fit_mode_decay(t, a, 1.0, n_boot=20)
        request.getfixturevalue("no_linalg")
        fit, env, verdict = fit_mode_decay(t, a, 1.0, n_boot=20)
        assert (fit, verdict) == (ref[0], ref[2])

    def test_negative_seed_refused(self):
        # random.Random(-1) would repeat the stream of seed 1
        env = synthetic_peaks(2.0, 0.7, 3.0)
        with pytest.raises(ValueError, match="seed"):
            bootstrap_s_interval(env, fit_stretched(env), n_boot=10, seed=-1)


class TestBoundedDraws:
    @pytest.mark.parametrize("n", [1, 2, 3, 696, 2 ** 16, 2 ** 31 + 1])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_equal_to_one_word_at_a_time(self, n, seed):
        # 2.5 chunks of words; at n = 2^31 + 1 about half the words are
        # rejected, so every chunk comes back short and is refilled
        size = 5 * decay._DRAW_WORDS // 2
        ours, ref = random.Random(seed), random.Random(seed)
        out = np.empty(size, dtype=np.int64)
        decay._bounded_draws(ours, n, out)
        assert out.tolist() == bounded_draws(ref, n, size)
        # every word drawn was used or rejected: the stream goes on alike
        assert ours.getstate() == ref.getstate()


class TestOrderStatistics:
    def test_median_and_quantile_equal_numpy_to_the_bit(self):
        # the sort-based helper stands in for np.quantile, which loads
        # numpy.ma, and its 0.5-quantile for the medians; -0.0 is left out,
        # since a sort and numpy's partition may order it differently from
        # 0.0
        rng = np.random.default_rng(7)
        for i in range(10025):
            n = int(rng.integers(1, 80))
            a = [rng.lognormal(0.0, 5.0, n),
                 np.round(rng.normal(size=n), 1),
                 rng.choice([0.0, 1.0, -2.5, 1e-300, 5e-324, 1e300, 3.0,
                             np.inf, -np.inf], n),
                 rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)][i % 4]
            a = a + 0.0  # -0.0 + 0.0 is 0.0
            q = [(1 - 0.95) / 2, (1 + 0.95) / 2, rng.random(), 0.5, 0.0, 1.0]
            with np.errstate(invalid="ignore"):  # inf - inf, as numpy does
                assert (decay._quantile(a, q).tobytes()
                        == np.quantile(a, q).tobytes()), (a, q)


# --- the trust-region fit that variable projection replaced, as an oracle --

_LS_BOUNDS = ([-50.0, -50.0, 1e-3], [50.0, 50.0, 1.5])


def _ls_residuals(params, t, logv):
    logc, logeps, invs = params
    return logc - math.exp(logeps) * t**invs - logv


def _ls_peaks(env):
    t, v = np.asarray(env.t, dtype=float), np.asarray(env.value, dtype=float)
    keep = (t > 0) & (v > 0)
    return t[keep], np.log(v[keep])


def ls_fit(env):
    """(log c, log eps, 1/s) and the sum of squared residuals of
    ``least_squares`` from the stage-1 start, as fit_stretched had it."""
    from scipy.optimize import least_squares
    t, logv = _ls_peaks(env)
    c0 = float(np.exp(logv).max()) * (1.0 + 1e-12)
    ratio = np.exp(logv) / c0
    ok = -np.log(ratio) > 1e-3
    if np.count_nonzero(ok) < 3:
        ok = ratio < 1.0
    slope, intercept = np.polyfit(np.log(t[ok]), np.log(-np.log(ratio[ok])),
                                  1)
    x0 = np.clip([math.log(c0), intercept, slope], [-49.0, -49.0, 2e-3],
                 [49.0, 49.0, 1.49])
    res = least_squares(_ls_residuals, x0, args=(t, logv), bounds=_LS_BOUNDS)
    return res.x, float(np.sum(res.fun ** 2))


def ls_bootstrap(env, fit, n_boot, seed, level=0.95):
    from scipy.optimize import least_squares
    t, logv = _ls_peaks(env)
    x0 = np.array([math.log(fit.c), math.log(fit.eps), 1.0 / fit.s])
    gen = random.Random(seed)
    out = []
    for _ in range(n_boot):
        idx = np.array(bounded_draws(gen, t.size, t.size))
        idx.sort()
        res = least_squares(_ls_residuals, x0, args=(t[idx], logv[idx]),
                            bounds=_LS_BOUNDS)
        out.append(1.0 / res.x[2])
    return tuple(np.quantile(out, [(1 - level) / 2, (1 + level) / 2]))


def sse(env, fit):
    t, logv = _ls_peaks(env)
    return float(np.sum((math.log(fit.c) - fit.eps * t ** (1.0 / fit.s)
                         - logv) ** 2))


def _mode_envelope(theta, kappa, sigma, dt, t_max, refine):
    mode = ModeSpec(kappa=kappa, sigma=sigma, equilibrium=juttner(theta),
                    profile=thermal_profile(theta, 1.0))
    grid = TimeGrid(dt=dt, n_steps=int(round(t_max / dt)))
    traj = solve_mode(mode, grid, tol=1e-9, refine=refine)
    a = np.abs(traj.rho)
    return None if traj.growth else (grid.times, a / a.max())


@pytest.fixture(scope="module")
def readme_fit():
    """The README ``fit`` of the README ``evolve --refine`` trajectory."""
    t, a = _mode_envelope(0.5, 1.2, 1, 0.02, 300.0, refine=True)
    return fit_mode_decay(t, a, 1.2, n_boot=0)


@pytest.fixture(scope="module")
def readme_sweep_fits():
    """(fit, envelope) of every fitted row of both README sweeps."""
    out = []
    for sigma in (1, -1):
        for kappa in np.linspace(0.3, 1.4, 12):
            samples = _mode_envelope(0.2, float(kappa), sigma, 0.02, 200.0,
                                     refine=False)
            if samples is None:
                continue
            try:
                fit, env, _ = fit_mode_decay(*samples, float(kappa), n_boot=0)
            except NoDecayError:
                continue
            out.append((fit, env))
    return out


class TestAgainstLeastSquares:
    def test_readme_fit(self, readme_fit):
        fit, env, _ = readme_fit
        (logc, logeps, invs), ls_sse = ls_fit(env)
        assert sse(env, fit) <= ls_sse * (1.0 + 1e-12)
        assert fit.c == pytest.approx(math.exp(logc), rel=1e-6)
        assert fit.eps == pytest.approx(math.exp(logeps), rel=1e-6)
        assert fit.s == pytest.approx(1.0 / invs, rel=1e-6)

    def test_readme_sweep_rows(self, readme_sweep_fits):
        # ten rows, five of them pinned on log c = 50 and one, at
        # sigma = -1, kappa = 1.3, where least_squares stays at its start
        assert len(readme_sweep_fits) == 10
        for fit, env in readme_sweep_fits:
            assert sse(env, fit) <= ls_fit(env)[1] * (1.0 + 1e-12)
            assert abs(math.log(fit.c)) <= 50.0 * (1.0 + 1e-15)
            assert abs(math.log(fit.eps)) <= 50.0 * (1.0 + 1e-15)
            assert 1e-3 <= 1.0 / fit.s <= 1.5

    def test_exponent_optimum_on_the_box_edge(self):
        # t^1.8 lies past the box's x <= 1.5: least_squares ends on the
        # bound, and the search must reach it exactly, not stop short
        t = np.linspace(0.5, 6.0, 40)
        env = Envelope(t=t, value=1.3 * np.exp(-0.4 * t ** 1.8))
        (_, _, invs), ls_sse = ls_fit(env)
        assert invs == pytest.approx(1.5, rel=1e-15, abs=0.0)
        fit = fit_stretched(env)
        assert fit.s == 1.0 / 1.5
        assert sse(env, fit) <= ls_sse * (1.0 + 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_bootstrap_interval(self, readme_fit, seed):
        fit, env, _ = readme_fit
        ours = bootstrap_s_interval(env, fit, n_boot=200, seed=seed)
        ref = ls_bootstrap(env, fit, n_boot=200, seed=seed)
        assert ours == pytest.approx(ref, rel=1e-6)


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

    def test_too_few_decaying_peaks_is_none(self):
        # only the last two peaks lie below 1, where lambda = -ln v / t > 0
        env = Envelope(t=np.arange(1.0, 7.0),
                       value=np.array([50.0, 40.0, 30.0, 2.0, 0.5, 0.4]))
        assert exp_test(env) == "none"

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
