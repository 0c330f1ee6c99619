import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rvpmodes import quadrature
from rvpmodes.equilibria import gaussian_profile, juttner, thermal_profile
from rvpmodes.quadrature import QuadratureError, next_fast_len
from rvpmodes.spectral import (ModeSpec, laplace_beta_imag, sample_kernels,
                               threshold_astro, threshold_plasma)
from rvpmodes.volterra import (_BASE, GROWTH_CAP, SubcriticalModeError,
                               TimeGrid, apply_resolvent, resolvent_kernel,
                               solve_mode, solve_volterra)

from oracles import resolvent_kernel_axis, solve_mode_coarse_first


# --- direct O(N^2) loops: oracles for the fast march and convolution ---------

def direct_solve_volterra(alpha, beta, dt, growth_cap=GROWTH_CAP):
    """Step-by-step product-trapezoidal march, one dot product per step."""
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    n = alpha.size
    rho = np.zeros(n, dtype=np.result_type(alpha, beta, 1.0))
    beta = beta.astype(rho.dtype)
    rho[0] = alpha[0]
    denom = 1.0 - 0.5 * dt * beta[0]
    growth = False
    for i in range(1, n):
        conv = 0.5 * beta[i] * rho[0]
        if i > 1:
            conv += np.dot(beta[i - 1:0:-1], rho[1:i])
        val = (alpha[i] + dt * conv) / denom
        if abs(val) > growth_cap:
            rho[i:] = val * (growth_cap / abs(val))
            growth = True
            break
        rho[i] = val
    return rho, growth


def direct_apply_resolvent(kernel, source, dt):
    """source + the trapezoidal (kernel * source)(t_n), one dot product
    per sample."""
    kernel = np.asarray(kernel)
    source = np.asarray(source)
    n = source.size
    out = source.astype(float)
    for i in range(1, n):
        acc = 0.5 * (kernel[i] * source[0] + kernel[0] * source[i])
        if i > 1:
            acc += np.dot(kernel[i - 1:0:-1], source[1:i])
        out[i] += dt * acc
    return out


def freeze_index(rho, cap):
    """First sample frozen at the growth cap (len(rho) if none)."""
    hit = np.abs(rho) >= cap * (1.0 - 1e-9)
    return int(np.argmax(hit)) if hit.any() else rho.size


def assert_matches_direct(alpha, beta, dt, growth_cap=GROWTH_CAP):
    rho, growth = solve_volterra(alpha, beta, dt, growth_cap)
    ref, ref_growth = direct_solve_volterra(alpha, beta, dt, growth_cap)
    assert rho.dtype == ref.dtype
    assert growth == ref_growth
    assert freeze_index(rho, growth_cap) == freeze_index(ref, growth_cap)
    assert np.max(np.abs(rho - ref)) <= 1e-13 * np.max(np.abs(ref))
    return rho, growth


def const_kernel_solution(lam, dt, n):
    """rho = alpha + int beta rho with alpha = 1, beta = lam: rho = e^{lam t}."""
    t = dt * np.arange(n + 1)
    alpha = np.ones(n + 1)
    beta = np.full(n + 1, lam)
    rho, growth = solve_volterra(alpha, beta, dt)
    return t, rho, np.exp(lam * t), growth


class TestGrid:
    def test_times(self):
        g = TimeGrid(dt=0.5, n_steps=4)
        assert np.allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=0.0, n_steps=5)
        with pytest.raises(ValueError):
            TimeGrid(dt=0.1, n_steps=0)

    @pytest.mark.parametrize("dt,t_max,n_steps", [
        (0.3, 1.2, 4), (0.02, 300.0, 15000), (1.0, 2.0 ** 20, 2 ** 20)])
    def test_ending_at_whole_steps(self, dt, t_max, n_steps):
        # 1.2/0.3 is 3.9999999999999996 in floating point
        assert TimeGrid.ending_at(dt, t_max) == TimeGrid(dt, n_steps)

    @pytest.mark.parametrize("dt,t_max", [
        (0.3, 1.1), (0.3, 1.0), (0.3, 61.1), (0.3, 0.1), (-0.1, 1.0)])
    def test_ending_at_refuses_an_off_grid_end(self, dt, t_max):
        # round(t_max/dt) steps ended at 1.2, 0.9, 61.2, 0 and -1.0
        with pytest.raises(ValueError, match="no whole number"):
            TimeGrid.ending_at(dt, t_max)

    @pytest.mark.parametrize("dt,t_max", [
        (0.0, 1.0), (0.1, math.nan), (0.1, math.inf), (math.inf, 1.0),
        (0.1, 0.0)])
    def test_ending_at_refuses_what_makes_no_grid(self, dt, t_max):
        with pytest.raises((ValueError, ArithmeticError)):
            TimeGrid.ending_at(dt, t_max)


class TestSolver:
    def test_unequal_lengths_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            solve_volterra(np.ones(4), np.ones(5), 0.1)

    def test_singular_implicit_step_refused(self):
        # beta(0) = 2/dt: the implicit step divides by 1 - dt beta(0)/2 = 0
        with pytest.raises(ValueError, match="singular"):
            solve_volterra(np.ones(4), np.full(4, 2.0 / 0.1), 0.1)

    def test_no_memory_returns_source(self):
        alpha = np.sin(np.linspace(0, 3, 200))
        rho, growth = solve_volterra(alpha, np.zeros_like(alpha), 0.01)
        assert rho.dtype == np.float64 and np.array_equal(rho, alpha)
        assert not growth

    def test_constant_kernel_exponential(self):
        t, rho, exact, growth = const_kernel_solution(0.7, 0.01, 500)
        assert not growth
        assert np.max(np.abs(rho - exact) / exact) < 5e-5

    def test_dt_halving_order_two(self):
        errs = []
        for dt in (0.02, 0.01):
            n = int(round(5.0 / dt))
            _, rho, exact, _ = const_kernel_solution(0.7, dt, n)
            errs.append(np.max(np.abs(rho - exact)))
        order = math.log2(errs[0] / errs[1])
        assert 1.8 <= order <= 2.2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [50, 1025])
    @pytest.mark.parametrize("which", ["alpha", "beta"])
    def test_complex_kernel_refused(self, which, n):
        # the march is float64; a complex kernel once marched complex below
        # _BASE steps, and past it would have met rfft with a ComplexWarning
        t = 0.02 * np.arange(n)
        kernels = {"alpha": np.cos(t), "beta": 0.3 * np.exp(-t)}
        kernels[which] = kernels[which] * (1.0 + 0.5j)
        with pytest.raises(TypeError, match="must be real"):
            solve_volterra(kernels["alpha"], kernels["beta"], 0.02)

    def test_initial_sample_is_source(self):
        alpha = np.array([2.5, 1.0, 0.3])
        rho, _ = solve_volterra(alpha, np.array([0.0, 1.0, 0.5]), 0.1)
        assert rho[0] == 2.5

    def test_discrete_residual(self):
        rng = np.random.default_rng(3)
        alpha = rng.normal(size=300)
        beta = 0.3 * np.exp(-np.linspace(0, 3, 300))
        dt = 0.01
        rho, _ = solve_volterra(alpha, beta, dt)
        # plug back into the discretized equation
        res = np.empty(300)
        for n in range(300):
            conv = 0.0
            if n >= 1:
                conv = 0.5 * (beta[n] * rho[0] + beta[0] * rho[n])
                conv += np.dot(beta[n - 1:0:-1], rho[1:n]).real
            res[n] = abs(rho[n] - alpha[n] - dt * conv)
        assert res.max() < 1e-12

    def test_growth_saturation(self):
        n = 4000
        alpha = np.ones(n)
        beta = np.ones(n)
        rho, growth = solve_volterra(alpha, beta, 0.01)
        assert growth
        assert np.abs(rho[-1]) == pytest.approx(1e12, rel=1e-9)

    def test_realness_of_real_data(self, eq02):
        mode = ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        grid = TimeGrid(dt=0.02, n_steps=1000)
        traj = solve_mode(mode, grid)
        assert traj.rho.dtype == np.float64
        assert traj.rho[0] == traj.alpha_samples[0]
        assert traj.alpha_samples.dtype == np.float64

    def test_mode_convergence_order(self, eq02, kappa_crit_02):
        mode = ModeSpec(kappa=2.0 * kappa_crit_02, sigma=+1,
                        equilibrium=eq02,
                        profile=thermal_profile(0.2, 1.0))
        sols = {}
        for dt in (0.02, 0.01, 0.005):
            grid = TimeGrid(dt=dt, n_steps=int(round(20.0 / dt)))
            sols[dt] = solve_mode(mode, grid).rho
        e1 = np.max(np.abs(sols[0.02] - sols[0.01][::2]))
        e2 = np.max(np.abs(sols[0.01] - sols[0.005][::2]))
        assert 1.8 <= math.log2(e1 / e2) <= 2.2


def jump_direct(mode, t, n_panels=64):
    """R(t) = -4 int_0^kappa Im G(y) sin(2 pi y t) dy, Im G = Im W/|1 - W|^2,
    as a direct 16-point Gauss-Legendre sum on ``n_panels`` equal panels in
    phi = arcsin(y/kappa): y = kappa sin(phi) crowds the nodes toward the
    support edge, where hot envelopes die off steeply."""
    x, w = leggauss(16)
    edges = np.linspace(0.0, 0.5 * math.pi, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    phi = (edges[:-1, None] + half + half * x).ravel()
    y = mode.kappa * np.sin(phi)
    wy = (half * w).ravel() * mode.kappa * np.cos(phi)
    wv = laplace_beta_imag(mode, y, tol=1e-12)
    im_g = wv.imag / np.abs(1.0 - wv) ** 2
    return np.array([-4.0 * np.sum(wy * im_g * np.sin(2.0 * math.pi * y * tk))
                     for tk in t])


@pytest.fixture(scope="module")
def deep_mode():
    eq = juttner(0.5)
    kc = math.sqrt(threshold_plasma(eq).kappa_crit_sq)
    return ModeSpec(kappa=2.0 * kc, sigma=+1, equilibrium=eq,
                    profile=thermal_profile(0.5, 1.0))


@pytest.fixture(scope="module")
def attractive_mode():
    eq = juttner(0.2)
    kc = math.sqrt(threshold_astro(eq).kappa_crit_sq)
    return ModeSpec(kappa=1.5 * kc, sigma=-1, equilibrium=eq,
                    profile=thermal_profile(0.2, 1.0))


class TestResolvent:
    def test_zero_kernel_has_zero_resolvent(self):
        beta = np.zeros(200)
        r, _ = solve_volterra(beta, beta, 0.01)
        assert np.all(r == 0.0)

    def test_volterra_reconstruction(self, deep_mode):
        # r = beta + beta * r built by the marching solver must match the
        # transform-side reconstruction
        grid = TimeGrid(dt=0.01, n_steps=2000)
        tab = sample_kernels(deep_mode, grid.times, tol=1e-12)
        r_march, _ = solve_volterra(tab.beta, tab.beta, grid.dt)
        r_transform = resolvent_kernel(deep_mode, grid, tol=1e-9)
        scale = np.max(np.abs(r_march))
        assert np.max(np.abs(r_march - r_transform)) < 1e-4 * max(scale, 1.0)

    def test_solution_form_equivalence(self, deep_mode):
        grid = TimeGrid(dt=0.01, n_steps=5000)
        traj = solve_mode(deep_mode, grid, tol=1e-12)
        kern = resolvent_kernel(deep_mode, grid, tol=1e-9)
        rho_res = apply_resolvent(kern, traj.alpha_samples, grid.dt)
        scale = np.max(np.abs(traj.rho))
        assert np.max(np.abs(rho_res - traj.rho)) < 1e-4 * scale

    @pytest.mark.parametrize("which", ["deep_mode", "attractive_mode"])
    def test_matches_direct_jump_sum(self, which, request):
        # the criterion-6 mode and a sigma = -1 mode; at these t the
        # whole-axis route with its E1 tail is 6.8e-8 and 4.4e-10 of max|R|
        # off
        mode = request.getfixturevalue(which)
        grid = TimeGrid(dt=0.05, n_steps=1000)
        kern = resolvent_kernel(mode, grid, tol=1e-10)
        idx = np.array([7, 20, 66, 200, 634, 1000])
        direct = jump_direct(mode, grid.times[idx])
        scale = np.max(np.abs(kern))
        assert np.max(np.abs(kern[idx] - direct)) <= 1e-10 * scale
        assert kern.dtype == np.float64

    def test_near_whole_axis_route(self, deep_mode):
        # the route this replaced is itself 4.1e-7 of max|R| off
        grid = TimeGrid(dt=0.01, n_steps=5000)
        kern = resolvent_kernel(deep_mode, grid, tol=1e-9)
        axis = resolvent_kernel_axis(deep_mode, grid.times, tol=1e-9)
        scale = np.max(np.abs(kern))
        assert np.max(np.abs(kern - axis)) <= 1e-6 * scale

    def test_panel_cap_short_of_tol_raises(self, deep_mode, monkeypatch):
        # the criterion-6 mode needs 1 024 panels at tol 1e-9
        monkeypatch.setattr(quadrature, "_FILON_MAX_PANELS", 128)
        with pytest.raises(QuadratureError) as info:
            resolvent_kernel(deep_mode, TimeGrid(dt=0.01, n_steps=5000),
                             tol=1e-9)
        assert info.value.result.abs_error_estimate > 1e-9

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_bad_tol_raises(self, deep_mode, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            resolvent_kernel(deep_mode, TimeGrid(dt=0.1, n_steps=10), tol=tol)

    def test_subcritical_refused(self, eq02, kappa_crit_02):
        mode = ModeSpec(kappa=0.8 * kappa_crit_02, sigma=+1,
                        equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        with pytest.raises(SubcriticalModeError):
            resolvent_kernel(mode, TimeGrid(dt=0.1, n_steps=10))

    def test_convolution_helper(self):
        dt = 0.01
        t = dt * np.arange(400)
        kern = np.exp(-t)
        src = np.cos(t)
        out = apply_resolvent(kern, src, dt)
        # exact: int_0^t e^{-(t-s)} cos s ds = (cos t + sin t - e^{-t})/2;
        # trapezoid error is (dt^2/12) int |(kern src)''| ~ 1.3e-5 here
        exact = np.cos(t) + 0.5 * (np.cos(t) + np.sin(t) - np.exp(-t))
        assert np.max(np.abs(out - exact)) < 3e-5


ORACLE_LENGTHS = [2, 3, _BASE - 1, _BASE, _BASE + 1, _BASE + 2,
                  255, 257, 1023, 1025, 4097]


class TestFastMarchOracle:
    """The divide-and-conquer march against the direct loop."""

    @pytest.mark.parametrize("n", ORACLE_LENGTHS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_random_kernels(self, n, kind):
        # beta(0) != 0 here, so every step takes the implicit correction;
        # complex kernels are refused at every length, below _BASE too
        rng = np.random.default_rng(n)
        decay = np.exp(-np.linspace(0.0, 4.0, n))
        alpha = rng.normal(size=n)
        beta = rng.normal(size=n) * decay
        if kind == "complex":
            with pytest.raises(TypeError):
                solve_volterra(alpha, beta + 1j * decay, 0.01)
            return
        _, growth = assert_matches_direct(alpha, beta, 0.01)
        assert not growth

    @pytest.mark.parametrize("n", [_BASE + 1, 1025, 4097])
    def test_constant_kernel(self, n):
        assert_matches_direct(np.ones(n), np.full(n, 0.7), 0.01)

    def test_mode_kernels(self, mode02):
        grid = TimeGrid(dt=0.02, n_steps=3000)
        tab = sample_kernels(mode02, grid.times, tol=1e-11)
        assert_matches_direct(tab.alpha, tab.beta, grid.dt)

    @pytest.mark.parametrize("k", [
        50,              # inside the first base block
        1 + _BASE,       # first step after a history update
        1 + 2 * _BASE,   # first step of the right half
        1 + 4 * _BASE,   # first step of the top-level right half
        7 * _BASE - 3,   # deep in the right half
        1,               # first step of the first base block
        _BASE,           # last step of the first base block
        2 * _BASE,       # last step of the second base block
    ])
    @pytest.mark.parametrize("lam", [5.0, 5.0 * np.exp(0.3j)])
    def test_growth_cap_crossing(self, k, lam):
        # |rho| grows ~5 % per step; a cap between |rho[k-1]| and |rho[k]|
        # puts the first crossing at k.  A complex lam, which once turned
        # rho in phase, is refused before the march takes a step.
        n = 8 * _BASE + 1
        alpha, beta, dt = np.ones(n), np.full(n, lam), 0.01
        if isinstance(lam, complex):
            with pytest.raises(TypeError):
                solve_volterra(alpha, beta, dt)
            return
        free, _ = direct_solve_volterra(alpha, beta, dt, growth_cap=np.inf)
        cap = math.sqrt(abs(free[k - 1]) * abs(free[k]))
        rho, growth = assert_matches_direct(alpha, beta, dt, growth_cap=cap)
        assert growth
        assert freeze_index(rho, cap) == k
        assert np.allclose(np.abs(rho[k:]), cap, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3, _BASE + 1, 1025])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_convolution_matches_direct(self, n, kind):
        # the resolvent and alpha are real: a complex input is refused
        rng = np.random.default_rng(n + 1)
        kern = rng.normal(size=n)
        src = rng.normal(size=n)
        if kind == "complex":
            with pytest.raises(TypeError):
                apply_resolvent(kern + 1j * rng.normal(size=n), src, 0.01)
            with pytest.raises(TypeError):
                apply_resolvent(kern, src + 0j, 0.01)
            return
        out = apply_resolvent(kern, src, 0.01)
        ref = direct_apply_resolvent(kern, src, 0.01)
        assert out.dtype == ref.dtype == np.float64
        assert out[0] == src[0]
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def padded_lengths(lo, hi):
    """The FFT length of each internal block of the march over [lo, hi)."""
    if hi - lo <= _BASE:
        return []
    mid = (lo + hi) // 2
    return ([next_fast_len(hi - lo)] + padded_lengths(lo, mid)
            + padded_lengths(mid, hi))


class TestMarchSpectra:
    """The kernel's spectrum is taken once per padded length, not once per
    block, and the reuse changes no bit of the solution."""

    N = 10001

    def seeded(self):
        rng = np.random.default_rng(self.N)
        decay = np.exp(-np.linspace(0.0, 4.0, self.N))
        return rng.normal(size=self.N), rng.normal(size=self.N) * decay

    def test_one_kernel_spectrum_per_padded_length(self, monkeypatch):
        # each block transforms its left half; the kernel once per length
        calls = []
        rfft = np.fft.rfft

        def spy(a, n=None, *args, **kwargs):
            calls.append(n)
            return rfft(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, "rfft", spy)
        solve_volterra(*self.seeded(), 0.01)
        lengths = padded_lengths(1, self.N)
        assert sorted(calls) == sorted(lengths + list(set(lengths)))
        assert len(calls) == 134

    def test_solution_bits_pinned(self):
        # sha256 of rho from a copy of this march that takes the kernel's
        # rfft afresh in every block (254 rfft calls against 134; numpy
        # 2.4 pocketfft, x86-64)
        rho, growth = solve_volterra(*self.seeded(), 0.01)
        assert not growth and rho.dtype == np.float64
        assert hashlib.sha256(rho.tobytes()).hexdigest() == (
            "aa80f325074be5dba42837ad282ed7147f3729ef5537701b8d7b8bc97b607ed5")


class TestMarchMemory:
    def test_peak_in_vectors_of_the_horizon(self):
        # rho, hist, the kernel's half spectra and the top block's real FFT
        # convolution trace 6.0 float64 vectors of length n; the complex
        # march traced 12.0 of them (6.0 complex ones)
        n = 30000
        t = 0.01 * np.arange(n)
        alpha = np.exp(-t) * np.cos(3.0 * t)
        beta = -0.5 * np.exp(-t) * np.sin(2.0 * t)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rho, growth = solve_volterra(alpha, beta, 0.01)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert not growth
        assert peak <= 6.5 * n * 8


def traced_peak(f):
    """Peak bytes that tracemalloc sees while ``f()`` runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def readme_mode():
    """The README ``evolve``: kappa 1.2, sigma +1, theta 0.5, thermal."""
    return ModeSpec(kappa=1.2, sigma=+1, equilibrium=juttner(0.5),
                    profile=thermal_profile(0.5, 1.0))


class TestRefinedOrder:
    """``solve_mode(refine=True)`` runs the half-step solve first and
    frees its tables before the coarse one."""

    @pytest.mark.parametrize("which", ["readme", "growing"])
    def test_bits_of_the_coarse_first_order(self, which, readme_mode, eq02):
        # the growing mode is sigma = -1 below its threshold: the coarse
        # march hits the cap, so the earlier order never ran the half step
        mode = readme_mode if which == "readme" else ModeSpec(
            kappa=0.5, sigma=-1, equilibrium=eq02,
            profile=thermal_profile(0.2, 1.0))
        grid = TimeGrid(dt=0.02, n_steps=15000)
        ours = solve_mode(mode, grid, tol=1e-9, refine=True)
        ref = solve_mode_coarse_first(mode, grid, tol=1e-9)
        assert ours.growth == ref.growth == (which == "growing")
        for name in ("rho", "alpha_samples", "beta_samples"):
            assert np.array_equal(getattr(ours, name), getattr(ref, name))

    def test_peak_is_the_half_step_tables(self, readme_mode):
        # the coarse rho, alpha, beta and times once stayed alive while the
        # half-step tables were built: 3.0 coarse complex vectors (6.0
        # float64 ones) over the half-step sampling's own peak.  The margin
        # is half a coarse float64 vector, the dtype of the march's rho;
        # the excess measures 0.004 of one
        solve_mode(readme_mode, TimeGrid(dt=0.02, n_steps=500), tol=1e-9,
                   refine=True)  # first-call imports stay out of the peaks
        grid = TimeGrid(dt=0.02, n_steps=15000)
        half = TimeGrid(dt=0.01, n_steps=30000)
        refined = traced_peak(
            lambda: solve_mode(readme_mode, grid, tol=1e-9, refine=True))
        tables = traced_peak(
            lambda: sample_kernels(readme_mode, half.times, tol=1e-9))
        vector = 8 * (grid.n_steps + 1)
        assert refined - tables <= 0.5 * vector, (refined - tables) / vector


class TestBaseBlockOracle:
    """The impulse-response base block against the direct loop where its
    later samples, or the impulse response itself, overflow."""

    @staticmethod
    def violent(n, onset):
        """|rho| grows ~2e6 per step from ``onset`` on: 1 - dt*beta0/2 is
        1e-6, so the impulse response overflows within ~50 steps."""
        dt = 0.01
        beta = np.full(n, 2.0 * (1.0 - 1e-6) / dt)
        alpha = np.zeros(n)
        alpha[onset:] = 1.0
        return alpha, beta, dt

    @pytest.mark.parametrize("onset", [
        0,                # crossing at step 2, overflow later in the block
        300,              # crossing inside the third block
        2 * _BASE + 60,   # zeros until the impulse response has overflowed
    ])
    def test_overflowing_block(self, onset):
        alpha, beta, dt = self.violent(4 * _BASE + 1, onset)
        with np.errstate(all="raise"):
            rho, growth = assert_matches_direct(alpha, beta, dt)
        assert growth
        assert np.all(np.isfinite(rho))
        assert freeze_index(rho, GROWTH_CAP) == max(onset, 1) + 1

    def test_zero_source_with_overflowing_response(self):
        alpha, beta, dt = self.violent(4 * _BASE + 1, 4 * _BASE + 1)
        rho, growth = solve_volterra(alpha, beta, dt)
        assert not growth
        assert np.all(rho == 0.0)


class TestNonFiniteInput:
    @pytest.mark.parametrize("where", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused(self, where, bad):
        arrays = {"alpha": np.ones(100), "beta": np.full(100, 0.1)}
        arrays[where][37] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_volterra(arrays["alpha"], arrays["beta"], 0.01)


class TestGrowthPhysics:
    def test_attractive_subcritical_grows(self, eq02):
        # below the attractive threshold the transform reaches 1 on the
        # positive real axis; the evolution amplifies until saturation
        mode = ModeSpec(kappa=0.5, sigma=-1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        grid = TimeGrid(dt=0.02, n_steps=1500)
        traj = solve_mode(mode, grid)
        assert traj.growth
        assert np.max(np.abs(traj.rho)) == pytest.approx(1e12, rel=1e-6)
