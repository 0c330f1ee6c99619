import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import rvpmodes
from rvpmodes import quadrature, spectral
from rvpmodes.equilibria import (compact_decreasing, gaussian_profile,
                                 juttner, thermal_profile, v_of_p)
from rvpmodes.quadrature import (QuadratureError, _czt, gauss_legendre_nodes,
                                 integrate_finite, integrate_semi_infinite)
from rvpmodes.spectral import (ModeSpec, alpha_hat, beta_hat_envelope,
                               find_y0, kappa_crit_sq, laplace_beta_halfplane,
                               laplace_beta_imag, sample_kernels,
                               threshold_astro, threshold_plasma)

from oracles import (alpha_direct, alpha_via_inverse, beta_direct,
                     beta_envelope_slope, beta_via_inverse,
                     compact_derivative, f_cap, filon_sums_direct,
                     gaussian_density,
                     integrate_adaptive, integrate_oscillatory,
                     integrate_semi_infinite_adaptive, juttner_derivative,
                     laplace_alpha_imag_tail, laplace_beta_halfplane_momentum,
                     rational_bound_check, thermal_density,
                     threshold_astro_from_derivative,
                     threshold_plasma_from_derivative)


def rel_close(a, b, rtol, floor=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b), floor)


# --- BLAS worker threads -----------------------------------------------------

needs_thread_ticks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or os.cpu_count() == 1,
    reason="needs per-thread CPU times and two CPUs")


def blas_worker_ticks(workload):
    """(main-thread, other-thread) CPU ticks of ``workload`` run in a fresh
    interpreter with numpy as np, ModeSpec, juttner and thermal_profile
    imported.  A BLAS call wakes the library's worker threads, which then
    spin between calls.  The workers also spin for about 0.1 s after they
    start at import, so the count starts once they have gone idle.  The
    child runs with BLAS's default thread count (importing ``rvpmodes.cli``
    sets OPENBLAS_NUM_THREADS=1 for this process and its children), and a
    child without a worker thread fails: it would pass vacuously."""
    code = (
        "import os, time\n"
        "import numpy as np\n"
        "from rvpmodes.equilibria import juttner, thermal_profile\n"
        "from rvpmodes.spectral import ModeSpec\n"
        "def cpu_ticks():\n"
        "    ticks = {}\n"
        "    for tid in os.listdir('/proc/self/task'):\n"
        "        with open(f'/proc/self/task/{tid}/stat') as fh:\n"
        "            fields = fh.read().rsplit(')', 1)[1].split()\n"
        "        ticks[int(tid)] = int(fields[11]) + int(fields[12])\n"
        "    return ticks\n"
        "def others(ticks):\n"
        "    return sum(ticks.values()) - ticks[os.getpid()]\n"
        "before = cpu_ticks()\n"
        "for _ in range(25):\n"
        "    time.sleep(0.2)\n"
        "    now = cpu_ticks()\n"
        "    idle = others(now) == others(before)\n"
        "    before = now\n"
        "    if idle:\n"
        "        break\n"
        + workload +
        "after = cpu_ticks()\n"
        "pid = os.getpid()\n"
        "print(after[pid] - before[pid],\n"
        "      others(after) - others(before), len(after))\n")
    src = os.path.dirname(os.path.dirname(rvpmodes.__file__))
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=env, capture_output=True, text=True).stdout
    main, others, threads = map(int, out.split())
    assert threads >= 2, f"the child runs {threads} thread: no BLAS worker"
    return main, others


# --- independent routes to the on-axis transform (test oracles) -------------

def _half_line(f, tol, support, scale):
    """int_0^support f: on [0, support] if it is finite, else through the
    map of ``integrate_semi_infinite``."""
    if math.isfinite(support):
        return integrate_finite(f, 0.0, support, tol=tol)
    return integrate_semi_infinite(f, tol=tol, scale=scale)


def _eq_integral(eq, integrand, tol=1e-13):
    return _half_line(integrand, tol, eq.support_bound, eq.p_scale).value


def _beyond_oracle(mode, df0, y):
    """|y| >= kappa: (4 sigma / kappa^2) int F(|y|/kappa, v(p))
    (1+p^2)(-f0') dp with F(x, v) = x arctanh(v/x) - v, ``df0`` the f0'
    of ``mode.equilibrium``."""
    eq, x = mode.equilibrium, abs(y) / mode.kappa
    val = _eq_integral(eq, lambda p: f_cap(x, v_of_p(p)) * (1.0 + p * p)
                       * (-df0(p)))
    return complex(4.0 * mode.sigma / mode.kappa**2 * val)


def _origin_oracle(mode):
    """y = 0: -(4 sigma / kappa^2) int (u + p^2/u) f0 dp, u = sqrt(1+p^2)."""
    eq = mode.equilibrium

    def integrand(p):
        u = np.hypot(1.0, p)
        return (u + p * p / u) * eq.value(p)

    return complex(-4.0 * mode.sigma / mode.kappa**2
                   * _eq_integral(eq, integrand))


def _cauchy_oracle(mode, y):
    """Any y: (1/2pi) PV int b(s)/(y - s) ds + (i/2) b(y), the principal
    value in its symmetric form int_0^inf (b(y - u) - b(y + u))/u du, by
    plain QUADPACK on pieces split where b(y -/+ u) leaves its support
    |s| < kappa v(P)."""
    eq = mode.equilibrium
    edge = mode.kappa * (v_of_p(eq.support_bound)
                         if math.isfinite(eq.support_bound) else 1.0)

    def b(s):
        return beta_hat_envelope(mode, s)

    cuts = [0.0]
    for cut in sorted({abs(y - edge), abs(y + edge)}):
        if cut > cuts[-1] + 1e-12 * edge:  # no sliver piece where they meet
            cuts.append(cut)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unconverged oracle is no oracle
        pv = sum(quad(lambda u: (b(y - u) - b(y + u)) / u, lo, hi,
                      epsabs=1e-12, epsrel=1e-12, limit=500)[0]
                 for lo, hi in zip(cuts[:-1], cuts[1:]))
    return complex(pv / (2.0 * math.pi), 0.5 * b(y))


@st.composite
def axis_modes(draw):
    """A mode and the f0' of its equilibrium."""
    if draw(st.booleans()):
        theta = draw(st.floats(0.1, 2.0))
        eq, df0 = juttner(theta), juttner_derivative(theta)
    else:
        P = draw(st.floats(0.5, 3.0))
        eq, df0 = compact_decreasing(P), compact_derivative(P)
    return ModeSpec(kappa=draw(st.floats(0.2, 3.0)),
                    sigma=draw(st.sampled_from([1, -1])), equilibrium=eq,
                    profile=gaussian_profile(1.0, 1.0)), df0


class TestModeSpec:
    def test_validation(self, eq02):
        prof = gaussian_profile(1.0, 1.0)
        with pytest.raises(ValueError):
            ModeSpec(kappa=0.0, sigma=1, equilibrium=eq02, profile=prof)
        with pytest.raises(ValueError):
            ModeSpec(kappa=1.0, sigma=2, equilibrium=eq02, profile=prof)

    @pytest.mark.parametrize("kappa", [1e-300, 4e-103, 5.7e102, 1e150])
    def test_kernel_prefactor_out_of_range(self, eq02, kappa):
        # 4 pi/kappa^3 once raised a bare ZeroDivisionError or
        # OverflowError in the first envelope call
        prof = gaussian_profile(1.0, 1.0)
        with pytest.raises(ValueError, match="kernel prefactor"):
            ModeSpec(kappa=kappa, sigma=1, equilibrium=eq02, profile=prof)
        for ok in (4.3e-103, 5.6e102):
            ModeSpec(kappa=ok, sigma=1, equilibrium=eq02, profile=prof)


class TestTimeKernels:
    def test_alpha_at_zero_is_mass_moment(self, mode02, h02):
        assert alpha_direct(mode02, h02, 0.0).real == pytest.approx(
            math.pi ** 1.5, rel=1e-10)
        assert alpha_direct(mode02, h02, 0.0).imag == 0.0

    def test_alpha_even_in_t(self, mode02, h02):
        for t in (0.7, 3.0):
            assert alpha_direct(mode02, h02, -t) == pytest.approx(
                alpha_direct(mode02, h02, t), rel=1e-12, abs=0.0)

    def test_beta_zero_at_origin(self, mode02, df02):
        assert beta_direct(mode02, df02, 0.0) == 0.0

    def test_beta_real_and_odd(self, mode02, df02):
        for t in (0.5, 2.5):
            b = beta_direct(mode02, df02, t)
            assert isinstance(b, float)
            assert beta_direct(mode02, df02, -t) == pytest.approx(
                -b, rel=1e-10, abs=0.0)

    def test_beta_linear_in_sigma(self, eq02, df02):
        prof = gaussian_profile(1.0, 1.0)
        mp = ModeSpec(kappa=0.8, sigma=+1, equilibrium=eq02, profile=prof)
        mm = ModeSpec(kappa=0.8, sigma=-1, equilibrium=eq02, profile=prof)
        for t in (1.0, 4.0):
            assert beta_direct(mm, df02, t) == pytest.approx(
                -beta_direct(mp, df02, t), rel=1e-12, abs=0.0)


class TestTransforms:
    def test_support(self, mode02):
        ys = np.linspace(1.0, 30.0, 1000)
        assert np.all(alpha_hat(mode02, ys) == 0.0)
        assert np.all(beta_hat_envelope(mode02, ys) == 0.0)

    def test_parity(self, mode02):
        ys = np.linspace(0.05, 0.95, 19)
        assert np.allclose(alpha_hat(mode02, -ys), alpha_hat(mode02, ys))
        assert np.allclose(beta_hat_envelope(mode02, -ys),
                           -beta_hat_envelope(mode02, ys))

    def test_beta_hat_purely_imaginary_odd(self, mode02):
        for y in (0.2, 0.7):
            v = 1j * beta_hat_envelope(mode02, y)
            assert v.real == 0.0
            assert 1j * beta_hat_envelope(mode02, -y) == pytest.approx(-v)

    def test_beta_hat_zero_at_origin(self, mode02):
        assert 1j * beta_hat_envelope(mode02, 0.0) == 0.0

    def test_beta_hat_sign_definite_inside_support(self, mode02):
        # repulsive sign, strictly decreasing equilibrium
        ys = np.linspace(1e-3, 0.999, 200)
        b = beta_hat_envelope(mode02, ys)
        assert np.all(b > 0.0)

    def test_alpha_hat_at_zero(self, mode02, h02):
        ref = (2.0 * math.pi / mode02.kappa) * integrate_semi_infinite(
            lambda p: p * np.hypot(1.0, p) * h02.value(p),
            tol=1e-12).value
        assert alpha_hat(mode02, 0.0) == pytest.approx(ref, rel=1e-10)

    def test_fourier_consistency_at_t0(self, mode02, h02):
        # int alpha_hat dy over the support = alpha(0)
        val = 2.0 * integrate_finite(
            lambda y: alpha_hat(mode02, y), 0.0, mode02.kappa,
            tol=1e-10).value
        assert val == pytest.approx(alpha_direct(mode02, h02, 0.0).real,
                                    rel=1e-8)

    def test_zero_profile_inverts_to_zero(self, eq02):
        mode = ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 0.0))
        assert alpha_via_inverse(mode, 2.0) == 0.0

    def test_no_profile_raises(self, eq02):
        # the memory kernel reads the equilibrium only; alpha needs a profile
        mode = ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq02)
        assert beta_hat_envelope(mode, 0.5) > 0.0
        with pytest.raises(ValueError, match="perturbation profile"):
            alpha_hat(mode, 0.5)
        with pytest.raises(ValueError, match="perturbation profile"):
            sample_kernels(mode, np.linspace(0.0, 1.0, 11))


def _p_integral_tail(f, support, scale):
    """P -> int_P^inf f(p) dp, one adaptive quadrature per P: the oracle
    for the closed-form tails that every equilibrium carries and that
    every profile is."""
    def tail(P):
        P = np.asarray(P, dtype=float)
        vals = [0.0 if p0 >= support else _half_line(
            lambda q: f(q + p0), 1e-12, support - p0, scale).value
            for p0 in P.ravel()]
        return np.reshape(vals, P.shape)
    return tail


class TestTailFallback:
    """The envelopes built on p-integral tails equal those built on the
    closed forms, for every equilibrium and profile factory."""

    @pytest.mark.parametrize("eq, df0", [
        (juttner(0.2), juttner_derivative(0.2)),
        (compact_decreasing(1.5), compact_derivative(1.5))],
        ids=["eq0", "eq1"])
    def test_quadrature_tails_match_closed_forms(self, eq, df0):
        tail = _p_integral_tail(lambda p: (1.0 + p * p) * (-df0(p)),
                                eq.support_bound, eq.p_scale)
        # the closed form takes U = sqrt(1 + P^2)
        oracle_eq = dataclasses.replace(
            eq, tail_kernel_moment=lambda u: tail(np.sqrt((u - 1.0)
                                                          * (u + 1.0))))
        ys = np.array([0.0, 0.3, 0.8, 0.95, 0.99])
        for prof, h in ((gaussian_profile(1.0, 1.0),
                         gaussian_density(1.0, 1.0)),
                        (thermal_profile(0.5, 2.0),
                         thermal_density(0.5, 2.0))):
            oracle_prof = _p_integral_tail(
                lambda p: p * np.hypot(1.0, p) * h.value(p), math.inf,
                h.p_scale)
            mode = ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq, profile=prof)
            oracle = ModeSpec(kappa=1.0, sigma=+1, equilibrium=oracle_eq,
                              profile=oracle_prof)
            assert np.allclose(beta_hat_envelope(oracle, ys),
                               beta_hat_envelope(mode, ys), rtol=1e-9,
                               atol=1e-12)
            assert np.allclose(alpha_hat(oracle, ys), alpha_hat(mode, ys),
                               rtol=1e-9, atol=1e-12)
            assert beta_hat_envelope(oracle, 0.5) == pytest.approx(
                beta_hat_envelope(mode, 0.5), rel=1e-9)
            assert alpha_hat(oracle, 0.5) == pytest.approx(
                alpha_hat(mode, 0.5), rel=1e-9)


class TestCrossPath:
    @pytest.mark.parametrize("kappa", [0.5, 2.0])
    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_alpha_and_beta(self, eq02, df02, kappa, t):
        mode = ModeSpec(kappa=kappa, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        ad = alpha_direct(mode, gaussian_density(1.0, 1.0), t)
        ai = alpha_via_inverse(mode, t)
        bd, bi = beta_direct(mode, df02, t), beta_via_inverse(mode, t)
        assert rel_close(ad.real, ai.real, 1e-6)
        assert rel_close(bd, bi, 1e-6)

    def test_compact_equilibrium(self):
        mode = ModeSpec(kappa=1.0, sigma=+1,
                        equilibrium=compact_decreasing(1.5),
                        profile=gaussian_profile(1.0, 1.0))
        for t in (1.0, 5.0):
            assert rel_close(beta_direct(mode, compact_derivative(1.5), t),
                             beta_via_inverse(mode, t), 1e-6)

    def test_kernel_table_matches_direct(self, mode02, h02, df02):
        t = np.linspace(0.0, 30.0, 601)
        tab = sample_kernels(mode02, t, tol=1e-11)
        assert tab.alpha.dtype == tab.beta.dtype == np.float64
        for j in (0, 20, 200, 600):
            assert abs(tab.alpha[j] - alpha_direct(mode02, h02, t[j])) < 1e-8
            assert abs(tab.beta[j] - beta_direct(mode02, df02, t[j])) < 1e-8


class TestLaplaceOnAxis:
    def test_edge_value_is_threshold_ratio(self, eq02, kappa_crit_02):
        mode = ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        thr = kappa_crit_02 ** 2
        assert laplace_beta_imag(mode, 1.0).real == pytest.approx(
            thr, rel=1e-9, abs=0.0)

    def test_origin_closed_form(self, eq02):
        # attractive sign at y = 0 gives +threshold/kappa^2
        mode = ModeSpec(kappa=1.3, sigma=-1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        thr = threshold_astro(eq02).kappa_crit_sq
        v = laplace_beta_imag(mode, 0.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(thr / 1.3**2, rel=1e-9, abs=0.0)

    def test_decreasing_beyond_edge_and_tail(self, mode02):
        ys = [1.0, 1.5, 2.5, 5.0, 10.0]
        vals = [laplace_beta_imag(mode02, y).real for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)
        scaled = [laplace_beta_imag(mode02, r).real * r * r
                  for r in (10.0, 100.0, 1000.0)]
        assert max(scaled) < 1.0
        assert max(scaled) / min(scaled) < 1.01  # ~ 1/y^2 exactly

    def test_even_in_y_beyond_edge(self, mode02):
        for y in (1.2, 3.0):
            assert laplace_beta_imag(mode02, -y) == pytest.approx(
                laplace_beta_imag(mode02, y), rel=1e-10, abs=0.0)

    # the compact equilibrium on [0, 1.5] at kappa = 0.5: b vanishes for
    # |y| >= e = 0.5 v(1.5) = 0.416, inside the kappa of the mode
    COMPACT = ModeSpec(kappa=0.5, sigma=+1,
                       equilibrium=compact_decreasing(1.5),
                       profile=gaussian_profile(1.0, 1.0))

    def test_imaginary_part_inside_support(self, mode02):
        for y in (0.3, 0.8):
            v = laplace_beta_imag(mode02, y)
            assert v.imag == pytest.approx(
                0.5 * beta_hat_envelope(mode02, y), rel=1e-12, abs=0.0)
            assert v.imag != 0.0

    def test_imaginary_part_inside_support_compact(self):
        mode = self.COMPACT
        for y in (0.2, 0.35):
            v = laplace_beta_imag(mode, y)
            assert v.imag == pytest.approx(
                0.5 * beta_hat_envelope(mode, y), rel=1e-12)
            assert v.imag != 0.0
        # between e and kappa, and beyond kappa, b = 0 and W is real
        for y in (0.45, 0.7):
            assert beta_hat_envelope(mode, y) == 0.0
            assert laplace_beta_imag(mode, y).imag == 0.0

    @staticmethod
    def _continuity(mode, ys, bound_1e6):
        """W at x = 1e-6 within ``bound_1e6`` of the axis value, at
        x = 1e-12 within 10 tol."""
        tol = 1e-11
        for y in ys:
            axis = laplace_beta_imag(mode, y, tol=tol)
            for x, bound in ((1e-6, bound_1e6), (1e-12, 10 * tol)):
                off = laplace_beta_halfplane(mode, x, y, tol=tol)
                assert abs(axis - off) < bound

    def test_continuity_from_half_plane(self, mode02):
        self._continuity(mode02, (0.0, 0.5, 1.3), 1e-5)

    def test_continuity_from_half_plane_compact(self):
        # inside e, between e and kappa, and beyond kappa; W moves by
        # 1.14e-5 at y = 0.35 from the axis to x = 1e-6, linearly in x
        self._continuity(self.COMPACT, (0.0, 0.2, 0.35, 0.45, 0.7), 2e-5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_input_raises(self, mode02, bad):
        # a NaN in a batch used to run the panel loop to its cap and come
        # back unflagged, because err > tol is False for NaN
        for y in (bad, np.array([0.1, bad, 0.5])):
            with pytest.raises(ValueError, match="y must be finite"):
                laplace_beta_imag(mode02, y)
            with pytest.raises(ValueError, match="y must be finite"):
                laplace_beta_halfplane(mode02, 0.5, y)
        with pytest.raises(ValueError, match="finite x >= 0"):
            laplace_beta_halfplane(mode02, bad, np.array([0.1, 0.5]))

    def test_alpha_tail_matches_principal_value(self, mode02, h02):
        for y in (1.0, 2.0):
            tail = laplace_alpha_imag_tail(mode02, h02, y)
            pv = integrate_finite(
                lambda tau: alpha_hat(mode02, y - tau) / tau,
                max(y - 1.0, 1e-12), y + 1.0, tol=1e-11).value
            assert tail.real == 0.0
            assert tail.imag == pytest.approx(-pv / (2.0 * math.pi),
                                              rel=1e-8, abs=0.0)


class TestAxisEvaluatorOracles:
    TOL = 1e-10

    @pytest.mark.parametrize("y", [0.425, 0.375])
    def test_readme_dispersion_mode_meets_tol(self, eq02, y):
        # an adaptive per-y principal-value loop was off by 9.7e-10 at
        # y = 0.425 and 5.6e-10 at y = 0.375 even at tol = 1e-13
        mode = ModeSpec(kappa=0.46, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        tol = 1e-13
        assert abs(laplace_beta_imag(mode, y, tol=tol)
                   - _cauchy_oracle(mode, y)) <= 10 * tol

    @settings(max_examples=25, deadline=None)
    @given(case=axis_modes(), inner=st.floats(-0.99, 0.99),
           outer=st.floats(1.0, 20.0))
    # QUADPACK's Cauchy weight reported roundoff here (y = 0.1171875)
    @example(case=(ModeSpec(kappa=0.5, sigma=1,
                            equilibrium=compact_decreasing(0.609375),
                            profile=gaussian_profile(1.0, 1.0)),
                   compact_derivative(0.609375)),
             inner=0.234375, outer=1.0)
    # y = 2.2e-16 split off a piece 4.4e-16 wide that QUADPACK refused
    @example(case=(ModeSpec(kappa=1.0, sigma=1,
                            equilibrium=compact_decreasing(1.0),
                            profile=gaussian_profile(1.0, 1.0)),
                   compact_derivative(1.0)),
             inner=2.220446049250313e-16, outer=1.0)
    def test_batch_matches_oracles(self, case, inner, outer):
        mode, df0 = case
        kap = mode.kappa
        ys = np.array([0.0, inner * kap, outer * kap, -outer * kap])
        w = laplace_beta_imag(mode, ys, tol=self.TOL)
        assert abs(w[0] - _origin_oracle(mode)) <= 10 * self.TOL
        assert abs(w[1] - _cauchy_oracle(mode, ys[1])) <= 10 * self.TOL
        for k in (2, 3):
            assert abs(w[k] - _beyond_oracle(mode, df0, ys[k])) \
                <= 10 * self.TOL

    @pytest.mark.parametrize("eq, df0", [
        *(pytest.param(juttner(th), juttner_derivative(th), id=f"theta={th:g}")
          for th in (1e-3, 0.2, 0.5, 100.0, 1e4)),
        *(pytest.param(compact_decreasing(P), compact_derivative(P),
                       id=f"P={P:g}") for P in (1.0, 10.0))])
    def test_near_node_slope_meets_chain_rule(self, eq, df0, monkeypatch):
        # The patch for y on a node, or within 1e-5 kappa of one, reads b'
        # at two points between them, by the complex step of b.  With r
        # formed as the complex quotient z/kappa, r rounded one ulp off
        # near |y| = kappa: b' moved by 7.9e-11 of max|b'| at theta = 100
        # and by 6.2e-8 at theta = 1e4.  For compact, y mirrored about e
        # puts the two points on either side of it.
        mode = ModeSpec(kappa=0.46, sigma=1, equilibrium=eq)
        edge = math.atan(eq.support_bound)
        e = mode.kappa * math.sin(edge)
        seen = []
        b_prime = spectral._b_prime

        def record(mode, y, e):
            out = b_prime(mode, y, e)
            seen.append((y, out))
            return out

        monkeypatch.setattr(spectral, "_b_prime", record)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # theta = 1e-3
            for n in (8, 1024):
                phi, _ = gauss_legendre_nodes([-edge, 0.0, edge], n)
                s = mode.kappa * np.sin(np.concatenate(
                    [phi[:4], phi[::251], phi[-4:]]))
                z = np.concatenate([s, s + 0.7e-5 * mode.kappa,
                                    s - 0.7e-5 * mode.kappa, 2.0 * e - s])
                spectral._cauchy_sums(mode, z, beta_hat_envelope(mode, z),
                                      edge, n)
        y = np.concatenate([y for y, _ in seen])
        got = np.concatenate([b for _, b in seen])
        ref = beta_envelope_slope(mode, df0, y)
        assert np.max(np.abs(got - ref)) <= 5e-13 * np.max(np.abs(ref))
        if math.isfinite(eq.support_bound):
            assert np.any(y > e) and np.all(got[y >= e] == 0.0)

    def test_y_on_quadrature_node(self, mode02):
        # The evaluator's first two grids put nodes at s = kappa sin(phi),
        # phi on 8 and 16 Gauss-Legendre panels per half of
        # [-pi/2, pi/2]; y on a node makes b(s) - b(y) vanish exactly on
        # the axis, and nearly so at x = 1e-12 off it.  At x = 5e-323,
        # x/2pi is subnormal, and 1/(x/2pi) overflowed in the quotient.
        for n in (8, 16):
            phi, _ = gauss_legendre_nodes([-0.5 * math.pi, 0.0,
                                           0.5 * math.pi], n)
            ys = mode02.kappa * np.sin(phi[::9])
            ref = np.array([_cauchy_oracle(mode02, y) for y in ys])
            for w in (laplace_beta_imag(mode02, ys, tol=self.TOL),
                      laplace_beta_halfplane(mode02, 1e-12, ys,
                                             tol=self.TOL),
                      laplace_beta_halfplane(mode02, 5e-323, ys,
                                             tol=self.TOL)):
                assert np.all(np.abs(w - ref) <= 10 * self.TOL)

    def test_array_matches_scalar_calls(self, mode02):
        ys = np.array([[0.0, 0.3, -0.7], [1.0, 1.5, -4.0]])
        w = laplace_beta_imag(mode02, ys, tol=self.TOL)
        assert w.shape == ys.shape and np.iscomplexobj(w)
        for idx in np.ndindex(ys.shape):
            v = laplace_beta_imag(mode02, float(ys[idx]), tol=self.TOL)
            assert isinstance(v, complex)
            assert abs(w[idx] - v) <= 10 * self.TOL


class TestLaplaceHalfPlane:
    TOL = 1e-10

    def test_requires_finite_nonnegative_x(self, mode02):
        for x in (-0.5, -1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite x >= 0"):
                laplace_beta_halfplane(mode02, x, 1.0)
        # 1e-323 / (2 pi) rounds to 0: z on the axis, where W is its limit
        for x in (0.0, -0.0, 1e-323):
            assert (laplace_beta_halfplane(mode02, x, 0.3)
                    == laplace_beta_imag(mode02, 0.3))

    @pytest.mark.parametrize("mode", [
        ModeSpec(kappa=1.0, sigma=+1, equilibrium=juttner(0.2),
                 profile=gaussian_profile(1.0, 1.0)),
        ModeSpec(kappa=0.5, sigma=-1, equilibrium=compact_decreasing(1.5),
                 profile=gaussian_profile(1.0, 1.0))], ids=["juttner",
                                                           "compact"])
    def test_axis_is_x_zero_bit_for_bit(self, mode):
        ys = np.array([-1.3, -0.45, 0.0, 0.2, 0.35, 0.4, 0.45, 0.7, 1.0,
                       2.5])
        axis = laplace_beta_imag(mode, ys, tol=self.TOL)
        assert np.array_equal(
            laplace_beta_halfplane(mode, 0.0, ys, tol=self.TOL), axis)
        for y in ys:  # a scalar is a batch of one, with its own panels
            assert (laplace_beta_halfplane(mode, 0.0, float(y), tol=self.TOL)
                    == laplace_beta_imag(mode, float(y), tol=self.TOL))

    @settings(max_examples=25, deadline=None)
    @given(case=axis_modes(), log_x=st.floats(-6.0, math.log10(5.0)),
           inner=st.floats(-0.99, 0.99), outer=st.floats(1.0, 20.0))
    # cold, far off the axis: subtracting the continued b(z) here, which
    # outgrows the envelope by e^{(1 - Re U)/theta}, changed by 5.6e20 at
    # the panel cap
    @example(case=(ModeSpec(kappa=0.2, sigma=1, equilibrium=juttner(0.01),
                            profile=gaussian_profile(1.0, 1.0)),
                   juttner_derivative(0.01)),
             log_x=math.log10(5.0), inner=0.3, outer=2.0)
    def test_batch_matches_momentum_oracle(self, case, log_x, inner, outer):
        # e is the support edge of b: kappa, or kappa v(P) if compact
        mode, df0 = case
        x = 10.0 ** log_x
        eq = mode.equilibrium
        e = mode.kappa * (v_of_p(eq.support_bound)
                          if math.isfinite(eq.support_bound) else 1.0)
        ys = np.array([0.0, inner * e, e, -e, outer * e, -outer * e])
        w = laplace_beta_halfplane(mode, x, ys, tol=self.TOL)
        for y, val in zip(ys, w):
            ref = laplace_beta_halfplane_momentum(mode, df0, x, float(y),
                                                  tol=1e-13)
            assert abs(val - ref) <= 10 * self.TOL

    def test_real_axis_negative_for_repulsive(self, mode02):
        for x in (0.2, 1.0, 5.0):
            v = laplace_beta_halfplane(mode02, x, 0.0)
            assert abs(v.imag) < 1e-12
            assert v.real < 0.0

    def test_imag_sign_matches_frequency_sign(self, mode02):
        for y in (0.3, 1.0):
            assert laplace_beta_halfplane(mode02, 0.5, y).imag > 0.0
            assert laplace_beta_halfplane(mode02, 0.5, -y).imag < 0.0

    @needs_thread_ticks
    def test_leaves_blas_threads_idle(self):
        # the complex Cauchy sums once ran as a zgemv, and the BLAS worker
        # burned as much CPU as the main thread over 40 such calls; 120
        # give the main thread enough ticks for a 5 % margin to hold one
        main, others = blas_worker_ticks(
            "from rvpmodes.spectral import laplace_beta_halfplane\n"
            "mode = ModeSpec(kappa=0.46, sigma=1, equilibrium=juttner(0.2),\n"
            "                profile=thermal_profile(0.2, 1.0))\n"
            "ys = np.linspace(0.0, 2.0, 81)\n"
            "for x in np.linspace(0.05, 2.0, 120):\n"
            "    laplace_beta_halfplane(mode, float(x), ys)\n")
        assert others <= 0.05 * main, (main, others)

    def test_time_domain_laplace_oracle(self, mode02):
        x, y = 0.7, 0.9
        val = laplace_beta_halfplane(mode02, x, y)
        tgrid = np.linspace(0.0, 40.0, 4001)
        tab = sample_kernels(mode02, tgrid, tol=1e-12)
        spline = CubicSpline(tgrid, tab.beta)
        osc = integrate_oscillatory(
            lambda t: spline(t) * np.exp(-x * np.asarray(t)),
            -2.0 * math.pi * y, 0.0, 40.0, tol=1e-9)
        assert abs(val - osc.value) < 1e-6


def _threshold_on_adaptive_route(threshold, eq):
    """``threshold(eq)`` with its momentum integral on the adaptive route
    at tol 1e-13."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "integrate_finite",
                   lambda f, a, b, tol: integrate_adaptive(f, a, b, tol=1e-13))
        mp.setattr(spectral, "integrate_semi_infinite",
                   lambda f, tol, scale: integrate_semi_infinite_adaptive(
                       f, tol=1e-13, scale=scale))
        return threshold(eq).kappa_crit_sq


class TestThresholds:
    def test_identity_pairs(self):
        for theta in (0.05, 0.2, 1.0, 5.0):
            eq, df0 = juttner(theta), juttner_derivative(theta)
            a = threshold_plasma(eq).kappa_crit_sq
            b = threshold_plasma_from_derivative(eq, df0)
            assert rel_close(a, b, 1e-8)
            c = threshold_astro(eq).kappa_crit_sq
            d = threshold_astro_from_derivative(eq, df0)
            assert rel_close(c, d, 1e-8)
        eq, df0 = compact_decreasing(1.5), compact_derivative(1.5)
        assert rel_close(threshold_plasma(eq).kappa_crit_sq,
                         threshold_plasma_from_derivative(eq, df0), 1e-8)
        assert rel_close(threshold_astro(eq).kappa_crit_sq,
                         threshold_astro_from_derivative(eq, df0), 1e-8)

    def test_high_precision_oracle_value(self):
        # frozen from a 30-digit thermal-equilibrium quadrature of
        # 4 int p (2 asinh p - v) f0 dp at theta = 0.2 (independent of the
        # package's quadrature and Bessel paths)
        ours = threshold_plasma(juttner(0.2), tol=1e-13).kappa_crit_sq
        assert ours == pytest.approx(0.3310273713533483182, rel=1e-12, abs=0.0)

    def test_astro_thermal_closed_form(self):
        # for the thermal equilibrium the attractive threshold integral
        # collapses to exactly 1/(pi theta)
        for theta in (0.05, 0.2, 1.0, 4.0):
            thr = threshold_astro(juttner(theta)).kappa_crit_sq
            assert thr == pytest.approx(1.0 / (math.pi * theta), rel=1e-10,
                                        abs=0.0)

    @pytest.mark.parametrize("sigma", [+1, -1])
    @pytest.mark.parametrize("theta", np.logspace(-4.0, 6.0, 21))
    def test_thermal_thresholds_within_tol(self, sigma, theta):
        # attractive: exactly 1/(pi theta); repulsive: the adaptive route
        # at 1e-13.  rel 1e-13 allows for the scaled-Bessel normalisation
        # of a cold equilibrium (1.8e-14 at theta = 1e-4).  The hot cases
        # theta = 316.2 (+1) and 1000 (-1) need the split at p = 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cold regime
            eq = juttner(float(theta))
        if sigma == +1:
            ours = threshold_plasma(eq, tol=1e-11).kappa_crit_sq
            ref = _threshold_on_adaptive_route(threshold_plasma, eq)
        else:
            ours = threshold_astro(eq, tol=1e-11).kappa_crit_sq
            ref = 1.0 / (math.pi * theta)
        assert ours == pytest.approx(ref, abs=1e-11, rel=1e-13)

    @pytest.mark.parametrize("sigma", [+1, -1])
    @pytest.mark.parametrize("support", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_compact_thresholds_match_adaptive_route(self, sigma, support):
        eq = compact_decreasing(support)
        thr = threshold_plasma if sigma == +1 else threshold_astro
        assert thr(eq, tol=1e-11).kappa_crit_sq == pytest.approx(
            _threshold_on_adaptive_route(thr, eq), abs=1e-11, rel=1e-13)

    def test_astro_decreasing_toward_zero(self):
        vals = [threshold_astro(juttner(th)).kappa_crit_sq
                for th in (1.0, 5.0, 25.0)]
        assert vals[0] > vals[1] > vals[2]


class TestKappaCritSq:
    @pytest.mark.parametrize("eq", [juttner(0.2), juttner(5.0),
                                    compact_decreasing(1.5)],
                             ids=["theta0.2", "theta5", "compact1.5"])
    @pytest.mark.parametrize("tol", [(1e-9,), (1e-11,), ()],
                             ids=["1e-9", "1e-11", "default"])
    def test_pairs_each_sign_with_its_threshold(self, eq, tol):
        assert kappa_crit_sq(eq, +1, *tol) == \
            threshold_plasma(eq, *tol).kappa_crit_sq
        assert kappa_crit_sq(eq, -1, *tol) == \
            threshold_astro(eq, *tol).kappa_crit_sq

    @pytest.mark.parametrize("sigma", [0, 2, -2, 1.5])
    def test_other_sign_raises(self, eq02, sigma):
        with pytest.raises(ValueError, match="sigma"):
            kappa_crit_sq(eq02, sigma)


@pytest.fixture(scope="module")
def kc2_02(eq02):
    return kappa_crit_sq(eq02, +1)


class TestDispersionRoot:
    def test_supercritical_has_no_crossing(self, eq02, kappa_crit_02,
                                           kc2_02):
        mode = ModeSpec(kappa=1.05 * kappa_crit_02, sigma=+1,
                        equilibrium=eq02, profile=gaussian_profile(1.0, 1.0))
        assert find_y0(mode, kc2_02) is None

    def test_critical_boundary(self, eq02, kappa_crit_02, kc2_02):
        mode = ModeSpec(kappa=kappa_crit_02, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        y0 = find_y0(mode, kc2_02)
        assert y0 == pytest.approx(kappa_crit_02, abs=1e-6)

    def test_subcritical_crossing(self, eq02, kappa_crit_02, kc2_02):
        mode = ModeSpec(kappa=0.8 * kappa_crit_02, sigma=+1,
                        equilibrium=eq02, profile=gaussian_profile(1.0, 1.0))
        y0 = find_y0(mode, kc2_02)
        assert y0 is not None and y0 >= mode.kappa
        assert abs(laplace_beta_imag(mode, y0).real - 1.0) < 1e-8
        # independent bracket scan: the crossing lies where the coarse
        # samples change sign
        ys = np.linspace(mode.kappa, 4.0 * mode.kappa, 60)
        vals = np.array([laplace_beta_imag(mode, float(y)).real - 1.0
                         for y in ys])
        idx = np.nonzero(np.diff(np.sign(vals)))[0]
        assert len(idx) == 1
        assert ys[idx[0]] <= y0 <= ys[idx[0] + 1]

    def test_small_kappa_has_crossing_above_edge(self, eq02, kc2_02):
        mode = ModeSpec(kappa=0.05, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        y0 = find_y0(mode, kc2_02)
        assert y0 is not None and y0 > mode.kappa

    @pytest.mark.parametrize("kappa", [0.3, 0.4, 0.5])
    def test_crossing_equals_scipy_brentq(self, kappa, kc2_02):
        # README sweep, sigma = +1: its subcritical rows
        from scipy.optimize import brentq
        theta = 0.2
        mode = ModeSpec(kappa=kappa, sigma=+1, equilibrium=juttner(theta),
                        profile=thermal_profile(theta, 1.0))
        theirs = brentq(lambda y: laplace_beta_imag(mode, y, tol=1e-10).real
                        - 1.0, kappa, 2.0 * kappa, xtol=1e-12)
        assert abs(find_y0(mode, kc2_02, tol=1e-10) - theirs) <= 2e-12

    def test_nonfinite_transform_raises(self, monkeypatch, kc2_02):
        mode = ModeSpec(kappa=0.4, sigma=+1, equilibrium=juttner(0.2),
                        profile=thermal_profile(0.2, 1.0))
        calls = []

        def nan_on_fifth(mode, y, tol):
            calls.append(y)
            return (complex(math.nan) if len(calls) == 5
                    else laplace_beta_imag(mode, y, tol=tol))

        monkeypatch.setattr(spectral, "laplace_beta_imag", nan_on_fifth)
        with pytest.raises(RuntimeError, match="nan"):
            find_y0(mode, kc2_02, tol=1e-10)
        assert len(calls) == 5

    @pytest.mark.parametrize("delta", [-1e-12, 0.0, 1e-12])
    @pytest.mark.parametrize("eq", [juttner(0.05), juttner(0.2), juttner(1.0),
                                    juttner(5.0), compact_decreasing(1.5)],
                             ids=["theta0.05", "theta0.2", "theta1",
                                  "theta5", "compact1.5"])
    def test_no_crossing_exactly_when_supercritical(self, eq, delta):
        # the comparison the sweep's supercritical flag makes
        kc2 = kappa_crit_sq(eq, +1)
        kappa = math.sqrt(kc2) * (1.0 + delta)
        mode = ModeSpec(kappa=kappa, sigma=+1, equilibrium=eq,
                        profile=gaussian_profile(1.0, 1.0))
        y0 = find_y0(mode, kc2)
        assert (y0 is None) == (kappa * kappa > kc2)
        if kappa * kappa == kc2:
            assert y0 == kappa
        elif y0 is not None:
            assert y0 >= kappa

    def test_rejects_attractive_sign(self, eq02, kc2_02):
        mode = ModeSpec(kappa=0.5, sigma=-1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        with pytest.raises(ValueError):
            find_y0(mode, kc2_02)

    @pytest.mark.parametrize("kappa,crossing", [(0.3, True), (0.5, True),
                                                (0.9, False)])
    def test_decision_is_the_callers(self, eq02, kappa, crossing):
        # no threshold of its own: the kc2 passed in alone decides None,
        # and kappa^2 == kc2 puts the crossing at kappa itself
        mode = ModeSpec(kappa=kappa, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        assert find_y0(mode, kappa * kappa) == kappa
        assert find_y0(mode, 0.5 * kappa * kappa) is None
        assert (find_y0(mode, kappa_crit_sq(eq02, +1)) is not None) \
            == crossing


class TestSupercriticalCertificate:
    def test_transform_never_reaches_one(self, eq02, kappa_crit_02):
        kap = 1.05 * kappa_crit_02
        mode = ModeSpec(kappa=kap, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        # real branch: signed value < 1 everywhere (max sits at the edge)
        ys = np.concatenate([[0.0], np.linspace(kap, 50.0 * kap, 60)])
        vals = [laplace_beta_imag(mode, float(y)).real for y in ys]
        assert max(vals) < 1.0
        # inside the support the imaginary part is nonzero
        for y in np.linspace(0.05 * kap, 0.95 * kap, 10):
            assert laplace_beta_imag(mode, float(y)).imag != 0.0


class TestRationalBound:
    @pytest.mark.parametrize("m,t_sup", [(2, 5.0), (4, 10.0)])
    def test_alpha_rational_envelope(self, mode02, m, t_sup):
        t = np.linspace(0.0, 200.0, 4001)
        tab = sample_kernels(mode02, t, tol=1e-11)
        d_m, t_at, ok = rational_bound_check(t, np.abs(tab.alpha), m,
                                             mode02.kappa)
        assert ok and math.isfinite(d_m)
        assert t_at < t_sup


class TestKernelTableChirpZ:
    @pytest.mark.parametrize("n,m", [(64, 3), (1024, 15001), (8192, 30001)])
    def test_czt_equals_scipy_bit_for_bit(self, n, m):
        from scipy.signal import czt
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        w = np.exp(1j * 2.0 * math.pi * 0.02 * 1.2 / n)
        ref = czt(x, m=m, w=w, a=1.0 + 0.0j, axis=0)
        assert np.array_equal(_czt(x, m, w), ref)

    def test_long_horizon_table_takes_chirp_z(self, monkeypatch):
        # omegas 2 pi t up to t = 2400 carry rounding of 1.8e-12, past the
        # absolute 1e-12 that the uniform-grid test once allowed: 120 001
        # samples then fell back to the O(P T) direct panel sum
        lengths = []
        czt = quadrature._czt

        def spy(x, m, w, chirp=None):
            lengths.append(m)
            return czt(x, m, w, chirp)
        monkeypatch.setattr(quadrature, "_czt", spy)
        mode = ModeSpec(kappa=1.2, sigma=+1, equilibrium=juttner(0.5),
                        profile=thermal_profile(0.5, 1.0))
        t = 0.02 * np.arange(120001)
        tab = sample_kernels(mode, t)
        assert t.size in lengths
        # three samples with the same t.max share the probes, so the
        # panels; the oracle's direct panel sum tabulates them, and both
        # routes round the phase omega y, y <= kappa, to eps omega kappa
        idx = [50000, 85000, 120000]
        monkeypatch.setattr(quadrature, "filon_sums", filon_sums_direct)
        direct = sample_kernels(mode, t[idx])
        rounding = np.finfo(float).eps * 2.0 * math.pi * t[-1] * mode.kappa
        for fast, slow in ((tab.alpha, direct.alpha), (tab.beta, direct.beta)):
            assert np.max(np.abs(fast[idx] - slow)) \
                <= rounding * np.max(np.abs(fast))
        # the direct kernels' quadrature runs out of panels by t = 2400
        for j in idx[:2]:
            assert abs(tab.alpha[j] - alpha_direct(
                mode, thermal_density(0.5, 1.0), t[j])) < 1e-10
            assert abs(tab.beta[j] - beta_direct(
                mode, juttner_derivative(0.5), t[j])) < 1e-10

    def test_shuffled_grid_is_refused(self):
        # a non-uniform grid once fell back to the direct panel sum
        mode = ModeSpec(kappa=1.2, sigma=+1, equilibrium=juttner(0.5),
                        profile=thermal_profile(0.5, 1.0))
        t = np.random.default_rng(5).permutation(0.02 * np.arange(101))
        with pytest.raises(ValueError, match="uniform grid of omegas"):
            sample_kernels(mode, t)

    def test_half_step_table_memory(self):
        # the README evolve --refine's half-step table, the peak of its
        # process: alpha and beta come from one real row of sums each,
        # scaled in place (the complex sums traced 10.4 T-length complex
        # vectors, whole-node-array envelopes and a (P, 4) shifted copy
        # 8.93; 8.82 now)
        mode = ModeSpec(kappa=1.2, sigma=+1, equilibrium=juttner(0.5),
                        profile=thermal_profile(0.5, 1.0))
        t = 0.01 * np.arange(30001)
        sample_kernels(mode, t)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tab = sample_kernels(mode, t)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tab.alpha.dtype == tab.beta.dtype == float
        assert peak <= 9.6 * t.size * np.dtype(complex).itemsize

    def test_criterion_6_table_memory(self, monkeypatch):
        # acceptance criterion 6's tables, tol 1e-12: 8 192 panels for
        # 5 001 samples, so the panel-sized arrays set the peak.  The
        # envelopes are evaluated in node blocks into one stack, the
        # chirp-z transform shifts one node column at a time, and the
        # probes' direct sum copies one envelope's columns and forms its
        # phase in place: 4.43 last-pass stacks of (2, 8192, 4) float64 (2.32
        # MB); whole-node-array envelopes, a (P, 4) shifted copy and a
        # (K, 4, P) transposed one traced 6.57 (3.44 MB)
        eq = juttner(0.5)
        mode = ModeSpec(kappa=2.0 * math.sqrt(threshold_plasma(eq)
                                              .kappa_crit_sq),
                        sigma=+1, equilibrium=eq,
                        profile=thermal_profile(0.5, 1.0))
        t = 0.01 * np.arange(5001)
        panels = []
        sums = quadrature.filon_sums

        def spy(env, a, b, omegas, parts=None):
            panels.append(np.shape(env)[-2])
            return sums(env, a, b, omegas, parts)
        monkeypatch.setattr(quadrature, "filon_sums", spy)
        sample_kernels(mode, t, tol=1e-12)
        assert panels[-1] == 8192
        monkeypatch.setattr(quadrature, "filon_sums", sums)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sample_kernels(mode, t, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        stack = 2 * 4 * panels[-1] * np.dtype(float).itemsize
        assert peak <= 5.0 * stack, peak / stack

    @pytest.mark.parametrize("which", ["juttner", "compact"])
    def test_node_blocks_equal_one_block(self, which, monkeypatch):
        # both envelopes are elementwise, so the blocks of nodes they are
        # evaluated in cannot move a bit; the compact mode's Gaussian
        # profile runs erfcx, and 7 leaves a ragged last block
        mode = (ModeSpec(kappa=1.2, sigma=+1, equilibrium=juttner(0.5),
                         profile=thermal_profile(0.5, 1.0))
                if which == "juttner" else
                ModeSpec(kappa=0.5, sigma=+1,
                         equilibrium=compact_decreasing(1.5),
                         profile=gaussian_profile(1.0, 1.0)))
        t = 0.02 * np.arange(2001)
        tabs = []
        for block in (10 ** 9, 1000, 7):
            monkeypatch.setattr(spectral, "_NODE_BLOCK", block)
            tabs.append(sample_kernels(mode, t, tol=1e-9))
        for tab in tabs[1:]:
            assert np.array_equal(tab.alpha, tabs[0].alpha)
            assert np.array_equal(tab.beta, tabs[0].beta)
            assert tab.abs_error == tabs[0].abs_error

    def test_tables_do_not_import_signal_module(self):
        code = ("import sys\n"
                "import numpy as np\n"
                "import rvpmodes.cli\n"
                "from rvpmodes.equilibria import gaussian_profile, juttner\n"
                "from rvpmodes.spectral import ModeSpec, sample_kernels\n"
                "mode = ModeSpec(kappa=1.0, sigma=1, equilibrium=juttner(0.2),"
                " profile=gaussian_profile(1.0, 1.0))\n"
                "sample_kernels(mode, np.linspace(0.0, 20.0, 201))\n"
                "assert 'scipy.signal' not in sys.modules\n")
        src = os.path.dirname(os.path.dirname(rvpmodes.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    @needs_thread_ticks
    def test_tables_leave_blas_threads_idle(self):
        # the README sweep's tables (sigma = +1) once burned as much CPU
        # in the BLAS workers as in the main thread
        main, others = blas_worker_ticks(
            "from rvpmodes.spectral import sample_kernels\n"
            "times = 0.02 * np.arange(10001)\n"
            "for kappa in np.linspace(0.3, 1.4, 12):\n"
            "    mode = ModeSpec(kappa=float(kappa), sigma=1,\n"
            "                    equilibrium=juttner(0.2),\n"
            "                    profile=thermal_profile(0.2, 1.0))\n"
            "    sample_kernels(mode, times, tol=1e-9)\n")
        assert others <= 0.05 * main, (main, others)


class TestKernelTableTolerance:
    def test_panel_cap_short_of_tol_raises(self, monkeypatch):
        # README evolve mode: 128 panels leave a probe change ~1e-6
        mode = ModeSpec(kappa=1.2, sigma=+1, equilibrium=juttner(0.5),
                        profile=thermal_profile(0.5, 1.0))
        t = np.linspace(0.0, 300.0, 15001)
        monkeypatch.setattr(quadrature, "_FILON_MAX_PANELS", 128)
        with pytest.raises(QuadratureError) as info:
            sample_kernels(mode, t, tol=1e-15)
        assert info.value.result.abs_error_estimate > 1e-15

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_bad_tol_raises(self, mode02, tol):
        with pytest.raises(ValueError):
            sample_kernels(mode02, np.linspace(0.0, 10.0, 11), tol=tol)
        with pytest.raises(ValueError):
            laplace_beta_imag(mode02, np.array([0.1, 0.5]), tol=tol)

    def test_reached_tol_is_reported(self, mode02):
        tab = sample_kernels(mode02, np.linspace(0.0, 30.0, 601), tol=1e-11)
        assert tab.abs_error <= 1e-11

    def test_nan_change_raises(self, mode02, monkeypatch):
        # an envelope that yields NaN once passed both convergence guards:
        # the table came back all NaN at 128 panels, and the transform ran
        # to its panel cap and returned NaN
        eq = dataclasses.replace(
            mode02.equilibrium,
            tail_kernel_moment=lambda u: np.full(np.shape(u), np.nan))
        mode = dataclasses.replace(mode02, equilibrium=eq)
        with pytest.raises(QuadratureError):
            sample_kernels(mode, np.linspace(0.0, 10.0, 11))
        panels, cauchy_sums = [], spectral._cauchy_sums

        def spy(*args):
            panels.append(args[-1])
            return cauchy_sums(*args)

        monkeypatch.setattr(spectral, "_cauchy_sums", spy)
        with pytest.raises(QuadratureError):
            laplace_beta_imag(mode, np.array([0.1, 0.5]))
        assert panels == [8, 16]  # a NaN change stops the doubling

    @pytest.mark.parametrize("eq", [
        lambda: compact_decreasing(1e-20), lambda: compact_decreasing(1e-6),
        lambda: juttner(1e-11)], ids=["P=1e-20", "P=1e-6", "theta=1e-11"])
    def test_zero_beta_table_raises(self, eq):
        # no Filon node lands inside the envelope's support (or the cold
        # envelope underflows at every node): the table was beta = 0 at
        # every sample, an uncoupled mode written out as this one
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cold regime
            mode = ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq(),
                            profile=thermal_profile(0.2, 1.0))
        with pytest.raises(QuadratureError, match="beta is 0 at every"):
            sample_kernels(mode, 0.05 * np.arange(101), tol=1e-9)

    @pytest.mark.parametrize("theta", [1e-10, 1e-11])
    def test_zero_dispersion_raises(self, theta):
        # the cold envelope underflows at every Cauchy node, so two passes
        # read W = 0 and agreed: W = 0 came back as converged where the
        # cold limit 1/(pi y^2) is 5.09 and 0.318, on the axis and off it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cold regime
            mode = ModeSpec(kappa=0.5, sigma=+1, equilibrium=juttner(theta))
        for x, y in ((0.0, np.array([0.25, 1.0])), (0.0, 0.25),
                     (0.5, np.array([0.25, 1.0]))):
            with pytest.raises(QuadratureError,
                               match="W is 0 at every point"):
                laplace_beta_halfplane(mode, x, y)

    def test_zero_dispersion_raises_off_the_support(self):
        # y = 1.0 lies beyond kappa = 0.5, where b(y) is 0 anyway: the
        # refusal reads b at the Cauchy nodes, which all underflow
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cold regime
            mode = ModeSpec(kappa=0.5, sigma=+1, equilibrium=juttner(1e-10))
        with pytest.raises(QuadratureError, match="W is 0 at every point"):
            laplace_beta_imag(mode, 1.0)

    @pytest.mark.parametrize("eq", [lambda: juttner(0.2),
                                    lambda: compact_decreasing(1.5)],
                             ids=["juttner", "compact"])
    def test_least_kappa_refused_without_warning(self, eq):
        # at kappa = 4.3e-103, 4 pi/kappa^3 is 1.6e308: b' at the nodes
        # next to y = 0 overflowed in their sum, and a RuntimeWarning came
        # out ahead of the QuadratureError
        mode = ModeSpec(kappa=4.3e-103, sigma=+1, equilibrium=eq())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="dispersion"):
                laplace_beta_imag(mode, np.linspace(0.0, 2.0, 5), tol=1e-9)

    def test_far_field_underflow_is_returned(self):
        # b is a normal envelope; every quotient b(s)/(y - s) underflows
        # at y = 1.7e308, and W = 0 there is the value, not a refusal
        mode = ModeSpec(kappa=0.46, sigma=+1, equilibrium=juttner(0.2))
        assert laplace_beta_imag(mode, 1.7e308) == 0.0
        assert 0.0 < abs(laplace_beta_imag(mode, 1e305)) < 1e-300
