import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from rvpmodes.equilibria import (compact_decreasing, gaussian_profile,
                                 juttner)
from rvpmodes.quadrature import (gauss_legendre_nodes, integrate_finite,
                                 integrate_oscillatory,
                                 integrate_semi_infinite)
from rvpmodes.relkin import f_cap, v_of_p
from rvpmodes.spectral import (ModeSpec, alpha_direct, alpha_hat,
                               alpha_via_inverse, beta_direct, beta_hat,
                               beta_hat_envelope, beta_via_inverse, find_y0,
                               laplace_alpha_imag_tail,
                               laplace_beta_halfplane, laplace_beta_imag,
                               sample_kernels, threshold_astro,
                               threshold_astro_from_derivative,
                               threshold_plasma,
                               threshold_plasma_from_derivative)


def rel_close(a, b, rtol, floor=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b), floor)


# --- independent routes to the on-axis transform (test oracles) -------------

def _eq_integral(eq, integrand, tol=1e-13):
    support = eq.support_bound if math.isfinite(eq.support_bound) else None
    return integrate_semi_infinite(integrand, tol=tol, support=support,
                                   scale=eq.p_scale).value


def _beyond_oracle(mode, y):
    """|y| >= kappa: (4 sigma / kappa^2) int F(|y|/kappa, v(p))
    (1+p^2)(-f0') dp with F(x, v) = x arctanh(v/x) - v."""
    eq, x = mode.equilibrium, abs(y) / mode.kappa
    val = _eq_integral(eq, lambda p: f_cap(x, v_of_p(p)) * (1.0 + p * p)
                       * (-eq.derivative(p)))
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
    """Any y: QUADPACK's Cauchy-weight principal value of b over the
    support, (1/2pi) PV int b(s)/(y - s) ds + (i/2) b(y)."""
    kap = mode.kappa
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unconverged oracle is no oracle
        pv, _ = quad(lambda s: beta_hat_envelope(mode, s), -kap, kap,
                     weight="cauchy", wvar=y, epsabs=1e-12, epsrel=1e-12,
                     limit=500)
    return complex(-pv / (2.0 * math.pi), 0.5 * beta_hat_envelope(mode, y))


@st.composite
def axis_modes(draw):
    if draw(st.booleans()):
        eq = juttner(draw(st.floats(0.1, 2.0)))
    else:
        eq = compact_decreasing(draw(st.floats(0.5, 3.0)))
    return ModeSpec(kappa=draw(st.floats(0.2, 3.0)),
                    sigma=draw(st.sampled_from([1, -1])), equilibrium=eq,
                    profile=gaussian_profile(1.0, 1.0))


class TestModeSpec:
    def test_validation(self, eq02):
        prof = gaussian_profile(1.0, 1.0)
        with pytest.raises(ValueError):
            ModeSpec(kappa=0.0, sigma=1, equilibrium=eq02, profile=prof)
        with pytest.raises(ValueError):
            ModeSpec(kappa=1.0, sigma=2, equilibrium=eq02, profile=prof)


class TestTimeKernels:
    def test_alpha_at_zero_is_mass_moment(self, mode02):
        assert alpha_direct(mode02, 0.0).real == pytest.approx(
            math.pi ** 1.5, rel=1e-10)
        assert alpha_direct(mode02, 0.0).imag == 0.0

    def test_alpha_even_in_t(self, mode02):
        for t in (0.7, 3.0):
            assert alpha_direct(mode02, -t) == pytest.approx(
                alpha_direct(mode02, t), rel=1e-12)

    def test_beta_zero_at_origin(self, mode02):
        assert beta_direct(mode02, 0.0) == 0.0

    def test_beta_real_and_odd(self, mode02):
        for t in (0.5, 2.5):
            b = beta_direct(mode02, t)
            assert isinstance(b, float)
            assert beta_direct(mode02, -t) == pytest.approx(-b, rel=1e-10)

    def test_beta_linear_in_sigma(self, eq02):
        prof = gaussian_profile(1.0, 1.0)
        mp = ModeSpec(kappa=0.8, sigma=+1, equilibrium=eq02, profile=prof)
        mm = ModeSpec(kappa=0.8, sigma=-1, equilibrium=eq02, profile=prof)
        for t in (1.0, 4.0):
            assert beta_direct(mm, t) == pytest.approx(-beta_direct(mp, t),
                                                       rel=1e-12)


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
            v = beta_hat(mode02, y)
            assert v.real == 0.0
            assert beta_hat(mode02, -y) == pytest.approx(-v)

    def test_beta_hat_zero_at_origin(self, mode02):
        assert beta_hat(mode02, 0.0) == 0.0

    def test_beta_hat_sign_definite_inside_support(self, mode02):
        # repulsive sign, strictly decreasing equilibrium
        ys = np.linspace(1e-3, 0.999, 200)
        b = beta_hat_envelope(mode02, ys)
        assert np.all(b > 0.0)

    def test_alpha_hat_at_zero(self, mode02):
        ref = (2.0 * math.pi / mode02.kappa) * integrate_semi_infinite(
            lambda p: p * np.hypot(1.0, p) * mode02.profile.value(p),
            tol=1e-12).value
        assert alpha_hat(mode02, 0.0) == pytest.approx(ref, rel=1e-10)

    def test_fourier_consistency_at_t0(self, mode02):
        # int alpha_hat dy over the support = alpha(0)
        val = 2.0 * integrate_finite(
            lambda y: alpha_hat(mode02, y), 0.0, mode02.kappa,
            tol=1e-10).value
        assert val == pytest.approx(alpha_direct(mode02, 0.0).real,
                                    rel=1e-8)

    def test_zero_profile_inverts_to_zero(self, eq02):
        mode = ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 0.0))
        assert alpha_via_inverse(mode, 2.0) == 0.0


class TestTailFallback:
    @pytest.mark.parametrize("eq", [juttner(0.2), compact_decreasing(1.5)])
    def test_quadrature_tails_match_closed_forms(self, eq):
        prof = gaussian_profile(1.0, 1.0)
        mode = ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq, profile=prof)
        bare = ModeSpec(
            kappa=1.0, sigma=+1,
            equilibrium=dataclasses.replace(eq, tail_kernel_moment=None),
            profile=dataclasses.replace(prof, tail_weighted_moment=None))
        ys = np.array([0.0, 0.3, 0.8, 0.95, 0.99])
        assert np.allclose(beta_hat_envelope(bare, ys),
                           beta_hat_envelope(mode, ys), rtol=1e-9, atol=1e-12)
        assert np.allclose(alpha_hat(bare, ys), alpha_hat(mode, ys),
                           rtol=1e-9, atol=1e-12)
        assert beta_hat_envelope(bare, 0.5) == pytest.approx(
            beta_hat_envelope(mode, 0.5), rel=1e-9)


class TestCrossPath:
    @pytest.mark.parametrize("kappa", [0.5, 2.0])
    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_alpha_and_beta(self, eq02, kappa, t):
        mode = ModeSpec(kappa=kappa, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        ad, ai = alpha_direct(mode, t), alpha_via_inverse(mode, t)
        bd, bi = beta_direct(mode, t), beta_via_inverse(mode, t)
        assert rel_close(ad.real, ai.real, 1e-6)
        assert rel_close(bd, bi, 1e-6)

    def test_compact_equilibrium(self):
        mode = ModeSpec(kappa=1.0, sigma=+1,
                        equilibrium=compact_decreasing(1.5),
                        profile=gaussian_profile(1.0, 1.0))
        for t in (1.0, 5.0):
            assert rel_close(beta_direct(mode, t),
                             beta_via_inverse(mode, t), 1e-6)

    def test_kernel_table_matches_direct(self, mode02):
        t = np.linspace(0.0, 30.0, 601)
        tab = sample_kernels(mode02, t, tol=1e-11)
        for j in (0, 20, 200, 600):
            assert abs(tab.alpha[j] - alpha_direct(mode02, t[j])) < 1e-8
            assert abs(tab.beta[j] - beta_direct(mode02, t[j])) < 1e-8


class TestLaplaceOnAxis:
    def test_edge_value_is_threshold_ratio(self, eq02, kappa_crit_02):
        mode = ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        thr = kappa_crit_02 ** 2
        assert laplace_beta_imag(mode, 1.0).real == pytest.approx(
            thr, rel=1e-9)

    def test_origin_closed_form(self, eq02):
        # attractive sign at y = 0 gives +threshold/kappa^2
        mode = ModeSpec(kappa=1.3, sigma=-1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        thr = threshold_astro(eq02).kappa_crit_sq
        v = laplace_beta_imag(mode, 0.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(thr / 1.3**2, rel=1e-9)

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
                laplace_beta_imag(mode02, y), rel=1e-10)

    def test_imaginary_part_inside_support(self, mode02):
        for y in (0.3, 0.8):
            v = laplace_beta_imag(mode02, y)
            assert v.imag == pytest.approx(
                0.5 * beta_hat_envelope(mode02, y), rel=1e-12)
            assert v.imag != 0.0

    def test_continuity_from_half_plane(self, mode02):
        for y in (0.0, 0.5, 1.3):
            axis = laplace_beta_imag(mode02, y, tol=1e-11)
            off = laplace_beta_halfplane(mode02, 1e-6, y, tol=1e-11)
            assert abs(axis - off) < 1e-5

    def test_alpha_tail_matches_principal_value(self, mode02):
        for y in (1.0, 2.0):
            tail = laplace_alpha_imag_tail(mode02, y)
            pv = integrate_finite(
                lambda tau: alpha_hat(mode02, y - tau) / tau,
                max(y - 1.0, 1e-12), y + 1.0, tol=1e-11).value
            assert tail.real == 0.0
            assert tail.imag == pytest.approx(-pv / (2.0 * math.pi),
                                              rel=1e-8)


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
    @given(mode=axis_modes(), inner=st.floats(-0.99, 0.99),
           outer=st.floats(1.0, 20.0))
    def test_batch_matches_oracles(self, mode, inner, outer):
        kap = mode.kappa
        ys = np.array([0.0, inner * kap, outer * kap, -outer * kap])
        w = laplace_beta_imag(mode, ys, tol=self.TOL)
        assert abs(w[0] - _origin_oracle(mode)) <= 10 * self.TOL
        assert abs(w[1] - _cauchy_oracle(mode, ys[1])) <= 10 * self.TOL
        for k in (2, 3):
            assert abs(w[k] - _beyond_oracle(mode, ys[k])) <= 10 * self.TOL

    def test_y_on_quadrature_node(self, mode02):
        # The evaluator's first two grids put nodes at s = kappa sin(phi),
        # phi on 8 and 16 Gauss-Legendre panels per half of
        # [-pi/2, pi/2]; y on a node makes b(s) - b(y) vanish exactly.
        for n in (8, 16):
            phi, _ = gauss_legendre_nodes([-0.5 * math.pi, 0.0,
                                           0.5 * math.pi], n)
            ys = mode02.kappa * np.sin(phi[::9])
            w = laplace_beta_imag(mode02, ys, tol=self.TOL)
            assert np.all(np.isfinite(w))
            for y, val in zip(ys, w):
                assert abs(val - _cauchy_oracle(mode02, y)) <= 10 * self.TOL

    def test_array_matches_scalar_calls(self, mode02):
        ys = np.array([[0.0, 0.3, -0.7], [1.0, 1.5, -4.0]])
        w = laplace_beta_imag(mode02, ys, tol=self.TOL)
        assert w.shape == ys.shape and np.iscomplexobj(w)
        for idx in np.ndindex(ys.shape):
            v = laplace_beta_imag(mode02, float(ys[idx]), tol=self.TOL)
            assert isinstance(v, complex)
            assert abs(w[idx] - v) <= 10 * self.TOL


class TestLaplaceHalfPlane:
    def test_requires_positive_x(self, mode02):
        with pytest.raises(ValueError):
            laplace_beta_halfplane(mode02, 0.0, 1.0)

    def test_real_axis_negative_for_repulsive(self, mode02):
        for x in (0.2, 1.0, 5.0):
            v = laplace_beta_halfplane(mode02, x, 0.0)
            assert abs(v.imag) < 1e-12
            assert v.real < 0.0

    def test_imag_sign_matches_frequency_sign(self, mode02):
        for y in (0.3, 1.0):
            assert laplace_beta_halfplane(mode02, 0.5, y).imag > 0.0
            assert laplace_beta_halfplane(mode02, 0.5, -y).imag < 0.0

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


class TestThresholds:
    def test_identity_pairs(self):
        for theta in (0.05, 0.2, 1.0, 5.0):
            eq = juttner(theta)
            a = threshold_plasma(eq).kappa_crit_sq
            b = threshold_plasma_from_derivative(eq)
            assert rel_close(a, b, 1e-8)
            c = threshold_astro(eq).kappa_crit_sq
            d = threshold_astro_from_derivative(eq)
            assert rel_close(c, d, 1e-8)
        eq = compact_decreasing(1.5)
        assert rel_close(threshold_plasma(eq).kappa_crit_sq,
                         threshold_plasma_from_derivative(eq), 1e-8)
        assert rel_close(threshold_astro(eq).kappa_crit_sq,
                         threshold_astro_from_derivative(eq), 1e-8)

    def test_high_precision_oracle_value(self):
        # frozen from a 30-digit thermal-equilibrium quadrature of
        # 4 int p (2 asinh p - v) f0 dp at theta = 0.2 (independent of the
        # package's quadrature and Bessel paths)
        ours = threshold_plasma(juttner(0.2), tol=1e-13).kappa_crit_sq
        assert ours == pytest.approx(0.3310273713533483182, rel=1e-12)

    def test_astro_thermal_closed_form(self):
        # for the thermal equilibrium the attractive threshold integral
        # collapses to exactly 1/(pi theta)
        for theta in (0.05, 0.2, 1.0, 4.0):
            thr = threshold_astro(juttner(theta)).kappa_crit_sq
            assert thr == pytest.approx(1.0 / (math.pi * theta), rel=1e-10)

    def test_astro_decreasing_toward_zero(self):
        vals = [threshold_astro(juttner(th)).kappa_crit_sq
                for th in (1.0, 5.0, 25.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_report_metadata(self, eq02):
        rp = threshold_plasma(eq02)
        assert rp.interaction == +1 and rp.theta == 0.2
        ra = threshold_astro(eq02)
        assert ra.interaction == -1


class TestDispersionRoot:
    def test_supercritical_has_no_crossing(self, eq02, kappa_crit_02):
        mode = ModeSpec(kappa=1.05 * kappa_crit_02, sigma=+1,
                        equilibrium=eq02, profile=gaussian_profile(1.0, 1.0))
        assert find_y0(mode) is None

    def test_critical_boundary(self, eq02, kappa_crit_02):
        mode = ModeSpec(kappa=kappa_crit_02, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        y0 = find_y0(mode)
        assert y0 == pytest.approx(kappa_crit_02, abs=1e-6)

    def test_subcritical_crossing(self, eq02, kappa_crit_02):
        mode = ModeSpec(kappa=0.8 * kappa_crit_02, sigma=+1,
                        equilibrium=eq02, profile=gaussian_profile(1.0, 1.0))
        y0 = find_y0(mode)
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

    def test_small_kappa_has_crossing_above_edge(self, eq02):
        mode = ModeSpec(kappa=0.05, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        y0 = find_y0(mode)
        assert y0 is not None and y0 > mode.kappa

    def test_unbracketed_crossing_raises(self, eq02):
        # None means supercritical only; giving up on the bracket raises
        mode = ModeSpec(kappa=0.05, sigma=+1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="not bracketed"):
                find_y0(mode, max_doublings=0)

    def test_rejects_attractive_sign(self, eq02):
        mode = ModeSpec(kappa=0.5, sigma=-1, equilibrium=eq02,
                        profile=gaussian_profile(1.0, 1.0))
        with pytest.raises(ValueError):
            find_y0(mode)


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
        from rvpmodes.decay import rational_bound_check
        t = np.linspace(0.0, 200.0, 4001)
        tab = sample_kernels(mode02, t, tol=1e-11)
        d_m, t_at, ok = rational_bound_check(t, np.abs(tab.alpha), m,
                                             mode02.kappa)
        assert ok and math.isfinite(d_m)
        assert t_at < t_sup
