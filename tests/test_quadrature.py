import ast
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvpmodes import quadrature
from rvpmodes.quadrature import (QuadratureError, _filon_weights,
                                 double_panels, filon_nodes, filon_sums,
                                 filon_table, next_fast_len,
                                 gauss_legendre_nodes,
                                 integrate_finite, integrate_semi_infinite)

from oracles import (filon_weights_monomial, integrate_adaptive,
                     integrate_oscillatory)


class TestFinite:
    def test_polynomial(self):
        r = integrate_finite(lambda x: x**2, 0.0, 1.0, tol=1e-10)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert r.evaluations > 0

    def test_endpoint_singularity(self):
        r = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-9)
        assert r.value == pytest.approx(2.0, abs=1e-8)

    def test_log_endpoint_blowup(self):
        # |arctanh(v) - v| over [-1, 1]; closed form 2 (ln 2 - 1/2)
        r = integrate_adaptive(lambda v: np.abs(np.arctanh(v) - v),
                               -1.0, 1.0, tol=1e-9)
        assert r.value == pytest.approx(2.0 * (math.log(2.0) - 0.5), abs=1e-8)

    def test_complex_integrand(self):
        r = integrate_finite(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-12)
        assert r.value == pytest.approx((np.exp(1j) - 1.0) / 1j, abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 0.5, 0.5)

    @pytest.mark.parametrize("f,exact", [
        (lambda x: np.exp(-x * x) * np.cos(3.0 * x),
         math.sqrt(math.pi) * math.exp(-2.25)),
        (lambda x: np.exp((-1.0 + 3j) * x * x),
         complex(np.sqrt(math.pi / (1.0 - 3j))))])
    def test_smooth_integrand_reaches_tol(self, f, exact):
        # [-8, 8] holds the Gaussians to below 1e-27
        r = integrate_finite(f, -8.0, 8.0, tol=1e-12)
        assert abs(r.value - exact) <= 1e-12
        assert r.abs_error_estimate <= 1e-12
        assert type(r.value) is type(exact)
        # every pass counts: n0, 2 n0, ..., n panels of 16 nodes each
        n = quadrature._GL_START_PANELS
        total = 16 * n
        while total < r.evaluations:
            n *= 2
            total += 16 * n
        assert total == r.evaluations

    def test_endpoint_singularity_raises_at_the_cap(self):
        # the adaptive oracle returns 2 - 4.8e-10 here; the panels, whose
        # error falls like sqrt(panel width), refuse rather than return a
        # value whose last change exceeds tol
        with pytest.raises(QuadratureError, match="at 4096 panels") as info:
            integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-9)
        assert info.value.result.abs_error_estimate > 1e-9
        r = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-9)
        assert abs(r.value - 2.0) <= 1e-9

    def test_error_counts_every_evaluation(self):
        # as a result does (192 for exp on [0, 1]): 16 (4 + 8 + ... + 4096)
        # integrand values, not the 4096 panels of the last pass
        assert integrate_finite(np.exp, 0.0, 1.0).evaluations == 192
        with pytest.raises(QuadratureError) as info:
            integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-9)
        assert info.value.result.evaluations == 131008

    def test_nonconvergence_carries_best_value(self):
        # genuinely nasty: x^{-0.99} needs more panels than allowed
        with pytest.raises(QuadratureError) as err:
            integrate_adaptive(lambda x: np.abs(x) ** -0.999, 0.0, 1.0,
                               tol=1e-14, max_subdiv=20)
        assert err.value.result.abs_error_estimate > 0
        assert err.value.result.value > 0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tol_raises(self, tol):
        # nan <= 0 is False: a NaN tol must not end the loop unconverged
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x * x, 0.0, 1.0, tol=tol)
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda p: np.exp(-p), tol=tol)

    def test_nan_integrand_raises(self):
        # nan > tol is False: a NaN must not come back as converged
        with pytest.raises(QuadratureError):
            integrate_finite(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_nonintegrable_pole_raises(self):
        # the K15 centre node sits on the pole: value inf, estimate nan
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(QuadratureError):
            integrate_adaptive(lambda x: 1.0 / (x - 0.5) ** 2, 0.0, 1.0)

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


class TestDoublePanels:
    @staticmethod
    def rule(changes):
        """evaluate(n) whose probe moves by changes[k] on the k-th
        doubling, recording each n it is called with."""
        calls = []

        def evaluate(n):
            calls.append(n)
            k = len(calls) - 1
            return f"result at {n}", np.array([sum(changes[:k]), 0.0])
        return evaluate, calls

    def test_stops_at_first_change_within_tol(self):
        # binary fractions: the probe differences are exact
        evaluate, calls = self.rule([1.0, 0.25, 2.0 ** -10, 2.0 ** -12])
        result, change = double_panels(evaluate, 8, 1024, 2.0 ** -10, "rule")
        assert calls == [8, 16, 32, 64]
        assert (result, change) == ("result at 64", 2.0 ** -10)

    def test_nan_change_raises(self):
        evaluate, calls = self.rule([1.0, math.nan, 0.0])
        with pytest.raises(QuadratureError):
            double_panels(evaluate, 8, 1024, 1e-3, "rule")
        assert calls == [8, 16, 32]

    def test_cap_raises_naming_the_caller(self):
        evaluate, calls = self.rule([1.0] * 10)
        with pytest.raises(QuadratureError, match="^rule: change 1 > tol") \
                as info:
            double_panels(evaluate, 8, 64, 1e-3, "rule")
        assert calls == [8, 16, 32, 64]
        assert info.value.result.abs_error_estimate == 1.0
        assert info.value.result.evaluations == 64  # the last pass's panels

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_bad_tol_raises_before_any_pass(self, tol):
        evaluate, calls = self.rule([0.0])
        with pytest.raises(ValueError, match="^rule: tol"):
            double_panels(evaluate, 8, 1024, tol, "rule")
        assert calls == []


class TestGaussLegendre:
    def test_rule_is_leggauss_16_to_the_bit(self):
        x16, w16 = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(quadrature._GL16_X, x16)
        assert np.array_equal(quadrature._GL16_W, w16)

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

        # a compact support is a finite interval: no map, no node beyond
        r = integrate_finite(f, 0.0, 2.0, tol=1e-11)
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


class TestFilonSums:
    @pytest.mark.parametrize("a,b,om0", [(0.0, 1.3, 0.0), (0.7, 2.1, 3.1)])
    def test_chirp_z_branch_matches_direct_branch(self, a, b, om0):
        # > 64 uniform omegas take the chirp-z branch; a permuted copy of
        # the same grid is not uniform and takes the direct panel sum
        nodes = filon_nodes(a, b, 256)
        env = np.exp(-nodes * nodes) * (1.0 + 0.5j * np.sin(3.0 * nodes))
        omegas = om0 + 2.0 * math.pi * np.linspace(0.0, 50.0, 501)
        perm = np.random.default_rng(5).permutation(omegas.size)
        fast = filon_sums(env, a, b, omegas)
        direct = filon_sums(env, a, b, omegas[perm])
        assert np.max(np.abs(fast[perm] - direct)) \
            <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n_omegas", [1001, 9000, 3, 1300])
    def test_stack_equals_separate_calls(self, n_omegas):
        # 1001 and 9000 (three blocks of weights) uniform omegas take the
        # chirp-z branch; 3, and 1300 shuffled (more than one block of the
        # panel sum), the direct branch
        nodes = filon_nodes(0.2, 1.7, 512)
        stack = np.stack([np.exp(-nodes * nodes), np.sin(3.0 * nodes),
                          nodes ** 3 * (1.0 + 0.5j)])
        omegas = 2.0 * math.pi * np.linspace(0.0, 60.0, n_omegas)
        if n_omegas == 1300:
            omegas = np.random.default_rng(3).permutation(omegas)
        sums = filon_sums(stack, 0.2, 1.7, omegas)
        assert sums.shape == (3, n_omegas)
        for env, row in zip(stack, sums):
            assert np.array_equal(filon_sums(env, 0.2, 1.7, omegas), row)

    @pytest.mark.parametrize("n_omegas", [1001, 9000, 3, 1300])
    def test_real_rows_are_parts_of_complex_sums(self, n_omegas):
        # 1001 and 9000 uniform omegas take the chirp-z branch, 3 and 1300
        # shuffled the direct one; tobytes, so that a -0 shows
        nodes = filon_nodes(0.2, 1.7, 512)
        stack = np.stack([np.exp(-nodes * nodes), np.sin(3.0 * nodes),
                          nodes ** 3 * (1.0 + 0.5j)])
        omegas = 2.0 * math.pi * np.linspace(0.0, 60.0, n_omegas)
        if n_omegas == 1300:
            omegas = np.random.default_rng(3).permutation(omegas)
        sums = filon_sums(stack, 0.2, 1.7, omegas)
        parts = ("real", "imag", "imag")
        rows = filon_sums(stack, 0.2, 1.7, omegas, parts)
        assert rows.dtype == float and rows.shape == sums.shape
        for env, row, cplx, part in zip(stack, rows, sums, parts):
            assert row.tobytes() == getattr(cplx, part).tobytes()
            for other in ("real", "imag"):
                single = filon_sums(env, 0.2, 1.7, omegas, (other,))
                assert single.tobytes() == getattr(cplx, other).tobytes()

    @pytest.mark.parametrize("parts", [("real",), ("real", "abs"), "ri"])
    def test_parts_need_one_real_or_imag_per_envelope(self, parts):
        nodes = filon_nodes(0.0, 1.0, 64)
        stack = np.stack([np.exp(-nodes), np.cos(nodes)])
        with pytest.raises(ValueError, match="one 'real' or 'imag'"):
            filon_sums(stack, 0.0, 1.0, np.arange(3.0), parts)

    def test_weights_are_formed_once_for_the_stack(self, monkeypatch):
        # the chirp-z branch forms each block's weights once for all the
        # envelopes of a stack, not once per envelope
        calls = []

        def spy(omega_half):
            calls.append(omega_half.size)
            return _filon_weights(omega_half)
        monkeypatch.setattr(quadrature, "_filon_weights", spy)
        nodes = filon_nodes(0.0, 1.2, 256)
        stack = np.stack([np.exp(-nodes * nodes), np.sin(3.0 * nodes)])
        omegas = 2.0 * math.pi * 0.02 * np.arange(10001)
        filon_sums(stack, 0.0, 1.2, omegas)
        assert calls == [4096, 4096, 1809]

    def test_stacked_call_memory(self):
        # the README evolve's half-step tables: the four node columns of
        # each envelope pass the chirp-z transform one at a time and are
        # added into the sums as they come, and the weights are formed in
        # blocks of omegas (the whole (T, 4) arrays at once traced 22
        # T-length complex vectors; 9.2 now)
        nt = 30001
        nodes = filon_nodes(0.0, 1.2, 512)
        stack = np.stack([np.exp(-nodes * nodes), np.sin(3.0 * nodes)])
        omegas = 2.0 * math.pi * 0.01 * np.arange(nt)
        filon_sums(stack, 0.0, 1.2, omegas)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            filon_sums(stack, 0.0, 1.2, omegas)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * nt * np.dtype(complex).itemsize


    def test_stacked_real_rows_memory(self):
        # the README evolve's half-step tables as the kernel tables take
        # them, a real row each: the chirp and the phase are formed in
        # place and the conjugate weights a block at a time, so the call
        # holds the chirp, its transform, the phase, lam_0, lam_1, one FFT
        # buffer and the real rows (9.16 T-length complex vectors with
        # complex rows and their T-length temporaries; 7.915 now, as with
        # a (P, 4) shifted copy, which at P = 512 is 0.07 of one vector)
        nt = 30001
        nodes = filon_nodes(0.0, 1.2, 512)
        stack = np.stack([np.exp(-nodes * nodes), np.sin(3.0 * nodes)])
        omegas = 2.0 * math.pi * 0.01 * np.arange(nt)
        parts = ("real", "imag")
        filon_sums(stack, 0.0, 1.2, omegas, parts)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            filon_sums(stack, 0.0, 1.2, omegas, parts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * nt * np.dtype(complex).itemsize


class TestFilonTable:
    def test_overflowing_sums_raise_without_warning(self):
        # the integral, 1e307, is a double, but the panel sums of 64 panels
        # overflow; the NaN change once raised after numpy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError,
                               match="sums are not finite at 64 panels"):
                filon_table(lambda y: np.full(y.shape, 1e307), 0.0, 1.0,
                            np.linspace(0.0, 10.0, 101), 1e-9, ("real",))


class TestFilonWeights:
    def test_match_monomial_moment_route(self):
        # both switch from series to recurrence at |Om| = 1
        near_one = np.concatenate([1.0 + np.geomspace(1e-12, 1e-2, 200),
                                   1.0 - np.geomspace(1e-12, 1e-2, 200),
                                   np.linspace(0.9, 1.1, 2001), [1.0]])
        om = np.concatenate([np.linspace(-50.0, 50.0, 20001), near_one,
                             -near_one, [0.0, 1e-300]])
        assert np.max(np.abs(_filon_weights(om)
                             - filon_weights_monomial(om))) <= 1e-14

    def test_match_mpmath_cardinal_cubics(self):
        import mpmath
        nodes = [-1, mpmath.mpf(-1) / 3, mpmath.mpf(1) / 3, 1]

        def weight(m, om):
            def cardinal(s):
                return mpmath.fprod((s - nodes[k]) / (nodes[m] - nodes[k])
                                    for k in range(4) if k != m)
            return complex(mpmath.quad(
                lambda s: cardinal(s) * mpmath.expj(om * s), [-1, 1]))

        oms = [1e-8, 1e-3, 0.3, 0.9, 0.999999, 1.0, 1.000001, 1.7, 4.2,
               10.0, 23.5, 47.0]
        with mpmath.workdps(40):
            ref = np.array([[weight(m, mpmath.mpf(om)) for m in range(4)]
                            for om in oms])
        assert np.max(np.abs(_filon_weights(np.array(oms)) - ref)) <= 2e-15

    def test_filon_rule_makes_no_blas_call(self):
        # a matmul, dot or @ wakes the BLAS worker threads, which then spin
        for fn in (quadrature.filon_sums, quadrature._filon_weights,
                   quadrature._chirp, quadrature._czt):
            tree = ast.parse(inspect.getsource(fn))
            calls = [n for n in ast.walk(tree)
                     if isinstance(n, ast.MatMult)
                     or (isinstance(n, ast.Attribute) and n.attr in
                         ("dot", "vdot", "matmul", "inner", "tensordot"))]
            assert calls == [], fn.__name__


class TestChirp:
    @pytest.mark.parametrize("n", [64, 1024, 8192])
    @pytest.mark.parametrize("turn", [0.02 * 1.2, 0.37, -3.1])
    def test_chirp_equals_complex_power_bit_for_bit(self, n, turn):
        # SciPy's czt forms the chirp as a complex power; _chirp forms it
        # from one logarithm, and the two must agree to the last bit
        m = 2 ** 17 + 1
        w = np.exp(1j * 2.0 * math.pi * turn / n)
        k = np.arange(m)
        wk2 = quadrature._chirp(n, m, w)[0]
        assert wk2.tobytes() == (w ** (k ** 2 / 2.)).tobytes()


    def test_in_place_chirp_equals_its_expression(self):
        # _chirp forms the exponential in place and the reciprocal chirp in
        # its padded FFT buffer; the copies of the plain expression gave
        # the same bits
        rng = np.random.default_rng(7)
        draws = [(int(rng.integers(2, 9000)), int(rng.integers(3, 120002)),
                  rng.uniform(-4.0, 4.0)) for _ in range(5)]
        for n, m, turn in draws + [(512, 120001, 0.02 * 1.2), (4096, 3, 0.3)]:
            w = np.exp(1j * 2.0 * math.pi * turn / n)
            k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
            e = k ** 2 / 2.
            wk2 = np.exp(e * np.log(w))
            wk2[:15:2] = w ** e[:15:2]
            nfft = next_fast_len(n + m - 1)
            fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), nfft)
            got = quadrature._chirp(n, m, w)
            assert got[0].tobytes() == wk2.tobytes()
            assert got[1] == nfft
            assert got[2].tobytes() == fwk2.tobytes()

    @pytest.mark.parametrize("nt", [65, 30001, 120001])
    def test_in_place_phase_equals_its_expression(self, nt):
        rng = np.random.default_rng(nt)
        for step, c in ((2.0 * math.pi * 0.01, 0.5 * 1.2 / 512),
                        (rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))):
            ref = np.exp(1j * np.arange(nt) * step * c)
            assert quadrature._phase(nt, step, c).tobytes() == ref.tobytes()


class TestNextFastLen:
    def test_equals_scipy_complex_fft_length(self):
        # the padded length sets an FFT convolution's rounding
        from scipy.fft import next_fast_len as scipy_next_fast_len
        rng = np.random.default_rng(0)
        ns = list(range(1, 20001)) + rng.integers(1, 200001, 3000).tolist()
        assert [n for n in ns
                if next_fast_len(n) != scipy_next_fast_len(n)] == []
