"""Exact symmetries of the mode equation, checked on every mode drawn.

* sigma enters only through the sign of b: alpha does not depend on it,
  and beta and the dispersion value W, on the imaginary axis and in the
  half-plane, are odd in it.  Both signs run the same arithmetic up to
  that sign, so the values agree exactly.
* The kappa scale law: alpha(t; kappa) and kappa beta(t; kappa) depend on
  tau = kappa t alone, and kappa^2 W(kappa r; kappa) on r alone.  At a
  power-of-two ratio of the two kappas every node, weight and phase
  scales exactly, so the values agree exactly wherever both sides take
  the same panels; a table whose panel doubling stops at another count
  (its probe changes scale with the rows) agrees within its tolerance.
* rho is real: the tables are real and the march is float64, so every
  trajectory is a float64 array, and a complex kernel pair is refused
  with TypeError before the march does any work.

``np.array_equal`` compares: exact, but a -0 equals a 0, which a negated
W outside the support holds.  Each property runs a fixed number of
examples, a few seconds in all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rvpmodes import quadrature
from rvpmodes.equilibria import (compact_decreasing, gaussian_profile,
                                 juttner, thermal_profile)
from rvpmodes.spectral import (ModeSpec, laplace_beta_halfplane,
                               laplace_beta_imag, sample_kernels)
from rvpmodes.volterra import _BASE, TimeGrid, solve_mode, solve_volterra

TOL = 1e-11  # sample_kernels' default

equilibria = st.one_of(
    st.builds(juttner, st.floats(0.05, 2.0)),
    st.builds(compact_decreasing, st.floats(0.3, 3.0)))
profiles = st.one_of(
    st.builds(thermal_profile, st.floats(0.1, 2.0), st.floats(0.5, 2.0)),
    st.builds(gaussian_profile, st.floats(0.3, 2.0), st.floats(0.5, 2.0)))
kappas = st.floats(0.3, 1.5)


def table_and_panels(mode, t):
    """sample_kernels(mode, t) and the panel count of its table."""
    panels, nodes = [], quadrature.filon_nodes

    def spy(a, b, n):
        panels.append(n)
        return nodes(a, b, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "filon_nodes", spy)
        tab = sample_kernels(mode, t, tol=TOL)
    return tab, panels[-1]


@settings(max_examples=10, deadline=None)
@given(eq=equilibria, kappa=kappas, profile=profiles,
       x=st.floats(0.05, 1.0))
def test_sigma_flips_the_sign_of_beta_and_w_alone(eq, kappa, profile, x):
    plus, minus = (ModeSpec(kappa, sigma, eq, profile) for sigma in (1, -1))
    t = 0.1 * np.arange(151)
    tp, tm = sample_kernels(plus, t, tol=TOL), sample_kernels(minus, t,
                                                              tol=TOL)
    assert np.array_equal(tm.alpha, tp.alpha)
    assert np.array_equal(tm.beta, -tp.beta)
    assert tm.abs_error == tp.abs_error
    # inside the support, at its edge and beyond it
    y = kappa * np.array([0.0, 0.2, 0.55, 0.9, 1.0, 1.4])
    assert np.array_equal(laplace_beta_imag(minus, y),
                          -laplace_beta_imag(plus, y))
    assert np.array_equal(laplace_beta_halfplane(minus, x, y),
                          -laplace_beta_halfplane(plus, x, y))


@settings(max_examples=10, deadline=None)
@given(eq=equilibria, kappa=kappas, profile=profiles,
       sigma=st.sampled_from([1, -1]), power=st.sampled_from([-1, 1, 2]))
def test_kappa_scale_law_at_power_of_two_ratios(eq, kappa, profile, sigma,
                                                 power):
    k2 = math.ldexp(kappa, power)
    modes = [ModeSpec(k, sigma, eq, profile) for k in (kappa, k2)]
    tau = 0.25 * np.arange(241)  # kappa t up to 60
    (t1, n1), (t2, n2) = (table_and_panels(m, tau / m.kappa) for m in modes)
    kb1, kb2 = kappa * t1.beta, k2 * t2.beta
    if n1 == n2:
        assert np.array_equal(t1.alpha, t2.alpha)
        assert np.array_equal(kb1, kb2)
    else:
        assert np.max(np.abs(t1.alpha - t2.alpha)) <= 2.0 * TOL
        assert np.max(np.abs(kb1 - kb2)) <= (kappa + k2) * TOL
    # W scales as 1/kappa^2, so do its changes; tol scaled alike keeps
    # the panel doubling of both in step
    r = np.array([0.0, 0.3, 0.7, 0.999, 1.3])
    w1 = laplace_beta_imag(modes[0], kappa * r, tol=1e-10)
    w2 = laplace_beta_imag(modes[1], k2 * r,
                           tol=1e-10 * (kappa / k2) ** 2)
    assert np.array_equal(kappa ** 2 * w1, k2 ** 2 * w2)


@settings(max_examples=10, deadline=None)
@given(eq=equilibria, kappa=kappas, profile=profiles,
       sigma=st.sampled_from([1, -1]), refine=st.booleans())
def test_trajectory_is_real(eq, kappa, profile, sigma, refine):
    mode = ModeSpec(kappa, sigma, eq, profile)
    traj = solve_mode(mode, TimeGrid(dt=0.1, n_steps=150), tol=TOL,
                      refine=refine)
    assert traj.rho.dtype == np.float64


@st.composite
def complex_kernel_pairs(draw):
    """alpha and beta of one length, below and above _BASE, one or both
    complex; complex samples may be non-finite, which TypeError precedes."""
    n = draw(st.integers(0, 2 * _BASE + 2))
    real = hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3))
    cplx = hnp.arrays(np.complex128, n, elements=st.complex_numbers())
    which = draw(st.sampled_from(["alpha", "beta", "both"]))
    return (draw(real if which == "beta" else cplx),
            draw(real if which == "alpha" else cplx))


@settings(max_examples=10, deadline=None)
@given(pair=complex_kernel_pairs(), dt=st.floats(1e-3, 1.0))
def test_complex_kernels_are_refused(pair, dt):
    with pytest.raises(TypeError, match="must be real"):
        solve_volterra(*pair, dt)
