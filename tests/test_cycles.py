"""No public routine leaves reference cycles behind.

Numpy-heavy code seldom triggers Python's cyclic collector, so arrays held
by a cycle stay resident: a sweep whose march left its state in a cycle
grew by about 0.46 MB per mode.  Each call runs with the collector off;
afterwards it must find nothing.
"""

import gc
import math

import numpy as np
import pytest

from rvpmodes.decay import fit_mode_decay
from rvpmodes.equilibria import juttner, thermal_profile
from rvpmodes.spectral import (ModeSpec, find_y0, kappa_crit_sq,
                               laplace_beta_halfplane, laplace_beta_imag,
                               sample_kernels)
from rvpmodes.volterra import (TimeGrid, resolvent_kernel, solve_mode,
                               solve_volterra)

EQ = juttner(0.5)
KC2 = kappa_crit_sq(EQ, +1)
KAPPA_CRIT = math.sqrt(KC2)
DEEP = ModeSpec(kappa=2.0 * KAPPA_CRIT, sigma=+1, equilibrium=EQ,
                profile=thermal_profile(0.5, 1.0))
SUB = ModeSpec(kappa=0.5 * KAPPA_CRIT, sigma=+1, equilibrium=EQ,
               profile=thermal_profile(0.5, 1.0))
GRID = TimeGrid(dt=0.02, n_steps=2000)


def _march():
    rng = np.random.default_rng(0)
    n = 1025
    alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
    beta = rng.normal(size=n) * np.exp(-np.linspace(0.0, 4.0, n))
    solve_volterra(alpha, beta, 0.01)


def _fit():
    t = np.linspace(0.0, 200.0, 8001)
    a = np.abs(np.cos(3.0 * t)) * np.exp(-0.7 * t ** (1.0 / 3.0))
    fit_mode_decay(t, a, 1.0, seed=0, n_boot=50)


CALLS = {
    "sample_kernels": lambda: sample_kernels(DEEP, GRID.times),
    "solve_volterra": _march,
    "solve_mode_refine": lambda: solve_mode(DEEP, GRID, refine=True),
    "resolvent_kernel": lambda: resolvent_kernel(
        DEEP, TimeGrid(dt=0.05, n_steps=200), tol=1e-8),
    "laplace_beta_imag": lambda: laplace_beta_imag(
        DEEP, np.linspace(0.0, 2.0, 41)),
    "laplace_beta_halfplane": lambda: laplace_beta_halfplane(
        DEEP, 0.5, np.linspace(0.0, 2.0, 41)),
    "find_y0": lambda: find_y0(SUB, KC2),
    "fit_mode_decay": _fit,
}


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_leaves_no_garbage_cycles(name, collector_off):
    CALLS[name]()
    assert gc.collect() == 0
