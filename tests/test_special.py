import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import rvpmodes
from rvpmodes.special import erfcx


def mp_erfcx(x):
    """e^{x^2} erfc(x) at 40 digits; past 1e6 by its asymptotic series
    (eight terms, beyond 1e-90 relative there), where mpmath's erfc of a
    large argument overflows."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if x <= 1e6:
            return float(mpmath.exp(x * x) * mpmath.erfc(x))
        total, term = mpmath.mpf(0), mpmath.mpf(1)
        for n in range(8):
            total += term
            term *= -(2 * n + 1) / (2 * x * x)
        return float(total / (x * mpmath.sqrt(mpmath.pi)))


# [1e-6, 1e6] on a log grid, dense where the series is least accurate,
# both sides of the switch to the asymptotic term at 1e8, and on to 1e300
X = np.concatenate([np.geomspace(1e-6, 1e6, 2001), np.linspace(0.0, 5.0, 501),
                    [5e7, 1e8, np.nextafter(1e8, 2e8), 2e8],
                    np.geomspace(1e6, 1e300, 101)])


class TestErfcx:
    def test_matches_mpmath(self):
        ref = np.array([mp_erfcx(x) for x in X])
        assert np.max(np.abs(erfcx(X) / ref - 1.0)) <= 1e-15

    def test_matches_scipy(self):
        from scipy.special import erfcx as scipy_erfcx
        assert np.max(np.abs(erfcx(X) / scipy_erfcx(X) - 1.0)) <= 1e-15

    def test_ends(self):
        assert erfcx(0.0) == 1.0
        assert erfcx(math.inf) == 0.0
        assert math.isnan(erfcx(math.nan))

    def test_array_matches_scalar_calls(self):
        x = np.array([[1e-3, 0.65, 2.5], [7.0, 3e8, 1e200]])
        out = erfcx(x)
        assert out.shape == x.shape
        for idx in np.ndindex(x.shape):
            val = erfcx(float(x[idx]))
            assert isinstance(val, float) and val == out[idx]

    def test_negative_argument_refused(self):
        with pytest.raises(ValueError, match="x >= 0"):
            erfcx(np.array([1.0, -1e-300]))

    def test_coefficients_formed_on_first_call(self):
        # in a fresh process: this one has formed them already
        code = ("import rvpmodes.special as sp\n"
                "assert sp._coefficients.cache_info().currsize == 0\n"
                "sp.erfcx(1.0)\n"
                "assert sp._coefficients.cache_info().currsize == 1\n")
        src = os.path.dirname(os.path.dirname(rvpmodes.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src))
