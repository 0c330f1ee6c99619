import math

import pytest

from rvpmodes.equilibria import gaussian_profile, juttner
from rvpmodes.spectral import ModeSpec, threshold_plasma


@pytest.fixture(scope="session")
def eq02():
    return juttner(0.2)


@pytest.fixture(scope="session")
def kappa_crit_02(eq02):
    return math.sqrt(threshold_plasma(eq02).kappa_crit_sq)


@pytest.fixture(scope="session")
def mode02(eq02):
    return ModeSpec(kappa=1.0, sigma=+1, equilibrium=eq02,
                    profile=gaussian_profile(1.0, 1.0))


@pytest.fixture
def no_linalg(monkeypatch):
    """Every callable of ``numpy.linalg``, and every LAPACK ufunc under it
    (``np.polyfit`` binds ``lstsq`` at import, but ``lstsq`` calls
    ``_umath_linalg``), patched to raise."""
    import numpy.linalg as la

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg {name} was called")
        return call

    for module in (la, la._umath_linalg):
        for name in dir(module):
            obj = getattr(module, name)
            if callable(obj) and not isinstance(obj, type) \
                    and not name.startswith("__"):
                monkeypatch.setattr(module, name, refuse(name))
