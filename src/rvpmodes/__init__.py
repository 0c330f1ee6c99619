"""Linearized relativistic Vlasov-Poisson mode dynamics.

Public surface: kinematic helpers (relkin), equilibria and perturbation
profiles, the spectral kernels and dispersion transforms, the Volterra
mode solver with its resolvent, decay diagnostics, the appendix-style
derivative/bound machinery (gevrey), and the CLI entry point.
"""

from .equilibria import (Equilibrium, PerturbationProfile, compact_decreasing,
                         gaussian_profile, juttner, thermal_profile)
from .quadrature import (QuadResult, QuadratureError, integrate_finite,
                         integrate_semi_infinite)
from .spectral import (KernelTable, ModeSpec, ThresholdReport, alpha_hat,
                       find_y0, laplace_beta_halfplane, laplace_beta_imag,
                       sample_kernels, threshold_astro, threshold_plasma)
from .volterra import (ModeTrajectory, SubcriticalModeError, TimeGrid,
                       apply_resolvent, resolvent_kernel, solve_mode,
                       solve_volterra)
from .decay import (DecayFit, Envelope, NoDecayError, envelope, exp_test,
                    fit_mode_decay, fit_stretched)

__version__ = "0.1.0"
