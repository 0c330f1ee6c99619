"""Linearized relativistic Vlasov-Poisson mode dynamics.

Import what you use from its submodule: the model layer, with its
equilibria, the profiles' tail moments and the kinematic and special
functions they use (``equilibria``), quadrature rules
(``quadrature``), the spectral kernels and dispersion transforms
(``spectral``), the Volterra mode solver with its resolvent
(``volterra``), decay diagnostics (``decay``), the appendix-style
derivative/bound machinery (``gevrey``) and the CLI (``cli``).  The
package itself imports none of them, so ``python -m rvpmodes.cli`` runs
the CLI's own set-up before numpy loads.
"""

__version__ = "0.1.0"
