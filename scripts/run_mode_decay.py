#!/usr/bin/env python3
"""Evolve one mode, fit its envelope, and print the decay report.

The script sets kappa = --kappa-factor x kappa_crit(theta) for the Juttner
equilibrium (sigma = +1) and prints how close the dispersion value comes to
1 on the imaginary axis.  The rest is the CLI: `rvpmodes evolve --refine`
with the thermal profile writes the trajectory to -o (or to a temporary
file), and `rvpmodes fit` reads it and prints its one-line report.  A
--theta or --kappa-factor that the model refuses exits 2 naming that flag;
otherwise the script exits with the first non-zero code of the two
commands, which report their own refusals and failures.

Defaults pick a hot, deep supercritical mode whose stretched regime spans
the window, so the fitted exponent lands near the thermal value 3.  Try
`--kappa-factor 1.2 --theta 0.2` to watch the near-critical quasinormal
ringdown instead (fitted exponent ~1, tiny damping rate).
"""

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from rvpmodes.cli import main as cli_main
from rvpmodes.equilibria import juttner
from rvpmodes.quadrature import QuadratureError
from rvpmodes.spectral import ModeSpec, kappa_crit_sq, laplace_beta_imag


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, default=1.0)
    ap.add_argument("--kappa-factor", type=float, default=2.5)
    ap.add_argument("--dt", type=float, default=0.02)
    ap.add_argument("--t-max", type=float, default=300.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", default="")
    a = ap.parse_args()
    flag = "--theta"
    try:
        eq = juttner(a.theta)
        kc = math.sqrt(kappa_crit_sq(eq, +1))
        flag = "--kappa-factor"
        mode = ModeSpec(a.kappa_factor * kc, +1, eq)
        ys = np.linspace(1e-3, 1.5 * mode.kappa, 120)
        dist = np.min(np.abs(1.0 - laplace_beta_imag(mode, ys)))
    except ValueError as exc:  # the model refuses the flag's value
        ap.error(f"{flag}: {exc}")
    except QuadratureError as exc:  # one line, as the CLI reports it
        sys.exit(f"computation failed: QuadratureError: {exc}")
    kappa = repr(mode.kappa)
    print(f"theta={a.theta}  kappa={mode.kappa:.4f} ({a.kappa_factor} x "
          f"kappa_crit={kc:.4f})")
    print(f"closest approach of the dispersion value to 1: {dist:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        # -o names a file even when it is "-", which the CLI reads as stdout
        path = os.path.abspath(a.output or os.path.join(tmp, "mode.csv"))
        rc = (cli_main(["evolve", "--kappa", kappa, "--sigma", "1",
                        "--theta", repr(a.theta), "--profile", "thermal",
                        "--dt", repr(a.dt), "--t-max", repr(a.t_max),
                        "--refine", "--tol", "1e-11", "-o", path])
              or cli_main(["fit", "--input", path, "--kappa", kappa,
                           "--seed", str(a.seed)]))
    raise SystemExit(rc)
