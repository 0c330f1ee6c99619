"""Solution-form check of the ``transform`` workload, as its own process.

Evolves the theta = 0.5, kappa = 2 kappa_crit repulsive mode (dt 0.01,
5000 steps, kernel tol 1e-12), rebuilds it from the resolvent kernel
(tol 1e-9) as rho = alpha + R * alpha, and writes the gap between the two
together with every STRIDE-th marched sample as JSON.  These are the
settings of acceptance criterion 6.

    PYTHONPATH=src python bench/solution_form.py OUT.json
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from rvpmodes.equilibria import juttner, thermal_profile
from rvpmodes.spectral import ModeSpec, threshold_plasma
from rvpmodes.volterra import (TimeGrid, apply_resolvent, resolvent_kernel,
                               solve_mode)

STRIDE = 50


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: solution_form.py OUT.json", file=sys.stderr)
        return 2
    eq = juttner(0.5)
    kc = math.sqrt(threshold_plasma(eq).kappa_crit_sq)
    mode = ModeSpec(kappa=2.0 * kc, sigma=+1, equilibrium=eq,
                    profile=thermal_profile(0.5, 1.0))
    grid = TimeGrid(dt=0.01, n_steps=5000)
    traj = solve_mode(mode, grid, tol=1e-12)
    kern = resolvent_kernel(mode, grid, tol=1e-9)
    rho_res = apply_resolvent(kern, traj.alpha_samples, grid.dt)
    result = {
        "n": int(traj.rho.size),
        "scale": float(np.max(np.abs(traj.rho))),
        "gap": float(np.max(np.abs(rho_res - traj.rho))),
        "rho": [[float(z.real), float(z.imag)] for z in traj.rho[::STRIDE]],
    }
    with open(argv[0], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
