#!/usr/bin/env python3
"""Critical-wavenumber curves over temperature, plus the headline numbers.

Writes the sweep CSV and prints the repulsive peak (location/value), the
critical box size 1/sup, and the largest relative deviation of the
attractive column from its closed form 1/sqrt(pi theta) over the grid.
Equivalent CSV: `rvpmodes threshold --theta-min ... -o ...`.  The peak
search is SciPy's bounded `minimize_scalar`, so this script, unlike the
package, needs SciPy (it comes with the `test` extra).
"""

import argparse
import csv
import math

from scipy.optimize import minimize_scalar

from rvpmodes.cli import main as cli_main
from rvpmodes.equilibria import juttner
from rvpmodes.spectral import threshold_plasma


def run(theta_min, theta_max, n_points, out):
    rc = cli_main(["threshold", "--theta-min", str(theta_min),
                   "--theta-max", str(theta_max),
                   "--n-points", str(n_points), "-o", out])
    if rc != 0:
        raise SystemExit(rc)

    res = minimize_scalar(
        lambda th: -math.sqrt(threshold_plasma(juttner(th)).kappa_crit_sq),
        bounds=(0.05, 1.0), method="bounded", options={"xatol": 1e-8})
    peak_theta, peak = res.x, -res.fun
    print(f"repulsive peak: kappa_crit = {peak:.6f} at theta = "
          f"{peak_theta:.4f}")
    print(f"critical box size 1/sup = {1.0 / peak:.4f}")

    # the thermal attractive threshold is exactly 1/(pi theta): p = sinh chi
    # turns its integral into K_2(1/theta), which the normalisation cancels
    with open(out) as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    dev = max(abs(float(r["kappa_crit_astro"])
                  * math.sqrt(math.pi * float(r["theta"])) - 1.0)
              for r in rows)
    print(f"attractive: kappa_crit = 1/sqrt(pi theta) to {dev:.2e} relative "
          f"over {len(rows)} temperatures")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta-min", type=float, default=0.01)
    ap.add_argument("--theta-max", type=float, default=10.0)
    ap.add_argument("--n-points", type=int, default=200)
    ap.add_argument("-o", "--output", default="thresholds.csv")
    a = ap.parse_args()
    run(a.theta_min, a.theta_max, a.n_points, a.output)
