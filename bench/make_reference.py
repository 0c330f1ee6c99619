"""Regenerate ``bench/reference.json`` from the current sources.

    python3 bench/make_reference.py

Runs one pass of each workload and stores what ``run_bench.py`` checks:
sampled trajectories and kernel tables, fit point estimates and verdict,
the solution-form samples, the dispersion grid, and each sweep row's class.
The bootstrap interval of ``fit`` depends on the seed, so it gets a band:
the range seen over seeds 0..CI_SEEDS-1, widened by that range on each side.
Only regenerate when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import run_bench as rb

CI_SEEDS = 20


def evolve_fit(workdir):
    p = rb.run_pass("evolve-fit", 0, workdir)
    header, rows = rb.read_csv(workdir / "traj.csv")
    col = {h: i for i, h in enumerate(header)}
    abs_rho = [float(r[col["abs_rho"]]) for r in rows]
    samples = [[float(r[col[c]]) for c in ("t", "re_rho", "im_rho", "alpha",
                                          "beta")]
               for r in rows[::rb.TRAJ_STRIDE]]
    fields = rb.read_fit(workdir / "fit.txt")
    los, his = [], []
    fit_argv = rb.commands("evolve-fit", 0)[1][0]
    for seed in range(CI_SEEDS):
        argv = fit_argv[:-1] + [str(seed)]
        code, _, _ = rb.spawn(argv, workdir, "fit.txt")
        if code != 0:
            raise RuntimeError(f"fit --seed {seed} exited with {code}")
        f = rb.read_fit(workdir / "fit.txt")
        los.append(float(f["s_ci_lo"]))
        his.append(float(f["s_ci_hi"]))

    def band(vals):
        w = max(vals) - min(vals)
        return [min(vals) - w, max(vals) + w]

    return {
        "exit_codes": p["exit_codes"],
        "traj": {"header": header, "n_rows": len(rows),
                 "t_max": float(rows[-1][col["t"]]),
                 "scale": max(abs_rho), "abs_sum": sum(abs_rho),
                 "samples": samples},
        "fit": {"c": float(fields["c"]), "eps": float(fields["eps"]),
                "s": float(fields["s"]), "verdict": fields["verdict"],
                "s_ci_lo": band(los), "s_ci_hi": band(his)},
    }


def transform(workdir):
    p = rb.run_pass("transform", 0, workdir)
    with open(workdir / "transform.json") as fh:
        d = json.load(fh)
    header, rows = rb.read_csv(workdir / "disp.csv")
    return {
        "exit_codes": p["exit_codes"],
        # acceptance criterion 6: |alpha + R*alpha - rho| <= 1e-4 max|rho|
        "max_gap_rel": 1e-4,
        "n": d["n"], "scale": d["scale"], "rho": d["rho"],
        "dispersion_header": header,
        "dispersion": [[float(x) for x in r[:4]] for r in rows],
    }


def sweep(workdir):
    p = rb.run_pass("sweep", 0, workdir)
    return {
        "exit_codes": p["exit_codes"],
        "rows": {s: rb.sweep_classes(workdir / f"sweep{s}.csv")
                 for s in ("1", "-1")},
    }


def main() -> int:
    base = rb.OUT / "make-reference"
    ref = {}
    try:
        for name in rb.WORKLOADS:
            workdir = base / name
            workdir.mkdir(parents=True, exist_ok=True)
            if name == "evolve-fit":
                ref[name] = evolve_fit(workdir)
            elif name == "transform":
                ref[name] = transform(workdir)
            else:
                ref[name] = sweep(workdir)
            if any(ref[name]["exit_codes"]):
                print(f"{name}: a child failed:\n"
                      + (workdir / "stderr.txt").read_text(), file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    with open(rb.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
