"""Benchmark of the rvpmodes pipelines, run as fresh processes.

    python3 bench/run_bench.py --workload sweep --seed 0 --seconds 25 --trace 0
    python3 bench/run_bench.py --workload all     # one pass + traced pass each

Every workload is a fixed sequence of child processes (``python -m
rvpmodes.cli ...`` or ``solution_form.py``), run one after another with
``src`` on PYTHONPATH, so cold imports count as they do for a CLI user.
A *pass* runs the sequence once; passes start until ``--seconds`` have
passed, and the medians over passes are reported.  Before each pass and
after the last, SETUP_PER_PASS fresh ``import rvpmodes.cli`` processes are
timed, so the set-up samples spread over the whole run.  Every pass's outputs
are checked against ``reference.json``.  ``--trace 1`` adds one traced
pass: the same children run under ``trace_child.py``, which records spans
around calls into each module, and the per-layer metrics come from those
spans.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (output checks and exit codes) and ``metrics``.
The seed only feeds the bootstrap ``--seed`` of ``fit`` and ``sweep``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SOLUTION_FORM = BENCH / "solution_form.py"
TRACE_CHILD = BENCH / "trace_child.py"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("evolve-fit", "transform", "sweep")
SETUP_PER_PASS = 2

# Output tolerances, taken from the test suite:
# kernel tables agree with the direct kernels to 1e-8 absolute
# (test_kernel_table_matches_direct); the trajectory is a linear image of
# the tables, so it is held to 1e-8 of its own scale.  Dispersion values
# are computed at the CLI tol 1e-9 and held to 10 tol, the bound a batched
# evaluator must meet against the scalar one.  Fit point estimates do not
# depend on the seed; least_squares stops at relative steps of 1e-8, held
# here to 1e-6.
TOL_KERNEL = 1e-8
TOL_TRAJ_REL = 1e-8
TOL_DISPERSION = 1e-8
TOL_FIT_REL = 1e-6
TRAJ_STRIDE = 50
GRID_TOL = 1e-12

CLI = ["-m", "rvpmodes.cli"]


def commands(workload, seed):
    """(argv after the interpreter, stdout file) for each child in order."""
    if workload == "evolve-fit":
        return [
            (CLI + ["evolve", "--kappa", "1.2", "--sigma", "1", "--theta",
                    "0.5", "--profile", "thermal", "--dt", "0.02",
                    "--t-max", "300", "--refine", "-o", "traj.csv"], None),
            (CLI + ["fit", "--input", "traj.csv", "--kappa", "1.2",
                    "--seed", str(seed)], "fit.txt"),
        ]
    if workload == "transform":
        return [
            ([str(SOLUTION_FORM), "transform.json"], None),
            (CLI + ["dispersion", "--kappa", "0.46", "--sigma", "1",
                    "--theta", "0.2", "--x", "0,0.5", "--y-min", "0",
                    "--y-max", "2", "--n-y", "81", "-o", "disp.csv"], None),
        ]
    if workload == "sweep":
        return [
            (CLI + ["sweep", "--kappa-min", "0.3", "--kappa-max", "1.4",
                    "--n-kappa", "12", "--sigma", sigma, "--theta", "0.2",
                    "--dt", "0.02", "--t-max", "200", "--seed", str(seed),
                    "--jobs", "1", "-o", f"sweep{sigma}.csv"], None)
            for sigma in ("1", "-1")
        ]
    raise ValueError(f"unknown workload {workload!r}")


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, workdir, stdout_name=None):
    """Run one child to completion; return (exit code, wall s, rusage).

    ``os.wait4`` gives this child's own rusage; RUSAGE_CHILDREN would fold
    every child reaped so far into one running maximum of ``ru_maxrss``.
    """
    out = open(workdir / stdout_name, "w") if stdout_name else \
        subprocess.DEVNULL
    try:
        with open(workdir / "stderr.txt", "a") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=workdir,
                                    env=child_env(), stdout=out, stderr=err)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - t0
    finally:
        if stdout_name:
            out.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru


def run_pass(workload, seed, workdir, spans_dir=None):
    """One pass of the workload; traced when ``spans_dir`` is given."""
    codes, cpu, rss, span_files = [], 0.0, 0, []
    t0 = perf_counter()
    for i, (argv, stdout_name) in enumerate(commands(workload, seed)):
        if spans_dir is not None:
            span_file = spans_dir / f"spans{i}.json"
            span_files.append(span_file)
            argv = [str(TRACE_CHILD), str(span_file), workload] + argv
        code, _, ru = spawn(argv, workdir, stdout_name)
        codes.append(code)
        cpu += ru.ru_utime + ru.ru_stime
        rss = max(rss, ru.ru_maxrss)
    return {"wall_s": perf_counter() - t0, "cpu_s": cpu,
            "peak_rss_mb": rss / 1024.0, "exit_codes": codes,
            "span_files": span_files}


def time_setup(workdir, repeats):
    """Wall seconds of fresh ``import rvpmodes.cli`` processes."""
    times = []
    for _ in range(repeats):
        code, wall, _ = spawn(["-c", "import rvpmodes.cli"], workdir)
        if code != 0:
            raise RuntimeError("import rvpmodes.cli failed; see "
                               f"{workdir / 'stderr.txt'}")
        times.append(wall)
    return times


# --- output checks -----------------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def read_fit(path):
    """The ``key=value`` report that ``fit`` prints, as a dict of strings."""
    return dict(kv.split("=", 1) for kv in path.read_text().split())


def _close(a, b, tol):
    return abs(a - b) <= tol


def _in_band(x, band):
    return band[0] <= x <= band[1]


def _checked(name, fn):
    """Run one check; a missing or malformed output counts as failed."""
    try:
        return name, bool(fn())
    except (OSError, ValueError, KeyError, IndexError, TypeError, csv.Error):
        return name, False


def check_evolve_fit(workdir, codes, ref):
    r = ref["traj"]

    @functools.cache
    def traj():
        return read_csv(workdir / "traj.csv")

    @functools.cache
    def fit():
        return read_fit(workdir / "fit.txt")

    def traj_grid():
        header, rows = traj()
        return header == r["header"] and len(rows) == r["n_rows"]

    def traj_samples(cols, offset, tol):
        """Every TRAJ_STRIDE-th row; reference rows are [t, rho re/im,
        alpha, beta]."""
        header, rows = traj()
        idx = [header.index(c) for c in cols]
        picked = rows[::TRAJ_STRIDE]
        return len(picked) == len(r["samples"]) and all(
            _close(float(row[0]), want[0], GRID_TOL * r["t_max"])
            and all(_close(float(row[j]), w, tol)
                    for j, w in zip(idx, want[offset:offset + 2]))
            for row, want in zip(picked, r["samples"]))

    def traj_scale():
        header, rows = traj()
        j = header.index("abs_rho")
        vals = [float(row[j]) for row in rows]
        tol = TOL_TRAJ_REL * r["scale"]
        return (_close(max(vals), r["scale"], tol)
                and _close(sum(vals), r["abs_sum"], tol * len(vals)))

    def fit_point(key):
        want = ref["fit"][key]
        return _close(float(fit()[key]), want, TOL_FIT_REL * abs(want))

    def fit_ci():
        return (_in_band(float(fit()["s_ci_lo"]), ref["fit"]["s_ci_lo"])
                and _in_band(float(fit()["s_ci_hi"]), ref["fit"]["s_ci_hi"]))

    return [
        ("evolve.exit", codes[0] == ref["exit_codes"][0]),
        ("fit.exit", codes[1] == ref["exit_codes"][1]),
        _checked("traj.grid", traj_grid),
        _checked("traj.rho", lambda: traj_samples(
            ["re_rho", "im_rho"], 1, TOL_TRAJ_REL * r["scale"])),
        _checked("traj.kernels", lambda: traj_samples(
            ["alpha", "beta"], 3, TOL_KERNEL)),
        _checked("traj.scale", traj_scale),
        _checked("fit.c", lambda: fit_point("c")),
        _checked("fit.eps", lambda: fit_point("eps")),
        _checked("fit.s", lambda: fit_point("s")),
        _checked("fit.s_ci", fit_ci),
        _checked("fit.verdict",
                 lambda: fit()["verdict"] == ref["fit"]["verdict"]),
    ]


def check_transform(workdir, codes, ref):
    @functools.cache
    def solution():
        with open(workdir / "transform.json") as fh:
            return json.load(fh)

    @functools.cache
    def disp():
        return read_csv(workdir / "disp.csv")

    def solution_form():
        d = solution()
        return d["gap"] <= ref["max_gap_rel"] * d["scale"]

    def rho():
        d = solution()
        tol = TOL_TRAJ_REL * ref["scale"]
        return (d["n"] == ref["n"] and len(d["rho"]) == len(ref["rho"])
                and _close(d["scale"], ref["scale"], tol)
                and all(_close(g, w, tol)
                        for gz, wz in zip(d["rho"], ref["rho"])
                        for g, w in zip(gz, wz)))

    def disp_rows(first, tol):
        """Columns first, first+1 of every row: (x, y) or (re, im)."""
        header, rows = disp()
        want = ref["dispersion"]
        return (header == ref["dispersion_header"] and len(rows) == len(want)
                and all(_close(float(row[j]), w[j], tol)
                        for row, w in zip(rows, want)
                        for j in (first, first + 1)))

    return [
        ("solution_form.exit", codes[0] == ref["exit_codes"][0]),
        ("dispersion.exit", codes[1] == ref["exit_codes"][1]),
        _checked("solution_form.gap", solution_form),
        _checked("solution_form.rho", rho),
        _checked("dispersion.grid", lambda: disp_rows(0, GRID_TOL)),
        _checked("dispersion.values", lambda: disp_rows(2, TOL_DISPERSION)),
    ]


def sweep_classes(path):
    """Per row: [kappa, supercritical flag, verdict, exception type]."""
    header, rows = read_csv(path)
    col = {h: i for i, h in enumerate(header)}
    out = []
    for r in rows:
        err = r[col["error"]]
        out.append([float(r[col["kappa"]]), int(r[col["supercritical_flag"]]),
                    r[col["verdict"]], err.split(":", 1)[0] if err else ""])
    return out


def check_sweep(workdir, codes, ref):
    results = [("sweep+1.exit", codes[0] == ref["exit_codes"][0]),
               ("sweep-1.exit", codes[1] == ref["exit_codes"][1])]
    for sigma in ("1", "-1"):
        want = ref["rows"][sigma]
        try:
            got = sweep_classes(workdir / f"sweep{sigma}.csv")
        except (OSError, ValueError, KeyError, IndexError, csv.Error):
            got = []
        results.append((f"sweep{sigma}.rows", len(got) == len(want)))
        for i, w in enumerate(want):
            g = got[i] if i < len(got) else None
            ok = (g is not None and _close(g[0], w[0], GRID_TOL)
                  and g[1:] == w[1:])
            results.append((f"sweep{sigma}.row{i}", ok))
    return results


CHECKS = {"evolve-fit": check_evolve_fit, "transform": check_transform,
          "sweep": check_sweep}


def check_outputs(workload, workdir, codes, reference):
    return CHECKS[workload](workdir, codes, reference[workload])


# --- traced pass -------------------------------------------------------------

def self_times(spans):
    """Self time per span: its duration minus its children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(span_files, traced_wall, untraced_wall):
    """Per-layer metrics of one traced pass, summed over its processes."""
    m = {}

    def add(key, val):
        m[key] = m.get(key, 0) + val

    cli_imports, imports_s, roots_s, first_s = [], 0.0, 0.0, 0.0
    fits = attempts = 0
    err_ratio = 0.0
    for path in span_files:
        if not path.exists():  # the child died early; its checks fail
            continue
        with open(path) as fh:
            rec = json.load(fh)
        name, import_s = rec["import"]
        imports_s += import_s
        if name == "cli.import":
            cli_imports.append(import_s)
        spans = rec["spans"]
        own = self_times(spans)
        seen_first = False
        for s, self_s in zip(spans, own):
            fn, total = s[0], s[2] - s[1]
            extra = s[4] or {}
            add(f"{fn}.calls", 1)
            add(f"{fn}.self_s", self_s)
            add(f"{fn}.total_s", total)
            if s[3] < 0:
                roots_s += total
            if fn == "spectral.sample_kernels":
                if not seen_first:
                    first_s += self_s
                    seen_first = True
                add(f"{fn}.samples", extra.get("samples", 0))
                err_ratio = max(err_ratio, extra.get("err_ratio", 0.0))
            elif fn == "quadrature.integrate_finite":
                add(f"{fn}.evaluations", extra["evaluations"])
            elif fn == "volterra.solve_volterra":
                k = extra["steps"]
                add(f"{fn}.steps", k)
                add(f"{fn}.madds", k * (k - 1) // 2)
                add(f"{fn}.growth_hits", int(extra["growth"]))
            elif fn == "decay.bootstrap_s_interval":
                add(f"{fn}.replicates", extra["replicates"])
            elif fn == "decay.fit_mode_decay":
                attempts += 1
                fits += int(extra["fitted"])
            elif fn == "cli._write_csv":
                add(f"{fn}.bytes", extra["bytes"])
    m["cli.import_s"] = statistics.median(cli_imports) if cli_imports else 0.0
    m["spectral.sample_kernels.first_s"] = first_s
    m["spectral.sample_kernels.err_ratio"] = err_ratio
    m["decay.fit_rate"] = fits / attempts if attempts else 0.0
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.in_process_s"] = roots_s
    m["trace.accounted_frac"] = (imports_s + roots_s) / traced_wall
    return m


# --- environment -------------------------------------------------------------

def git_sha():
    if not (ROOT / ".git").exists():  # an exported checkout
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment(seed):
    """Versions, CPU count, BLAS library and its thread count."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, libs = None, set()
    try:  # the loaded OpenBLAS, to ask it for its thread count
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln}
    except OSError:
        pass
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "seed": seed}


# --- runs --------------------------------------------------------------------

def declared_metrics(kind):
    """(name, unit) of each ``end_to_end`` or ``per_layer`` metric."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def measure(workload, seed, seconds, trace, reference, workdir, setup=True):
    """Untraced passes for ``seconds`` with set-up timings between them,
    then an optional traced pass."""
    record = {"workload": workload, "seed": seed}
    setup_s, passes, checks = [], [], []
    t0 = perf_counter()
    while True:
        if setup:
            setup_s += time_setup(workdir, SETUP_PER_PASS)
        p = run_pass(workload, seed, workdir)
        checks += check_outputs(workload, workdir, p["exit_codes"], reference)
        passes.append(p)
        if perf_counter() - t0 >= seconds:
            break
    if setup:
        record["setup_s"] = setup_s + time_setup(workdir, SETUP_PER_PASS)
    record["passes"] = [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                           "exit_codes")} for p in passes]
    if trace:
        spans_dir = workdir / "spans"
        spans_dir.mkdir(exist_ok=True)
        tp = run_pass(workload, seed, workdir, spans_dir)
        checks += check_outputs(workload, workdir, tp["exit_codes"],
                                reference)
        record["layers"] = layer_metrics(
            tp["span_files"], tp["wall_s"],
            statistics.median(p["wall_s"] for p in passes))
        record["spans"] = [json.loads(f.read_text())
                           for f in tp["span_files"] if f.exists()]
    record["checks"] = checks
    return record


def summarize(record, trace):
    """The contract's result object for one measured workload."""
    failed = sum(1 for _, ok in record["checks"] if not ok)
    result = {"correct": failed == 0, "attempted": len(record["checks"]),
              "failed": failed, "metrics": {}}
    if trace:
        vals = record["layers"]
        kind = "per_layer"
    else:
        vals = {k: statistics.median(p[k] for p in record["passes"])
                for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        vals["setup_s"] = statistics.median(record["setup_s"])
        kind = "end_to_end"
    for name, unit in declared_metrics(kind):
        result["metrics"][name] = {"value": vals.get(name, 0), "unit": unit}
    return result


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rvpmodes" / "cli.py").is_file():
        print(f"error: no rvpmodes sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    reference = load_reference()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run_dir = OUT / f"run-{os.getpid()}"
    results = {}
    try:
        for w in names:
            workdir = run_dir / w
            workdir.mkdir(parents=True)
            if args.workload == "all":
                rec = measure(w, args.seed, 0.0, True, reference, workdir)
                results[w] = {"e2e": summarize(rec, False), "record": rec}
            else:
                rec = measure(w, args.seed, args.seconds, args.trace,
                              reference, workdir, setup=not args.trace)
                results[w] = {"record": rec}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "records": {w: r["record"]
                                           for w, r in results.items()}}, fh)

    if args.workload == "all":
        print_table(results, env)
        failed = sum(r["e2e"]["failed"] for r in results.values())
        attempted = sum(r["e2e"]["attempted"] for r in results.values())
        print(json.dumps({
            "env": env, "attempted": attempted, "failed": failed,
            "workloads": {w: {"e2e": {k: v["value"] for k, v in
                                      r["e2e"]["metrics"].items()},
                              "layers": r["record"]["layers"]}
                          for w, r in results.items()}}))
        return 0 if failed == 0 else 1

    rec = results[args.workload]["record"]
    print(json.dumps({"env": env}))
    for name, ok in rec["checks"]:
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps(summarize(rec, args.trace)))
    return 0


def print_table(results, env):
    """Every end-to-end metric, fail_frac, every traced quantity, and each
    layer's self and total time as a share of ``trace.in_process_s``."""
    print(f"# {env}")
    print(f"{'metric':44s} {'unit':6s} " + " ".join(
        f"{w:>12s}" for w in results))
    first = next(iter(results.values()))
    for name, m in first["e2e"]["metrics"].items():
        cells = [r["e2e"]["metrics"][name]["value"] for r in results.values()]
        print(f"{name:44s} {m['unit']:6s} "
              + " ".join(f"{v:12.6g}" for v in cells))
    cells = [r["e2e"]["failed"] / r["e2e"]["attempted"]
             for r in results.values()]
    print(f"{'fail_frac':44s} {'ratio':6s} "
          + " ".join(f"{v:12.6g}" for v in cells))
    layers = []
    for r in results.values():
        m = dict(r["record"]["layers"])
        total = m["trace.in_process_s"]
        for key in [k for k in m if k.endswith((".self_s", ".total_s"))]:
            m[key[:-1] + "frac"] = m[key] / total if total else 0.0
        layers.append(m)
    units = dict(declared_metrics("per_layer"))
    for name in sorted({k for m in layers for k in m}):
        unit = units.get(name) or ("s" if name.endswith("_s") else "ratio"
                                   if name.endswith("_frac") else "count")
        print(f"{name:44s} {unit:6s} "
              + " ".join(f"{m.get(name, 0):12.6g}" for m in layers))


if __name__ == "__main__":
    sys.exit(main())
