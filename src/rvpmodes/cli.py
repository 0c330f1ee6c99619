"""Command-line front end: reproducible CSV artifacts for every pipeline.

Subcommands
-----------
threshold        critical-wavenumber sweep over temperature (both signs)
evolve           integrate one mode's Volterra equation, dump trajectory
dispersion       transform values on the closed right half-plane
fit              stretched-decay fit of a trajectory CSV
appendix-verify  derivative/bound battery, pass-fail table plus margins CSV
sweep            per-mode pipeline over a wavenumber range

Conventions: output CSV starts with a `# schema=v1` line followed by
`# key=value` lines echoing the effective configuration; floats are
printed with 17 significant digits; exit codes are 0 (success),
1 (computational failure), 2 (usage/config error).  A config file of
`key = value` lines may supply any flag's value; explicit flags win.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import decay as _decay
from .equilibria import (compact_decreasing, gaussian_profile, juttner,
                         thermal_profile)
from .gevrey import (GevreyParams, g_l1_norm, partition_bound,
                     product_l1_bound_check, sup_bounds_check)
from .spectral import (ModeSpec, find_y0, laplace_beta_halfplane,
                       laplace_beta_imag, threshold_astro, threshold_plasma)
from .volterra import TimeGrid, solve_mode

SCHEMA = "v1"


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path, header, rows, config):
    lines = [f"# schema={SCHEMA}"]
    for key in sorted(config):
        lines.append(f"# {key}={config[key]}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _read_config(path):
    cfg = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, val = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key == "P":
                    key = "p_support"
                cfg[key] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return cfg


class UsageError(ValueError):
    pass


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _apply_config(args, parser, argv):
    """Overlay config-file values onto options the command line did not
    set explicitly; explicit flags always win, including over defaults."""
    if not getattr(args, "config", None):
        return args
    cfg = _read_config(args.config)
    explicit = set()
    actions = {}
    for action in parser._actions:
        actions[action.dest] = action
        for opt in action.option_strings:
            if any(tok == opt or tok.startswith(opt + "=") for tok in argv):
                explicit.add(action.dest)
    for key, raw in cfg.items():
        if key in explicit or not hasattr(args, key):
            continue
        action = actions.get(key)
        if isinstance(action, argparse._StoreTrueAction):
            low = raw.lower()
            if low not in _TRUE_WORDS | _FALSE_WORDS:
                raise UsageError(f"config {key}={raw!r} is not a boolean")
            setattr(args, key, low in _TRUE_WORDS)
            continue
        cast = action.type if action is not None and action.type else str
        try:
            setattr(args, key, cast(raw))
        except ValueError as exc:
            raise UsageError(f"config {key}={raw!r}: {exc}") from exc
    return args


def _build_equilibrium(args):
    name = (args.equilibrium or "juttner").lower()
    if name == "juttner":
        if args.theta is None:
            raise UsageError("juttner equilibrium requires --theta")
        return juttner(args.theta)
    if name == "compact":
        if args.p_support is None:
            raise UsageError("compact equilibrium requires --p-support")
        return compact_decreasing(args.p_support)
    raise UsageError(f"unknown equilibrium {name!r}")


def _build_profile(args):
    name = (args.profile or "gaussian").lower()
    if name == "gaussian":
        return gaussian_profile(args.width if args.width is not None else 1.0,
                                args.amp if args.amp is not None else 1.0)
    if name == "thermal":
        th = args.profile_theta if args.profile_theta is not None else args.theta
        if th is None:
            raise UsageError("thermal profile requires --profile-theta or --theta")
        return thermal_profile(th, args.amp if args.amp is not None else 1.0)
    raise UsageError(f"unknown profile {name!r}")


def _config_echo(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


# --- subcommands -------------------------------------------------------------

def cmd_threshold(args) -> int:
    if args.theta_min is None or args.theta_max is None:
        raise UsageError("threshold requires --theta-min and --theta-max")
    if not (0 < args.theta_min < args.theta_max) or args.n_points < 1:
        raise UsageError("empty or invalid theta range")
    thetas = np.logspace(math.log10(args.theta_min),
                         math.log10(args.theta_max), args.n_points)
    rows = []
    for th in thetas:
        eq = juttner(float(th))
        kp = math.sqrt(threshold_plasma(eq, tol=args.tol).kappa_crit_sq)
        ka = math.sqrt(threshold_astro(eq, tol=args.tol).kappa_crit_sq)
        rows.append((float(th), kp, ka))
    _write_csv(args.output, ["theta", "kappa_crit_plasma", "kappa_crit_astro"],
               rows, _config_echo(args, ["theta_min", "theta_max", "n_points",
                                         "tol"]))
    return 0


def cmd_evolve(args) -> int:
    for name in ("kappa", "sigma", "dt", "t_max"):
        if getattr(args, name) is None:
            raise UsageError(f"evolve requires --{name.replace('_', '-')}")
    if args.dt <= 0 or args.t_max <= args.dt:
        raise UsageError("need 0 < dt < t-max")
    eq = _build_equilibrium(args)
    mode = ModeSpec(kappa=args.kappa, sigma=args.sigma, equilibrium=eq,
                    profile=_build_profile(args))
    grid = TimeGrid(dt=args.dt, n_steps=int(round(args.t_max / args.dt)))
    traj = solve_mode(mode, grid, tol=args.tol, refine=bool(args.refine))
    rows = [
        (float(t), r.real, r.imag, abs(r), a.real, float(b))
        for t, r, a, b in zip(grid.times, traj.rho, traj.alpha_samples,
                              traj.beta_samples)
    ]
    cfg = _config_echo(args, ["kappa", "sigma", "theta", "dt", "t_max",
                              "equilibrium", "profile", "width", "amp",
                              "profile_theta", "p_support", "refine", "tol"])
    cfg["growth"] = traj.growth
    _write_csv(args.output, ["t", "re_rho", "im_rho", "abs_rho", "alpha",
                             "beta"], rows, cfg)
    return 0


def cmd_dispersion(args) -> int:
    for name in ("kappa", "sigma"):
        if getattr(args, name) is None:
            raise UsageError(f"dispersion requires --{name}")
    if args.n_y < 1 or not (args.y_min <= args.y_max):
        raise UsageError("invalid y grid")
    eq = _build_equilibrium(args)
    mode = ModeSpec(kappa=args.kappa, sigma=args.sigma, equilibrium=eq,
                    profile=_build_profile(args))
    xs = [float(s) for s in args.x.split(",")]
    ys = np.linspace(args.y_min, args.y_max, args.n_y)
    rows = []
    for x in xs:
        if x < 0:
            raise UsageError("dispersion is defined on the closed right "
                             "half-plane: x >= 0")
        vals = (laplace_beta_imag(mode, ys, tol=args.tol) if x == 0.0
                else [laplace_beta_halfplane(mode, x, float(y), tol=args.tol)
                      for y in ys])
        rows.extend((x, float(y), val.real, val.imag, abs(val - 1.0))
                    for y, val in zip(ys, vals))
    _write_csv(args.output, ["x", "y", "re_Lbeta", "im_Lbeta", "dist_to_one"],
               rows, _config_echo(args, ["kappa", "sigma", "theta",
                                         "equilibrium", "x", "y_min", "y_max",
                                         "n_y", "tol"]))
    return 0


def cmd_fit(args) -> int:
    if args.input is None:
        raise UsageError("fit requires --input trajectory CSV")
    if args.kappa is None:
        raise UsageError("fit requires --kappa (sets the transient window)")
    try:
        with open(args.input) as fh:
            lines = [ln.strip() for ln in fh
                     if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from exc
    if not lines:
        raise UsageError(f"{args.input} holds no data rows")
    names = lines[0].split(",")
    if "t" not in names or "abs_rho" not in names:
        raise UsageError("trajectory CSV must have 't' and 'abs_rho' columns")
    body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    t = body[:, names.index("t")]
    a = body[:, names.index("abs_rho")]
    fit, _, verdict = _decay.fit_mode_decay(
        t, a / a.max(), args.kappa, seed=args.seed, n_boot=args.n_boot,
        t_min=args.t_min)
    report = (f"c={_fmt(fit.c)} eps={_fmt(fit.eps)} s={_fmt(fit.s)} "
              f"s_ci_lo={_fmt(fit.s_ci[0])} s_ci_hi={_fmt(fit.s_ci[1])} "
              f"verdict={verdict}\n")
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(report)
    sys.stdout.write(report)
    return 0


def cmd_appendix_verify(args) -> int:
    params = GevreyParams(K=args.K, L=args.L, v=args.v)
    sup = sup_bounds_check(params, args.m_max)
    prod = product_l1_bound_check(params, m_max=min(args.m_max, 6))
    p5 = partition_bound(5)
    ratios = [partition_bound(m)[2] for m in (50, 100, 200)]
    ratios_ok = (ratios[0] < ratios[1] < ratios[2] < 1.0)
    caps = (params.K / params.L, 0.5, 4.0 * params.L / params.K)
    l1 = [g_l1_norm(params, m) for m in range(3)]
    l1_ok = all(val <= cap for val, cap in zip(l1, caps))

    checks = [
        ("sup_bounds_f", sup.all_within),
        ("coeff_sums_C", all(r[3] <= 1 for r in sup.c_sum_margins)),
        ("coeff_sums_D", all(r[3] <= 1 for r in sup.d_sum_margins)),
        ("l1_caps_g", l1_ok),
        ("product_lemma", prod.all_within),
        ("partition_p5", p5[0] == 7),
        ("partition_ratio_monotone", ratios_ok),
    ]
    for name, ok in checks:
        sys.stdout.write(f"{name:28s} {'PASS' if ok else 'FAIL'}\n")

    rows = []
    for m, val, bound, margin in sup.f_margins:
        rows.append(("f_sup", m, val, bound, margin))
    for m, val, bound, margin in sup.c_sum_margins:
        rows.append(("c_sum", m, val, bound, margin))
    for m, val, bound, margin in sup.d_sum_margins:
        rows.append(("d_sum", m, val, bound, margin))
    for m, val, bound, margin in prod.margins:
        rows.append(("product_l1", m, val, bound, margin))
    _write_csv(args.output, ["check", "m", "value", "bound", "margin"], rows,
               _config_echo(args, ["K", "L", "v", "m_max"]))
    return 0 if all(ok for _, ok in checks) else 1


def _sweep_row(task):
    (kappa, sigma, theta, dt, t_max, seed, tol) = task
    out = {"kappa": kappa, "supercritical_flag": "", "y0_or_blank": "",
           "fit_c": "", "fit_eps": "", "fit_s": "", "verdict": "",
           "error": ""}
    try:
        eq = juttner(theta)
        mode = ModeSpec(kappa=kappa, sigma=sigma, equilibrium=eq,
                        profile=thermal_profile(theta, 1.0))
        thr = (threshold_plasma(eq) if sigma == +1 else threshold_astro(eq))
        sup = kappa * kappa > thr.kappa_crit_sq
        out["supercritical_flag"] = int(sup)
        if sigma == +1 and not sup:
            y0 = find_y0(mode, tol=min(tol, 1e-10))
            out["y0_or_blank"] = "" if y0 is None else _fmt(y0)
        grid = TimeGrid(dt=dt, n_steps=int(round(t_max / dt)))
        traj = solve_mode(mode, grid, tol=tol)
        if traj.growth:
            out["verdict"] = "growth"
            return out
        a = np.abs(traj.rho)
        fit, _, verdict = _decay.fit_mode_decay(grid.times, a / a.max(),
                                                kappa, seed=seed, n_boot=50)
        out.update(fit_c=_fmt(fit.c), fit_eps=_fmt(fit.eps),
                   fit_s=_fmt(fit.s), verdict=verdict)
    except Exception as exc:  # per-row failures recorded, sweep continues
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def cmd_sweep(args) -> int:
    for name in ("kappa_min", "kappa_max", "sigma", "theta", "dt", "t_max"):
        if getattr(args, name) is None:
            raise UsageError(f"sweep requires --{name.replace('_', '-')}")
    if not (0 < args.kappa_min <= args.kappa_max) or args.n_kappa < 1:
        raise UsageError("empty or invalid kappa range")
    kappas = np.linspace(args.kappa_min, args.kappa_max, args.n_kappa)
    tasks = [(float(k), args.sigma, args.theta, args.dt, args.t_max,
              args.seed, args.tol) for k in sorted(kappas)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_row, tasks))
    else:
        results = [_sweep_row(t) for t in tasks]
    results.sort(key=lambda r: r["kappa"])
    header = ["kappa", "supercritical_flag", "y0_or_blank", "fit_c",
              "fit_eps", "fit_s", "verdict", "error"]
    rows = [tuple(r[h] for h in header) for r in results]
    _write_csv(args.output, header, rows,
               _config_echo(args, ["kappa_min", "kappa_max", "n_kappa",
                                   "sigma", "theta", "dt", "t_max", "seed",
                                   "jobs", "tol"]))
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rvpmodes",
        description="Linearized relativistic Vlasov-Poisson mode toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="quadrature tolerance (absolute)")
        sp.add_argument("-o", "--output", default=None,
                        help="output path ('-' or omitted: stdout)")

    def mode_opts(sp):
        sp.add_argument("--kappa", type=float)
        sp.add_argument("--sigma", type=int, choices=(+1, -1))
        sp.add_argument("--theta", type=float)
        sp.add_argument("--equilibrium", choices=("juttner", "compact"),
                        default=None)
        sp.add_argument("--p-support", type=float, dest="p_support",
                        help="support bound of the compact equilibrium")
        sp.add_argument("--profile", choices=("gaussian", "thermal"),
                        default=None)
        sp.add_argument("--width", type=float)
        sp.add_argument("--amp", type=float)
        sp.add_argument("--profile-theta", type=float, dest="profile_theta")

    sp = sub.add_parser("threshold", help="critical wavenumbers vs theta")
    common(sp)
    sp.add_argument("--theta-min", type=float, dest="theta_min")
    sp.add_argument("--theta-max", type=float, dest="theta_max")
    sp.add_argument("--n-points", type=int, dest="n_points", default=200)
    sp.set_defaults(func=cmd_threshold, _sp=sp)

    sp = sub.add_parser("evolve", help="integrate one mode")
    common(sp)
    mode_opts(sp)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--t-max", type=float, dest="t_max")
    sp.add_argument("--refine", action="store_true",
                    help="Richardson-extrapolate with a half-step solve")
    sp.set_defaults(func=cmd_evolve, _sp=sp)

    sp = sub.add_parser("dispersion", help="transform values on Re s >= 0")
    common(sp)
    mode_opts(sp)
    sp.add_argument("--x", default="0", help="comma list of Re s values")
    sp.add_argument("--y-min", type=float, dest="y_min", default=0.0)
    sp.add_argument("--y-max", type=float, dest="y_max", default=2.0)
    sp.add_argument("--n-y", type=int, dest="n_y", default=81)
    sp.set_defaults(func=cmd_dispersion, _sp=sp)

    sp = sub.add_parser("fit", help="stretched-decay fit of a trajectory")
    common(sp)
    sp.add_argument("--input", help="trajectory CSV from 'evolve'")
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--t-min", type=float, dest="t_min", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-boot", type=int, dest="n_boot", default=200)
    sp.set_defaults(func=cmd_fit, _sp=sp)

    sp = sub.add_parser("appendix-verify", help="derivative/bound battery")
    common(sp)
    sp.add_argument("--K", type=float, default=1.0)
    sp.add_argument("--L", type=float, default=1.0)
    sp.add_argument("--v", type=float, default=0.5)
    sp.add_argument("--m-max", type=int, dest="m_max", default=16)
    sp.set_defaults(func=cmd_appendix_verify, _sp=sp)

    sp = sub.add_parser("sweep", help="per-mode pipeline over kappa")
    common(sp)
    sp.add_argument("--kappa-min", type=float, dest="kappa_min")
    sp.add_argument("--kappa-max", type=float, dest="kappa_max")
    sp.add_argument("--n-kappa", type=int, dest="n_kappa", default=8)
    sp.add_argument("--sigma", type=int, choices=(+1, -1))
    sp.add_argument("--theta", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--t-max", type=float, dest="t_max")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_sweep, _sp=sp)

    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, getattr(args, "_sp", parser), argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
