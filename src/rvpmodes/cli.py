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
import os
import sys
import warnings

# no CLI BLAS call gains from a second thread, which spins idle for CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import decay as _decay
from .equilibria import (compact_decreasing, gaussian_profile, juttner,
                         thermal_profile)
from .spectral import (ModeSpec, find_y0, kappa_crit_sq,
                       laplace_beta_halfplane)
from .volterra import TimeGrid, solve_mode

SCHEMA = "v1"
MAX_STEPS = 2 ** 20  # time steps of one mode; a --refine run peaks near 0.37 GB
MAX_POINTS = 2 ** 16  # points of a threshold, dispersion or sweep grid


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


_WRITE_ROWS = 4096  # rows formatted per write of a float block


def _write_csv(path, header, rows, config):
    """Write the schema and config lines, the header and ``rows``: tuples
    of values, or a 2-D float array, streamed in blocks of rows through
    one ``%.17g`` template (the bytes ``_fmt`` gives each float)."""
    lines = [f"# schema={SCHEMA}"]
    for key in sorted(config):
        lines.append(f"# {key}={config[key]}")
    lines.append(",".join(header))

    def write(fh):
        fh.write("\n".join(lines) + "\n")
        if isinstance(rows, np.ndarray):
            template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for i0 in range(0, len(rows), _WRITE_ROWS):
                block = rows[i0:i0 + _WRITE_ROWS]
                fh.write(template * len(block) % tuple(block.ravel().tolist()))
        else:
            fh.writelines(",".join(_fmt(x) for x in row) + "\n"
                          for row in rows)

    if path is None or path == "-":
        write(sys.stdout)
        return
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


class UsageError(ValueError):
    pass


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _config_tokens(sp, path):
    """The ``key = value`` lines of a config file as ``--flag=value``
    tokens of subcommand ``sp``, for its parser to check as it checks typed
    flags; a switch takes a yes word as its bare flag and a no word as
    nothing.  A line without ``=``, or a key that names no option of the
    subcommand (or names ``help`` or ``config``), is a usage error."""
    actions = {action.dest: action for action in sp._actions
               if action.dest not in ("help", "config")}
    try:
        with open(path) as fh:
            lines = [line.split("#", 1)[0].strip() for line in fh]
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    tokens = []
    for line in filter(None, lines):
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = "p_support" if key == "P" else key.replace("-", "_")
        action = actions.get(key)
        if action is None:
            raise UsageError(f"config key {key!r} is not an option of "
                             f"{sp.prog}")
        flag = action.option_strings[-1]
        if action.nargs != 0:
            tokens.append(f"{flag}={raw}")
        elif raw.lower() in _TRUE_WORDS:
            tokens.append(flag)
        elif raw.lower() not in _FALSE_WORDS:
            raise UsageError(f"config {key}={raw!r} is not a boolean")
    return tokens


def _build_equilibrium(args):
    if args.equilibrium == "compact":
        if args.p_support is None:
            raise UsageError("compact equilibrium requires --p-support")
        return _usage_checked(compact_decreasing, args.p_support,
                              flag="--p-support")
    if args.theta is None:
        raise UsageError("juttner equilibrium requires --theta")
    return _usage_checked(juttner, args.theta, flag="--theta")


def _build_profile(args):
    amp = args.amp if args.amp is not None else 1.0
    if not math.isfinite(amp):
        raise UsageError(f"--amp must be finite, got {amp}")
    if args.profile == "thermal":
        flag, th = (("--profile-theta", args.profile_theta)
                    if args.profile_theta is not None
                    else ("--theta", args.theta))
        if th is None:
            raise UsageError("thermal profile requires --profile-theta or --theta")
        return _usage_checked(thermal_profile, th, amp, flag=flag)
    return _usage_checked(gaussian_profile,
                          args.width if args.width is not None else 1.0, amp,
                          flag="--width")


def _usage_checked(build, *args, flag=None):
    """``build(*args)``, where the ValueError by which a constructor
    refuses a value is a usage error, which names ``flag`` if given."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}" if flag else str(exc)) from exc


def _time_grid(dt, t_max):
    """round(t_max/dt) steps of dt, refused before anything is allocated
    unless 0 < dt < t_max < inf and t_max/dt <= MAX_STEPS."""
    if not (0 < dt < t_max < math.inf and t_max / dt <= MAX_STEPS):
        raise UsageError(f"need finite 0 < dt < t-max with t-max/dt <= "
                         f"{MAX_STEPS}, got dt={dt}, t-max={t_max}")
    return TimeGrid(dt=dt, n_steps=int(round(t_max / dt)))


def _count(flag, n, top=MAX_POINTS, bottom=1):
    """Refuse a count outside bottom..top before anything is allocated."""
    if not bottom <= n <= top:
        raise UsageError(f"{flag} must lie in {bottom}..{top}, got {n}")


_NOT_ECHOED = {"config", "output", "help"}


def _config_echo(args):
    """Every option of the subcommand that holds a value, by its dest."""
    return {a.dest: getattr(args, a.dest) for a in args._sp._actions
            if a.dest not in _NOT_ECHOED and getattr(args, a.dest) is not None}


# --- subcommands -------------------------------------------------------------

def cmd_threshold(args) -> int:
    _count("--n-points", args.n_points)
    for flag, th in (("--theta-min", args.theta_min),
                     ("--theta-max", args.theta_max)):
        if not math.isfinite(th):
            raise UsageError(f"{flag} must be finite, got {th}")
    if not 0 < args.theta_min < args.theta_max:
        raise UsageError("empty or invalid theta range")
    thetas = np.geomspace(args.theta_min, args.theta_max, args.n_points)
    # juttner takes an interval of theta
    _usage_checked(juttner, float(thetas[0]), flag="--theta-min")
    _usage_checked(juttner, float(thetas[-1]), flag="--theta-max")
    rows = []
    for th in thetas:
        eq = juttner(float(th))
        rows.append((float(th), math.sqrt(kappa_crit_sq(eq, +1, args.tol)),
                     math.sqrt(kappa_crit_sq(eq, -1, args.tol))))
    _write_csv(args.output, ["theta", "kappa_crit_plasma", "kappa_crit_astro"],
               rows, _config_echo(args))
    return 0


def cmd_evolve(args) -> int:
    grid = _time_grid(args.dt, args.t_max)
    mode = _usage_checked(ModeSpec, args.kappa, args.sigma,
                          _build_equilibrium(args), _build_profile(args),
                          flag="--kappa")
    traj = solve_mode(mode, grid, tol=args.tol, refine=bool(args.refine))
    re, im = traj.rho.real, traj.rho.imag
    # np.hypot rounds as the scalar abs(complex) does; np.abs need not
    rows = np.column_stack((grid.times, re, im, np.hypot(re, im),
                            traj.alpha_samples, traj.beta_samples))
    cfg = _config_echo(args)
    cfg["growth"] = traj.growth
    _write_csv(args.output, ["t", "re_rho", "im_rho", "abs_rho", "alpha",
                             "beta"], rows, cfg)
    return 0


def cmd_dispersion(args) -> int:
    _count("--n-y", args.n_y)
    if not -math.inf < args.y_min <= args.y_max < math.inf:
        raise UsageError("invalid y grid")
    mode = _usage_checked(ModeSpec, args.kappa, args.sigma,
                          _build_equilibrium(args), flag="--kappa")
    try:
        xs = [float(s) for s in args.x.split(",")]
    except ValueError as exc:
        raise UsageError(f"--x {args.x!r}: {exc}") from exc
    if not all(0.0 <= x < math.inf for x in xs):
        raise UsageError("dispersion is defined on the closed right half-"
                         f"plane: --x needs finite x >= 0, got {args.x!r}")
    ys = np.linspace(args.y_min, args.y_max, args.n_y)
    rows = []
    for x in xs:
        vals = laplace_beta_halfplane(mode, x, ys, tol=args.tol)
        rows.extend((x, float(y), val.real, val.imag, abs(val - 1.0))
                    for y, val in zip(ys, vals))
    _write_csv(args.output, ["x", "y", "re_Lbeta", "im_Lbeta", "dist_to_one"],
               rows, _config_echo(args))
    return 0


def _read_trajectory(path):
    """Column names and the (rows, columns) body of a trajectory CSV; a
    missing file or column, a malformed or ragged row, a non-finite ``t``
    or ``abs_rho``, a negative ``abs_rho`` or none positive is a usage
    error."""
    try:
        with open(path) as fh:
            header = ""
            for line in fh:
                header = line.strip()
                if header and not header.startswith("#"):
                    break
            names = header.split(",")
            if "t" not in names or "abs_rho" not in names:
                raise UsageError(f"{path}: trajectory CSV must have 't' and "
                                 "'abs_rho' columns")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # empty body: checked below
                body = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    if body.size == 0:
        raise UsageError(f"{path} holds no data rows")
    if body.shape[1] != len(names):
        raise UsageError(f"{path}: {body.shape[1]} columns in the rows, "
                         f"{len(names)} in the header")
    for name in ("t", "abs_rho"):
        bad = np.flatnonzero(~np.isfinite(body[:, names.index(name)]))
        if bad.size:
            raise UsageError(f"{path}: non-finite {name} in data row "
                             f"{bad[0] + 1}")
    a = body[:, names.index("abs_rho")]
    bad = np.flatnonzero(a < 0)
    if bad.size:
        raise UsageError(f"{path}: negative abs_rho in data row {bad[0] + 1}")
    if not np.any(a > 0):
        raise UsageError(f"{path}: no positive abs_rho to normalise by")
    return names, body


def cmd_fit(args) -> int:
    if not 0 < args.kappa < math.inf:
        raise UsageError(f"--kappa must be finite and positive, got "
                         f"{args.kappa}")
    if args.t_min is not None and not math.isfinite(args.t_min):
        raise UsageError(f"--t-min must be finite, got {args.t_min}")
    _count("--n-boot", args.n_boot, bottom=0)
    if args.seed < 0:  # random.Random(-s) would repeat the stream of s
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    names, body = _read_trajectory(args.input)
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
    # the battery's exact arithmetic (fractions) loads only here
    from .gevrey import MAX_ORDER, GevreyParams, appendix_battery

    params = _usage_checked(GevreyParams, args.K, args.L, args.v)
    if not 0 <= args.m_max <= MAX_ORDER:
        raise UsageError(f"--m-max must lie in [0, {MAX_ORDER}], got "
                         f"{args.m_max}")
    try:
        checks, rows = appendix_battery(params, args.m_max)
    except ArithmeticError as exc:
        raise UsageError(f"K={args.K:g}, L={args.L:g}, m-max={args.m_max} "
                         f"overflow the battery: {type(exc).__name__}: "
                         f"{exc}") from exc
    for name, ok in checks:
        sys.stdout.write(f"{name:28s} {'PASS' if ok else 'FAIL'}\n")
    _write_csv(args.output, ["check", "m", "value", "bound", "margin"], rows,
               _config_echo(args))
    return 0 if all(ok for _, ok in checks) else 1


_SWEEP_COLUMNS = ("kappa", "supercritical_flag", "y0_or_blank", "fit_c",
                  "fit_eps", "fit_s", "verdict", "error")


def _sweep_row(task):
    (kappa, sigma, theta, kc2, grid, tol) = task
    out = dict.fromkeys(_SWEEP_COLUMNS, "")
    out["kappa"] = kappa
    try:
        mode = ModeSpec(kappa=kappa, sigma=sigma, equilibrium=juttner(theta),
                        profile=thermal_profile(theta, 1.0))
        sup = kappa * kappa > kc2
        out["supercritical_flag"] = int(sup)
        if sigma == +1 and not sup:  # find_y0 is None only when sup
            out["y0_or_blank"] = _fmt(find_y0(mode, kc2, min(tol, 1e-10)))
        traj = solve_mode(mode, grid, tol=tol)
        if traj.growth:
            out["verdict"] = "growth"
            return out
        a = np.abs(traj.rho)
        # point fits only: no row reports an interval, so no bootstrap
        fit, _, verdict = _decay.fit_mode_decay(grid.times, a / a.max(),
                                                kappa, n_boot=0)
        out.update(fit_c=_fmt(fit.c), fit_eps=_fmt(fit.eps),
                   fit_s=_fmt(fit.s), verdict=verdict)
    except Exception as exc:  # per-row failures recorded, sweep continues
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def cmd_sweep(args) -> int:
    _count("--n-kappa", args.n_kappa)
    if not 0 < args.kappa_min <= args.kappa_max:
        raise UsageError("empty or invalid kappa range")
    # a process pool starts all its workers at once, whatever the rows
    _count("--jobs", args.jobs, os.cpu_count() or 1)
    grid = _time_grid(args.dt, args.t_max)
    eq = _usage_checked(juttner, args.theta, flag="--theta")
    for flag, k in (("--kappa-min", args.kappa_min),
                    ("--kappa-max", args.kappa_max)):
        _usage_checked(ModeSpec, k, args.sigma, eq, flag=flag)
    # one threshold for every row: it depends on theta and sigma only
    kc2 = kappa_crit_sq(eq, args.sigma, args.tol)
    kappas = np.linspace(args.kappa_min, args.kappa_max, args.n_kappa)
    tasks = [(float(k), args.sigma, args.theta, kc2, grid, args.tol)
             for k in sorted(kappas)]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # sweep --jobs only

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_row, tasks))
    else:
        results = [_sweep_row(t) for t in tasks]
    # both routes return the rows in task order, which is kappa order
    rows = [tuple(r[h] for h in _SWEEP_COLUMNS) for r in results]
    _write_csv(args.output, _SWEEP_COLUMNS, rows, _config_echo(args))
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rvpmodes",
        description="Linearized relativistic Vlasov-Poisson mode toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, required=()):
        """A subcommand running ``func``; the options named (by dest) in
        ``required`` may come from flags or the config file, and ``main``
        refuses the run unless each holds a value."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func, _sp=sp, _required=required)
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("-o", "--output", default=None,
                        help="output path ('-' or omitted: stdout)")
        return sp

    def tol_opt(sp):
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="quadrature tolerance (absolute)")

    def equilibrium_opts(sp):
        sp.add_argument("--kappa", type=float)
        sp.add_argument("--sigma", type=int, choices=(+1, -1))
        sp.add_argument("--theta", type=float)
        sp.add_argument("--equilibrium", choices=("juttner", "compact"),
                        default=None)
        sp.add_argument("--p-support", type=float, dest="p_support",
                        help="support bound of the compact equilibrium")

    sp = command("threshold", cmd_threshold, "critical wavenumbers vs theta",
                 ("theta_min", "theta_max"))
    tol_opt(sp)
    sp.add_argument("--theta-min", type=float, dest="theta_min")
    sp.add_argument("--theta-max", type=float, dest="theta_max")
    sp.add_argument("--n-points", type=int, dest="n_points", default=200)

    sp = command("evolve", cmd_evolve, "integrate one mode",
                 ("kappa", "sigma", "dt", "t_max"))
    tol_opt(sp)
    equilibrium_opts(sp)
    sp.add_argument("--profile", choices=("gaussian", "thermal"),
                    default=None)
    sp.add_argument("--width", type=float)
    sp.add_argument("--amp", type=float)
    sp.add_argument("--profile-theta", type=float, dest="profile_theta")
    sp.add_argument("--dt", type=float)
    sp.add_argument("--t-max", type=float, dest="t_max")
    sp.add_argument("--refine", action="store_true",
                    help="Richardson-extrapolate with a half-step solve")

    sp = command("dispersion", cmd_dispersion, "transform values on Re s >= 0",
                 ("kappa", "sigma"))
    tol_opt(sp)
    equilibrium_opts(sp)
    sp.add_argument("--x", default="0", help="comma list of Re s values")
    sp.add_argument("--y-min", type=float, dest="y_min", default=0.0)
    sp.add_argument("--y-max", type=float, dest="y_max", default=2.0)
    sp.add_argument("--n-y", type=int, dest="n_y", default=81)

    sp = command("fit", cmd_fit, "stretched-decay fit of a trajectory",
                 ("input", "kappa"))
    sp.add_argument("--input", help="trajectory CSV from 'evolve'")
    sp.add_argument("--kappa", type=float,
                    help="wavenumber; sets the transient window")
    sp.add_argument("--t-min", type=float, dest="t_min", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-boot", type=int, dest="n_boot", default=200)

    sp = command("appendix-verify", cmd_appendix_verify,
                 "derivative/bound battery")
    sp.add_argument("--K", type=float, default=1.0)
    sp.add_argument("--L", type=float, default=1.0)
    sp.add_argument("--v", type=float, default=0.5)
    sp.add_argument("--m-max", type=int, dest="m_max", default=16)

    sp = command("sweep", cmd_sweep, "per-mode pipeline over kappa",
                 ("kappa_min", "kappa_max", "sigma", "theta", "dt", "t_max"))
    tol_opt(sp)
    sp.add_argument("--kappa-min", type=float, dest="kappa_min")
    sp.add_argument("--kappa-max", type=float, dest="kappa_max")
    sp.add_argument("--n-kappa", type=int, dest="n_kappa", default=8)
    sp.add_argument("--sigma", type=int, choices=(+1, -1))
    sp.add_argument("--theta", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--t-max", type=float, dest="t_max")
    sp.add_argument("--seed", type=int, default=0,
                    help="accepted and echoed; sweep reports point fits with "
                         "no interval, so the seed does not change its output")
    sp.add_argument("--jobs", type=int, default=1)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values enter as flags ahead of the typed ones, so the
            # parser checks both alike and a typed flag, the later, wins
            args = parser.parse_args(
                argv[:1] + _config_tokens(args._sp, args.config) + argv[1:])
        missing = [f"--{name.replace('_', '-')}" for name in args._required
                   if getattr(args, name) is None]
        if missing:
            raise UsageError(f"{args.command} requires {', '.join(missing)}")
        if "tol" in vars(args) and not 0 < args.tol < math.inf:
            raise UsageError(f"--tol must be finite and positive, got "
                             f"{args.tol}")
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
