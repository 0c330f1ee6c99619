import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rvpmodes
from rvpmodes import cli, decay, quadrature, spectral
from rvpmodes.cli import _fmt, main
from rvpmodes.equilibria import juttner, thermal_profile
from rvpmodes.spectral import ModeSpec, threshold_plasma
from rvpmodes.volterra import TimeGrid, solve_mode


def read_csv(path):
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if "=" in line:
                    k, v = line[1:].split("=", 1)
                    meta[k.strip()] = v.strip()
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def exit_code(argv):
    """The exit code of ``main(argv)``, also where the parser refuses the
    command line."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestThreshold:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "thr.csv"
        rc = main(["threshold", "--theta-min", "0.1", "--theta-max", "1.0",
                   "--n-points", "4", "-o", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert meta["schema"] == "v1"
        assert header == ["theta", "kappa_crit_plasma", "kappa_crit_astro"]
        assert len(rows) == 4
        # astro column follows the exact 1/sqrt(pi theta) law
        for row in rows:
            th, _, ka = map(float, row)
            assert ka == pytest.approx(1.0 / math.sqrt(math.pi * th),
                                       rel=1e-8)

    def test_grid_keeps_its_ends(self, tmp_path):
        # 10 ** log10(0.03) is 0.029999999999999995: the ends come back as
        # the values given
        out = tmp_path / "thr.csv"
        assert main(["threshold", "--theta-min", "0.03", "--theta-max", "10",
                     "--n-points", "3", "-o", str(out)]) == 0
        thetas = [float(row[0]) for row in read_csv(out)[2]]
        assert thetas[0] == 0.03 and thetas[-1] == 10.0

    def test_empty_range_is_usage_error(self, capsys):
        rc = main(["threshold", "--theta-min", "1.0", "--theta-max", "0.5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_range_is_usage_error(self):
        assert main(["threshold"]) == 2


class TestEvolveFit:
    def test_round_trip(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        rc = main(["evolve", "--kappa", "1.2", "--sigma", "1", "--theta",
                   "0.5", "--profile", "thermal", "--dt", "0.02", "--t-max",
                   "120", "-o", str(traj)])
        assert rc == 0
        meta, header, rows = read_csv(traj)
        assert header == ["t", "re_rho", "im_rho", "abs_rho", "alpha",
                          "beta"]
        assert meta["growth"] == "False"
        first = [float(x) for x in rows[0]]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(first[4], rel=1e-12)  # rho0=alpha0

        rc = main(["fit", "--input", str(traj), "--kappa", "1.2",
                   "--n-boot", "30", "--seed", "3"])
        assert rc == 0
        report = capsys.readouterr().out.strip()
        fields = dict(kv.split("=") for kv in report.split())
        assert fields["verdict"] == "sub-exponential"
        assert 2.0 < float(fields["s"]) < 5.0

    def test_reports_are_seeded(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        main(["evolve", "--kappa", "1.2", "--sigma", "1", "--theta", "0.5",
              "--profile", "thermal", "--dt", "0.05", "--t-max", "80",
              "-o", str(traj)])
        outs = []
        for _ in range(2):
            main(["fit", "--input", str(traj), "--kappa", "1.2",
                  "--n-boot", "25", "--seed", "11"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_flat_trajectory_is_computational_failure(self, tmp_path):
        bad = tmp_path / "flat.csv"
        lines = ["# schema=v1", "t,abs_rho"]
        lines += [f"{t},1.0" for t in np.linspace(0, 50, 200)]
        bad.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--input", str(bad), "--kappa", "1.0"]) == 1

    def test_missing_file_is_usage_error(self):
        assert main(["fit", "--input", "/nonexistent.csv",
                     "--kappa", "1.0"]) == 2

    def test_missing_dt_is_usage_error(self):
        assert main(["evolve", "--kappa", "1.0", "--sigma", "1",
                     "--theta", "0.5", "--t-max", "10"]) == 2

    @pytest.mark.parametrize("body,problem", [
        ("0,1\n1,abc\n", "could not convert"),
        ("0,1\n1,0.5,7\n", "number of columns"),
        ("0,1,7\n1,0.5,7\n", "columns in the rows"),
        ("0,1\n1,nan\n", "non-finite abs_rho"),
        ("0,1\nnan,0.5\n", "non-finite t"),
        ("", "no data rows"),
        ("0,1\n1,-0.5\n2,0.25\n", "negative abs_rho in data row 2"),
        ("0,0\n1,0\n", "no positive abs_rho"),
    ])
    def test_malformed_trajectory_is_usage_error(self, tmp_path, capsys,
                                                 body, problem):
        bad = tmp_path / "bad.csv"
        bad.write_text("# schema=v1\nt,abs_rho\n" + body)
        assert main(["fit", "--input", str(bad), "--kappa", "1.0"]) == 2
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--kappa=0", "--kappa=-1",
                                      "--kappa=inf", "--kappa=nan",
                                      "--t-min=nan", "--t-min=inf"])
    def test_bad_kappa_or_t_min_is_usage_error(self, tmp_path, capsys, flag):
        # used to divide by zero, fit silently, or report a fit failure
        traj = tmp_path / "traj.csv"
        t = np.linspace(0.0, 60.0, 601)
        rows = [f"{x:.17g},{y:.17g}" for x, y in
                zip(t, np.abs(np.cos(2.0 * t)) / (1.0 + t) ** 2)]
        traj.write_text("t,abs_rho\n" + "\n".join(rows) + "\n")
        argv = ["fit", "--input", str(traj), "--kappa", "1.0", "--n-boot", "0"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + [flag]) == 2
        err = capsys.readouterr().err
        assert flag.split("=")[0] in err and "computation failed" not in err

    def test_nan_peak_is_usage_error_not_fit_failure(self, tmp_path, capsys):
        # a single NaN used to surface as "too few positive peaks to fit"
        traj = tmp_path / "traj.csv"
        assert main(["evolve", "--kappa", "1.2", "--sigma", "1", "--theta",
                     "0.5", "--dt", "0.05", "--t-max", "80",
                     "-o", str(traj)]) == 0
        lines = traj.read_text().splitlines()
        row = lines[-100].split(",")
        row[3] = "nan"
        lines[-100] = ",".join(row)
        traj.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--input", str(traj), "--kappa", "1.2",
                     "--n-boot", "0"]) == 2
        assert "non-finite abs_rho" in capsys.readouterr().err

    def test_negative_n_boot_is_usage_error(self, tmp_path):
        traj = tmp_path / "traj.csv"
        assert main(["evolve", "--kappa", "1.2", "--sigma", "1", "--theta",
                     "0.5", "--dt", "0.05", "--t-max", "80",
                     "-o", str(traj)]) == 0
        assert main(["fit", "--input", str(traj), "--kappa", "1.2",
                     "--n-boot", "-1"]) == 2

    def test_n_boot_cap(self, tmp_path, capsys, monkeypatch):
        # 1e12 replicates once exited 1 with a MemoryError of 2.47 PiB
        traj = tmp_path / "traj.csv"
        t = np.linspace(0.0, 60.0, 601)
        rows = [f"{x:.17g},{y:.17g}" for x, y in
                zip(t, np.abs(np.cos(2.0 * t)) / (1.0 + t) ** 2)]
        traj.write_text("t,abs_rho\n" + "\n".join(rows) + "\n")
        argv = ["fit", "--input", str(traj), "--kappa", "1.0", "--n-boot"]
        assert main(argv + ["0"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_read_trajectory", None)  # nothing may run
        for n in (10 ** 12, cli.MAX_POINTS + 1):
            assert main(argv + [str(n)]) == 2
            err = capsys.readouterr().err
            assert "--n-boot must lie in 0..65536" in err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys,
                                          monkeypatch):
        # it exited 1 with numpy's "expected non-negative integer"; the
        # generator would take -1 for the stream of seed 1
        monkeypatch.setattr(cli, "_read_trajectory", None)  # nothing may run
        assert main(["fit", "--input", str(tmp_path / "traj.csv"),
                     "--kappa", "1.2", "--seed", "-1"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err


class TestDispersion:
    def test_csv_contract(self, tmp_path, monkeypatch):
        # off the axis too the transform is a Cauchy sum, with no momentum
        # quadrature behind it
        def refused(*args, **kwargs):
            raise AssertionError("integrate_finite called")

        monkeypatch.setattr(quadrature, "integrate_finite", refused)
        out = tmp_path / "disp.csv"
        rc = main(["dispersion", "--kappa", "1.0", "--sigma", "1",
                   "--theta", "0.2", "--x", "0,0.5", "--y-min", "0.0",
                   "--y-max", "2.0", "--n-y", "5", "-o", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["x", "y", "re_Lbeta", "im_Lbeta", "dist_to_one"]
        assert len(rows) == 10
        for row in rows:
            x, y, re, im, dist = map(float, row)
            assert dist == pytest.approx(abs(complex(re, im) - 1.0),
                                         rel=1e-12)

    @pytest.mark.parametrize("flag, value", [("--y-max", "inf"),
                                             ("--y-min", "-inf"),
                                             ("--y-max", "nan")])
    def test_nonfinite_y_range_is_usage_error(self, flag, value, tmp_path,
                                              capsys):
        # --y-max inf used to exit 0 with rows at y = nan
        out = tmp_path / "disp.csv"
        assert main(["dispersion", "--kappa", "1.0", "--sigma", "1",
                     "--theta", "0.2", f"{flag}={value}",
                     "-o", str(out)]) == 2
        assert "invalid y grid" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_x_rejected(self):
        assert main(["dispersion", "--kappa", "1.0", "--sigma", "1",
                     "--theta", "0.2", "--x", "-0.5"]) == 2

    @pytest.mark.parametrize("x", ["1e-323", "0,1e-323"])
    def test_x_that_rounds_onto_the_axis_gives_axis_values(self, x,
                                                           tmp_path):
        # 1e-323/(2 pi) rounds to 0, so z sits on the axis, where W is its
        # x -> 0+ limit: the rows of x = 0, value for value
        def values(x, name):
            out = tmp_path / name
            assert main(["dispersion", "--kappa", "1.0", "--sigma", "1",
                         "--theta", "0.2", "--x", x, "--y-min", "-1.5",
                         "--y-max", "1.5", "--n-y", "7", "-o", str(out)]) == 0
            return [row[1:] for row in read_csv(out)[2]]

        axis = values("0", "axis.csv")
        rows = values(x, "disp.csv")
        assert rows == axis * (len(rows) // len(axis))

    @pytest.mark.parametrize("x", ["0,abc", "0,", "0,nan", "inf", "0.5,-inf"])
    def test_malformed_or_nonfinite_x_is_usage_error(self, x, capsys):
        assert main(["dispersion", "--kappa", "1.0", "--sigma", "1",
                     "--theta", "0.2", "--x", x, "--n-y", "2"]) == 2
        assert "computation failed" not in capsys.readouterr().err


class TestTolerance:
    THRESHOLD = ["threshold", "--theta-min", "0.1", "--theta-max", "1.0",
                 "--n-points", "2"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol_flag_is_usage_error(self, tol, tmp_path):
        out = tmp_path / "t.csv"
        assert main(self.THRESHOLD + ["--tol", tol, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "-1e-9"])
    def test_bad_tol_config_is_usage_error(self, tol, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kappa = 1.0\nsigma = 1\ntheta = 0.2\ntol = {tol}\n")
        assert main(["dispersion", "--config", str(cfg), "--n-y", "2"]) == 2


class TestConfigFile:
    def test_config_supplies_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1.0\nsigma = 1\ntheta = 0.2\n"
                       "y-max = 1.0\nn-y = 3\n")
        out = tmp_path / "d.csv"
        rc = main(["dispersion", "--config", str(cfg), "--n-y", "2",
                   "-o", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 2  # flag --n-y beat the config's 3

    def test_compact_equilibrium_alias(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('equilibrium = compact\nP = 1.5\n')
        out = tmp_path / "d.csv"
        rc = main(["dispersion", "--config", str(cfg), "--kappa", "1.0",
                   "--sigma", "1", "--n-y", "2", "--y-min", "1.0",
                   "--y-max", "1.5", "-o", str(out)])
        assert rc == 0


class TestSweep:
    def test_rows_and_flags(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--kappa-min", "0.4", "--kappa-max", "1.3",
                   "--n-kappa", "3", "--sigma", "1", "--theta", "0.2",
                   "--dt", "0.05", "--t-max", "60", "-o", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["kappa", "supercritical_flag", "y0_or_blank",
                          "fit_c", "fit_eps", "fit_s", "verdict", "error"]
        kappas = [float(r[0]) for r in rows]
        assert kappas == sorted(kappas)
        flags = [r[1] for r in rows]
        # threshold at ~0.575 splits this kappa range exactly once
        assert flags == ["0", "1", "1"]
        assert rows[0][2] != ""  # subcritical row carries y0
        assert rows[1][2] == ""

    def test_attractive_growth_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--kappa-min", "0.5", "--kappa-max", "0.5",
                   "--n-kappa", "1", "--sigma", "-1", "--theta", "0.2",
                   "--dt", "0.02", "--t-max", "40", "-o", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert rows[0][6] == "growth"

    @pytest.mark.parametrize("sigma,name", [("1", "threshold_plasma"),
                                            ("-1", "threshold_astro")])
    def test_threshold_once_per_sweep(self, sigma, name, tmp_path,
                                      monkeypatch):
        # kappa_crit^2 depends on theta and sigma only, not on the row;
        # counted where every caller reaches the thresholds, so a row's
        # find_y0 computing its own would show
        calls = []

        def counting(fn, real):
            def counted(eq, tol=1e-11):
                calls.append((fn, tol))
                return real(eq, tol)
            return counted

        for fn in ("threshold_plasma", "threshold_astro"):
            monkeypatch.setattr(spectral, fn,
                                counting(fn, getattr(spectral, fn)))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--kappa-min", "0.3", "--kappa-max", "1.4",
                     "--n-kappa", "12", "--sigma", sigma, "--theta", "0.2",
                     "--dt", "0.1", "--t-max", "2", "--tol", "1e-7",
                     "-o", str(out)]) == 0
        rows = read_csv(out)[2]
        assert len(rows) == 12
        assert calls == [(name, 1e-7)]
        if sigma == "1":  # the subcritical rows still carry their y0
            assert [r[2] != "" for r in rows] == [r[1] == "0" for r in rows]
            assert sum(r[1] == "0" for r in rows) == 3

    def test_row_decides_from_its_own_threshold(self):
        # kc2 = 0.81 makes kappa = 0.9 critical, whatever threshold_plasma
        # gives at theta = 0.2 (about 0.33): flag 0, and y0 = kappa
        row = cli._sweep_row((0.9, 1, 0.2, 0.81,
                              TimeGrid(dt=0.1, n_steps=20), 1e-9))
        assert row["supercritical_flag"] == 0
        assert row["y0_or_blank"] == _fmt(0.9)

    @pytest.mark.parametrize("span,flag", [
        (("0.3", "inf", "3"), "--kappa-max"),
        (("1e-300", "1e-300", "1"), "--kappa-min"),
        (("1e-200", "1", "2"), "--kappa-min"),
        (("1", "1e103", "2"), "--kappa-max"),
    ])
    def test_kappa_range_outside_modespec_is_usage_error(
            self, span, flag, tmp_path, monkeypatch, capsys):
        # used to exit 0 with rows at kappa = nan or inf, or a row error
        monkeypatch.setattr(cli, "_sweep_row", None)  # no row may run
        out = tmp_path / "sweep.csv"
        kmin, kmax, n = span
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--kappa-min", kmin, "--kappa-max", kmax,
                         "--n-kappa", n, "--sigma", "1", "--theta", "0.2",
                         "--dt", "0.1", "--t-max", "2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "computation failed" not in err
        assert not out.exists()

    def test_threshold_failure_fails_the_run(self, tmp_path, monkeypatch,
                                             capsys):
        def refused(eq, sigma, tol):
            raise quadrature.QuadratureError("threshold did not converge",
                                             None)

        monkeypatch.setattr(cli, "kappa_crit_sq", refused)
        monkeypatch.setattr(cli, "_sweep_row", None)  # no row may run
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--kappa-min", "0.5", "--kappa-max", "0.6",
                     "--n-kappa", "2", "--sigma", "-1", "--theta", "0.2",
                     "--dt", "0.1", "--t-max", "2", "-o", str(out)]) == 1
        assert not out.exists()
        assert "QuadratureError: threshold did not converge" in \
            capsys.readouterr().err


class TestNoLapack:
    def test_sweep_row(self, no_linalg):
        # a README sweep row with a fit: the march, the tables and the
        # decay fit call nothing of numpy.linalg, so no LAPACK code is paged
        # into a sweep process
        eq = juttner(0.2)
        kc2 = threshold_plasma(eq).kappa_crit_sq
        grid = TimeGrid(dt=0.02, n_steps=10000)
        row = cli._sweep_row((0.8, 1, 0.2, kc2, grid, 1e-9))
        assert row["error"] == "" and row["verdict"] == "sub-exponential"
        assert float(row["fit_s"]) > 1.0


class TestSweepFits:
    ARGS = ["sweep", "--kappa-min", "0.9", "--kappa-max", "1.3",
            "--n-kappa", "2", "--sigma", "1", "--theta", "0.5",
            "--dt", "0.05", "--t-max", "50"]

    def test_no_bootstrap_and_seed_free(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep ran a bootstrap")
        monkeypatch.setattr(decay, "bootstrap_s_interval", refuse)
        bodies = []
        for seed in ("0", "7"):
            out = tmp_path / f"sweep{seed}.csv"
            assert main(self.ARGS + ["--seed", seed, "-o", str(out)]) == 0
            _, _, rows = read_csv(out)
            bodies.append(rows)
        assert bodies[0] == bodies[1]
        assert all(r[7] == "" and r[3] != "" for r in bodies[0])

    def test_rows_equal_bootstrapped_fits(self, tmp_path):
        # the point fit does not depend on the interval sweep drops
        out = tmp_path / "sweep.csv"
        assert main(self.ARGS + ["-o", str(out)]) == 0
        _, _, rows = read_csv(out)
        grid = TimeGrid(dt=0.05, n_steps=1000)
        for row in rows:
            kappa = float(row[0])
            mode = ModeSpec(kappa=kappa, sigma=1, equilibrium=juttner(0.5),
                            profile=thermal_profile(0.5, 1.0))
            a = np.abs(solve_mode(mode, grid, tol=1e-9).rho)
            fit, _, verdict = decay.fit_mode_decay(grid.times, a / a.max(),
                                                   kappa, n_boot=50)
            assert row[3:7] == [_fmt(fit.c), _fmt(fit.eps), _fmt(fit.s),
                                verdict]


class TestNoScipyImport:
    def test_cli_commands_load_no_scipy(self, tmp_path):
        # SciPy serves only the test oracles: no command and no resolvent
        # loads it.  Nor does a command load what only another runs: the
        # Gevrey battery (with fractions and decimal) is appendix-verify's,
        # rvpmodes.special (erfcx) the Gaussian profile's, numpy.ma came
        # with np.median and np.quantile, and numpy.polynomial with leggauss
        code = (
            "import math, sys\n"
            "import rvpmodes.cli as cli\n"
            "assert 'rvpmodes.gevrey' not in sys.modules\n"
            "def loaded():\n"
            "    return [m for m in sys.modules\n"
            "            if m.split('.')[0] == 'scipy'\n"
            "            or m.split('.')[:2] in (['numpy', 'ma'],\n"
            "                                    ['numpy', 'polynomial'])]\n"
            "def check(argv):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    assert not loaded(), (argv[0], loaded())\n"
            "    assert argv[0] == 'appendix-verify' \\\n"
            "        or 'rvpmodes.gevrey' not in sys.modules, argv[0]\n"
            "check(['evolve', '--kappa', '1.2', '--sigma', '1', '--theta',"
            " '0.5', '--profile', 'thermal', '--dt', '0.05', '--t-max', '80',"
            " '-o', 'traj.csv'])\n"
            "check(['fit', '--input', 'traj.csv', '--kappa', '1.2',"
            " '--n-boot', '20', '-o', 'fit.txt'])\n"
            "check(['dispersion', '--kappa', '0.46', '--sigma', '1',"
            " '--theta', '0.2', '--x', '0,0.5', '--n-y', '3',"
            " '-o', 'd.csv'])\n"
            "check(['threshold', '--theta-min', '0.01', '--theta-max', '10',"
            " '--n-points', '3', '-o', 't.csv'])\n"
            "check(['sweep', '--kappa-min', '0.3', '--kappa-max', '1.3',"
            " '--n-kappa', '2', '--sigma', '1', '--theta', '0.2', '--dt',"
            " '0.05', '--t-max', '40', '-o', 's.csv'])\n"
            "check(['appendix-verify', '--m-max', '8', '-o', 'm.csv'])\n"
            "assert 'rvpmodes.special' not in sys.modules\n"
            "from rvpmodes.equilibria import juttner, thermal_profile\n"
            "from rvpmodes.spectral import ModeSpec, threshold_plasma\n"
            "from rvpmodes.volterra import (TimeGrid, apply_resolvent,\n"
            "                               resolvent_kernel)\n"
            "eq = juttner(0.5)\n"
            "kc = math.sqrt(threshold_plasma(eq).kappa_crit_sq)\n"
            "mode = ModeSpec(kappa=2.0 * kc, sigma=1, equilibrium=eq,\n"
            "                profile=thermal_profile(0.5, 1.0))\n"
            "grid = TimeGrid(dt=0.05, n_steps=200)\n"
            "kern = resolvent_kernel(mode, grid, tol=1e-9)\n"
            "apply_resolvent(kern, grid.times, grid.dt)\n"
            "assert not loaded(), ('resolvent', loaded())\n"
            "assert 'rvpmodes.special' not in sys.modules\n"
            "assert cli.main(['evolve', '--kappa', '1.2', '--sigma', '1',"
            " '--theta', '0.5', '--profile', 'gaussian', '--dt', '0.05',"
            " '--t-max', '80', '-o', 'traj_gauss.csv']) == 0\n"
            "assert not loaded(), ('gaussian evolve', loaded())\n")
        src = os.path.dirname(os.path.dirname(rvpmodes.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       cwd=tmp_path)

    def test_fit_loads_no_numpy_random(self, tmp_path):
        # the bootstrap draws from random.Random, which numpy has loaded:
        # numpy.random would bring its bit generators and, through
        # secrets, OpenSSL's _hashlib (6.3 MB of RSS in all)
        code = (
            "import sys\n"
            "import rvpmodes.cli as cli\n"
            "assert cli.main(['evolve', '--kappa', '1.2', '--sigma', '1',"
            " '--theta', '0.5', '--profile', 'thermal', '--dt', '0.05',"
            " '--t-max', '80', '-o', 'traj.csv']) == 0\n"
            "assert cli.main(['fit', '--input', 'traj.csv', '--kappa', '1.2',"
            " '--n-boot', '20', '-o', 'fit.txt']) == 0\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.startswith('numpy.random') or m == '_hashlib']\n"
            "assert not loaded, loaded\n")
        src = os.path.dirname(os.path.dirname(rvpmodes.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       cwd=tmp_path)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
class TestBlasThreads:
    """A CLI process starts OpenBLAS with one thread: no worker to spin."""

    @staticmethod
    def run(code, **env):
        src = os.path.dirname(os.path.dirname(rvpmodes.__file__))
        child = {key: value for key, value in os.environ.items()
                 if key != "OPENBLAS_NUM_THREADS"}
        child.update(env, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", code], check=True,
                              env=child, capture_output=True,
                              text=True).stdout.strip()

    THREADS = ("import os, rvpmodes.cli\n"
               "print(len(os.listdir('/proc/self/task')))")

    def test_package_import_loads_no_numpy(self):
        assert self.run("import sys, rvpmodes\n"
                        "print('numpy' in sys.modules)") == "False"

    def test_cli_import_runs_one_thread(self):
        assert self.run(self.THREADS) == "1"

    @pytest.mark.skipif(os.cpu_count() == 1, reason="needs two CPUs")
    def test_user_thread_count_wins(self):
        assert self.run(self.THREADS, OPENBLAS_NUM_THREADS="2") == "2"


class TestCsvWriter:
    def test_float_block_writes_the_bytes_of_tuple_rows(self, tmp_path):
        # random bit patterns (subnormals, inf, nan) and signed zeros, over
        # more than one block of rows
        rng = np.random.default_rng(11)
        block = rng.integers(0, 2 ** 64 - 1, size=(2 * cli._WRITE_ROWS + 5, 3),
                             dtype=np.uint64, endpoint=True).view(np.float64)
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf,
                   -math.inf, math.nan, 1.7976931348623157e308, 0.1, -1.5]
        block.ravel()[:len(special)] = special
        rows = [tuple(float(x) for x in row) for row in block]
        cli._write_csv(tmp_path / "block.csv", ["a", "b", "c"], block,
                       {"k": 1})
        cli._write_csv(tmp_path / "rows.csv", ["a", "b", "c"], rows,
                       {"k": 1})
        text = (tmp_path / "block.csv").read_bytes()
        assert text == (tmp_path / "rows.csv").read_bytes()
        assert text.count(b"\n") == 3 + len(rows)
        assert {b"nan", b"inf", b"-inf", b"-0", b"4.9406564584124654e-324"} \
            <= set(text.replace(b"\n", b",").split(b","))

    def test_unwritable_path_is_computational_failure(self, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        with pytest.raises(RuntimeError, match="cannot write"):
            cli._write_csv(path, ["a"], np.zeros((3, 1)), {})


class TestAppendixVerify:
    def test_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "margins.csv"
        rc = main(["appendix-verify", "--m-max", "10", "-o", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text
        _, header, rows = read_csv(out)
        assert header == ["check", "m", "value", "bound", "margin"]
        assert all(float(r[4]) <= 1.0 for r in rows)

    def test_zero_speed_passes(self, tmp_path, capsys):
        # f = g = 0 at v = 0: the product constant is 0, and the product
        # lemma's rows are (m, 0, 0, 0) instead of 0/0 margins
        out = tmp_path / "margins.csv"
        assert main(["appendix-verify", "--v", "0", "-o", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7 and all(ln.endswith(" PASS") for ln in lines)
        _, _, rows = read_csv(out)
        product = [r for r in rows if r[0] == "product_l1"]
        assert product == [["product_l1", str(m), "0", "0", "0"]
                           for m in range(7)]

    def test_each_check_judged_on_its_own_rows(self, tmp_path, capsys,
                                               monkeypatch):
        # one C row sum over its bound fails coeff_sums_C and nothing else
        from rvpmodes import gevrey
        real = gevrey.sup_bounds_check

        def pushed(params, m_max):
            f_rows, c_rows, d_rows = real(params, m_max)
            m, _, bound, _ = c_rows[3]
            over = (m, 2.0 * bound, bound, 2.0)
            return f_rows, c_rows[:3] + (over,) + c_rows[4:], d_rows

        monkeypatch.setattr(gevrey, "sup_bounds_check", pushed)
        out = tmp_path / "margins.csv"
        assert main(["appendix-verify", "-o", str(out)]) == 1
        failed = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()
                  if ln.endswith(" FAIL")]
        assert failed == ["coeff_sums_C"]


class TestParallelSweep:
    def test_worker_pool_matches_serial(self, tmp_path):
        args = ["sweep", "--kappa-min", "0.9", "--kappa-max", "1.3",
                "--n-kappa", "2", "--sigma", "1", "--theta", "0.5",
                "--dt", "0.05", "--t-max", "50", "--seed", "4"]
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert main(args + ["-o", str(serial), "--jobs", "1"]) == 0
        assert main(args + ["-o", str(pooled), "--jobs", "2"]) == 0
        body = lambda p: [ln for ln in p.read_text().splitlines()
                          if not ln.startswith("#")]
        assert body(serial) == body(pooled)


class TestConfigDefaults:
    def test_config_can_override_defaulted_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1.0\nsigma = 1\ntheta = 0.2\n"
                       "n-y = 4\ny-min = 1.0\ny-max = 2.0\n")
        out = tmp_path / "d.csv"
        # n_y has an argparse default of 81; the config must still win
        rc = main(["dispersion", "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 4

    def test_bad_boolean_in_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1.0\nsigma = 1\ntheta = 0.2\n"
                       "dt = 0.1\nt-max = 2\nrefine = maybe\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_abbreviated_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1.0\nsigma = 1\ntheta = 0.5\n"
                       "dt = 0.1\nt-max = 2\n")
        out = tmp_path / "t.csv"
        rc = main(["evolve", "--config", str(cfg), "--t-m", "4",
                   "-o", str(out)])
        assert rc == 0
        meta, _, rows = read_csv(out)
        assert float(meta["t_max"]) == 4.0
        assert float(rows[-1][0]) == pytest.approx(4.0)

    def test_bad_config_line_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1.0\nsigma 1\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_boolean_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1.0\nsigma = 1\ntheta = 0.5\n"
                       "dt = 0.1\nt-max = 2\nrefine = yes\n")
        out = tmp_path / "t.csv"
        rc = main(["evolve", "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        meta, _, _ = read_csv(out)
        assert meta["refine"] == "True"

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1.0\nsigma = 1\ntheta = 0.5\n"
                       "dt = 0.1\nt-max = 2\nrefin = yes\n")
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(cfg), "-o", str(out)]) == 2
        assert "'refin'" in capsys.readouterr().err
        assert not out.exists()


    def test_config_value_meets_choices(self, tmp_path, monkeypatch):
        # a config sigma = 2 once ran every row into the ModeSpec refusal
        monkeypatch.setattr(cli, "_sweep_row", None)  # no row may run
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa-min = 0.5\nkappa-max = 0.5\nn-kappa = 1\n"
                       "sigma = 2\ntheta = 0.2\ndt = 0.05\nt-max = 10\n")
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["help = yes", "config = other.cfg"])
    def test_help_or_config_key_is_usage_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1.0\nsigma = 1\ntheta = 0.5\n"
                       f"dt = 0.1\nt-max = 2\n{line}\n")
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(cfg), "-o", str(out)]) == 2
        assert repr(line.split()[0]) in capsys.readouterr().err
        assert not out.exists()

    def test_missing_options_are_listed_together(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa-min = 0.5\ntheta = 0.2\n")
        assert main(["sweep", "--config", str(cfg), "--dt", "0.05"]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: sweep requires --kappa-max, --sigma, --t-max")


class TestConfigEcho:
    def test_echoes_equilibrium_and_profile_options(self, tmp_path):
        # dispersion echoes its equilibrium options; the profile options
        # are evolve's, and evolve echoes them
        metas = []
        for p_support in ("1.5", "3.0"):
            out = tmp_path / f"d{p_support}.csv"
            assert main(["dispersion", "--kappa", "1.0", "--sigma", "1",
                         "--equilibrium", "compact", "--p-support",
                         p_support, "--n-y", "2", "-o", str(out)]) == 0
            metas.append(read_csv(out)[0])
        assert metas[0] != metas[1]
        assert [m["p_support"] for m in metas] == ["1.5", "3.0"]
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--kappa", "1.0", "--sigma", "1", "--theta",
                     "0.2", "--profile", "gaussian", "--width", "0.5",
                     "--dt", "0.05", "--t-max", "1", "-o", str(out)]) == 0
        meta = read_csv(out)[0]
        assert (meta["profile"], meta["width"]) == ("gaussian", "0.5")


class TestOutOfDomainInput:
    SWEEP = ["sweep", "--kappa-min", "0.5", "--kappa-max", "0.5",
             "--n-kappa", "1", "--sigma", "1", "--theta", "0.2", "--dt",
             "0.05", "--t-max", "10"]

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_sweep_jobs_below_one(self, jobs, tmp_path):
        out = tmp_path / "s.csv"
        assert main(self.SWEEP + ["--jobs", jobs, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("cpus, jobs", [(2, "3"), (None, "2")])
    def test_sweep_jobs_above_cpu_count(self, cpus, jobs, tmp_path,
                                        monkeypatch):
        # a process pool starts all its workers at once, whatever the rows;
        # this test itself may start none
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise RuntimeError("a process pool was asked for")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / "s.csv"
        assert main(self.SWEEP + ["--jobs", jobs, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["threshold", "--theta-min", "0.1", "--theta-max", "1",
         "--n-points"],
        ["dispersion", "--kappa", "1", "--sigma", "1", "--theta", "0.2",
         "--n-y"],
        SWEEP + ["--n-kappa"]], ids=["threshold", "dispersion", "sweep"])
    def test_grid_count_cap(self, argv, tmp_path, capsys, monkeypatch):
        # 1e12 points once went to numpy and exited 1 with a MemoryError
        monkeypatch.setattr(cli, "_sweep_row", None)  # no row may run
        out = tmp_path / "out.csv"
        for n in (10 ** 12, cli.MAX_POINTS + 1):
            assert main(argv + [str(n), "-o", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"{argv[-1]} must lie in 1..65536" in err
            assert not out.exists()

    @pytest.mark.parametrize("flag", ["--v=1.5", "--K=-1", "--L=nan",
                                      "--m-max=40", "--m-max=-1"])
    def test_appendix_verify_parameters(self, flag, tmp_path):
        out = tmp_path / "margins.csv"
        assert main(["appendix-verify", flag, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--K", "1e-300"], ["--L", "1e-300"], ["--K", "1e200"]])
    def test_appendix_verify_overflow(self, flags, tmp_path, capsys):
        # the battery divides by zero or overflows at these finite values
        out = tmp_path / "margins.csv"
        assert main(["appendix-verify", *flags, "-o", str(out)]) == 2
        assert "K=" in capsys.readouterr().err
        assert not out.exists()

    EVOLVE = ["evolve", "--kappa", "1", "--sigma", "1", "--theta", "0.2",
              "--dt", "0.05", "--t-max", "10"]

    @pytest.mark.parametrize("flags", [
        ["--kappa", "-1"], ["--theta", "-0.2"], ["--theta", "1e103"],
        ["--width", "-1"], ["--profile", "thermal", "--profile-theta", "-1"],
        ["--dt", "nan"], ["--t-max", "inf"], ["--dt", "0.1", "--t-max", "1e9"]])
    def test_evolve_refused_mode_or_grid(self, flags, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(self.EVOLVE + flags + ["-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--equilibrium", "compact", "--p-support", "nan"],
        ["--equilibrium", "compact", "--p-support", "inf"],
        ["--amp", "nan"], ["--amp", "inf"], ["--width", "nan"],
        ["--width", "inf"], ["--profile", "thermal", "--profile-theta", "nan"],
        ["--profile", "thermal", "--profile-theta", "inf"]])
    @pytest.mark.parametrize("command", ["evolve", "dispersion"])
    def test_nonfinite_equilibrium_or_profile(self, command, flags, tmp_path):
        # the constructors once checked only <= 0: a NaN support bound
        # wrote NaN rows, a non-finite amp failed in the march; dispersion
        # has no profile options, so its parser refuses those flags
        argv = self.EVOLVE if command == "evolve" else [
            "dispersion", "--kappa", "1", "--sigma", "1", "--theta", "0.2",
            "--n-y", "2"]
        out = tmp_path / "out.csv"
        assert exit_code(argv + flags + ["-o", str(out)]) == 2
        assert not out.exists()

    def test_dispersion_refused_equilibrium(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert main(["dispersion", "--kappa", "0.5", "--sigma", "1",
                     "--equilibrium", "compact", "--p-support", "-2",
                     "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_threshold_theta_max_finite(self, value, tmp_path, capsys):
        # inf once went to np.geomspace: a RuntimeWarning, then exit 0
        out = tmp_path / "thr.csv"
        assert main(["threshold", "--theta-min", "1e6", "--theta-max", value,
                     "--n-points", "1", "-o", str(out)]) == 2
        assert "--theta-max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--equilibrium", "compact", "--p-support", "1e150"], "--p-support"),
        (["--equilibrium", "compact", "--p-support", "1e-300"], "--p-support"),
        (["--equilibrium", "compact", "--p-support", "1.5", "--kappa",
          "1e-300"], "--kappa"),
        (["--kappa", "1e150"], "--kappa"),
        (["--width", "1e-300"], "--width"),
        (["--width", "1e200"], "--width")],
        ids=["p-support-1e150", "p-support-1e-300", "compact-kappa-1e-300",
             "kappa-1e150", "width-1e-300", "width-1e200"])
    @pytest.mark.parametrize("command", ["evolve", "dispersion"])
    def test_unrepresentable_mode_names_its_flag(self, command, flags, flag,
                                                 tmp_path, capsys):
        # these exited 1 with a bare OverflowError or ZeroDivisionError,
        # and a width of 1e-300 exited 0 with alpha = 0 after an overflow
        # warning; a later flag wins over the base command's
        argv = self.EVOLVE if command == "evolve" else [
            "dispersion", "--kappa", "1", "--sigma", "1", "--theta", "0.2",
            "--n-y", "2"]
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exit_code(argv + flags + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        if command == "dispersion" and flag == "--width":
            # a profile option, which dispersion does not have
            assert f"unrecognized arguments: {flag}" in err
        else:
            assert f"error: {flag}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--equilibrium", "compact", "--p-support", "1e-20"],
        ["--equilibrium", "compact", "--p-support", "1e-6"],
        ["--theta", "1e-11"]], ids=["p-support-1e-20", "p-support-1e-6",
                                    "theta-1e-11"])
    def test_zero_beta_table_fails(self, flags, tmp_path, capsys):
        # these exited 0 and wrote beta = 0 in every row: no Filon node
        # lands inside the support, or the cold envelope underflows
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cold regime
            assert main(self.EVOLVE + flags + ["-o", str(out)]) == 1
        assert "beta is 0 at every sample" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_dispersion_fails(self, tmp_path, capsys):
        # this exited 0 and wrote W = 0 and dist_to_one = 1 at both points:
        # the cold envelope underflows at every node of the transform
        out = tmp_path / "disp.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cold regime
            assert main(["dispersion", "--kappa", "0.5", "--sigma", "1",
                         "--theta", "1e-10", "--y-min", "0.25", "--y-max",
                         "1", "--n-y", "2", "-o", str(out)]) == 1
        assert ("QuadratureError: dispersion transform: W is 0 at every "
                "point" in capsys.readouterr().err)
        assert not out.exists()

    def test_overflowing_kernel_table_fails_without_warning(self, tmp_path,
                                                            capsys):
        # a width near the top of the doubles overflows the Filon sums of
        # alpha: this exited 1 after numpy RuntimeWarnings, and with
        # warnings as errors on the first of them
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(self.EVOLVE + ["--width", "1e102",
                                       "-o", str(out)]) == 1
        assert ("QuadratureError: filon_table: the Filon sums are not finite"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_beta_table_is_a_sweep_row_error(self):
        # the README sweep's thresholds do not converge this cold, so the
        # row runs on its own with a supercritical kappa_crit^2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # cold regime
            row = cli._sweep_row((1.0, 1, 1e-11, 0.5,
                                  TimeGrid(dt=0.05, n_steps=100), 1e-9))
        assert row["error"] == ("QuadratureError: sample_kernels: beta is 0 "
                                "at every sample")
        assert row["verdict"] == "" and row["fit_s"] == ""

    def test_threshold_theta_beyond_juttner(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert main(["threshold", "--theta-min", "1e100", "--theta-max",
                     "1e103", "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--theta", "-1"], ["--theta", "1e103"], ["--dt", "1e-9"],
        ["--dt", "nan"]])
    def test_sweep_refused_before_any_row(self, flags, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_row", None)  # no row may run
        out = tmp_path / "s.csv"
        assert main(self.SWEEP + flags + ["-o", str(out)]) == 2
        assert not out.exists()

    def test_step_cap(self):
        assert cli._time_grid(1.0, float(cli.MAX_STEPS)).n_steps \
            == cli.MAX_STEPS
        with pytest.raises(cli.UsageError, match="t-max/dt <= 1048576"):
            cli._time_grid(1.0, cli.MAX_STEPS + 1.0)

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "traj.csv", "--kappa", "1.2"],
        ["appendix-verify"]], ids=["fit", "appendix-verify"])
    def test_tol_only_where_it_is_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-6"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--profile=thermal", "--width=1",
                                      "--amp=1", "--profile-theta=0.2"])
    def test_profile_options_only_where_read(self, flag, tmp_path):
        # the dispersion transform reads the equilibrium only
        out = tmp_path / "disp.csv"
        with pytest.raises(SystemExit) as exc:
            main(["dispersion", "--kappa", "1", "--sigma", "1", "--theta",
                  "0.2", "--n-y", "2", flag, "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_profile_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 1\nsigma = 1\ntheta = 0.2\nwidth = 1\n")
        out = tmp_path / "disp.csv"
        assert main(["dispersion", "--config", str(cfg), "--n-y", "2",
                     "-o", str(out)]) == 2
        assert "config key 'width' is not an option" in capsys.readouterr().err
        assert not out.exists()
