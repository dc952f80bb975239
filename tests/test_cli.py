import json
import math
import subprocess
import sys

import pytest

from pearceydet import fredholm as fr
from pearceydet import kernel as kn
from pearceydet.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestDet:
    def test_gamma_zero(self, capsys):
        code, out, err = run_cli(["det", "--s", "2", "--gamma", "0", "--rho", "1"],
                                 capsys)
        assert code == 0
        assert err == ""
        data_line = [ln for ln in out.splitlines() if not ln.startswith("#")][-1]
        assert float(data_line.split(",")[-1]) == 0.0

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(["det", "--s", "2", "--gamma", "0.5",
                                "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "results", "diagnostics"}
        assert payload["results"][0]["f"] < 0

    def test_indefinite_parity_block_exit_1(self, capsys):
        # at n = 2 both parity factors are negative: the full determinant is
        # positive and gave F = +2.636, but F = ln E[(1 - gamma)^N] <= 0
        code, out, err = run_cli(["det", "--s", "9", "--gamma", "0.95", "--rho", "-1.3",
                                  "--quad-order", "2"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "SignError"

    @pytest.mark.parametrize("argv", [["det", "--s", "4"],
                                      ["scan", "--s-min", "1", "--s-max", "3", "--s-steps", "3"]])
    def test_nan_tol_exit_1(self, argv, capsys):
        # a NaN tolerance doubled to n = 2048 and failed "did not converge to nan"
        code, out, err = run_cli(argv + ["--tol", "nan"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_numerical_error_exit_code(self, capsys):
        code, out, err = run_cli(["det", "--s", "50", "--gamma", "0.5"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_gamma_outside_the_determinant_range_exit_1(self, capsys):
        code, out, err = run_cli(["det", "--s", "2", "--gamma", "1.5"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"
        assert "(-16.0, 1]" in json.loads(err)["message"]


def _det_row(out):
    header, row = [ln for ln in out.splitlines() if not ln.startswith("#")]
    return {key: float(value) for key, value in zip(header.split(","), row.split(","))}


class TestDetNu:
    def test_converged_row_matches_the_grid_entry(self, capsys):
        code, out, _ = run_cli(["det", "--s", "4", "--nu", "-0.05"], capsys)
        assert code == 0
        gamma = -math.expm1(0.1 * math.pi)
        [res] = fr.logdet_converged([(4.0, gamma)], 0.0, 1e-9)
        assert _det_row(out) == {"s": 4.0, "gamma": gamma, "rho": 0.0, "f": res.f}

    def test_fixed_order_row_matches_fredholm_logdet(self, capsys):
        code, out, _ = run_cli(["det", "--s", "4", "--nu", "0.05", "--quad-order", "64"], capsys)
        assert code == 0
        gamma = -math.expm1(-0.1 * math.pi)
        res = fr.fredholm_logdet(4.0, gamma, 0.0, 64)
        assert _det_row(out) == {"s": 4.0, "gamma": gamma, "rho": 0.0, "f": res.f}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_metadata_gamma_is_the_row_gamma(self, fmt, capsys):
        # the --gamma default, 0.5, was written above a row computed at gamma = -0.3691
        code, out, _ = run_cli(["det", "--s", "4", "--nu", "-0.05", "--format", fmt], capsys)
        assert code == 0
        if fmt == "json":
            payload = json.loads(out)
            assert payload["config"]["gamma"] == payload["results"][0]["gamma"]
        else:
            lines = [ln for ln in out.splitlines() if ln.startswith("# gamma:")]
            assert [float(ln.split(": ", 1)[1]) for ln in lines] == [_det_row(out)["gamma"]]


class TestScan:
    def test_err_column_decreases(self, capsys):
        code, out, _ = run_cli(["scan", "--gamma", "0.5", "--rho", "0",
                                "--s-min", "4", "--s-max", "8", "--s-steps", "3",
                                "--tol", "1e-9"], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        err_idx = header.index("err")
        errs = [float(ln.split(",")[err_idx]) for ln in lines[1:]]
        assert errs[-1] < errs[0]

    def test_metadata_header(self, capsys):
        _, out, _ = run_cli(["scan", "--gamma", "0.5", "--s", "2"], capsys)
        assert out.startswith("# pearceydet ")
        assert any(ln.startswith("# gamma: 0.5") for ln in out.splitlines())


    def test_barnes_constant_once_per_scan(self, capsys, monkeypatch):
        from pearceydet import asymptotics as asym
        calls = []
        real = asym.barnes_ln_g

        def counting(z):
            calls.append(z)
            return real(z)

        monkeypatch.setattr(asym, "barnes_ln_g", counting)
        code, _, _ = run_cli(["scan", "--gamma", "0.6", "--s-min", "1", "--s-max", "12",
                              "--s-steps", "7"], capsys)
        assert code == 0
        assert len(calls) == 2


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        args = ["moments", "--rho", "0", "--s", "3", "--quad-order", "64"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestMoments:
    @pytest.mark.parametrize("argv", [
        ["moments", "--s", "0.5"],
        ["moments", "--s-min", "2", "--s-max", "0.5", "--s-steps", "4"],
        ["moments", "--s-min", "2", "--s-max", "13", "--s-steps", "4"],
    ])
    def test_every_s_checked_before_quadrature(self, argv, capsys, monkeypatch):
        # an s below 1 was rejected only after both operators at it were built
        monkeypatch.setattr(fr, "_nystrom", lambda *a: pytest.fail("quadrature ran"))
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("flags, quad", [([], None), (["--quad-order", "127"], 127)])
    def test_mgf_order_written(self, flags, quad, capsys):
        # every row carries the order both routes read; a '# quad_order:' line
        # only restates a given --quad-order, whose rows have no error estimate
        code, out, _ = run_cli(["moments", "--s", "4"] + flags, capsys)
        assert code == 0
        lines = out.splitlines()
        row = dict(zip(lines[-2].split(","), lines[-1].split(",")))
        assert not any(line.startswith("# mgf_order") for line in lines)
        quad_lines = [line for line in lines if line.startswith("# quad_order")]
        if quad is None:
            assert quad_lines == []
            assert row["order"] == "32"         # the doubling from 16 stops here at s = 4
            for route in ("trace", "mgf"):
                assert 0.0 < float(row[f"err_{route}"]) <= 1e-9 * float(row[f"mean_{route}"])
        else:
            assert quad_lines == [f"# quad_order: {quad}"]
            assert row["order"] == str(quad)
            assert row["err_trace"] == row["err_mgf"] == "nan"

    def test_mgf_values_kept(self, capsys):
        # the contour MGF route agrees with the trace route on the same row
        code, out, _ = run_cli(["moments", "--s", "8.3", "--rho", "0.4"], capsys)
        assert code == 0
        header, row = out.splitlines()[-2:]
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values["mean_mgf"] == pytest.approx(6.4915209712176445, rel=1e-12)
        for col in ("mean", "var"):
            assert values[f"{col}_mgf"] == pytest.approx(values[f"{col}_trace"], rel=1e-11, abs=0)

    @pytest.mark.parametrize("s, n", [("12", "12"), ("4", "2")])
    def test_non_positive_variance_exit_1(self, s, n, capsys):
        # too coarse an order gave var_trace -2.37 (s = 12) and -1.74 (s = 4) with exit 0
        code, out, err = run_cli(["moments", "--s", s, "--quad-order", n], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "ConvergenceError"


class TestChfVerify:
    def test_json_residuals(self, capsys):
        code, out, _ = run_cli(["chf-verify", "--beta-im", "0.11",
                                "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["max_ray_residual"] <= 1e-9


    def test_non_finite_beta_exit_1(self, capsys):
        # the array series would run every point to its term cap
        code, out, err = run_cli(["chf-verify", "--beta-im", "nan"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


class TestKernelGrid:
    def test_all_oracles(self, capsys):
        code, out, _ = run_cli(["kernel", "--rho", "0", "--s-min", "-1",
                                "--s-max", "1", "--s-steps", "3",
                                "--oracle", "all"], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        for col in ("k_rational", "k_integral", "k_rh"):
            assert col in header

    def test_metadata_keys_written_once(self, capsys):
        # a value that is both a flag and a diagnostic is named once, given or not
        grid = ["kernel", "--s-min", "-1", "--s-max", "1", "--s-steps", "2"]
        for argv, key in ((grid, "oracle"), (grid + ["--oracle", "all"], "oracle"),
                          (["scan", "--s", "2", "--tol", "1e-9"], "tol"),
                          (["moments", "--s", "4", "--quad-order", "64"], "quad_order")):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            keys = [ln.split(":")[0] for ln in out.splitlines() if ln.startswith("# ")]
            assert len(keys) == len(set(keys))
            assert f"# {key}" in keys


    @pytest.mark.parametrize("rho", ["nan", "inf", "-inf", "4.5", "-4.5", "50", "1e300"])
    def test_non_finite_rho_exit_1(self, rho, capsys):
        code, out, err = run_cli(["kernel", f"--rho={rho}", "--s-steps", "2"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ["kernel", "--s-min", "-50", "--s-max", "50", "--s-steps", "3"],
        ["kernel", "--s-min", "-50", "--s-max", "50", "--s-steps", "3", "--oracle", "integral"],
        ["kernel", "--s-min", "-50", "--s-max", "50", "--s-steps", "3", "--oracle", "rh"],
        ["kernel", "--s-min", "12.5", "--s-max", "12.5", "--s-steps", "1", "--oracle", "rh"],
        ["kernel", "--rho=-inf", "--s-steps", "2", "--oracle", "rh"],
        ["kernel", "--rho", "nan", "--s-steps", "1", "--oracle", "rh"],
    ])
    def test_outside_domain_exit_1(self, argv, capsys):
        # every oracle has one domain, |x|, |y| <= 12 and a finite rho, also on
        # the band, where rh writes NaN; the rational form printed
        # K(0, -50) = -3.08e27 on the first grid
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


class TestHamiltonian:
    @pytest.mark.parametrize("tol", ["0", "1e-15", "nan", "inf"])
    def test_tol_below_solver_floor_exit_1(self, tol, capsys):
        # DOP853 would silently raise such an rtol to 2.2e-14 (or fail on nan)
        code, out, err = run_cli(["hamiltonian", "--gamma", "0.5", "--s-max", "7",
                                  "--s-min", "6", "--tol", tol], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_solver_statistics_metadata(self, capsys):
        code, out, _ = run_cli(["hamiltonian", "--gamma", "0.5", "--s-max", "7",
                                "--s-min", "6"], capsys)
        assert code == 0
        meta = dict(ln[2:].split(": ", 1) for ln in out.splitlines() if ": " in ln)
        steps, nfev, min_step = int(meta["steps"]), int(meta["nfev"]), float(meta["min_step"])
        # DOP853 takes 12 evaluations per accepted step, capped at 0.05 in s
        assert steps >= 20 and nfev >= 12 * steps
        assert 0.0 < min_step <= 0.05
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert rows[0].startswith("s,re_p0,") and len(rows) == 1 + int(meta["samples"])

    @pytest.mark.parametrize("gamma,order,err", [("0.5", "64", "1e-09"), ("0", "None", "0.0")])
    def test_anchor_metadata(self, gamma, order, err, capsys):
        # the anchor's Nystrom order and error; gamma = 0 is exact, with no order
        code, out, _ = run_cli(["hamiltonian", "--gamma", gamma, "--s-max", "7",
                                "--s-min", "6"], capsys)
        assert code == 0
        meta = dict(ln[2:].split(": ", 1) for ln in out.splitlines() if ": " in ln)
        assert (meta["anchor_order"], meta["anchor_err"]) == (order, err)

    def test_zero_length_sweep_exit_1(self, capsys):
        # a constant dense output drops the imaginary parts: rows of zeros
        code, out, err = run_cli(["hamiltonian", "--s-max", "8", "--s-min", "8"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_nan_sweep_end_exit_1(self, capsys, monkeypatch):
        # DOP853 never returns on a NaN end; reaching it is the failure
        from pearceydet import hamiltonian as ham

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ivp called with a NaN sweep end")

        monkeypatch.setattr(ham, "solve_ivp", no_solve)
        code, out, err = run_cli(["hamiltonian", "--s-max", "8", "--s-min", "nan"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_integrator_failure_exit_1(self):
        # the step size collapses on a pole below the anchor: stderr holds the
        # one JSON line and no warning of scipy's beside it
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "pearceydet.cli", "hamiltonian",
             "--gamma", "0.95", "--rho", "2", "--s-max", "12", "--s-min", "0.3"],
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        [line] = proc.stderr.splitlines()
        assert json.loads(line) == {"error": "ConvergenceError", "message":
                                    "integrator failed: dop853: step size becomes too small"}

    @pytest.mark.parametrize("gamma", ["5e-324", "1e-310"])
    def test_tiny_gamma_exit_1(self, gamma, capsys, monkeypatch):
        # the anchor's (p0, q0) solve was singular (a traceback) or its order
        # never settled; now a gamma below 1e-300 fails before any quadrature
        monkeypatch.setattr(kn, "_p_bundle", lambda *a: pytest.fail("quadrature ran"))
        code, out, err = run_cli(["hamiltonian", "--gamma", gamma, "--s-max", "6",
                                  "--s-min", "5"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_gamma_at_anchor_floor_accepted(self, capsys):
        code, out, err = run_cli(["hamiltonian", "--gamma", "1e-300", "--s-max", "6",
                                  "--s-min", "5"], capsys)
        assert code == 0
        assert err == ""
        assert len([ln for ln in out.splitlines() if not ln.startswith("#")]) == 401


class TestUsage:
    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["det", "--s", "2", "--oracle", "rh"],
        ["moments", "--s", "4", "--gamma", "0.5"],
        ["kernel", "--tol", "1e-9"],
        ["clt", "--s", "4", "--nu", "0.1"],
        ["chf-verify", "--rho", "1"],
        ["selftest", "--gamma", "0.2"],
    ])
    def test_inapplicable_flag_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_det_gamma_and_nu_together_exit_2(self, capsys):
        # --nu sets gamma: the two flags exclude each other
        with pytest.raises(SystemExit) as exc:
            main(["det", "--s", "4", "--gamma", "0.9", "--nu", "0.05"])
        assert exc.value.code == 2
        assert "not allowed with argument --gamma" in capsys.readouterr().err

    def test_det_requires_s(self):
        with pytest.raises(SystemExit) as exc:
            main(["det", "--gamma", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["det", "--s", "2", "--quad-order", "0"],
        ["kernel", "--s-steps", "0"],
        ["scan", "--s-min", "2", "--s-max", "4", "--s-steps", "0"],
    ])
    def test_zero_count_exit_2(self, argv):
        # a zero order or grid size is a usage error, not a request for the default
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["det", "--s", "nan", "--quad-order", "8"],
        ["det", "--s", "nan"],
        ["det", "--s", "nan", "--gamma", "0"],
        ["scan", "--s-min", "nan", "--s-max", "4", "--s-steps", "2"],
        ["moments", "--s", "nan"],
        ["kernel", "--s-min", "nan", "--s-steps", "2"],
        ["kernel", "--s-max", "inf", "--s-steps", "2"],
        ["kernel", "--s-min", "nan", "--s-steps", "2", "--oracle", "rh"],
    ])
    def test_non_finite_s_exit_1(self, argv, capsys):
        # NaN passed both s <= 0 and s > 12: NaN rows, or an error after doubling
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ["det", "--s", "4", "--gamma", "0", "--rho", "nan"],
        ["clt", "--s", "inf"],
        ["clt", "--s", "4", "--rho", "nan"],
        ["moments", "--s", "4", "--rho", "nan"],
    ])
    def test_non_finite_stats_input_exit_1(self, argv, capsys):
        # these printed "inf,0", hit the Nystrom order cap, or raised SignError
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ["kernel", "--rho", "1e300", "--s-steps", "2"],
        ["clt", "--s", "4", "--rho", "50"],
        ["hamiltonian", "--gamma", "0.5", "--rho", "1e300", "--s-max", "8"],
        ["hamiltonian", "--gamma", "0", "--rho", "1e300", "--s-max", "8"],
        ["det", "--s", "4", "--gamma", "0.5", "--rho", "-50"],
    ])
    def test_rho_outside_domain_exit_1(self, argv, capsys, monkeypatch):
        # these printed NaN or a distance of 1.29e16, raised a ValueError or an
        # OverflowError, or doubled to n = 2048; now |rho| > 4 fails before any quadrature
        monkeypatch.setattr(kn, "_p_bundle", lambda *a: pytest.fail("quadrature ran"))
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ["kernel", "--rho", "4", "--s-steps", "2"],
        ["kernel", "--rho", "-4", "--s-steps", "2", "--oracle", "integral"],
        ["det", "--s", "4", "--rho", "-4"],
        ["scan", "--rho", "4", "--s", "4"],
        ["moments", "--s", "4", "--rho", "-4"],
        ["clt", "--s", "4", "--rho", "4"],
        ["hamiltonian", "--gamma", "0", "--rho", "-4", "--s-max", "8"],
        ["hamiltonian", "--gamma", "0.5", "--rho", "4", "--s-max", "6"],
    ])
    def test_rho_domain_ends_accepted(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err == ""
        assert "nan" not in out

    def test_missing_grid_is_numerical_error(self, capsys):
        code, _, err = run_cli(["scan", "--gamma", "0.5"], capsys)
        assert code == 1
        assert "s-min" in json.loads(err)["message"]


class TestParserOncePerProcess:
    def test_built_once(self):
        from pearceydet.cli import build_parser
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("first,then,line", [
        (["det", "--s", "2", "--gamma", "0.3"], ["det", "--s", "2"], "# gamma: 0.5"),
        (["scan", "--s", "2", "--tol", "1e-8"], ["scan", "--s", "2"], "# tol: 1e-09"),
    ])
    def test_defaults_do_not_leak(self, capsys, first, then, line):
        assert run_cli(first, capsys)[0] == 0
        code, out, _ = run_cli(then, capsys)
        assert code == 0
        assert line in out.splitlines()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pearceydet.cli", "det", "--s", "1",
             "--gamma", "0", "--rho", "0"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0



_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import pearceydet
seen = {"package": scipy_modules()}
from pearceydet.cli import main
seen["codes"] = [main(argv) for argv in json.loads(sys.argv[1])]
seen["commands"] = scipy_modules()
print(json.dumps(seen))
"""


def _scipy_probe(argvs, tmp_path):
    argvs = [argv + ["--out", str(tmp_path / f"out{i}.txt")] for i, argv in enumerate(argvs)]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestColdStart:
    def test_numpy_only_commands_load_no_scipy(self, tmp_path):
        # only the sweep (hamiltonian, selftest) and the resolvent solves import scipy
        seen = _scipy_probe([
            ["scan", "--gamma", "0.5", "--s-min", "1", "--s-max", "4", "--s-steps", "2"],
            ["det", "--s", "4", "--nu", "-0.05"],
            ["moments", "--s", "4", "--rho", "0.3"],
            ["clt", "--s", "4"],
            ["kernel", "--oracle", "all", "--rho", "0.3", "--s-min", "-2", "--s-max", "2",
             "--s-steps", "2"],
            ["chf-verify", "--beta-im", "0.11"],
        ], tmp_path)
        assert seen == {"package": [], "codes": [0] * 6, "commands": []}

    def test_hamiltonian_loads_scipy_on_demand(self, tmp_path):
        seen = _scipy_probe([["hamiltonian", "--gamma", "0.5", "--rho", "0.3",
                              "--s-max", "6", "--s-min", "5"]], tmp_path)
        assert seen["package"] == []
        assert seen["codes"] == [0]
        assert {"scipy.integrate", "scipy.linalg"} <= set(seen["commands"])
