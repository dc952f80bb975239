import json
import subprocess
import sys

import pytest

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

    def test_numerical_error_exit_code(self, capsys):
        code, out, err = run_cli(["det", "--s", "50", "--gamma", "0.5"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"


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


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        args = ["moments", "--rho", "0", "--s", "3", "--quad-order", "64"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestChfVerify:
    def test_json_residuals(self, capsys):
        code, out, _ = run_cli(["chf-verify", "--beta-im", "0.11",
                                "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["max_ray_residual"] <= 1e-9


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


class TestHamiltonian:
    @pytest.mark.parametrize("tol", ["0", "1e-15", "nan", "inf"])
    def test_tol_below_solver_floor_exit_1(self, tol, capsys):
        # DOP853 would silently raise such an rtol to 2.2e-14 (or fail on nan)
        code, out, err = run_cli(["hamiltonian", "--gamma", "0.5", "--s-max", "7",
                                  "--s-min", "6", "--tol", tol], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


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

    def test_missing_grid_is_numerical_error(self, capsys):
        code, _, err = run_cli(["scan", "--gamma", "0.5"], capsys)
        assert code == 1
        assert "s-min" in json.loads(err)["message"]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pearceydet.cli", "det", "--s", "1",
             "--gamma", "0", "--rho", "0"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0

