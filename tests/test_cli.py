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
        # the oracle is named whether or not --oracle is given, but only once
        for oracle in ([], ["--oracle", "all"]):
            code, out, _ = run_cli(["kernel", "--s-min", "-1", "--s-max", "1",
                                    "--s-steps", "2"] + oracle, capsys)
            assert code == 0
            keys = [ln.split(":")[0] for ln in out.splitlines() if ln.startswith("# ")]
            assert len(keys) == len(set(keys))
            assert "# oracle" in keys


class TestUsage:
    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
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


class TestParallelGrid:
    def test_thread_pool_preserves_order_and_values(self, capsys, monkeypatch):
        args = ["scan", "--gamma", "0.5", "--rho", "0", "--s-min", "2",
                "--s-max", "6", "--s-steps", "5", "--tol", "1e-8"]
        _, sequential, _ = run_cli(args, capsys)
        monkeypatch.setenv("PEARCEY_THREADS", "3")
        _, parallel, _ = run_cli(args, capsys)
        assert parallel == sequential
