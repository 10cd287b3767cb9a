import json
import math

import numpy as np
import pytest

from crownlab import checks, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_shear_matrix(self, capsys):
        code, out, _ = run(capsys, "decompose", "--matrix", "[[1,0],[1,1]]", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reconstruction_residual"] < 1e-12
        assert payload["eta"][0][1]["re"] == pytest.approx(0.5)
        assert payload["alpha"][0]["re"] == pytest.approx(math.sqrt(2))
        r = 1 / math.sqrt(2)
        kappa = np.array([[c["re"] for c in row] for row in payload["kappa"]])
        assert np.allclose(kappa, [[r, -r], [r, r]])

    def test_identity_text_output(self, capsys):
        code, out, _ = run(capsys, "decompose", "--matrix", "[[1,0],[0,1]]")
        assert code == 0
        assert "reconstruction_residual: 0" in out

    def test_domain_exit_is_exit_code_2(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--x-diag", "1,-1", "--theta", str(math.pi / 4), "--t", "1.0"
        )
        assert code == 2
        assert "domain exit near t=1" in err

    def test_path_spec_runs(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--x-diag", "1,-1", "--theta", "0.3", "--t", "0.5",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["reconstruction_residual"] < 1e-9

    def test_needs_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "decompose")
        assert code == 1
        code2, _, _ = run(capsys, "decompose", "--matrix", "[[1,0],[0,1]]", "--x-diag", "1,-1")
        assert code2 == 1

    def test_bad_matrix_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--matrix", "not json")
        assert code == 1
        assert "matrix" in err


class TestSweep:
    ARGS = ("sweep", "--n", "2", "--seed", "11", "--t-grid", "0.5,0.75,0.9",
            "--haar", "8", "--torus", "16")

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, *self.ARGS)
        code2, out2, _ = run(capsys, *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_columns_and_closed_form(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--seed", "1",
                           "--t-grid", "0.5,0.9", "--haar", "8", "--torus", "64")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,sup_kappa,sup_alpha,sup_eta,samples_used,exits"
        for line in lines[1:]:
            vals = line.split(",")
            t, sup_alpha = float(vals[0]), float(vals[2])
            assert abs(sup_alpha - 1.0 / abs(math.cos(t * math.pi / 2))) < 0.01 * sup_alpha

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--seed", "1",
                           "--t-grid", "0.5", "--haar", "4", "--torus", "8",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert set(rows[0]) == set(cli.SWEEP_COLUMNS)

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--t-grid", "", "--n", "2")
        assert code == 1
        assert "t_grid" in err

    def test_dyadic_grid_spec(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--seed", "1",
                           "--t-grid", "dyadic:3", "--haar", "4", "--torus", "8")
        assert code == 0
        ts = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert ts == [0.5, 0.75, 0.875]

    def test_haar_default_drops_for_large_n(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "4", "--seed", "1",
                           "--t-grid", "0.5", "--torus", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["samples_used"] >= 128


class TestCheck:
    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "nonsense")
        assert code == 1
        assert "unknown suite" in err

    def test_prinseries_suite_carries_tables(self, capsys, monkeypatch):
        ok = checks.CheckResult(name="stub", passed=True, measured=0.0, threshold=1.0)
        monkeypatch.setitem(checks.SUITES, "prinseries", [lambda: ok])
        code, out, _ = run(capsys, "check", "--suite", "prinseries", "--quad", "128")
        assert code == 0
        tables = json.loads(out)["tables"]
        assert len(tables["orbit"]) == len(tables["pairing"]) == 11
        assert tables["orbit"][0]["norm"] > 0

    def test_exit_codes_follow_verdicts(self, capsys, monkeypatch):
        ok = checks.CheckResult(name="stub", passed=True, measured=0.0, threshold=1.0)
        bad = checks.CheckResult(name="stub2", passed=False, measured=2.0, threshold=1.0)
        monkeypatch.setitem(checks.SUITES, "stub_pass", [lambda: ok])
        monkeypatch.setitem(checks.SUITES, "stub_fail", [lambda: ok, lambda: bad])
        code, out, _ = run(capsys, "check", "--suite", "stub_pass")
        assert code == 0
        assert json.loads(out)["failed"] == 0
        code, out, _ = run(capsys, "check", "--suite", "stub_fail")
        assert code == 2
        payload = json.loads(out)
        assert payload["passed"] == 1 and payload["failed"] == 1
        assert payload["checks"][1]["measured"] == 2.0


class TestFit:
    def synthetic_csv(self):
        lines = ["t,sup_kappa,sup_alpha,sup_eta,samples_used,exits"]
        for t in np.linspace(0.9, 0.999, 8):
            sup = 3.0 * (1.0 - t) ** -2.0
            lines.append(f"{float(t)!r},1,{float(sup)!r},1,10,0")
        return "\n".join(lines)

    def test_exact_recovery_from_csv(self, capsys, tmp_path):
        table = tmp_path / "sweep.csv"
        table.write_text(self.synthetic_csv())
        code, out, _ = run(capsys, "fit", "--input", str(table), "--component", "alpha")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_hat"] == pytest.approx(2.0, abs=1e-9)
        assert payload["log_c_hat"] == pytest.approx(math.log(3.0), abs=1e-9)

    def test_pipe_from_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "sweep", "--n", "2", "--seed", "2",
                         "--t-grid", "dyadic:8", "--haar", "8", "--torus", "32",
                         "--out", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "fit", "--input", str(out_path),
                           "--component", "alpha", "--window", "0.5,0.999")
        assert code == 0
        assert math.isfinite(json.loads(out)["n_hat"])

    def test_too_few_points_is_exit_2(self, capsys, tmp_path):
        table = tmp_path / "short.csv"
        table.write_text("t,sup_alpha\n0.5,2.0\n0.6,3.0\n")
        code, _, err = run(capsys, "fit", "--input", str(table), "--component", "alpha")
        assert code == 2
        assert "fit failed" in err

    def test_empty_table_is_exit_2(self, capsys, tmp_path):
        table = tmp_path / "empty.csv"
        table.write_text("")
        code, _, _ = run(capsys, "fit", "--input", str(table), "--component", "alpha")
        assert code == 2

    def test_bad_component_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "fit", "--component", "beta", "--input", "x")
        assert code == 1


class TestConfigFile:
    def test_file_values_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nseed = 9\nt_grid = 0.5,0.75\nhaar = 4\ntorus = 8\n# comment\n")
        code, out_file_only, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert len(out_file_only.strip().splitlines()) == 3
        code, out_override, _ = run(capsys, "sweep", "--config", str(cfg), "--t-grid", "0.5")
        assert code == 0
        assert len(out_override.strip().splitlines()) == 2

    def test_file_read_once_and_haar_default_per_n(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\nt_grid = 0.5\n")
        reads = []
        original = cli.load_config_file
        monkeypatch.setattr(cli, "load_config_file", lambda path: reads.append(path) or original(path))
        parser = cli.build_parser()
        assert cli.build_config(parser.parse_args(["sweep", "--config", str(cfg)])).haar == 128
        assert reads == [str(cfg)]
        assert cli.build_config(parser.parse_args(["sweep", "--n", "3"])).haar == 512
        cfg.write_text("n = 4\nhaar = 64\n")
        assert cli.build_config(parser.parse_args(["sweep", "--config", str(cfg)])).haar == 64
        flags = ["sweep", "--config", str(cfg), "--haar", "32"]
        assert cli.build_config(parser.parse_args(flags)).haar == 32

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 3\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "wibble" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--config", "/nonexistent.cfg")
        assert code == 1


class TestJsonEmitter:
    def test_float_precision_round_trips(self):
        x = 1.0 / 3.0
        assert float(json.loads(cli.emit_json(x))) == x

    def test_complex_encoding(self):
        payload = json.loads(cli.emit_json(complex(1.5, -2.5)))
        assert payload == {"re": 1.5, "im": -2.5}

    def test_nonfinite_floats_round_trip(self):
        assert json.loads(cli.emit_json(float("inf"))) == float("inf")
        assert json.loads(cli.emit_json(float("-inf"))) == float("-inf")
