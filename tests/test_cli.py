import argparse
import ast
import inspect
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from crownlab import checks, cli, growth
from crownlab.prinseries import MIN_QUAD_POINTS


def strict_loads(text):
    """json.loads that rejects NaN and +-Infinity, as strict parsers do."""

    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in JSON output")

    return json.loads(text, parse_constant=reject)


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
        # the crossing lies near 1 - 9e-14, and the message prints it in full
        t_fail = float(re.search(r"domain exit near t=(\S+) ", err).group(1))
        assert 0.0 < 1.0 - t_fail < 1e-12

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

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_is_usage_error(self, capsys, t):
        code, out, err = run(capsys, "decompose", "--x-diag", "1,-1", "--t", t)
        assert code == 1
        assert out == ""
        assert f"t must be finite, got z = ({t}+0j)" in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (("--matrix", "[[1,0],[1,1]]", "--theta", "0.3", "--t", "0.9", "--seed", "5"),
             "--theta, --t, --seed"),
            (("--matrix", "[[1,0],[1,1]]", "--t", "0.5"), "--t"),
            (("--matrix", "[[1,0],[1,1]]", "--seed", "0"), "--seed"),
        ],
    )
    def test_matrix_route_takes_no_path_flags(self, capsys, argv, flags):
        # each would be ignored: the real route reads none of them, even at
        # its default value
        code, out, err = run(capsys, "decompose", *argv)
        assert code == 1 and out == ""
        assert f"--matrix takes no {flags}" in err

    def test_theta_route_takes_no_seed(self, capsys):
        code, out, err = run(capsys, "decompose", "--x-diag", "1,-1", "--theta", "0.3",
                             "--seed", "5")
        assert code == 1 and out == ""
        assert "--seed draws the Haar k, which --theta replaces" in err

    def test_config_keys_follow_the_route(self, capsys, tmp_path):
        cfg = tmp_path / "dec.cfg"
        cfg.write_text("t = 0.9\n")
        code, out, err = run(capsys, "decompose", "--config", str(cfg), "--matrix", "[[1,0],[1,1]]")
        assert code == 1 and out == ""
        assert "--matrix takes no --t" in err
        # the same key on the path route is its --t, and the defaults apply
        # where they are read: t = 0.5 and seed 0
        for argv in (("--t", "0.9"), ("--config", str(cfg))):
            assert run(capsys, "decompose", "--x-diag", "1,0,-1", *argv) == run(
                capsys, "decompose", "--x-diag", "1,0,-1", "--t", "0.9", "--seed", "0"
            )
        assert run(capsys, "decompose", "--x-diag", "1,-1", "--theta", "0.3") == run(
            capsys, "decompose", "--x-diag", "1,-1", "--theta", "0.3", "--t", "0.5"
        )

    def test_bad_matrix_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--matrix", "not json")
        assert code == 1
        assert "matrix" in err

    def test_small_direction_is_not_zero(self, capsys):
        # zero is judged relative to the largest entry: the direction is
        # rescaled onto the crown boundary anyway
        code, out, _ = run(capsys, "decompose", "--x-diag", "1e-9,-1e-9", "--theta", "0.3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["reconstruction_residual"] < 1e-9
        code, out, err = run(capsys, "decompose", "--x-diag", "1,1")
        assert code == 1 and out == ""
        assert "zero after removing the trace" in err
        code, out, err = run(capsys, "decompose", "--x-diag", "nan,1")
        assert code == 1 and out == ""
        assert "needs at least two finite entries" in err


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

    def test_non_finite_grid_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--t-grid", "0.5,nan", "--n", "2")
        assert code == 1
        assert out == ""
        assert "t_grid must be finite, got t = nan" in err

    def test_dyadic_grid_spec(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--seed", "1",
                           "--t-grid", "dyadic:3", "--haar", "4", "--torus", "8")
        assert code == 0
        ts = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert ts == [0.5, 0.75, 0.875]

    @pytest.mark.parametrize("depth", [54, 60])
    def test_dyadic_depth_past_53_is_usage_error(self, capsys, depth):
        # from j = 54 on, 1 - 2^-j rounds to 1 and the grid stops increasing
        code, out, err = run(capsys, "sweep", "--n", "2", "--t-grid", f"dyadic:{depth}")
        assert code == 1 and out == ""
        assert f"dyadic depth must be 1..53, got {depth} (1 - 2^-54 rounds to 1)" in err
        grid = cli._t_grid("dyadic:53")
        assert len(grid) == 53 and all(a < b < 1.0 for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("argv", [("--haar", "0", "--torus", "0"), ("--n", "4", "--haar", "0")])
    def test_no_samples_is_usage_error(self, capsys, argv):
        # no Haar draw and no torus grid (none exists for n >= 4)
        code, out, err = run(capsys, "sweep", "--t-grid", "0.5", *argv)
        assert code == 1 and out == ""
        assert "n_haar = 0 with no torus" in err

    def test_torus_default_per_n(self, capsys, monkeypatch):
        # criterion 08's grids: 64 angles for n = 2, 8 per angle (512
        # rotations, not 262,144) for n = 3, and no torus for n >= 4
        torus = []
        monkeypatch.setattr(
            growth, "sweep_components", lambda *a, torus_grid, **kw: torus.append(torus_grid) or []
        )
        for argv in (("--n", "2"), ("--n", "3"), ("--n", "4"), ("--n", "3", "--torus", "16")):
            assert run(capsys, "sweep", *argv)[0] == 0
        assert torus == [64, 8, 0, 16]

    def test_torus_for_n_above_3_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "4", "--torus", "8", "--t-grid", "0.5")
        assert code == 1 and out == ""
        assert "--torus applies only to n = 2 and 3, not n = 4" in err

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

    @pytest.mark.parametrize("suite", ["identities", "bounds", "stub_pass", "nonsense"])
    def test_quad_outside_prinseries_is_usage_error(self, capsys, monkeypatch, tmp_path, suite):
        # no other suite reads --quad, so it is not silently ignored
        def no_suite(name):
            raise AssertionError(f"suite {name} ran")

        monkeypatch.setattr(checks, "run_suite", no_suite)
        cfg = tmp_path / "check.cfg"
        cfg.write_text(f"suite = {suite}\nquad = 128\n")
        for argv in (("--suite", suite, "--quad", "128"), ("--config", str(cfg))):
            code, out, err = run(capsys, "check", *argv)
            assert code == 1 and out == ""
            assert f"--quad applies only to --suite prinseries, not {suite!r}" in err

    def test_prinseries_quad_defaults_to_1024(self, capsys, monkeypatch):
        ok = checks.CheckResult(name="stub", passed=True, measured=0.0, threshold=1.0)
        monkeypatch.setitem(checks.SUITES, "prinseries", [lambda: ok])
        quads = []
        monkeypatch.setattr(checks, "prinseries_tables", lambda quad: quads.append(quad) or {})
        assert run(capsys, "check", "--suite", "prinseries")[0] == 0
        assert run(capsys, "check", "--suite", "prinseries", "--quad", "128")[0] == 0
        assert quads == [1024, 128]


CLI = (sys.executable, "-m", "crownlab.cli")


def cli_env():
    """The environment of a CLI subprocess, with this package on its path."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


class TestClosedStdout:
    # a 40 x 40 identity's JSON (66 kB) is written while the command runs;
    # the text lines of a 2 x 2 matrix stay buffered until the final flush
    @pytest.mark.parametrize(
        "argv",
        [
            ("--format", "json", "--matrix", json.dumps(np.eye(40).tolist())),
            ("--matrix", "[[1,0],[1,1]]"),
        ],
        ids=["during_the_command", "at_the_final_flush"],
    )
    def test_closed_stdout_exits_1_without_a_traceback(self, argv):
        proc = subprocess.Popen(
            [*CLI, "decompose", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
        )
        # the reader is gone before the CLI writes, as with `| head -c 0`
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


def test_readme_cli_examples_exit_as_documented(tmp_path):
    # the sh block under the README's "## CLI" heading: each command exits
    # 0, except the one commented "domain exit", which exits 2; both kinds
    # must be found, so that a reworded README cannot pass by running nothing
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    runs = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if not command.strip():
            continue
        argv = shlex.split(command.replace("/tmp/", f"{tmp_path}/"))
        assert argv[0] == "crownlab", line
        code = subprocess.run(
            [*CLI, *argv[1:]], stdout=subprocess.DEVNULL, env=cli_env(), cwd=tmp_path, timeout=300
        ).returncode
        runs.append((command.strip(), 2 if "domain exit" in comment else 0, code))
    assert {want for _, want, _ in runs} == {0, 2}
    assert [(command, code) for command, _, code in runs] == [
        (command, want) for command, want, _ in runs
    ]


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

    def test_empty_table_is_exit_1(self, capsys, tmp_path):
        table = tmp_path / "empty.csv"
        table.write_text("")
        code, out, err = run(capsys, "fit", "--input", str(table), "--component", "alpha")
        assert code == 1 and out == ""
        assert "usage error" in err and "empty input table" in err

    @pytest.mark.parametrize("text", ['{"t": 0.5}', "[[0.5, 2.0]]", '[{"t": 0.5}, 3]'])
    def test_json_table_must_hold_row_objects(self, capsys, tmp_path, text):
        table = tmp_path / "rows.json"
        table.write_text(text)
        code, _, err = run(capsys, "fit", "--input", str(table), "--component", "alpha")
        assert code == 1
        assert "usage error" in err and "list of row objects" in err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("cell.csv", "t,sup_alpha\n0.5,abc\n", "could not convert"),
            ("cell.json", '[{"t": 0.5, "sup_alpha": "abc"}]', "could not convert"),
            ("list.json", '[{"t": 0.5, "sup_alpha": [2.0]}]', "not 'list'"),
            ("truncated.json", '[{"t": 0.5', "Expecting"),
            ("column.csv", "t,sup_kappa\n0.5,2.0\n", "no column 'sup_alpha'"),
            ("ragged.csv", "t,sup_alpha\n0.5\n", "row has 1 fields"),
        ],
    )
    def test_unreadable_table_is_usage_error(self, capsys, tmp_path, name, text, message):
        # the fit's own failures are exit 2; a table it cannot read is exit 1
        table = tmp_path / name
        table.write_text(text)
        code, out, err = run(capsys, "fit", "--input", str(table), "--component", "alpha")
        assert code == 1 and out == ""
        assert "usage error" in err and message in err

    def test_missing_input_file_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        code, out, err = run(capsys, "fit", "--input", str(missing), "--component", "alpha")
        assert code == 1 and out == ""
        assert "usage error" in err and str(missing) in err

    @pytest.mark.parametrize("t", ["1.0", "nan"])
    def test_time_outside_the_fit_range_is_exit_2(self, capsys, tmp_path, t):
        # -log(1 - t) has no finite value there; the fit returned null
        table = tmp_path / "sweep.csv"
        table.write_text(self.synthetic_csv() + f"\n{t},1,2.0,1,10,0\n")
        code, out, err = run(capsys, "fit", "--input", str(table), "--component", "alpha")
        assert code == 2 and out == ""
        assert f"got t = {t}" in err

    def test_bad_component_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "fit", "--component", "beta", "--input", "x")
        assert code == 1

    @pytest.mark.parametrize("window", ["nan,0.99", "0.5,nan", "inf,1", "0.99,0.5"])
    def test_bad_window_is_usage_error(self, capsys, tmp_path, window):
        # a NaN bound fails every comparison of the window filter, which
        # then reported "got 0 usable points" as a domain error
        table = tmp_path / "sweep.csv"
        table.write_text(self.synthetic_csv())
        code, out, err = run(capsys, "fit", "--input", str(table), "--component", "alpha",
                             "--window", window)
        assert code == 1 and out == ""
        assert "usage error" in err and repr(window) in err


class TestConfigFile:
    def test_file_values_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nseed = 9\nt_grid = 0.5,0.75\nhaar = 4\ntorus = 8\n# comment\n")
        code, out_file_only, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert len(out_file_only.strip().splitlines()) == 3
        # a flag wins wherever it stands on the command line
        flag, config = ("--t-grid", "0.5"), ("--config", str(cfg))
        for argv in (config + flag, flag + config):
            code, out_override, _ = run(capsys, "sweep", *argv)
            assert code == 0
            assert len(out_override.strip().splitlines()) == 2
        code, out_flags, _ = run(capsys, "sweep", "--n", "2", "--seed", "9", "--t-grid",
                                 "0.5,0.75", "--haar", "4", "--torus", "8")
        assert out_flags == out_file_only

    def test_file_read_once_and_haar_default_per_n(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quad = 128\n")
        reads = []
        original = cli.load_config_file
        monkeypatch.setattr(
            cli, "load_config_file", lambda path, p: reads.append(path) or original(path, p)
        )
        args = cli.build_parser().parse_args(
            ["check", "--suite", "prinseries", "--config", str(cfg)]
        )
        assert args.quad == 128 and reads == [str(cfg)]
        haar = []
        monkeypatch.setattr(
            growth, "sweep_components", lambda *a, n_haar, **kw: haar.append(n_haar) or []
        )
        cfg.write_text("n = 4\nt_grid = 0.5\n")
        run(capsys, "sweep", "--config", str(cfg))
        run(capsys, "sweep", "--n", "3")
        cfg.write_text("n = 4\nhaar = 64\n")
        run(capsys, "sweep", "--config", str(cfg))
        run(capsys, "sweep", "--config", str(cfg), "--haar", "32")
        assert haar == [128, 512, 64, 32]

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        # wibble is no flag; quad is a flag of check, not of sweep
        cfg = tmp_path / "bad.cfg"
        for text, line, key in (("wibble = 3\n", 1, "wibble"), ("n = 2\nquad = 128\n", 2, "quad")):
            cfg.write_text(text)
            code, _, err = run(capsys, "sweep", "--config", str(cfg))
            assert code == 1
            assert f"{cfg}:{line}: unknown config key {key!r}" in err

    @pytest.mark.parametrize("quad", [MIN_QUAD_POINTS - 1, MIN_QUAD_POINTS])
    def test_quad_minimum_follows_prinseries(self, capsys, monkeypatch, tmp_path, quad):
        assert MIN_QUAD_POINTS == 64
        ok = checks.CheckResult(name="stub", passed=True, measured=0.0, threshold=1.0)
        monkeypatch.setitem(checks.SUITES, "prinseries", [lambda: ok])
        cfg = tmp_path / "check.cfg"
        cfg.write_text(f"suite = prinseries\nquad = {quad}\n")
        for argv in (("--suite", "prinseries", "--quad", str(quad)), ("--config", str(cfg))):
            code, out, err = run(capsys, "check", *argv)
            if quad < MIN_QUAD_POINTS:
                assert code == 1
                assert f"argument --quad: must be >= {MIN_QUAD_POINTS}, got {quad}" in err
            else:
                assert code == 0
                assert len(json.loads(out)["tables"]["orbit"]) == 11

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--config", "/nonexistent.cfg")
        assert code == 1


def subcommands() -> dict:
    (action,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def options(parser) -> set[str]:
    return {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}


def unread_options(parser) -> list[str]:
    """dest of each option of a subcommand that its command function never
    reads as args.<dest>; --config is read by the parse itself."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(parser.get_default("func"))))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    return sorted(options(parser) - read - {"config"})


class TestCommandOptions:
    def test_each_subcommand_takes_only_its_flags(self):
        common = {"out", "config"}
        assert {name: options(p) - common for name, p in subcommands().items()} == {
            "decompose": {"seed", "format", "matrix", "x_diag", "theta", "t"},
            "sweep": {"n", "seed", "t_grid", "haar", "torus", "format", "x_diag"},
            "check": {"suite", "quad"},
            "fit": {"input", "component", "window"},
        }
        assert all(common <= options(p) for p in subcommands().values())

    def test_every_option_is_read_by_its_command(self):
        assert {name: unread_options(p) for name, p in subcommands().items()} == {
            name: [] for name in ("decompose", "sweep", "check", "fit")
        }

    def test_finds_an_unread_option(self):
        def cmd_stub(args):
            return args.used

        parser = cli._Parser(prog="stub")
        parser.add_argument("--used")
        parser.add_argument("--unused")
        parser.set_defaults(func=cmd_stub)
        assert unread_options(parser) == ["unused"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "--x-diag", "1,-1", "--t", "0.5", "--quad", "10"),
            ("check", "--suite", "identities", "--format", "csv"),
            ("check", "--suite", "identities", "--seed", "5"),
            ("sweep", "--quad", "1024"),
            ("sweep", "--conf", "run.cfg"),
        ],
    )
    def test_a_flag_the_command_does_not_take_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err


class TestJsonEmitter:
    def test_float_precision_round_trips(self):
        x = 1.0 / 3.0
        assert float(json.loads(cli.emit_json(x))) == x

    def test_complex_encoding(self):
        payload = json.loads(cli.emit_json(complex(1.5, -2.5)))
        assert payload == {"re": 1.5, "im": -2.5}

    def test_nonfinite_floats_round_trip(self, capsys, tmp_path):
        # strict JSON has no spelling for them, so they are written as null;
        # fit reads a null sup back as +inf, so a JSON sweep table with an
        # all-exit time fits exactly like its CSV twin
        for x in (float("inf"), float("-inf"), float("nan"), np.float64("inf")):
            assert cli.emit_json(x) == "null"
        samples = [
            growth.GrowthSample(t=t, sup_kappa=1.0, sup_alpha=2.0 * (1 - t) ** -1.5, sup_eta=1.0)
            for t in (0.5, 0.75, 0.875, 0.9375, 0.96875)
        ]
        samples.append(growth.GrowthSample(t=0.984375, sup_kappa=math.inf,
                                           sup_alpha=math.inf, sup_eta=math.inf, exits=9))
        fits, sups = [], []
        for fmt in ("json", "csv"):
            table = tmp_path / f"sweep.{fmt}"
            table.write_text(cli.sweep_table(samples, fmt))
            if fmt == "json":
                rows = strict_loads(table.read_text())
                assert rows[-1]["sup_alpha"] is None and rows[0]["sup_alpha"] == 2.0 * 0.5**-1.5
            rows = cli._read_table(str(table))
            sups.append([[row[f"sup_{c}"] for c in ("kappa", "alpha", "eta")] for row in rows])
            code, out, _ = run(capsys, "fit", "--input", str(table), "--component", "alpha")
            assert code == 0
            fits.append(out)
        assert sups[0] == sups[1]
        assert sups[0][-1] == [math.inf] * 3
        assert fits[0] == fits[1]
        assert json.loads(fits[0])["n_hat"] == pytest.approx(1.5, abs=1e-12)

    def test_finite_output_bytes(self):
        # pinned at the output of the emitter that wrote Infinity and NaN
        payload = {"a": [0.1, -2.5e-300, 1e300], "b": complex(1 / 3, -0.0), "c": None, "d": True}
        assert cli.emit_json(payload) == (
            '{"a": [0.10000000000000001, -2.5e-300, 1.0000000000000001e+300], '
            '"b": {"re": 0.33333333333333331, "im": -0}, "c": null, "d": true}'
        )


class TestStrictJsonOutput:
    """Every JSON output of the CLI parses under a strict parser."""

    def test_decompose(self, capsys):
        for argv in (
            ("--matrix", "[[2,1],[1,1]]"),
            ("--x-diag", "1,-1", "--theta", "0.3", "--t", "0.9"),
            ("--x-diag", "1,0,-1", "--t", "0.99", "--seed", "4"),
        ):
            code, out, _ = run(capsys, "decompose", "--format", "json", *argv)
            assert code == 0
            strict_loads(out)

    def test_sweep_and_fit(self, capsys, tmp_path):
        table = tmp_path / "sweep.json"
        code, _, _ = run(capsys, "sweep", "--n", "2", "--seed", "3", "--t-grid", "dyadic:6",
                         "--haar", "8", "--torus", "16", "--format", "json", "--out", str(table))
        assert code == 0
        assert len(strict_loads(table.read_text())) == 6
        code, out, _ = run(capsys, "fit", "--input", str(table), "--component", "eta")
        assert code == 0
        strict_loads(out)

    def test_check_with_nonfinite_measurements(self, capsys, monkeypatch):
        results = [
            checks.CheckResult(name="never", passed=False, measured=math.inf, threshold=1e-6),
            checks.CheckResult(name="undefined", passed=False, measured=math.nan, threshold=1.0),
        ]
        monkeypatch.setitem(checks.SUITES, "stub_nonfinite", [lambda r=r: r for r in results])
        code, out, _ = run(capsys, "check", "--suite", "stub_nonfinite")
        assert code == 2
        payload = strict_loads(out)
        assert [c["measured"] for c in payload["checks"]] == [None, None]

    def test_prinseries_suite(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "prinseries", "--quad", "128")
        assert code == 0
        payload = strict_loads(out)
        assert payload["passed"] == 2 and len(payload["tables"]["pairing"]) == 11
