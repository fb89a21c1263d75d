"""CLI integration: file outputs, determinism, exit-code contract."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscispec
from oscispec import dump_problem, problem_to_dict
from oscispec.cli import main

from conftest import make_string_problem


def _run(*argv):
    return main(list(argv))


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSolve:
    def test_fixed_free_defaults(self, tmp_path):
        code = _run(
            "solve", "--model", "fixed_free_string", "--scan", "0.1:10:200",
            "--out", str(tmp_path),
        )
        assert code == 0
        header, rows = _read_csv(tmp_path / "spectrum.csv")
        assert header == ["re", "im", "residual"]
        ims = [float(r[1]) for r in rows]
        expected = [(2 * k - 1) * math.pi / 2 for k in (1, 2, 3)]
        assert len(ims) == 3
        for got, want in zip(ims, expected):
            assert abs(got - want) <= 1e-6

        data = json.loads((tmp_path / "spectrum.json").read_text())
        assert [set(rec) for rec in data] == [
            {"re", "im", "residual", "iterations"}
        ] * 3

    def test_json_csv_values_consistent(self, tmp_path):
        _run(
            "solve", "--model", "point_mass_string", "--scan", "0.5:8:160",
            "--out", str(tmp_path),
        )
        data = json.loads((tmp_path / "spectrum.json").read_text())
        _, rows = _read_csv(tmp_path / "spectrum.csv")
        assert len(data) == len(rows)
        for rec, row in zip(data, rows):
            assert f"{rec['re']:.10g}" == row[0]
            assert f"{rec['im']:.10g}" == row[1]
            assert f"{rec['residual']:.10g}" == row[2]

    def test_empty_window_is_success(self, tmp_path):
        code = _run(
            "solve", "--model", "fixed_free_string", "--scan", "0.1:1.0:60",
            "--out", str(tmp_path),
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "spectrum.csv")
        assert rows == []
        assert json.loads((tmp_path / "spectrum.json").read_text()) == []

    def test_malformed_problem_file_exits_1_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = tmp_path / "results"
        code = _run(
            "solve", "--problem", str(bad), "--scan", "0.1:5:50", "--out", str(out)
        )
        assert code == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_problem_file_round_trips_through_solver(self, tmp_path):
        path = tmp_path / "string.json"
        dump_problem(make_string_problem(), path)
        code = _run(
            "solve", "--problem", str(path), "--scan", "1.0:2.0:40",
            "--out", str(tmp_path),
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(math.pi / 2, abs=1e-8)

    def test_missing_search_window_exits_1(self, tmp_path, capsys):
        code = _run("solve", "--model", "fixed_free_string", "--out", str(tmp_path))
        assert code == 1
        assert "scan" in capsys.readouterr().err

    def test_validation_failure_exits_1(self, tmp_path):
        data = problem_to_dict(make_string_problem())
        data["breakpoints"] = [0.0, 1.0, 0.5]
        data["coefficients"].append(data["coefficients"][0])
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(data))
        code = _run("solve", "--problem", str(bad), "--scan", "0.1:5:50",
                    "--out", str(tmp_path))
        assert code == 1

    def test_target_error_drives_step_choice(self, tmp_path):
        code = _run(
            "solve", "--model", "fixed_free_string", "--scan", "1.0:2.0:40",
            "--target-error", "1e-6", "--out", str(tmp_path),
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "spectrum.csv")
        assert float(rows[0][1]) == pytest.approx(math.pi / 2, abs=1e-7)

    def test_rect_search_finds_damped_root(self, tmp_path):
        code = _run(
            "solve", "--model", "spacecraft_bar", "--param", "beta=0.02",
            "--rect=-0.5:0.0:0.5:1.5:4:4", "--out", str(tmp_path),
            "--format", "csv",
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "spectrum.csv")
        assert rows and float(rows[0][0]) < 0


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = _run(
                "solve", "--model", "point_mass_string", "--scan", "0.5:8:120",
                "--out", str(out),
            )
            assert code == 0
        assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
        assert (a / "spectrum.json").read_bytes() == (b / "spectrum.json").read_bytes()


class TestModes:
    def test_string_mode_file(self, tmp_path):
        code = _run(
            "modes", "--model", "fixed_free_string", "--scan", "1.0:2.0:40",
            "--indices", "1", "--out", str(tmp_path),
        )
        assert code == 0
        header, rows = _read_csv(tmp_path / "mode_001.csv")
        assert header == ["y", "comp_1", "comp_2"]
        assert len(rows) == 1001  # ceil(L/h) + 1 at h = 1e-3
        ys = np.array([float(r[0]) for r in rows])
        comp1 = np.array([float(r[1]) for r in rows])
        comp1 = comp1 / comp1[np.argmax(np.abs(comp1))]
        np.testing.assert_allclose(comp1, np.sin(math.pi / 2 * ys), atol=1e-6)
        all_vals = np.array([[float(c) for c in r[1:]] for r in rows])
        assert np.max(np.abs(all_vals)) <= 1.0 + 1e-12

    def test_index_out_of_range_exits_1(self, tmp_path, capsys):
        code = _run(
            "modes", "--model", "fixed_free_string", "--scan", "1.0:2.0:40",
            "--indices", "7", "--out", str(tmp_path),
        )
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_real_split_mode_doubles_components(self, tmp_path):
        code = _run(
            "modes", "--model", "fixed_free_string", "--scan", "1.0:2.0:40",
            "--path", "real_split", "--indices", "1", "--out", str(tmp_path),
        )
        assert code == 0
        header, rows = _read_csv(tmp_path / "mode_001.csv")
        assert header == ["y", "comp_1", "comp_2", "comp_3", "comp_4"]
        assert len(rows) == 1001


class TestSweep:
    def test_feedback_sweep_rows(self, tmp_path):
        code = _run(
            "sweep", "--model", "spacecraft_bar", "--sweep", "d:0.0:0.2:5",
            "--scan", "0.3:2.0:50", "--out", str(tmp_path),
        )
        assert code == 0
        header, rows = _read_csv(tmp_path / "sweep.csv")
        assert header == ["param_value", "root_index", "re", "im", "status"]
        values = sorted({float(r[0]) for r in rows})
        assert len(values) == 5
        ok_rows = [r for r in rows if r[4] == "ok"]
        assert ok_rows
        leading = [float(r[2]) for r in ok_rows if r[1] == "1"]
        assert max(leading) - min(leading) > 1e-6

    def test_unknown_parameter_exits_1_before_output(self, tmp_path, capsys):
        code = _run(
            "sweep", "--model", "spacecraft_bar", "--sweep", "bogus:0:1:3",
            "--scan", "0.3:2.0:50", "--out", str(tmp_path),
        )
        assert code == 1
        assert not (tmp_path / "sweep.csv").exists()

    def test_single_point_sweep_matches_solve(self, tmp_path):
        solve_dir = tmp_path / "solve"
        _run(
            "solve", "--model", "spacecraft_bar", "--param", "d=0.05",
            "--scan", "0.3:2.0:50", "--out", str(solve_dir),
        )
        _run(
            "sweep", "--model", "spacecraft_bar", "--sweep", "d:0.05:0.05:1",
            "--scan", "0.3:2.0:50", "--out", str(tmp_path),
        )
        _, solve_rows = _read_csv(solve_dir / "spectrum.csv")
        _, sweep_rows = _read_csv(tmp_path / "sweep.csv")
        assert len(sweep_rows) == len(solve_rows)
        for srow, wrow in zip(solve_rows, sweep_rows):
            assert wrow[2] == srow[0] and wrow[3] == srow[1]


class TestVerifyAndValidate:
    def test_verify_string_exit_0(self, capsys):
        assert _run("verify", "fixed_free_string") == 0
        out = capsys.readouterr().out
        assert "closed form" in out and "all deviations below" in out

    def test_verify_point_mass_exit_0(self):
        assert _run("verify", "point_mass_string") == 0

    def test_verify_damped_model_exit_0(self, capsys):
        assert _run("verify", "spacecraft_bar") == 0
        assert "finite differences" in capsys.readouterr().out

    def test_verify_breach_exits_3(self, capsys):
        code = _run("verify", "fixed_free_string", "--max-dev", "1e-15")
        assert code == 3
        assert "FAILED" in capsys.readouterr().out

    def test_verify_unknown_model_exits_1(self, capsys):
        assert _run("verify", "beam") == 1

    def test_verify_ignores_overdamped_fd_eigenvalues(self, capsys):
        # the n_fd=100 spectrum has a Kelvin-Voigt eigenvalue at -199.95+3.14i
        assert _run("verify", "machine_unit", "--n-fd", "100") == 0
        assert "all deviations below" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--param", "bogus=1"),
            ("--param", "beta"),
            ("--n-fd", "10"),
            ("--n-fd", "4000"),
        ],
        ids=["unknown_param", "param_without_value", "n_fd_below_floor", "n_fd_above_cap"],
    )
    def test_verify_bad_config_exits_1(self, argv, capsys):
        assert _run("verify", "machine_unit", *argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_validate_subcommand(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        dump_problem(make_string_problem(), path)
        assert _run("validate", "--problem", str(path)) == 0
        data = problem_to_dict(make_string_problem())
        data["breakpoints"] = [0.0, 1.0, 0.5]
        data["coefficients"].append(data["coefficients"][0])
        data["conjugations"] = [
            {"interface_index": 1,
             "D": [[[1.0], [0.0]], [[0.0], [1.0]]],
             "B": [[[1.0], [0.0]], [[0.0], [1.0]]]}
        ]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert _run("validate", "--problem", str(bad)) == 1
        assert "breakpoints not increasing" in capsys.readouterr().out


def test_import_leaves_scipy_unloaded():
    # only the FD oracle needs scipy; a CLI process that never runs it
    # should not pay for importing it
    src = str(Path(oscispec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, oscispec.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
