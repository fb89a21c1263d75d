"""CLI integration: file outputs, determinism, exit-code contract."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oscispec
from oscispec import NotARootError, SolverError, cli, dump_problem, problem_to_dict, spectrum
from oscispec.cli import RunConfig, _write_mode, _write_spectrum, main

from conftest import POLE_STRING, make_string_problem


#: the pinned-free string with B = 1 + y/2: a y-dependent interval, which
#: RK4 integrates
GRADED_STRING = {
    "name": "graded", "breakpoints": [0, 1], "dimension": 2, "bound": 2.0,
    "coefficients": [{"A": [[[0], [1]], [[0], [0]]], "B": [[[0], [0]], [[1, 0.5], [0]]],
                      "C": [[[0], [0]], [[0], [0]]]}],
    "boundary_left": [[[1], [0]]], "boundary_right": [[[0], [1]]], "conjugations": [],
}


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

    @pytest.mark.parametrize("tol", ["1e-3", "1e-2", "0.1", "0.5"])
    def test_a_loose_tol_keeps_distinct_roots(self, tmp_path, tol):
        # the merge radius was 1e3 tol: 10 at tol 0.01, wider than the
        # roots' spacing pi, so one root was written
        code = _run("solve", "--model", "fixed_free_string", "--scan", "0.2:10:240",
                    "--tol", tol, "--out", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "spectrum.json").read_text())
        got = [complex(r["re"], r["im"]) for r in data]
        want = [(2 * k - 1) * math.pi / 2 * 1j for k in (1, 2, 3)]
        assert len(got) == 3
        assert all(abs(a - b) <= 1e-6 for a, b in zip(got, want))

    @pytest.mark.parametrize(
        "search, roots",
        [
            (["machine_unit", "--param", "left_end=clamped", "--param", "right_end=clamped",
              "--rect=-0.5:0.0:0.5:10.0:4:4"],
             [-0.049348022005527 + 3.141205051223100j, -0.197392088026848 + 6.280083914167239j,
              -0.444132198107423 + 9.414307526955394j]),
            (["spacecraft_bar", "--param", "beta=0.02", "--rect=-0.5:0.0:0.5:6.0:4:6"],
             [-0.009547444507609 + 0.910287086233409j, -0.180292730231535 + 2.220172581416779j,
              -0.379618038206955 + 4.917221666952651j]),
        ],
        ids=["machine_unit", "spacecraft_bar"],
    )
    def test_a_loose_tol_rect_writes_each_root_once(self, tmp_path, search, roots):
        # the benchmark's rects at tol 1e-2: two Newton results of one root
        # lie up to 3e-2 apart there, and each root is written once
        code = _run("solve", "--model", *search, "--tol", "1e-2", "--out", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "spectrum.json").read_text())
        got = [complex(r["re"], r["im"]) for r in data]
        assert len(got) == 3
        for root in roots:
            assert sum(abs(z - root) <= 0.05 for z in got) == 1

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("--scan", "0.1:5:50", "--step", "0"),
            ("--scan", "0.1:5:50", "--step=-1e-3"),
            ("--scan", "0.1:5:50", "--step", "nan"),
            ("--scan", "0.1:5:50", "--target-error", "-1"),
            ("--scan", "0.1:5:50", "--tol", "nan"),
            ("--scan", "0.1:5:50", "--tol", "1"),
            ("--scan", "0.1:5:50", "--tol", "inf"),
            ("--scan", "0.2:inf:10"),
            ("--rect=0:1:1:5:0:0",),
            ("--rect=0:1:1:5:3:0",),
            ("--rect=nan:0:1:2:2:2",),
        ],
        ids=["zero_step", "negative_step", "nan_step", "negative_target_error",
             "nan_tol", "unit_tol", "infinite_tol", "infinite_scan", "empty_rect",
             "rect_without_im_points", "nan_rect_corner"],
    )
    def test_bad_search_option_exits_1_before_output(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run("solve", "--model", "fixed_free_string", *argv, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "a solve needs a scan or a rect"),
            (("--scan", "0.2:inf:10"), "need finite p_min < p_max"),
            (("--scan", "0.2:10:1"), "need n_grid >= 2"),
            (("--scan", "0.2:10:24.5"), "need n_grid >= 2: 24.5 is not an integer"),
            (("--scan", "0.2:10:nan"), "need n_grid >= 2: nan is not an integer"),
            (("--rect=0:1:1:5:3:0",), "rect needs finite corners, nr >= 1 and ni >= 1"),
            (("--rect=-1:0:0.2:10:2.5:2",), "rect needs finite corners, nr >= 1 and ni >= 1: 2.5 is not an integer"),
            (("--scan", "0.2:10:24", "--step", "0"), "step must be positive"),
            (("--scan", "0.2:10:24", "--target-error", "nan"), "target_error must be positive"),
            (("--scan", "0.2:10:24", "--tol", "-1"), "tol must be positive"),
            (("--scan", "0.2:10:24", "--tol", "1"), "tol must be below 1"),
        ],
        ids=["no_search", "infinite_scan", "one_point_scan", "fractional_scan_count", "nan_scan_count",
             "rect_without_im_points", "fractional_rect_count", "zero_step", "nan_target_error",
             "negative_tol", "unit_tol"],
    )
    @pytest.mark.parametrize("command", ["solve", "modes", "sweep"])
    def test_a_refused_search_prints_the_library_message_before_any_load(
        self, argv, message, command, tmp_path, capsys
    ):
        # the CLI builds one SolveOptions and reports its refusal; the
        # problem file does not exist, so a load would have failed first
        extra = ("--sweep", "T:1:2:2") if command == "sweep" else ()
        out = tmp_path / "out"
        code = _run(command, "--problem", str(tmp_path / "missing.json"), *argv, *extra, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, argv, flag",
        [
            ("solve", ("--scan", "0.2:10:abc"), "--scan"),
            ("solve", ("--rect=-1:0:0.2:10:2:x",), "--rect"),
            ("sweep", ("--scan", "0.2:10:24", "--sweep", "T:1:2:x"), "--sweep"),
        ],
        ids=["scan", "rect", "sweep"],
    )
    def test_a_count_that_is_no_number_is_one_error_line(self, command, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(command, "--model", "fixed_free_string", *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_only_the_commands_that_search_build_solve_options(self, monkeypatch):
        configs = []
        monkeypatch.setattr(cli, "cmd_verify", lambda cfg: configs.append(cfg) or 0)
        monkeypatch.setattr(cli, "cmd_validate", lambda cfg: configs.append(cfg) or 0)
        monkeypatch.setattr(cli, "cmd_solve", lambda cfg: configs.append(cfg) or 0)
        assert _run("verify", "machine_unit") == 0
        assert _run("validate", "--model", "machine_unit") == 0
        assert _run("solve", "--model", "machine_unit", "--scan", "0.2:10:24") == 0
        assert [cfg.solve for cfg in configs[:2]] == [None, None]
        assert configs[2].solve == spectrum.SolveOptions(scan=(0.2, 10.0, 24), step=spectrum.DEFAULT_STEP)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve", "--model", "fixed_free_string", "--scan"), "argument --scan: expected one argument"),
            (("bogus",), "argument command: invalid choice: 'bogus'"),
            (("solve", "--model", "fixed_free_string", "--scan", "0.2:10:24", "--path", "bogus"),
             "argument --path: invalid choice: 'bogus'"),
            (("solve", "--model", "fixed_free_string", "--scan", "0.2:10:24", "--step", "abc"),
             "argument --step: invalid float value: 'abc'"),
            (("solve", "--model", "cable_snapshot", "--param", "masses=1,x", "--scan", "0.2:10:24"),
             "--param masses expects numbers, got '1,x'"),
            (("solve", "--model", "fixed_free_string", "--problem", "p.json", "--scan", "0.2:10:24"),
             "give either --model or --problem, not both"),
            (("solve", "--scan", "0.2:10:24"),
             "a problem source is required: --model NAME or --problem FILE"),
            (("solve", "--model", "fixed_free_string", "--scan", "0.2:10:24", "--step", "1e-3",
              "--target-error", "1e-8"),
             "give --step or --target-error, not both"),
        ],
        ids=["scan_without_value", "unknown_command", "unknown_path", "step_not_a_number",
             "param_list_not_numbers", "model_and_problem", "no_problem_source",
             "step_and_target_error"],
    )
    def test_usage_error_exits_1_with_an_error_line(self, argv, message, tmp_path, capsys):
        # argparse's own errors exited 2, the numerical-failure code, with
        # its usage text, and a comma list that did not parse escaped as a
        # ValueError traceback
        out = tmp_path / "out"
        assert _run(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--model", "fixed_free_string", "--param", "T=1,2"),
             "parameter 'T' of fixed_free_string expects a number, got (1.0, 2.0)"),
            (("--problem", "dimension.json"), "cannot load problem file: dimension must be an integer, got 2.5"),
        ],
        ids=["list_for_a_number", "fractional_dimension"],
    )
    def test_a_value_of_the_wrong_kind_is_named(self, argv, message, tmp_path, capsys, monkeypatch):
        # a list leaked "'>' not supported between instances of 'tuple' and
        # 'int'", and a dimension of 2.5 loaded as 2
        data = problem_to_dict(make_string_problem())
        data["dimension"] = 2.5
        (tmp_path / "dimension.json").write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        assert _run("solve", *argv, "--scan", "0.2:10:50", "--out", "out") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_validation_failure_exits_1(self, tmp_path):
        data = problem_to_dict(make_string_problem())
        data["breakpoints"] = [0.0, 1.0, 0.5]
        data["coefficients"].append(data["coefficients"][0])
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(data))
        code = _run("solve", "--problem", str(bad), "--scan", "0.1:5:50",
                    "--out", str(tmp_path))
        assert code == 1

    def test_step_below_the_float_range_of_a_count_solves(self, tmp_path):
        for step in ("1e-320", "1e-3"):
            code = _run(
                "solve", "--model", "machine_unit", "--scan", "0.2:10:24", "--step", step,
                "--out", str(tmp_path / step),
            )
            assert code == 0
        tiny, default = ((tmp_path / step / "spectrum.json").read_bytes() for step in ("1e-320", "1e-3"))
        assert tiny == default and len(json.loads(default)) == 4

    def test_step_beyond_the_rk4_cap_exits_1_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # at 1e-320 the RK4 step count is not finite, and a 1e-9 step would
        # build a 10^9-step array: both exit 1 with the cap's error line,
        # before any solve
        path = tmp_path / "graded.json"
        path.write_text(json.dumps(GRADED_STRING))
        argv = ["solve", "--problem", str(path), "--scan", "0.2:10:24", "--out", str(tmp_path / "out")]
        with monkeypatch.context() as m:
            m.setattr(cli, "solve_spectrum", lambda *args: pytest.fail("solved"))
            for step in ("1e-320", "1e-9"):
                assert _run(*argv, "--step", step) == 1
                assert capsys.readouterr().err == (
                    f"error: step {float(step):g} gives more than {cli.MODES_MAX_SAMPLES} RK4 nodes; "
                    "give a coarser --step or a larger --target-error\n"
                )
        assert not (tmp_path / "out").exists()
        assert _run(*argv, "--step", "1e-3") == 0
        assert len(json.loads((tmp_path / "out" / "spectrum.json").read_text())) == 4

    def test_overflowing_end_values_fail_their_lambda_without_a_warning(self, tmp_path):
        # from Re -800 the propagated end values W overflow on the second
        # interval of a decaying first one: those lambdas fail there, and no
        # numpy overflow warning escapes; the near-singular warnings stay
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            code = _run("solve", "--model", "cable_snapshot", "--rect=-800:-700:0:8:2:2",
                        "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "spectrum.json").read_text() == "[\n]\n"
        messages = [str(w.message) for w in record]
        assert messages and all("nearly singular" in message for message in messages)

    def test_target_error_drives_step_choice(self, tmp_path):
        code = _run(
            "solve", "--model", "fixed_free_string", "--scan", "1.0:2.0:40",
            "--target-error", "1e-6", "--out", str(tmp_path),
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "spectrum.csv")
        assert float(rows[0][1]) == pytest.approx(math.pi / 2, abs=1e-7)

    def test_target_error_with_a_pole_at_the_probe_scale(self, tmp_path):
        # the scan to p = 1 probes |lambda| = 1, a pole of the problem: the
        # step estimate reads the declared bound and evaluates no lambda
        problem = tmp_path / "pole.json"
        problem.write_text(json.dumps(POLE_STRING))
        outs = {}
        for tag, extra in (("default", ()), ("target", ("--target-error", "1e-8"))):
            outs[tag] = tmp_path / tag
            code = _run("solve", "--problem", str(problem), "--scan", "0.2:1:40", *extra,
                        "--out", str(outs[tag]))
            assert code == 0
        for name in ("spectrum.json", "spectrum.csv"):
            assert (outs["target"] / name).read_bytes() == (outs["default"] / name).read_bytes()
        assert len(json.loads((outs["default"] / "spectrum.json").read_text())) == 3

    @pytest.mark.parametrize("command, extra", [("modes", ()), ("sweep", ("--sweep", "d:0:0.2:2"))])
    def test_format_is_a_usage_error_where_nothing_reads_it(self, command, extra, tmp_path, capsys):
        # modes and sweep accepted --format and wrote CSV whatever it said
        out = tmp_path / "out"
        code = _run(command, "--model", "spacecraft_bar", "--scan", "0.3:2:20", *extra,
                    "--format", "json", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --format json\n"
        assert not out.exists()
        assert _run("solve", "--model", "spacecraft_bar", "--scan", "0.3:2:20",
                    "--format", "json", "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["spectrum.json"]

    def test_rect_search_finds_damped_root(self, tmp_path):
        code = _run(
            "solve", "--model", "spacecraft_bar", "--param", "beta=0.02",
            "--rect=-0.5:0.0:0.5:1.5:4:4", "--out", str(tmp_path),
            "--format", "csv",
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "spectrum.csv")
        assert rows and float(rows[0][0]) < 0


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_rect_keeps_the_shallow_rects_complex_roots(self, tmp_path):
        # a Newton step from Re -2500 overflows at lambda = 4283.66 and one
        # lands next to the pole at -200: those points fail, are halved
        # past, and the other seeds are refined as before
        roots = {}
        for re0 in ("-2500", "-250"):
            code = _run("solve", "--model", "pipeline", "--param", "beta=0.005",
                        f"--rect={re0}:0:0:8:4:4", "--out", str(tmp_path / re0))
            assert code == 0
            data = json.loads((tmp_path / re0 / "spectrum.json").read_text())
            roots[re0] = [complex(r["re"], r["im"]) for r in data if r["im"] > 1]
        assert len(roots["-2500"]) == len(roots["-250"]) == 3
        for deep, shallow in zip(roots["-2500"], roots["-250"]):
            assert abs(deep - shallow) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rect_where_every_lambda_fails_exits_2(self, tmp_path, capsys):
        # criterion 9's stiff problem overflows at every lambda: nothing could
        # be evaluated, so the first seed's error is the solve's
        stiff = {
            "name": "overflow", "breakpoints": [0.0, 1.0], "dimension": 2, "bound": 800.0,
            "coefficients": [{"A": [[[800.0], [0.0]], [[0.0], [-800.0]]],
                              "B": [[[0.0], [0.0]], [[0.0], [0.0]]],
                              "C": [[[0.0], [0.0]], [[0.0], [0.0]]]}],
            "boundary_left": [[[1.0], [0.0]]], "boundary_right": [[[1.0], [0.0]]],
            "conjugations": [],
        }
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(stiff))
        with pytest.raises(SolverError) as first:
            spectrum.characteristic_determinant(oscispec.load_problem(path), complex(-1.0, 1.0), 1e-3)
        code = _run("solve", "--problem", str(path), "--rect=-1:0:1:2:2:2", "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == f"numerical failure: {first.value}\n"
        assert str(first.value) == "integration overflow on interval 0 at lambda=(-1+1j)"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_deep_pipeline_rect_exits_0(self, tmp_path):
        # Newton on the closure determinant with its exact derivative: the
        # difference stencils overflowed here at lambda = 9.5e4 and exited 2
        code = _run("solve", "--model", "pipeline", "--param", "beta=0.005",
                    "--rect=-250:0:0:8:4:4", "--out", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "spectrum.json").read_text())
        assert any(abs(complex(r["re"], r["im"]) - complex(-0.013528205145, 2.595154283904)) < 1e-9
                   for r in data)


    @pytest.mark.parametrize("model, d_zero, count", [("machine_unit", 0.0, 1), ("pipeline", 0.5, 0)])
    def test_real_split_scan_through_zero_frequency(self, model, d_zero, count, tmp_path):
        # the real-split search runs on the complex-path D, and only
        # machine_unit has lambda = 0 as a zero of it
        problem = oscispec.build_model(model)
        assert abs(spectrum.characteristic_determinant(problem, 0j, 1e-3)) == d_zero
        code = _run(
            "solve", "--model", model, "--path", "real_split", "--scan=-1:10:220",
            "--out", str(tmp_path),
        )
        assert code == 0
        data = json.loads((tmp_path / "spectrum.json").read_text())
        assert len(data) == count
        assert all(abs(complex(rec["re"], rec["im"])) <= 1e-9 for rec in data)


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

    def test_empty_indices_exit_1_before_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run(
            "modes", "--model", "fixed_free_string", "--scan", "1.0:2.0:40",
            "--indices", "", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --indices")
        assert not out.exists()

    def test_step_beyond_the_sample_cap_exits_1_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # a 1e-9 step would sample 10^9 nodes (a 15 GiB array); at a cap of
        # 1001 samples the default step's 1000 steps plus two ends are one too
        # many and twice that step's are allowed
        out = tmp_path / "out"
        argv = ["modes", "--model", "fixed_free_string", "--scan", "0.2:10:24", "--out", str(out)]
        with monkeypatch.context() as m:
            m.setattr(cli, "solve_spectrum", lambda *args: pytest.fail("solved"))
            assert _run(*argv, "--step", "1e-9") == 1
            assert capsys.readouterr().err == (
                f"error: step 1e-09 gives more than {cli.MODES_MAX_SAMPLES} mode-shape samples; "
                "give a coarser --step or a larger --target-error\n"
            )
            m.setattr(cli, "MODES_MAX_SAMPLES", 1001)
            assert _run(*argv) == 1
            assert "more than 1001 mode-shape samples" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "MODES_MAX_SAMPLES", 1001)
        assert _run(*argv, "--step", "2e-3") == 0
        assert len((out / "mode_001.csv").read_text().splitlines()) == 502

    @pytest.mark.parametrize("indices, repeated", [("1,1", 1), ("2,3,2,3", 2)])
    def test_repeated_index_exits_1_before_the_solve(self, indices, repeated, tmp_path, capsys,
                                                     monkeypatch):
        # 1,1 sampled mode 1 twice, printed its line twice and wrote
        # mode_001.csv twice
        monkeypatch.setattr(cli, "solve_spectrum", lambda *args: pytest.fail("solved"))
        out = tmp_path / "out"
        code = _run("modes", "--model", "fixed_free_string", "--scan", "0.2:10:240",
                    "--indices", indices, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == f"error: --indices repeats {repeated}\n"
        assert not out.exists()

    def test_index_out_of_range_exits_1(self, tmp_path, capsys):
        code = _run(
            "modes", "--model", "fixed_free_string", "--scan", "1.0:2.0:40",
            "--indices", "7", "--out", str(tmp_path),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --indices") and "out of range" in err

    @pytest.mark.parametrize("indices", ["0", "1,-2"])
    def test_index_below_1_exits_1_before_the_solve(self, indices, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(spectrum, "characteristic_determinant", lambda *args: calls.append(args))
        out = tmp_path / "out"
        code = _run(
            "modes", "--model", "fixed_free_string", "--scan", "1.0:2.0:40",
            "--indices", indices, "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --indices")
        assert calls == []
        assert not out.exists()

    def test_real_split_mode_doubles_components(self, tmp_path):
        code = _run(
            "modes", "--model", "fixed_free_string", "--scan", "1.0:2.0:40",
            "--path", "real_split", "--indices", "1", "--out", str(tmp_path),
        )
        assert code == 0
        header, rows = _read_csv(tmp_path / "mode_001.csv")
        assert header == ["y", "comp_1", "comp_2", "comp_3", "comp_4"]
        assert len(rows) == 1001


    def test_real_split_modes_reduce_no_realified_system(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reduce_real_split called")

        monkeypatch.setattr(spectrum, "reduce_real_split", refuse)
        monkeypatch.setattr(oscispec.reduction, "reduce_real_split", refuse)
        code = _run(
            "modes", "--model", "point_mass_string", "--scan", "0.2:10:240",
            "--path", "real_split", "--indices", "1,2,3", "--out", str(tmp_path),
        )
        assert code == 0
        assert [p.name for p in sorted(tmp_path.iterdir())] == [
            "mode_001.csv", "mode_002.csv", "mode_003.csv"
        ]

    def test_chunked_modes_write_the_same_bytes(self, tmp_path, monkeypatch):
        argv = ["modes", "--model", "point_mass_string", "--scan", "0.2:10:240",
                "--path", "real_split", "--indices", "3,1,2"]
        assert _run(*argv, "--out", str(tmp_path / "whole")) == 0
        # room for two sampled propagations (two intervals, 1004 nodes, 2 x 2
        # complex matrices) per array: chunks of two roots and of one
        monkeypatch.setattr(oscispec.integrate, "_STACK_ENTRIES", 2 * 4 * 1004)
        problem = oscispec.build_model("point_mass_string")
        assert spectrum._stack_chunk(problem, 1e-3) == 2
        assert _run(*argv, "--out", str(tmp_path / "chunked")) == 0
        for index in (1, 2, 3):
            name = f"mode_{index:03d}.csv"
            assert (tmp_path / "chunked" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def test_failing_index_keeps_the_earlier_files(self, tmp_path, monkeypatch, capsys):
        problem = oscispec.build_model("fixed_free_string")
        roots = oscispec.solve_spectrum(problem, oscispec.SolveOptions(scan=(0.2, 10.0, 240), step=1e-3))
        bad = roots[1].lam
        original = spectrum._null_vector

        def null_vector(closure, end_values, lam, rank_tol):
            if lam == bad:
                raise NotARootError(lam, 0.5)
            return original(closure, end_values, lam, rank_tol)

        monkeypatch.setattr(spectrum, "_null_vector", null_vector)
        code = _run("modes", "--model", "fixed_free_string", "--scan", "0.2:10:240",
                    "--indices", "1,2,3", "--out", str(tmp_path))
        out, err = capsys.readouterr()
        assert code == 2
        assert err == f"numerical failure: {NotARootError(bad, 0.5)}\n"
        assert out.splitlines() == [f"mode 1 at lambda={roots[0].lam:.6g} -> {tmp_path / 'mode_001.csv'}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mode_001.csv"]


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

    def test_feedback_sweep_keeps_every_root(self, tmp_path):
        # the winding count on Re in [-1.5, 0.2] x Im in [0.2, 10] is 4 at
        # every gain; the real-direction Newton step reported 3, then 2
        code = _run(
            "sweep", "--model", "spacecraft_bar", "--sweep", "d:0:0.4:41",
            "--scan", "0.2:10:240", "--out", str(tmp_path),
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "sweep.csv")
        assert all(r[4] == "ok" for r in rows)
        counts = {}
        for r in rows:
            counts[r[0]] = counts.get(r[0], 0) + 1
        assert len(counts) == 41 and set(counts.values()) == {4}

    def test_error_rows_are_quoted_csv(self, tmp_path):
        # T = -1 and T = 0 fail the model's check, whose message holds commas
        code = _run(
            "sweep", "--model", "fixed_free_string", "--sweep", "T:-1:1:3",
            "--scan", "0.2:10:40", "--out", str(tmp_path),
        )
        assert code == 0
        text = (tmp_path / "sweep.csv").read_text()
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 5 for row in rows)
        assert [row[4] for row in rows[1:3]] == ["error: rho, T, l must be positive"] * 2
        assert [row[4] for row in rows[3:]] == ["ok"] * 3
        lines = text.splitlines()
        assert lines[1] == '-1,,,,"error: rho, T, l must be positive"'
        assert lines[3] == "1,1,0,1.570796327,ok"

    def test_mistyped_parameter_gives_error_rows(self, tmp_path, capsys):
        # c=abc reaches build_model as a string, which it refuses by name:
        # each point is an error row with solve's message
        argv = ["--model", "spacecraft_bar", "--param", "c=abc", "--scan", "0.3:2:50"]
        assert _run("solve", *argv, "--out", str(tmp_path / "solve")) == 1
        message = capsys.readouterr().err.strip()
        assert message == "error: parameter 'c' of spacecraft_bar expects a number, got 'abc'"
        code = _run("sweep", *argv, "--sweep", "d:0:0.2:2", "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [["0", "", "", "", message], ["0.2", "", "", "", message]]

    def test_unknown_parameter_exits_1_before_output(self, tmp_path, capsys):
        code = _run(
            "sweep", "--model", "spacecraft_bar", "--sweep", "bogus:0:1:3",
            "--scan", "0.3:2.0:50", "--out", str(tmp_path),
        )
        assert code == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("model, default", [("machine_unit", "rotor"), ("pipeline", "elastic")])
    def test_text_parameter_exits_1_before_any_point(self, model, default, tmp_path, capsys,
                                                     monkeypatch):
        # left_end:0:1:2 loaded every point and wrote one "not one of ..."
        # error row per point
        monkeypatch.setattr(cli, "_load", lambda *args, **kwargs: pytest.fail("loaded"))
        code = _run("sweep", "--model", model, "--sweep", "left_end:0:1:2",
                    "--scan", "0.2:10:50", "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --sweep: parameter 'left_end' of {model} takes text "
            f"(default {default!r}), not a number\n"
        )
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("count", ["2.5", "nan", "2.0"])
    def test_fractional_count_is_named(self, count, tmp_path, capsys):
        # int() leaked "invalid literal for int() with base 10: '2.5'"
        code = _run(
            "sweep", "--model", "spacecraft_bar", "--sweep", f"d:0:1:{count}",
            "--scan", "0.3:2:20", "--out", str(tmp_path),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --sweep needs finite MIN and MAX and COUNT >= 1: {float(count)!r} is not an integer\n"
        )
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("descriptor", ["d:0:inf:2", "rho:1:inf:2", "d:nan:0.2:2"])
    def test_nonfinite_bound_exits_1_before_output(self, descriptor, tmp_path, capsys):
        # np.linspace(0, inf, 2) is [nan, inf]: such points were solved
        # unchecked and written as "empty" or integration-overflow rows
        code = _run(
            "sweep", "--model", "spacecraft_bar", "--sweep", descriptor,
            "--scan", "0.3:2:20", "--out", str(tmp_path),
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --sweep needs finite MIN and MAX and COUNT >= 1\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_invalid_point_is_an_error_row_with_solves_message(self, tmp_path, capsys):
        # d = inf puts an infinite coefficient in the right row: each point
        # fails validation, as solve does, instead of reading as empty
        argv = ["--model", "spacecraft_bar", "--param", "d=inf", "--scan", "0.3:2:20"]
        assert _run("solve", *argv, "--out", str(tmp_path / "solve")) == 1
        message = capsys.readouterr().err.rstrip("\n")
        assert message == "error: problem fails validation:\n  boundary_right: nonfinite coefficient"
        assert _run("sweep", *argv, "--sweep", "rho:1:2:2", "--out", str(tmp_path)) == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [["1", "", "", "", message], ["2", "", "", "", message]]

    def test_step_below_the_float_range_of_a_count_sweeps(self, tmp_path):
        # every interval is constant with N = 2, whose closed form forms no
        # step count: length / 1e-320 overflowed its integer conversion
        rows = {}
        for step in ("1e-320", "1e-3"):
            code = _run(
                "sweep", "--model", "spacecraft_bar", "--sweep", "d:0:0.2:2", "--scan", "0.2:10:24",
                "--step", step, "--out", str(tmp_path / step),
            )
            assert code == 0
            rows[step] = (tmp_path / step / "sweep.csv").read_text()
        assert rows["1e-320"] == rows["1e-3"] and rows["1e-3"].count(",ok") == 8

    def test_a_scalar_zero_mass_is_one_massless_load(self, tmp_path, capsys):
        # a scalar 0 read as no loads: the solve exited 1 with "masses and
        # positions must pair up", and the sweep wrote that as its row at 0
        argv = ("--model", "cable_snapshot", "--scan", "0.2:10:50")
        assert _run("solve", *argv, "--param", "masses=0", "--out", str(tmp_path / "solve")) == 0
        assert len(json.loads((tmp_path / "solve" / "spectrum.json").read_text())) == 3
        assert _run("sweep", *argv, "--sweep", "masses:0:1:2", "--out", str(tmp_path)) == 0
        _, rows = _read_csv(tmp_path / "sweep.csv")
        assert [row[4] for row in rows] == ["ok"] * 6 and rows[0][0] == "0"
        assert "error" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("short", ["solver", "oracle"])
    def test_verify_names_a_missing_mode(self, short, capsys, monkeypatch):
        if short == "solver":
            solve = cli.solve_spectrum
            monkeypatch.setattr(cli, "solve_spectrum", lambda *args: solve(*args)[:2])
        else:
            roots = cli.closed_form_roots
            monkeypatch.setattr(cli, "closed_form_roots", lambda *a, **kw: roots(*a, **kw)[:2])
        assert _run("verify", "fixed_free_string") == 3
        out = capsys.readouterr().out
        # both found modes agree; the FAILED line is about the missing one
        assert out.count(" ok\n") == 2
        assert f"{short} found 2 of 3 modes\nverification FAILED" in out

    def test_verify_leaves_out_an_unstable_real_root(self, capsys):
        # at alpha1=1.5 pipeline's first root is real, 0.538 right of the
        # axis and outside |Re| <= Im: the solver's modes are chosen by the
        # oracle's rule, so mode k is compared with mode k
        assert _run("verify", "pipeline", "--param", "alpha1=1.5") == 0
        out = capsys.readouterr().out
        assert "not compared (outside |Re| <= Im): 5.382912e-01 " in out
        assert out.count(" ok\n") == 3 and "all deviations below" in out

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
            ("--max-dev", "-1"),
            ("--max-dev", "0"),
        ],
        ids=["unknown_param", "param_without_value", "n_fd_below_floor",
             "negative_max_dev", "zero_max_dev"],
    )
    def test_verify_bad_config_exits_1(self, argv, capsys):
        assert _run("verify", "machine_unit", *argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_verify_large_grid_takes_the_sparse_route(self, capsys):
        # 4001 grid points linearize to 8002 unknowns, above the dense
        # route's cap of 6000; the sparse route stores no dense matrix
        assert _run("verify", "machine_unit", "--n-fd", "4000") == 0
        out = capsys.readouterr().out
        assert "finite differences (n_fd=4000)" in out
        assert "all deviations below" in out

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


#: a subprocess script run with scipy blocked: importing it raises
_BLOCK_SCIPY = """
import sys
sys.modules["scipy"] = None
"""

_VERIFY_AND_WHOLE_SPECTRUM = _BLOCK_SCIPY + """
import contextlib, io
from oscispec import FDOracleConfig, build_model, cli, fd_polynomial_eigenvalues, leading_frequencies

for model in ("machine_unit", "pipeline", "spacecraft_bar", "cable_snapshot"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", model]) == 0
eigs = fd_polynomial_eigenvalues(build_model("spacecraft_bar"), FDOracleConfig(100))
assert len(eigs) == 201 and len(leading_frequencies(eigs, 5)) == 5
"""


@pytest.mark.parametrize(
    "code",
    [_BLOCK_SCIPY + "import oscispec.cli", _VERIFY_AND_WHOLE_SPECTRUM],
    ids=["import", "verify_and_whole_spectrum"],
)
def test_runs_without_scipy(code):
    # the package runs on numpy alone: both FD oracle routes included
    src = str(Path(oscispec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()


#: modules no CLI command needs: numpy.ma (np.median imports it), numpy.random
#: (with OpenSSL's _hashlib) and scipy (no package code uses it)
_UNNEEDED = ("numpy.ma", "numpy.random", "scipy", "_hashlib")

#: numpy.linalg's LAPACK entry points: only verify, whose FD oracle needs
#: them, may call one; an N = 2, m = 1 solve or mode shape maps no LAPACK
_LAPACK = ("solve", "det", "slogdet", "inv", "svd", "eig", "eigvals", "lstsq")

_RUN_AND_LIST = f"""
import contextlib, io, sys
import numpy.linalg
from oscispec import cli

def _lapack(*args, **kwargs):
    raise RuntimeError("LAPACK called")

if sys.argv[1] != "verify":
    for name in {_LAPACK!r}:
        setattr(numpy.linalg, name, _lapack)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *(m for m in {_UNNEEDED!r} if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--model", "spacecraft_bar", "--scan", "0.2:10:240"],
        ["solve", "--model", "cable_snapshot", "--scan", "0.2:10:240"],
        ["sweep", "--model", "spacecraft_bar", "--sweep", "d:0:0.2:3", "--scan", "0.3:2:50"],
        ["modes", "--model", "point_mass_string", "--path", "real_split",
         "--scan", "0.2:10:240", "--indices", "1,2"],
        ["verify", "machine_unit"],
        ["verify", "point_mass_string"],
    ],
    ids=["solve", "solve_interfaces", "sweep", "modes_real_split", "verify_fd", "verify_closed_form"],
)
def test_cli_command_loads_only_what_it_runs(argv, tmp_path):
    # each command in a fresh interpreter, as from the shell
    src = str(Path(oscispec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    if argv[0] != "verify":
        argv = argv + ["--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    assert loaded == []


# ---------------------------------------------------------------------------
# column-wise CSV writers against the per-cell loops they replaced
# ---------------------------------------------------------------------------


def _cell(x):
    return f"{x:.10g}"


def _reference_mode_csv(shape):
    # the per-cell writer the column-wise one replaced, kept as the reference
    dim = shape.values.shape[1]
    complex_cols = not np.isrealobj(shape.values) and bool(
        np.max(np.abs(shape.values.imag)) > 1e-12
    )
    header = ["y"] + [f"comp_{k + 1}" for k in range(dim)]
    if complex_cols:
        header += [f"im_comp_{k + 1}" for k in range(dim)]
    rows = [",".join(header)]
    for t in range(len(shape.ys)):
        cells = [_cell(float(shape.ys[t]))]
        cells += [_cell(float(np.real(shape.values[t, k]))) for k in range(dim)]
        if complex_cols:
            cells += [_cell(float(np.imag(shape.values[t, k]))) for k in range(dim)]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _reference_spectrum_csv(results):
    rows = ["re,im,residual"]
    for r in results:
        rows.append(f"{_cell(r.lam.real)},{_cell(r.lam.imag)},{_cell(r.residual)}")
    return "\n".join(rows) + "\n"


def _assert_same_text(got, want):
    # name the first differing line: pytest's own diff of two long texts
    # takes minutes
    for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))):
        assert g == w, f"line {i}"
    assert len(got) == len(want)


def _solved_shape(model, scan, path):
    problem = oscispec.build_model(model)
    opts = oscispec.SolveOptions(scan=scan, step=1e-3, path=path)
    root = oscispec.solve_spectrum(problem, opts)[0]
    return oscispec.mode_shape(problem, root.lam, 1e-3, path)


class TestColumnWriters:
    def _assert_mode_bytes(self, shape, tmp_path):
        path = _write_mode(shape, 1, RunConfig(out_dir=tmp_path), cli._csv_cells(shape.ys))
        _assert_same_text(path.read_text(), _reference_mode_csv(shape))
        return path.read_text().splitlines()[0]

    def test_real_split_shape(self, tmp_path):
        shape = _solved_shape("fixed_free_string", (1.0, 2.0, 40), "real_split")
        assert np.isrealobj(shape.values)
        header = self._assert_mode_bytes(shape, tmp_path)
        assert header == "y,comp_1,comp_2,comp_3,comp_4"

    def test_damped_complex_shape_has_im_columns(self, tmp_path):
        shape = _solved_shape("spacecraft_bar", (0.3, 2.0, 50), "complex")
        header = self._assert_mode_bytes(shape, tmp_path)
        assert header == "y,comp_1,comp_2,im_comp_1,im_comp_2"

    def test_complex_string_shape_drops_im_columns(self, tmp_path):
        shape = _solved_shape("fixed_free_string", (1.0, 2.0, 40), "complex")
        assert np.iscomplexobj(shape.values)
        assert np.max(np.abs(shape.values.imag)) <= 1e-12
        header = self._assert_mode_bytes(shape, tmp_path)
        assert header == "y,comp_1,comp_2"

    @pytest.mark.parametrize("as_complex", [False, True], ids=["real", "complex"])
    def test_extreme_values(self, tmp_path, as_complex):
        extremes = np.array([-0.0, 5e-324, 1e300, -1e300, 0.1, -2.5e-7])
        values = np.column_stack([extremes, extremes[::-1]])
        if as_complex:
            values = values + 1j * values[:, ::-1]
        shape = oscispec.ModeShape(
            lam=1j, ys=np.linspace(0.0, 1.0, len(extremes)), values=values,
            normalization=1.0, interval_slices=(slice(0, len(extremes)),),
        )
        self._assert_mode_bytes(shape, tmp_path)
        text = (tmp_path / "mode_001.csv").read_text()
        assert ",-0," in text and "4.940656458e-324" in text and "-1e+300" in text

    @pytest.mark.parametrize("model", ["point_mass_string", "spacecraft_bar"])
    def test_spectrum_csv(self, tmp_path, model):
        problem = oscispec.build_model(model)
        results = oscispec.solve_spectrum(
            problem, oscispec.SolveOptions(scan=(0.3, 8.0, 120), step=1e-3)
        )
        assert results
        cfg = RunConfig(out_dir=tmp_path)
        _write_spectrum(results, cfg)
        _assert_same_text(
            (tmp_path / "spectrum.csv").read_text(), _reference_spectrum_csv(results)
        )
        _run("solve", "--model", model, "--scan", "0.3:8.0:120", "--out", str(tmp_path / "cli"))
        assert (tmp_path / "cli" / "spectrum.csv").read_bytes() == (
            tmp_path / "spectrum.csv"
        ).read_bytes()

    def test_empty_spectrum_csv(self, tmp_path):
        _write_spectrum([], RunConfig(out_dir=tmp_path, fmt="csv"))
        assert (tmp_path / "spectrum.csv").read_text() == _reference_spectrum_csv([]) == "re,im,residual\n"

    @pytest.mark.parametrize(
        "column",
        [[-0.0] * 4, [0.0, -0.0, 0.0, -0.0], [math.nan] * 4, [math.inf] * 4, [-math.inf] * 4],
        ids=["negative_zero", "mixed_zeros", "nan", "inf", "negative_inf"],
    )
    @pytest.mark.parametrize("as_complex", [False, True], ids=["real", "complex"])
    def test_constant_column(self, tmp_path, column, as_complex):
        # a column of one bit pattern is formatted once, as literal text;
        # 0.0 and -0.0 are two patterns
        varying = np.array([0.5, -1.0, 2.5e-7, 1.0])
        values = np.column_stack([varying, column, np.full(4, -0.0)])
        if as_complex:
            # set apart, as 1j * inf is nan + inf j
            values = values.astype(complex)
            values.imag = np.column_stack([column, varying, varying[::-1]])
        shape = oscispec.ModeShape(
            lam=1j, ys=np.linspace(0.0, 1.0, 4), values=values,
            normalization=1.0, interval_slices=(slice(0, 4),),
        )
        self._assert_mode_bytes(shape, tmp_path)

    @pytest.mark.parametrize("rows", [1, 3], ids=["one_row", "every_column_constant"])
    def test_table_of_constant_columns(self, tmp_path, rows):
        values = np.tile([[1.0, -0.0, math.nan]], (rows, 1))
        shape = oscispec.ModeShape(
            lam=1j, ys=np.full(rows, 0.25), values=values,
            normalization=1.0, interval_slices=(slice(0, rows),),
        )
        self._assert_mode_bytes(shape, tmp_path)
        result = spectrum.SpectralResult(lam=complex(-0.0, 2.5), residual=math.inf, iterations=3, converged=True)
        _write_spectrum([result] * rows, RunConfig(out_dir=tmp_path, fmt="csv"))
        assert (tmp_path / "spectrum.csv").read_text() == _reference_spectrum_csv([result] * rows)

    def test_modes_of_one_command_write_the_bytes_of_single_index_runs(self, tmp_path):
        # the three files share one y text; each alone forms its own
        argv = ["modes", "--model", "point_mass_string", "--scan", "0.2:10:240", "--path", "real_split"]
        assert _run(*argv, "--indices", "1,2,3", "--out", str(tmp_path / "all")) == 0
        for index in (1, 2, 3):
            assert _run(*argv, "--indices", str(index), "--out", str(tmp_path / str(index))) == 0
            name = f"mode_{index:03d}.csv"
            assert (tmp_path / str(index) / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    @pytest.mark.parametrize("chunked", [False, True], ids=["one_pass", "chunks"])
    def test_modes_form_the_y_text_and_the_directory_once(self, tmp_path, monkeypatch, chunked):
        if chunked:
            # chunks of two roots and of one (test_chunked_modes_write_the_same_bytes)
            monkeypatch.setattr(oscispec.integrate, "_STACK_ENTRIES", 2 * 4 * 1004)
        calls = []
        csv_cells, mkdir = cli._csv_cells, Path.mkdir
        monkeypatch.setattr(cli, "_csv_cells", lambda column: calls.append("y") or csv_cells(column))
        monkeypatch.setattr(Path, "mkdir", lambda *args, **kwargs: calls.append("dir") or mkdir(*args, **kwargs))
        code = _run("modes", "--model", "point_mass_string", "--scan", "0.2:10:240", "--path", "real_split",
                    "--indices", "3,1,2", "--out", str(tmp_path / "out"))
        assert code == 0
        assert calls == ["dir", "y"]
        assert len(list((tmp_path / "out").iterdir())) == 3

    def test_modes_cli_writes_im_columns(self, tmp_path):
        code = _run(
            "modes", "--model", "spacecraft_bar", "--scan", "0.3:2.0:50",
            "--indices", "1", "--out", str(tmp_path),
        )
        assert code == 0
        header, rows = _read_csv(tmp_path / "mode_001.csv")
        assert header == ["y", "comp_1", "comp_2", "im_comp_1", "im_comp_2"]
        assert all(len(r) == 5 for r in rows)
        assert max(abs(float(r[3])) + abs(float(r[4])) for r in rows) > 1e-12


class TestValidateLoader:
    @pytest.mark.parametrize("model", sorted(oscispec.models.SCAN_DEFAULTS))
    def test_builtin_models_are_valid(self, model, capsys):
        assert _run("validate", "--model", model) == 0
        assert capsys.readouterr().out.endswith(": valid\n")

    def test_param_with_problem_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        dump_problem(make_string_problem(), path)
        assert _run("validate", "--problem", str(path), "--param", "rho=2") == 1
        assert "--param applies to built-in models only" in capsys.readouterr().err

    def test_unknown_model_parameter_exits_1(self, capsys):
        assert _run("validate", "--model", "spacecraft_bar", "--param", "bogus=1") == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "model, param, side",
        [("spacecraft_bar", "d=inf", "right"), ("machine_unit", "J1=inf", "left"),
         ("machine_unit", "J1=nan", "left")],
    )
    def test_nonfinite_boundary_row_is_a_violation(self, model, param, side, capsys):
        # its rank probe, which evaluated inf * 0 and reduced a NaN row with
        # RuntimeWarnings, is skipped; the row was reported valid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run("validate", "--model", model, "--param", param) == 1
        assert capsys.readouterr().out == (
            f"{model}: 1 violation(s)\n  - boundary_{side}: nonfinite coefficient\n"
        )

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        # the first call's --param must not reach the second, which has none
        assert cli._build_parser() is cli._build_parser()
        assert _run("validate", "--model", "spacecraft_bar", "--param", "bogus=1") == 1
        assert _run("validate", "--model", "spacecraft_bar") == 0
        assert cli._build_parser().parse_args(["validate", "--model", "pipeline"]).param == []
