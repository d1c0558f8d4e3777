"""Command-line front end: subcommands, exit codes, determinism, round trips."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qecopt
from qecopt import crosstalk
from qecopt.cli import CLOSED_PIPE_EXIT, COMMANDS, CONFIG_SCHEMA, main
from qecopt.scheme import PI_SQ_OVER_16


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimize:
    def test_affine_turnaround_report(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--scheme", "aliferis2006", "--model", "affine",
            "--eta0", "5e-6", "--c", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["k_max"] == 17
        assert report["result"]["status"] == "optimum-found"
        assert report["config"]["scheme"] == "aliferis2006"

    def test_flat_noise_unbounded(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--model", "affine", "--eta0", "5e-6", "--c", "0"
        )
        assert code == 0
        assert json.loads(out)["result"]["status"] == "unbounded-improvement"

    def test_parse_failure_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "--model", "affine", "--eta0", "bogus"])
        assert excinfo.value.code == 2

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "optimize", "--model", "exp", "--eta0", "1e-9")
        assert code == 2
        assert "--beta" in err

    def test_invalid_value_exits_2(self, capsys):
        code, _, err = run(
            capsys, "optimize", "--model", "affine", "--eta0", "2.0"
        )
        assert code == 2

    def test_csv_curve(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--model", "affine", "--eta0", "5e-6", "--c", "1",
            "--kcap", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,log10_p"
        assert len(lines) == 5

    def test_exp_model_includes_bounds(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--model", "exp", "--eta0", "1e-12", "--beta", "1"
        )
        assert code == 0
        bounds = json.loads(out)["result"]["bounds"]
        assert bounds["useful"] is True
        assert bounds["k_tilde"] == pytest.approx(2.247, abs=1e-3)

    def test_exp_bounds_are_null_at_D_1(self, capsys):
        # D = 1 never grows, so there are no bounds, as at beta = 0.
        code, out, err = run(capsys, "optimize", "--model", "exp", "--scheme", "1,1,1,1,1",
                             "--eta0", "1e-9", "--beta", "0.5", "--kcap", "4")
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["bounds"] is None

    def test_exp_bounds_at_a_subnormal_beta_leave_csv_alone(self, capsys):
        # g1 * beta rounds to 0 where the bound's exponential overflows; the
        # CSV curve does not show the bounds and runs as it did before.
        argv = ["optimize", "--model", "exp", "--scheme", "1,1,1,2,1", "--eta0", "1e-9",
                "--beta", "5e-324", "--kcap", "4"]
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0 and err == ""
        assert out.startswith("k,log10_p\n") and out.count("\n") == 6

    def test_tabulated_model(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--model", "table", "--eta0", "1e-9",
            "--f-values", "1,300,90000,27000000",
        )
        assert code == 0
        report = json.loads(out)["result"]
        assert len(report["curve"]) == 4
        assert report["status"] == "optimum-found"
        assert report["k_max"] == 1

    def test_photon_law_takes_photons_per_logical_gate(self, tmp_path, capsys):
        code, out, err = run(capsys, "optimize", "--model", "shor", "--nL", "1e9",
                             "--kcap", "8")
        assert code == 0, err
        report = json.loads(out)
        assert {key: report["config"][key] for key in ("nL", "A")} == {
            "nL": 1e9, "A": 291.0}
        assert report["result"]["k_max"] == 1
        first = tmp_path / "shor.json"
        first.write_text(out)
        assert run(capsys, "optimize", "--config", str(first))[1] == out

    def test_old_photon_vocabulary_is_gone(self, tmp_path, capsys):
        for flags in (["--L", "1000000", "--ntot", "1e15"], ["--ntot", "1e15"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["optimize", "--model", "shor", *flags])
            assert excinfo.value.code == 2
        capsys.readouterr()  # argparse's usage text
        for key, value in (("L", 1000000), ("ntot", 1e15)):
            config = tmp_path / f"{key}.json"
            config.write_text(json.dumps({"model": "shor", "nL": 1e9, key: value}))
            code, out, err = run(capsys, "optimize", "--config", str(config))
            assert code == 2 and out == ""
            assert f"'{key}'" in err and err.count("\n") == 1

    def test_explicit_scheme_tuple(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--scheme", "575,291,10000,291,3",
            "--model", "affine", "--eta0", "5e-6", "--c", "1",
        )
        assert code == 0
        assert json.loads(out)["result"]["k_max"] == 17


class TestDeterminismAndRoundTrip:
    def test_identical_invocations_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(
                ["optimize", "--model", "affine", "--eta0", "5e-6", "--c", "2",
                 "--out", str(p)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_report_reingested_reproduces_itself(self, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(
            ["optimize", "--model", "exp", "--eta0", "1e-12", "--beta", "1",
             "--out", str(first)]
        ) == 0
        assert main(["optimize", "--config", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_gatesim_round_trip(self, tmp_path):
        first = tmp_path / "g1.json"
        second = tmp_path / "g2.json"
        assert main(
            ["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "200",
             "--out", str(first)]
        ) == 0
        assert main(["gatesim", "--config", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_json_round_trip(self, tmp_path):
        first = tmp_path / "s1.json"
        second = tmp_path / "s2.json"
        argv = ["sweep", "--model", "affine", "--eta0", "5e-6", "--kcap", "8",
                "--axis", "c:0:4:5", "--format", "json"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(["sweep", "--config", str(first), "--format", "json",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_report_fed_back_stays_json(self, tmp_path, capsys):
        # A sweep defaults to CSV, but a report fed back renders as JSON.
        first = tmp_path / "s1.json"
        assert main(["sweep", "--model", "shor", "--R", "1000", "--kcap", "8",
                     "--axis", "n_L:1e4:1e13:3:log", "--format", "json",
                     "--out", str(first)]) == 0
        code, out, err = run(capsys, "sweep", "--config", str(first))
        assert code == 0 and err == ""
        assert out == first.read_text()
        code, out, _ = run(capsys, "sweep", "--config", str(first), "--format", "csv")
        assert code == 0 and out.startswith("n_L,k_max,log10_p_min,status\n")

    def test_deeply_nested_config_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"command": "shor", "x": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}")
        code, out, err = run(capsys, "shor", "--config", str(path))
        assert code == 2 and out == ""
        assert "cannot read config" in err and err.count("\n") == 1

    def test_shor_and_fit_round_trips(self, tmp_path):
        for argv in (
            ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10"],
            ["fit", "--samples", "0:1e-5,1:2e-5", "--model", "affine"],
            ["longrange", "--lattice", "chain", "--z", "0.5", "--N0", "501",
             "--compare"],
        ):
            first = tmp_path / f"{argv[0]}1.json"
            second = tmp_path / f"{argv[0]}2.json"
            assert main(argv + ["--out", str(first)]) == 0
            assert main([argv[0], "--config", str(first), "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()

    def test_repeated_calls_share_one_parser(self, capsys):
        # main builds its parser once; nothing from one call leaks into the next.
        invocations = [
            ["sweep", "--model", "affine", "--kcap", "8",
             "--axis", "c:0:4:3", "--axis", "B_eta0:0.1:0.9:2"],
            ["gatesim", "--theta", "pi/2", "--gamma", "1", "--ng", "300"],
            ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10",
             "--format", "csv"],
            ["sweep", "--model", "affine", "--eta0", "5e-6", "--kcap", "8",
             "--axis", "c:1:2:2"],
            ["optimize", "--model", "affine", "--eta0", "5e-6", "--c", "1"],
        ]
        outputs = []
        for _ in range(2):
            for argv in invocations:
                code, out, _ = run(capsys, *argv)
                assert code == 0
                outputs.append(out)
        assert outputs[:5] == outputs[5:]
        assert outputs[0] != outputs[3]

    def test_config_schema_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": "affine", "surprise": 1}))
        code, _, err = run(capsys, "optimize", "--config", str(bad))
        assert code == 2
        assert "schema" in err

    @pytest.mark.parametrize("command,config,flags,word", [
        ("gatesim", {"R": 1000}, ["--theta", "pi", "--gamma", "1", "--ng", "50"], "'R'"),
        ("optimize", {"theta": 3.0}, ["--model", "affine", "--eta0", "5e-6"], "'theta'"),
        ("optimize", {"command": "gatesim"}, ["--model", "affine", "--eta0", "5e-6"],
         "'optimize' was expected"),
        ("gatesim", {"omega0": None, "command": "shor"},
         ["--theta", "pi", "--gamma", "1", "--ng", "50"], "'gatesim' was expected"),
    ])
    def test_config_of_another_command_exits_2(self, tmp_path, capsys, command,
                                               config, flags, word):
        # Each command validates against its own schema.
        path = tmp_path / "other.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, command, "--config", str(path), *flags)
        assert code == 2 and out == ""
        assert f"{command} schema" in err and word in err
        assert err.count("\n") == 1

    def test_config_schema_is_published_per_command(self):
        assert set(CONFIG_SCHEMA) == set(COMMANDS)
        assert "R" in CONFIG_SCHEMA["shor"]["properties"]
        assert "R" not in CONFIG_SCHEMA["gatesim"]["properties"]
        assert CONFIG_SCHEMA["fit"]["properties"]["model"] == {"enum": ["affine", "exp"]}

    @pytest.mark.parametrize("argv, flag", [
        (["optimize", "--model", "affine", "--eta0", "1e-6", "--beta", "3"], "--beta"),
        (["optimize", "--model", "shor", "--nL", "1e9", "--c", "1"], "--c"),
        (["sweep", "--model", "affine", "--eta0", "1e-6", "--axis", "c:0:1:3",
          "--R", "5"], "--R"),
        # The axis sets eta0, so the flag would be overridden.
        (["sweep", "--model", "affine", "--eta0", "1e-6",
          "--axis", "B_eta0:0.1:0.9:3"], "--eta0"),
        (["sweep", "--model", "exp", "--beta", "1", "--axis", "beta:0:1:3",
          "--axis", "eta0:1e-9:1e-8:2"], "--beta"),
    ])
    def test_a_given_value_that_is_not_read_exits_2(self, tmp_path, capsys, argv, flag):
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert code == 2 and out == ""
        assert flag in err and err.count("\n") == 1
        assert not out_file.exists()

    def test_an_unread_value_is_reported_before_the_grid_is_computed(
            self, monkeypatch, capsys):
        def no_grid(*args):
            raise AssertionError("the grid was computed")
        monkeypatch.setattr(qecopt.cli, "_sweep_minima", no_grid)
        code, out, err = run(capsys, "sweep", "--model", "affine", "--eta0", "1e-6",
                             "--axis", "c:0:1:3", "--R", "5")
        assert code == 2 and out == ""
        assert err == "qecopt: --R is given but this sweep does not read it\n"

    def test_a_config_key_that_is_not_read_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"command": "optimize", "model": "affine",
                                    "eta0": 1e-6, "beta": 3.0}))
        code, out, err = run(capsys, "optimize", "--config", str(path))
        assert code == 2 and out == ""
        assert "--beta" in err and err.count("\n") == 1

    def test_flag_wins_over_config(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        assert main(["optimize", "--model", "affine", "--eta0", "5e-6", "--c", "1",
                     "--kcap", "8", "--out", str(first)]) == 0
        code, out, _ = run(capsys, "optimize", "--config", str(first), "--c", "2")
        assert code == 0
        config = json.loads(out)["config"]
        assert config["c"] == 2.0 and config["kcap"] == 8


class TestSweep:
    def test_row_count_and_ordering(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "affine",
            "--axis", "c:0:10:3", "--axis", "B_eta0:0.1:0.9:2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "c,B_eta0,k_max,log10_p_min,status"
        assert len(lines) == 1 + 3 * 2
        # outer (first) axis slowest
        firsts = [float(line.split(",")[0]) for line in lines[1:]]
        assert firsts == [0.0, 0.0, 5.0, 5.0, 10.0, 10.0]

    def test_single_point_matches_optimize(self, capsys):
        code, sweep_out, _ = run(
            capsys, "sweep", "--model", "affine", "--eta0", "5e-6",
            "--axis", "c:1:1:1",
        )
        assert code == 0
        row = sweep_out.strip().split("\n")[1].split(",")
        code, opt_out, _ = run(
            capsys, "optimize", "--model", "affine", "--eta0", "5e-6", "--c", "1"
        )
        result = json.loads(opt_out)["result"]
        assert int(row[1]) == result["k_max"]
        assert float(row[2]) == result["log10_p_min"]
        assert row[3] == result["status"]

    def test_full_grid_row_count(self, capsys):
        # 101 slope points by 99 threshold-fraction points, outer axis slowest
        code, out, _ = run(
            capsys, "sweep", "--model", "affine", "--kcap", "8",
            "--axis", "c:0:10:101", "--axis", "B_eta0:0.01:0.99:99",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "c,B_eta0,k_max,log10_p_min,status"
        assert len(lines) == 1 + 101 * 99

    def test_photon_staircase(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "shor", "--R", "1000",
            "--axis", "n_L:1e4:1e13:19:log",
        )
        assert code == 0
        ks = [int(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert ks == sorted(ks)
        assert ks[0] == 0 and ks[-1] >= 2

    def test_photon_budget_up_to_the_float_range(self, capsys):
        # n_L is the law's own field, so no n_L * L product can overflow.
        argv = ["sweep", "--model", "shor", "--R", "1000",
                "--axis", "n_L:1:1.7976931348623157e308:3:log"]
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0 and err == ""
        csv_rows = [[float(n_L), int(k), float(p), status] for n_L, k, p, status
                    in (line.split(",") for line in out.strip().split("\n")[1:])]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        json_rows = [[row["n_L"], row["k_max"], row["log10_p_min"], row["status"]]
                     for row in json.loads(out)["result"]["rows"]]
        assert csv_rows == json_rows
        assert len(json_rows) == 3
        assert all(math.isfinite(row[2]) for row in json_rows)

    def test_too_many_axes_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", "affine", "--eta0", "5e-6",
            "--axis", "c:0:1:2", "--axis", "B_eta0:0.1:0.9:2",
            "--axis", "beta:0:1:2",
        )
        assert code == 2

    def test_unknown_axis_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", "affine", "--eta0", "5e-6",
            "--axis", "volume:0:1:2",
        )
        assert code == 2
        assert "volume" in err

    def test_n_L_axis_needs_the_shor_model(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", "affine", "--eta0", "1e-6",
            "--axis", "n_L:1e4:1e6:3",
        )
        assert code == 2
        assert "cannot sweep 'n_L' under --model affine; choose from eta0, c, B_eta0" in err
        assert err.count("\n") == 1

    def test_table_model_is_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "sweep", "--model", "table", "--eta0", "1e-5",
            "--axis", "eta0:1e-6:1e-5:2",
        )
        assert code == 2
        assert "table" in err and "Traceback" not in err
        assert err.count("\n") == 1
        config = tmp_path / "table.json"
        table_sweep = {
            "command": "sweep", "model": "table",
            "axes": [{"param": "eta0", "min": 1e-6, "max": 1e-5, "count": 2}],
        }
        config.write_text(json.dumps(table_sweep))
        code, _, err = run(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert "table" in err and "Traceback" not in err
        assert err.count("\n") == 1
        # sweep takes no f_values, so the sweep schema rejects the key.
        config.write_text(json.dumps(dict(table_sweep, f_values=[1, 2, 4])))
        code, _, err = run(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert "f_values" in err and "Traceback" not in err
        assert err.count("\n") == 1

    def test_exp_sweep_reports_no_bounds(self, capsys):
        # The bounds need D >= 2; a sweep never reports them, so D = 1 runs.
        code, out, err = run(
            capsys, "sweep", "--model", "exp", "--scheme", "1,1,1,1,1",
            "--beta", "0.5", "--axis", "eta0:1e-9:1e-8:2", "--kcap", "4",
        )
        assert code == 0, err
        rows = out.strip().split("\n")[1:]
        code, opt_out, _ = run(
            capsys, "optimize", "--model", "exp", "--scheme", "1,1,1,1,1",
            "--beta", "0.5", "--eta0", "1e-9", "--kcap", "4", "--format", "csv",
        )
        assert code == 0
        curve = [float(line.split(",")[1]) for line in opt_out.strip().split("\n")[1:]]
        assert float(rows[0].split(",")[2]) == min(curve)

    @pytest.mark.parametrize("argv, message", [
        (["--model", "exp", "--eta0", "1e-8", "--beta", "0.5", "--axis", "c:0:5:3"],
         "cannot sweep 'c' under --model exp; choose from eta0, beta, B_eta0"),
        (["--model", "shor", "--R", "1000", "--axis", "n_L:1e4:1e8:3:log",
          "--axis", "eta0:1e-9:1e-8:2"],
         "cannot sweep 'eta0' under --model shor; choose from n_L"),
        (["--model", "affine", "--axis", "eta0:1e-9:1e-8:2", "--axis", "B_eta0:0.1:0.9:3"],
         "cannot sweep 'B_eta0': axis 'eta0' already sets eta0"),
        (["--model", "affine", "--eta0", "1e-6", "--axis", "c:0:1:3", "--axis", "c:0:2:3"],
         "cannot sweep 'c': axis 'c' already sets c"),
    ])
    def test_each_axis_sets_its_own_field_of_the_law(self, capsys, argv, message):
        # An axis the results do not depend on is a usage error, not a column.
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 2 and out == ""
        assert message in err and err.count("\n") == 1

    def test_log_axis_needs_positive_min(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "--model", "affine", "--eta0", "5e-6",
            "--axis", "c:0:10:5:log",
        )
        assert code == 2

    @pytest.mark.parametrize("axis, message", [
        ({"min": 1e4, "max": math.inf, "spacing": "log"}, "must be finite"),
        ({"min": -math.inf, "max": 1e6}, "must be finite"),
        ({"min": math.nan, "max": 1e6}, "must be finite"),
        ({"min": 1e4, "max": math.nan}, "must be finite"),
        ({"min": 1e-300, "max": 1e300, "spacing": "log", "count": 3}, "overflows"),
        ({"min": -1e308, "max": 1e308, "count": 3}, "overflows"),
        # The largest power, ratio ** 4, rounds above the float range.
        ({"min": 1.0, "max": 1.7976931348623157e308, "spacing": "log", "count": 5},
         "overflows"),
    ])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_axis_values_must_be_finite(self, tmp_path, capsys, axis, message, form):
        axis = {"param": "n_L", "count": 2, **axis}
        if form == "flag":
            text = ":".join(str(axis[key]) for key in ("param", "min", "max", "count"))
            source = ["--axis", f"{text}:{axis.get('spacing', 'linear')}"]
        else:
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps({"axes": [axis]}))  # Infinity, NaN
            source = ["--config", str(path)]
        code, out, err = run(capsys, "sweep", "--model", "shor", "--R", "1000",
                             "--format", "json", *source)
        assert code == 2
        assert out == ""
        assert message in err and err.count("\n") == 1


class TestGatesim:
    def test_reports_pauli_errors(self, capsys):
        code, out, _ = run(
            capsys, "gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1000"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["p_x"] == pytest.approx(PI_SQ_OVER_16 / 1000.0, rel=0.02)
        assert result["p_x"] == result["chi_diag"][1]
        assert result["asymptotic"]["p_x"] == pytest.approx(6.169e-4, rel=1e-3)
        assert result["Omega"] * result["tau"] == pytest.approx(math.pi, rel=1e-12)

    def test_theta_expressions(self, capsys):
        for text, value in (("pi/2", math.pi / 2), ("2pi", 2 * math.pi),
                            ("1.5", 1.5)):
            code, out, _ = run(
                capsys, "gatesim", "--theta", text, "--gamma", "1", "--ng", "50",
            )
            assert code == 0
            assert json.loads(out)["config"]["theta"] == pytest.approx(value)

    def test_bad_angle_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "gatesim", "--theta", "tau", "--gamma", "1", "--ng", "50"
        )
        assert code == 2

    def test_zero_denominator_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "gatesim", "--theta", "pi/0", "--gamma", "1", "--ng", "100"
        )
        assert code == 2
        assert "divides by zero" in err

    @pytest.mark.parametrize("flags,message", [
        (["--ng", "inf"], "n_g must be finite"),
        (["--ng", "nan"], "n_g must be finite"),
        (["--ng", "10", "--gamma", "inf"], "gamma must be finite"),
        (["--ng", "10", "--omega0", "inf"], "omega0 must be finite"),
        (["--gamma", "1e-300", "--ng", "1e-10"], "tau = inf"),
        (["--gamma", "1e300", "--ng", "1e300"], "pulse is outside float range"),
        (["--gamma", "1e-300", "--ng", "1e-300"], "pulse is outside float range"),
    ])
    def test_non_finite_inputs_exit_2(self, capsys, flags, message):
        code, out, err = run(
            capsys, "gatesim", "--theta", "pi", "--gamma", "1", *flags
        )  # a later --gamma wins
        assert code == 2
        assert out == ""
        assert message in err and err.count("\n") == 1

    def test_rwa_margin_is_logged_not_printed(self, capsys, caplog):
        code, out, err = run(
            capsys, "gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1000",
            "--omega0", "1", "--out", "/nonexistent-dir/x.json",
        )
        assert code == 2 and out == ""
        assert "cannot write" in err and err.count("\n") == 1
        assert "rotating-wave" in caplog.text

    def test_step_count_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "50",
                  "--steps", "300"])
        assert excinfo.value.code == 2
        config = tmp_path / "old.json"
        config.write_text(json.dumps(
            {"command": "gatesim", "theta": 3.0, "gamma": 1.0, "ng": 50.0,
             "omega0": None, "steps": None}
        ))
        code, _, err = run(capsys, "gatesim", "--config", str(config))
        assert code == 2
        assert "schema" in err


class TestLongrange:
    def test_compare_csv_row(self, capsys):
        code, out, _ = run(
            capsys, "longrange", "--lattice", "chain", "--z", "0.5",
            "--N0", "10001", "--compare", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N0,oracle,asymptotic,rel_err"
        n0, oracle, asym, rel = lines[1].split(",")
        assert n0 == "10001"
        assert float(rel) == pytest.approx(0.0104, abs=5e-4)

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "longrange", "--lattice", "square", "--z", "1",
            "--N0", "10000", "--compare",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["rel_err"] < 0.05

    def test_csv_without_compare_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "longrange", "--lattice", "chain", "--z", "0.5",
            "--N0", "101", "--format", "csv",
        )
        assert code == 2

    @pytest.mark.parametrize("z, flags, message", [
        ("1", ["--format", "csv"], "csv output requires --compare"),
        ("1", ["--kappa", "2"], "--kappa is given but this longrange does not read it"),
        ("3", ["--compare"], "asymptotic form covers z <= d, got z=3.0, d=2"),
    ])
    def test_rejected_before_the_oracle(self, capsys, monkeypatch, z, flags, message):
        calls = []
        monkeypatch.setattr(crosstalk, "delta_lattice_oracle", calls.append)
        code, out, err = run(capsys, "longrange", "--lattice", "square", "--z", z,
                             "--N0", str(crosstalk.MAX_SQUARE_SIDE ** 2), *flags)
        assert (code, out, err) == (2, "", f"qecopt: {message}\n")
        assert calls == []

    def test_kappa_is_echoed_only_with_compare(self, capsys):
        flags = ["--lattice", "chain", "--z", "1", "--N0", "1001"]
        code, out, _ = run(capsys, "longrange", *flags)
        assert code == 0 and "kappa" not in json.loads(out)["config"]
        code, out, _ = run(capsys, "longrange", *flags, "--compare", "--kappa", "2")
        assert code == 0 and json.loads(out)["config"]["kappa"] == 2.0

    @pytest.mark.parametrize("flags, message", [
        (["--lattice", "square", "--N0", "144", "--z", "inf"], "z must be finite"),
        (["--lattice", "chain", "--N0", "101", "--z", "0.5", "--kappa", "inf"], "--kappa"),
        (["--lattice", "chain", "--N0", "101", "--z", "0.5", "--kappa", "nan"], "--kappa"),
        (["--lattice", "chain", "--N0", "101", "--z", "0.5", "--kappa", "0"], "--kappa"),
    ])
    @pytest.mark.parametrize("compare", [[], ["--compare"]])
    def test_non_finite_parameters_exit_2(self, capsys, flags, message, compare):
        code, out, err = run(capsys, "longrange", *flags, *compare)
        assert code == 2 and out == ""
        assert message in err and err.count("\n") == 1


class TestShorCommand:
    def test_table_row_json(self, capsys):
        code, out, _ = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["k"] == 0
        assert result["n_L"] == pytest.approx(1.85e6, rel=0.02)
        assert result["E_tot_J"] == pytest.approx(1.95e-12, rel=0.02)  # ~pJ
        assert result["meets_target"] is True
        assert result["rwa_marginal"] is False

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10",
            "--format", "csv",
        )
        assert code == 0
        assert out.split("\n")[0] == "R,n_L,k,E_tot_J,P_W,T_tot_s,tau_g_s"

    def test_explicit_budget(self, capsys):
        code, out, _ = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10",
            "--nL", "1e6",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["n_L"] == 1e6
        assert result["meets_target"] is False  # 1e6 sits below the true minimum

    def test_infeasible_exits_1(self, capsys):
        code, _, err = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10",
            "--perr", "1e-300", "--nlcap", "1e12",
        )
        assert code == 1
        assert err == "qecopt: target error 1.000e-300 unreachable within n_L <= 1e+12\n"

    @pytest.mark.parametrize("budget", [[], ["--nL", "1e6"]])
    @pytest.mark.parametrize("perr", ["0", "-1", "nan", "inf", "2"])
    def test_perr_must_lie_in_unit_interval(self, capsys, perr, budget):
        code, out, err = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10",
            "--perr", perr, *budget,
        )
        assert code == 2
        assert out == ""
        assert "perr must lie in (0, 1]" in err and err.count("\n") == 1

    @pytest.mark.parametrize("budget", [[], ["--nL", "1e6"]])
    def test_one_k_scan_per_query(self, capsys, monkeypatch, budget):
        # The minimum-budget path reuses the scan that confirmed the budget.
        calls = []
        find_kmax = qecopt.shor.find_kmax
        monkeypatch.setattr(qecopt.shor, "find_kmax",
                            lambda *a, **kw: calls.append(a) or find_kmax(*a, **kw))
        code, out, _ = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10", *budget
        )
        assert code == 0
        assert len(calls) == 1
        result = json.loads(out)["result"]
        opt = qecopt.shor.optimize_photon_budget(
            qecopt.ShorProblem(R=1000), result["n_L"], qecopt.get_scheme("aliferis2006")
        )
        assert (result["k"], result["log10_p_min"]) == (opt.k_max,
                                                        opt.log10_p_min.log10_value)

    @pytest.mark.parametrize("cap", ["0", "-5", "nan", "inf"])
    def test_cap_must_be_positive_and_finite(self, capsys, cap):
        code, out, err = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10",
            "--nlcap", cap,
        )
        assert code == 2
        assert out == ""
        assert "nlcap" in err and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["0", "-5", "nan", "inf"])
    def test_cap_is_checked_with_an_explicit_budget(self, capsys, cap):
        # An explicit budget searches nothing, so any cap is rejected unread.
        code, out, err = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10",
            "--nL", "1e6", "--nlcap", cap,
        )
        assert code == 2
        assert out == ""
        assert err == "qecopt: --nlcap is given but this shor does not read it\n"

    @pytest.mark.parametrize("given, unread", [
        (["--nL", "1e6", "--nlcap", "1e12"], "--nlcap"),
        (["--perr", "1e-9", "--ptarget", "0.9"], "--ptarget"),
    ])
    def test_values_given_but_unread_exit_2(self, capsys, given, unread):
        code, out, err = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10", *given
        )
        assert code == 2 and out == ""
        assert err == f"qecopt: {unread} is given but this shor does not read it\n"

    @pytest.mark.parametrize("given, absent", [
        (["--nL", "1e6"], {"nlcap"}),
        (["--perr", "1e-9"], {"ptarget"}),
        (["--nL", "1e6", "--perr", "1e-9"], {"nlcap", "ptarget"}),
        ([], set()),
    ])
    def test_config_holds_only_what_is_read(self, capsys, tmp_path, given, absent):
        code, out, _ = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10", *given
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert absent.isdisjoint(config) and {"nlcap", "ptarget"} - absent <= set(config)
        report = tmp_path / "shor.json"
        report.write_text(out, encoding="utf-8")
        assert run(capsys, "shor", "--config", str(report))[:2] == (0, out)


class TestFit:
    def test_inline_samples(self, capsys):
        code, out, _ = run(
            capsys, "fit", "--samples", "0:1e-5,1:2e-5,2:3e-5",
            "--model", "affine",
        )
        assert code == 0
        model = json.loads(out)["result"]["model"]
        assert model["model"] == "affine"
        assert model["eta0"] == pytest.approx(1e-5, rel=1e-9)
        assert model["c"] == pytest.approx(1.0, rel=1e-9)

    def test_csv_file_input(self, tmp_path, capsys):
        data = tmp_path / "samples.csv"
        data.write_text("k,eta\n0,1e-6\n1,2.91e-4\n")
        code, out, _ = run(
            capsys, "fit", "--in", str(data), "--model", "exp",
            "--D", "291",
        )
        assert code == 0
        model = json.loads(out)["result"]["model"]
        assert model["beta"] == pytest.approx(1.0, rel=1e-9)

    def test_fitted_model_is_an_optimize_config(self, tmp_path, capsys):
        for flags in (["--samples", "0:1e-5,1:2e-5,2:3e-5", "--model", "affine"],
                      ["--samples", "0:1e-9,1:2.91e-7", "--model", "exp", "--D", "291"]):
            code, out, _ = run(capsys, "fit", *flags)
            assert code == 0
            config = tmp_path / "model.json"
            config.write_text(json.dumps(json.loads(out)["result"]["model"]))
            code, out, err = run(capsys, "optimize", "--config", str(config))
            assert code == 0, err
            assert json.loads(out)["config"]["model"] == flags[3]

    def test_old_fit_vocabulary_is_gone(self, tmp_path, capsys):
        for flags in (["--variant", "affine"], ["--model", "exponential"],
                      ["--model", "table"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["fit", "--samples", "0:1e-5,1:2e-5", *flags])
            assert excinfo.value.code == 2
        config = tmp_path / "old.json"
        config.write_text(json.dumps({"samples": [[0, 1e-5], [1, 2e-5]],
                                      "variant": "affine", "D": None}))
        code, _, err = run(capsys, "fit", "--config", str(config))
        assert code == 2 and "'variant'" in err

    def test_missing_input_file_exits_2(self, capsys):
        code, out, err = run(
            capsys, "fit", "--in", "/nonexistent-dir/samples.csv", "--model", "affine"
        )
        assert code == 2 and out == ""
        assert "cannot read samples" in err and err.count("\n") == 1

    def test_unwritable_output_exits_2(self, capsys):
        code, out, err = run(
            capsys, "fit", "--samples", "0:1e-5,1:2e-5", "--model", "affine",
            "--out", "/nonexistent-dir/report.json",
        )
        assert code == 2 and out == ""
        assert "cannot write" in err and err.count("\n") == 1

    @pytest.mark.parametrize("D", ["nan", "inf", "1", "-3"])
    @pytest.mark.parametrize("model", ["exp", "affine"])
    def test_growth_factor_must_lie_above_one(self, capsys, D, model):
        # The affine fit reads no D, so any D it is given is rejected unread.
        code, out, err = run(capsys, "fit", "--samples", "0:1e-6,1:2.91e-4",
                             "--model", model, "--D", D)
        assert code == 2 and out == ""
        message = ("D must lie in (1, inf)" if model == "exp"
                   else "--D is given but this fit does not read it")
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("by_config", [False, True])
    def test_affine_fit_rejects_a_growth_factor_unread(self, capsys, tmp_path, by_config):
        given = ["--D", "291"]
        if by_config:
            path = tmp_path / "fit.json"
            path.write_text(json.dumps({"D": 291.0}), encoding="utf-8")
            given = ["--config", str(path)]
        code, out, err = run(capsys, "fit", "--samples", "0:1e-5,1:2e-5",
                             "--model", "affine", *given)
        assert code == 2 and out == ""
        assert err == "qecopt: --D is given but this fit does not read it\n"
        code, out, _ = run(capsys, "fit", "--samples", "0:1e-5,1:2e-5", "--model", "affine")
        assert code == 0 and "D" not in json.loads(out)["config"]

    def test_degenerate_samples_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "fit", "--samples", "0:1e-5,0:2e-5", "--model", "affine"
        )
        assert code == 2


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(qecopt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [env.get("PYTHONPATH", "")])
    return env


def test_import_leaves_scipy_submodules_unloaded(tmp_path):
    # The runtime is numpy-only: neither the gate channel nor the square
    # lattice's C_z loads SciPy, and --config is checked without jsonschema,
    # which is blocked from import here.
    probe = (
        "import contextlib, io, sys\n"
        "sys.modules['jsonschema'] = None\n"
        "import qecopt.cli as cli\n"
        "for argv in (['gatesim', '--theta', 'pi', '--gamma', '1', '--ng', '1000'],\n"
        "             ['longrange', '--lattice', 'square', '--z', '1.1',\n"
        "              '--N0', '250000', '--compare']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "report = sys.argv[1]\n"
        "assert cli.main(['shor', '--R', '1000', '--gamma', '10', '--omega0', '1e10',\n"
        "                 '--out', report]) == 0\n"
        "again = io.StringIO()\n"
        "with contextlib.redirect_stdout(again):\n"
        "    assert cli.main(['shor', '--config', report]) == 0\n"
        "assert again.getvalue() == open(report).read()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "shor.json")],
                          env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:1] == ["[]"]


def test_closed_pipe_exits_quietly():
    # The reader leaves after one line of a long report: no traceback, and
    # the exit code names the closed pipe.
    argv = [sys.executable, "-m", "qecopt.cli", "sweep", "--model", "affine",
            "--eta0", "5e-6", "--axis", "c:0:4:100000", "--kcap", "8"]
    with subprocess.Popen(argv, env=_cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"c,k_max,log10_p_min,status\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == CLOSED_PIPE_EXIT == 141
    assert err == b""
