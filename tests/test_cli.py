"""Command-line front end: subcommands, exit codes, determinism, round trips.

This module imports neither SciPy, jsonschema nor hypothesis, so it also
runs with the runtime dependencies alone.
"""

from __future__ import annotations

import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qecopt
from qecopt import cli, crosstalk, gatesim, optimizer, scheme
from qecopt.cli import CLOSED_PIPE_EXIT, COMMANDS, CONFIG_SCHEMA, MAX_SWEEP_POINTS, main
from qecopt.scheme import PI_SQ_OVER_16


README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def is_json_text(out: str) -> bool:
    """Whether out is json's own text for its value: a fixed point of
    json.loads and json.dumps(sort_keys=True, indent=2), byte for byte."""
    return out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("f_values", ["1,inf", "1,1e308,inf"])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_an_infinite_table_entry_is_refused(self, capsys, tmp_path, fmt, f_values,
                                                by_config):
        given = ["--f-values", f_values]
        if by_config:
            path = tmp_path / "table.json"
            path.write_text(json.dumps({"f_values": [float(v) for v in f_values.split(",")]}))
            given = ["--config", str(path)]  # Infinity
        assert run(capsys, "optimize", "--model", "table", "--eta0", "1e-5", *given,
                   "--format", fmt) == (2, "", "qecopt: f_values must be finite\n")

    def test_parse_failure_exits_2(self, capsys):
        code, out, err = run(capsys, "optimize", "--model", "affine", "--eta0", "bogus")
        assert code == 2 and out == ""
        assert "--eta0" in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("eta0, beta, k_st, useful", [
        ("1e-8", "1e-4", 16233.028598480367, True),  # (B eta0)^(-g2/beta) overflows
        ("1e-6", "5e-324", None, True),  # so do k_st and k_tilde
        ("1e-6", "1e308", -1.4426950408889634, False),  # the products with beta overflow
    ])
    def test_exp_bounds_out_of_float_range_are_null(self, capsys, eta0, beta, k_st, useful):
        code, out, err = run(capsys, "optimize", "--model", "exp", "--eta0", eta0,
                             "--beta", beta)
        assert code == 0 and err == ""
        bounds = json.loads(out)["result"]["bounds"]
        assert bounds["log10_p_lower"] is None and bounds["log10_p_upper"] is None
        assert bounds["k_st"] == k_st and bounds["useful"] is useful
        assert (bounds["k_tilde"] is None) == (k_st is None)

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "--model", "affine", "--eta0", "1e-5", "--scheme", "1,2,x,4,5"],
         "--scheme: invalid literal for int() with base 10: 'x'"),
        (["optimize", "--model", "table", "--eta0", "1e-5", "--f-values", "1,x"],
         "--f-values: could not convert string to float: 'x'"),
        (["fit", "--samples", "1:2:3,2:3", "--model", "affine"],
         "--samples: could not convert string to float: '2:3'"),
        (["gatesim", "--theta", "2xpi", "--gamma", "1", "--ng", "100"],
         "--theta: could not convert string to float: '2x'"),
        # A converter's own usage error keeps its text.
        (["gatesim", "--theta", "tau", "--gamma", "1", "--ng", "100"],
         "cannot parse angle 'tau'"),
    ])
    def test_unconvertible_value_names_its_flag(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"qecopt: {message}\n"

    def test_unconvertible_config_value_names_its_flag(self, tmp_path, capsys):
        config = tmp_path / "scheme.json"
        config.write_text(json.dumps({"scheme": "1,2,x,4,5"}))
        code, out, err = run(capsys, "optimize", "--model", "affine", "--eta0", "1e-5",
                             "--config", str(config))
        assert code == 2 and out == ""
        assert err == "qecopt: --scheme: invalid literal for int() with base 10: 'x'\n"

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
            code, out, err = run(capsys, "optimize", "--model", "shor", *flags)
            assert code == 2 and out == ""
            assert flags[0] in err and err.count("\n") == 1
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

    def test_config_scheme_constants_may_be_whole_floats(self, tmp_path, capsys):
        # The config schema takes 575.0 as an integer, so the scheme reads it as 575.
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({"scheme": {"A": 575.0, "A_prime": 291, "B": 1e4,
                                               "D": 291, "M": 3.0}}))
        code, out, err = run(capsys, "optimize", "--config", str(path),
                             "--model", "affine", "--eta0", "5e-6", "--c", "1")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["config"]["scheme"] == scheme.get_scheme("aliferis2006").to_dict()
        assert all(type(v) is int for v in report["config"]["scheme"].values())
        assert report["result"]["k_max"] == 17


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

    @pytest.mark.parametrize("flags", [
        ["--eta0", "5e-6", "--axis", "c:0:4:5"],
        ["--eta0", "5e-6", "--axis", "c:0:4:5:linear"],
        ["--axis", "c:0.5:4:5:log", "--axis", "B_eta0:0.1:0.9:3:linear"],
    ])
    def test_sweep_json_round_trip(self, tmp_path, flags):
        first = tmp_path / "s1.json"
        second = tmp_path / "s2.json"
        argv = ["sweep", "--model", "affine", "--kcap", "8", *flags, "--format", "json"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(["sweep", "--config", str(first), "--format", "json",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_axis_echoes_as_its_flag_does(self, tmp_path, capsys):
        # The config reader gives min and max as floats, count as an int and
        # the default spacing, as the --axis reader does.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"command": "sweep", "model": "affine", "eta0": 1e-6,
                                    "axes": [{"param": "c", "min": 0, "max": 1,
                                              "count": 2.0}]}))
        from_config = run(capsys, "sweep", "--config", str(path), "--format", "json")
        assert from_config[0] == 0
        assert from_config == run(capsys, "sweep", "--model", "affine", "--eta0", "1e-6",
                                  "--axis", "c:0:1:2", "--format", "json")

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

    def test_an_integer_literal_json_cannot_convert_is_a_usage_error(self, tmp_path, capsys):
        # json.loads refuses an integer literal of more than 4300 digits with
        # a ValueError, as it does bad JSON or UTF-8.
        path = tmp_path / "digits.json"
        path.write_text('{"command": "shor", "R": ' + "1" * 5000 + "}")
        code, out, err = run(capsys, "shor", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"qecopt: cannot read config {path}: ") and err.count("\n") == 1

    def test_undecodable_config_names_its_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"command": "shor", "R": 1000} \xff')
        code, out, err = run(capsys, "shor", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"qecopt: cannot read config {path}: 'utf-8' codec can't "
                              "decode byte 0xff") and err.count("\n") == 1

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
        monkeypatch.setattr(qecopt.optimizer, "sweep_minima", no_grid)
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

    # Per command: flags that run it, and its CSV header (None: JSON only).
    FORMAT_CASES = {
        "optimize": (["--model", "affine", "--eta0", "5e-6", "--c", "1", "--kcap", "3"],
                     "k,log10_p"),
        "sweep": (["--model", "affine", "--kcap", "8", "--axis", "c:0:1:2",
                   "--axis", "B_eta0:0.1:0.9:2"], "c,B_eta0,k_max,log10_p_min,status"),
        "gatesim": (["--theta", "pi/2", "--gamma", "1", "--ng", "1000"], None),
        "longrange": (["--lattice", "chain", "--z", "0.5", "--N0", "501", "--compare"],
                      "N0,oracle,asymptotic,rel_err"),
        "shor": (["--R", "1000", "--gamma", "10", "--omega0", "1e10"],
                 "R,n_L,k,E_tot_J,P_W,T_tot_s,tau_g_s"),
        "fit": (["--samples", "0:1e-5,1:2e-5", "--model", "affine"], None),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_format_and_csv_header(self, tmp_path, capsys, command):
        # A plain config writes the command's default format (CSV for a
        # sweep, JSON otherwise); a report fed back writes JSON; a CSV
        # report's first line is its table's columns, in order.
        flags, header = self.FORMAT_CASES[command]
        report = tmp_path / "report.json"
        assert main([command, *flags, "--format", "json", "--out", str(report)]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads(report.read_text())["config"]))
        code, out, err = run(capsys, command, "--config", str(config))
        assert code == 0 and err == ""
        if command == "sweep":
            assert out.split("\n", 1)[0] == header
        else:
            assert out == report.read_text()
        assert run(capsys, command, "--config", str(report)) == (0, report.read_text(), "")
        code, out, err = run(capsys, command, *flags, "--format", "csv")
        if header is None:
            assert (code, out, err) == (2, "", "qecopt: --format must be one of json, got 'csv'\n")
        else:
            assert code == 0 and err == "" and out.split("\n", 1)[0] == header

    @pytest.mark.parametrize("argv", [
        ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10"],
        ["shor", "--R", "100000", "--gamma", "10", "--omega0", "1e10"],
        ["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1000"],
        ["gatesim", "--theta", "2pi", "--gamma", "3", "--ng", "5e4", "--omega0", "1e12"],
        ["gatesim", "--theta", "2.3", "--gamma", "0.5", "--ng", "300"],
        ["optimize", "--model", "exp", "--eta0", "1e-8", "--beta", "1e-4"],
        ["optimize", "--model", "shor", "--nL", "1e9", "--kcap", "8"],
        ["longrange", "--lattice", "square", "--z", "1.1", "--N0", "250000", "--compare"],
        ["sweep", "--model", "shor", "--R", "1000", "--axis", "n_L:1e4:1e13:40:log",
         "--format", "json"],
    ], ids=" ".join)
    def test_a_json_report_is_jsons_own_text(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and is_json_text(out)


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
        assert run(capsys, "sweep", "--model", "table", "--eta0", "1e-5",
                   "--axis", "eta0:1e-6:1e-5:2") == (
            2, "", "qecopt: --model must be one of affine, exp, shor, got 'table'\n")
        config = tmp_path / "table.json"
        table_sweep = {
            "command": "sweep", "model": "table",
            "axes": [{"param": "eta0", "min": 1e-6, "max": 1e-5, "count": 2}],
        }
        config.write_text(json.dumps(table_sweep))
        assert run(capsys, "sweep", "--config", str(config)) == (
            2, "", "qecopt: config does not match the sweep schema: "
                   "'table' is not one of ['affine', 'exp', 'shor']\n")
        # sweep takes no f_values either, so the sweep schema rejects the key
        # (the walk refuses a config's first bad key, here f_values).
        config.write_text(json.dumps({"f_values": [1, 2, 4], **table_sweep}))
        assert run(capsys, "sweep", "--config", str(config)) == (
            2, "", "qecopt: config does not match the sweep schema: "
                   "additional property 'f_values' is not allowed\n")

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

    @pytest.mark.parametrize("axis, line", [
        ("c:0:1:2:foo", "--axis c:0:1:2:foo: 'foo' is not one of ['linear', 'log']"),
        ("c:0:1:2:LOG", "--axis c:0:1:2:LOG: 'LOG' is not one of ['linear', 'log']"),
        ("c:0:1:2:", "--axis c:0:1:2:: '' is not one of ['linear', 'log']"),
        ("c:0:1:0", "--axis c:0:1:0: 0 is less than the minimum of 1"),
        ("c:0:1:0:foo", "--axis c:0:1:0:foo: 0 is less than the minimum of 1"),  # count first
        # The schema sets no largest count: the grid bound refuses it.
        (f"c:0:1:{MAX_SWEEP_POINTS + 1}",
         f"a sweep takes at most {MAX_SWEEP_POINTS} grid points"),
    ])
    def test_flag_axis_meets_the_config_schema(self, capsys, axis, line):
        # A spacing other than linear or log, or a count below 1, is rejected
        # as the same axis in a config would be, in the schema's words.
        assert run(capsys, "sweep", "--model", "affine", "--eta0", "1e-6",
                   "--axis", axis, "--format", "json") == (2, "", f"qecopt: {line}\n")

    @pytest.mark.parametrize("axis, message", [
        ("c:0:x:3", "max needs a number, got 'x'"),
        ("c:y:1:3", "min needs a number, got 'y'"),
        ("c:0:1:1e3", "count needs an integer, got '1e3'"),
    ])
    def test_unreadable_axis_field_names_the_flag(self, capsys, axis, message):
        code, out, err = run(capsys, "sweep", "--model", "affine", "--eta0", "1e-6",
                             "--axis", axis)
        assert code == 2 and out == ""
        assert err == f"qecopt: --axis {axis}: {message}\n"

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
        assert (result["rwa_margin"], result["rwa_marginal"]) == (None, False)  # no --omega0

    # omega0/gamma overflows or underflows for a legal pulse; each command
    # refuses that margin with one line, and null stays "no --omega0".
    @pytest.mark.parametrize("argv, margin", [
        (["gatesim", "--theta", "pi", "--gamma", "1e-200", "--ng", "1e-10",
          "--omega0", "1e200"], "inf"),
        (["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1e300",
          "--omega0", "1e-300"], "0"),
        (["shor", "--R", "1000", "--gamma", "1e-300", "--omega0", "1e300"], "inf"),
    ])
    def test_a_margin_outside_float_range_is_refused(self, capsys, argv, margin):
        assert run(capsys, *argv) == (
            2, "", f"qecopt: rotating-wave margin is outside float range: {margin}\n")

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
        code, out, err = run(capsys, "gatesim", "--theta", "pi", "--gamma", "1", "--ng", "50",
                             "--steps", "300")
        assert code == 2 and out == ""
        assert "--steps" in err and err.count("\n") == 1
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
        (["--lattice", "chain", "--N0", "101", "--z", "0.5", "--kappa", "inf"], "inf"),
        (["--lattice", "chain", "--N0", "101", "--z", "0.5", "--kappa", "nan"], "nan"),
        (["--lattice", "chain", "--N0", "101", "--z", "0.5", "--kappa", "0"], "0.0"),
    ])
    @pytest.mark.parametrize("compare", [[], ["--compare"]])
    def test_non_finite_parameters_exit_2(self, capsys, flags, message, compare):
        # A kappa is refused as unread without --compare, and by the closed
        # form, which alone checks it, with it.
        if "--kappa" in flags:
            message = (f"qecopt: kappa must be positive and finite, got {message}\n" if compare
                       else "qecopt: --kappa is given but this longrange does not read it\n")
        code, out, err = run(capsys, "longrange", *flags, *compare)
        assert code == 2 and out == ""
        assert message in err and err.count("\n") == 1

    # The closed forms at the chain's and the square's caps (the even side
    # 10^4, the odd side 9999 below it, z = 2 the log form), then the square's
    # 64^2 box at sides 2 and 127-130; z = 0 counts the other sites exactly,
    # N0 - 1, on side 128 through the even far edge's halved weights.
    @pytest.mark.parametrize("lattice, z, N0, oracle", [
        ("chain", "0.5", "1000000", None),
        ("chain", "0", "1000000", "999999.0"),
        ("square", "1.5", "100000000", None),
        ("square", "2", "100000000", None),
        ("square", "2", "99980001", None),
        ("square", "0", "100000000", "99999999.0"),
        *(("square", "1.5", N0, None) for N0 in ("4", "16129", "16384", "16641", "16900")),
        ("square", "0", "16384", "16383.0"),
    ])
    def test_caps_and_box_seams(self, capsys, lattice, z, N0, oracle):
        compare = [] if oracle else ["--compare"]
        code, out, err = run(capsys, "longrange", "--lattice", lattice, "--z", z,
                             "--N0", N0, *compare)
        assert (code, err) == (0, "")
        assert oracle is None or f'"oracle": {oracle}' in out


class TestShorCommand:
    # The largest key whose L = R^2 logical gates fit the float range.
    R_MAX = math.isqrt(int(sys.float_info.max))
    UNDERFLOW = "target error per logical gate underflows to 0 at this R and P_target"

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--model", "shor", "--R", "1"], "R must be >= 2, got 1"),
        (["sweep", "--model", "shor", "--R", str(R_MAX + 1)],
         "L = R^2 logical gates exceeds the float range"),
        (["shor", "--R", str(R_MAX)], UNDERFLOW),  # 3 L overflows
        (["shor", "--R", str(R_MAX), "--ptarget", "0.9999999999999999"], UNDERFLOW),
    ])
    def test_a_key_out_of_range_is_one_line(self, capsys, argv, message):
        rest = (["--axis", "n_L:1e4:1e13:4:log"] if argv[0] == "sweep"
                else ["--gamma", "10", "--omega0", "1e10"])
        assert run(capsys, *argv, *rest) == (2, "", f"qecopt: {message}\n")

    # With D = 1 the scan runs to k = 64: M^64 is a float at M = 60000 (the
    # bill's product overflows at the least budget) and an int past the
    # float range at 100000, searched for or given.
    @pytest.mark.parametrize("M, budget", [(60000, []), (100000, []),
                                           (100000, ["--nL", "1e9"])])
    def test_an_energy_bill_past_the_float_range_is_one_line(self, capsys, M, budget):
        n_L = "1e+09" if budget else "1"
        assert run(capsys, "shor", "--scheme", f"1,1,1,1,{M}", "--R", "100", "--gamma", "1",
                   "--omega0", "1e10", *budget) == (
            2, "", f"qecopt: energy bill is outside float range at n_L={n_L}, k=64, "
                   "gamma=1, omega0=1e+10\n")

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
            code, out, err = run(capsys, "fit", "--samples", "0:1e-5,1:2e-5", *flags)
            assert code == 2 and out == ""
            assert flags[0] in err and err.count("\n") == 1
        config = tmp_path / "old.json"
        config.write_text(json.dumps({"samples": [[0, 1e-5], [1, 2e-5]],
                                      "variant": "affine", "D": None}))
        code, _, err = run(capsys, "fit", "--config", str(config))
        assert code == 2 and "'variant'" in err

    @pytest.mark.parametrize("text, number, row", [
        ("k,eta\n0,1e-6\n1,2e-4,3\n", 3, "1,2e-4,3"),
        ("0,1e-6\n1\n", 2, "1"),
        ("\n\nk,eta\n0,x\n", 4, "0,x"),
        ("0,1e-6\n\n1,2e-4\n", 2, ""),
    ])
    def test_samples_file_rows_are_two_numbers(self, tmp_path, capsys, text, number, row):
        data = tmp_path / "samples.csv"
        data.write_text(text)
        code, out, err = run(capsys, "fit", "--in", str(data), "--model", "affine")
        assert code == 2 and out == ""
        assert err == (f"qecopt: --in {data} line {number}: a row is two numbers k,eta, "
                       f"got {row!r}\n")

    def test_missing_input_file_exits_2(self, capsys):
        code, out, err = run(
            capsys, "fit", "--in", "/nonexistent-dir/samples.csv", "--model", "affine"
        )
        assert code == 2 and out == ""
        assert "cannot read samples" in err and err.count("\n") == 1

    def test_undecodable_input_file_names_it(self, tmp_path, capsys):
        data = tmp_path / "samples.csv"
        data.write_bytes(b"k,eta\n0,1e-6\n1,2e-4 \xff\n")
        code, out, err = run(capsys, "fit", "--in", str(data), "--model", "affine")
        assert code == 2 and out == ""
        assert err.startswith(f"qecopt: cannot read samples {data}: 'utf-8' codec can't "
                              "decode byte 0xff") and err.count("\n") == 1

    def test_samples_and_in_flags_together_exit_2(self, tmp_path, capsys, monkeypatch):
        # Rejected before any file is read: --in names a file that is not there.
        monkeypatch.setattr(cli, "_read_samples", None)
        code, out, err = run(capsys, "fit", "--samples", "0:1e-5,1:2e-5",
                             "--in", str(tmp_path / "absent.csv"), "--model", "affine")
        assert (code, out) == (2, "")
        assert err == "qecopt: --in and --samples both give the samples; give one\n"

    def test_in_flag_wins_over_config_samples(self, tmp_path, capsys):
        data = tmp_path / "samples.csv"
        data.write_text("0,1e-5\n1,3e-5\n")
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"samples": [[0, 1e-5], [1, 2e-5]]}))
        code, out, err = run(capsys, "fit", "--config", str(config), "--in", str(data),
                             "--model", "affine")
        assert code == 0, err
        assert json.loads(out)["config"]["samples"] == [[0.0, 1e-5], [1.0, 3e-5]]

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

    @pytest.mark.parametrize("flags", [
        ["--samples", "0:1e-5,1e16:2e-5", "--model", "exp", "--D", "291"],
        ["--samples", "0:1e-5,1e300:2e-5", "--model", "affine"],
    ])
    def test_abscissae_spread_far_apart_fit(self, capsys, flags):
        # Refused at the parent: "eta0 must lie in (0, 1), got 1.0" and
        # "affine fit gives non-positive eta0".
        code, out, err = run(capsys, "fit", *flags)
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["model"]["eta0"] == pytest.approx(1e-5, rel=1e-9)
        assert result["residual"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("samples, message", [
        ("nan:1e-5,1:2e-5", "abscissae k must be finite"),
        ("inf:1e-5,1:2e-5", "abscissae k must be finite"),
        ("0:nan,1:2e-5", "all eta samples must lie in (0, 1)"),
        ("-100:1e-5,0:1e-5,1:0.5", "abscissae k must be >= 0, got -100.0"),
    ])
    def test_non_finite_samples_are_refused_before_the_solver(self, samples, message):
        # A child process, so that lines LAPACK prints (to fd 1 or 2, by BLAS
        # build) would show; redirect_stdout and redirect_stderr cannot see them.
        done = subprocess.run([sys.executable, "-m", "qecopt.cli", "fit", "--samples",
                               samples, "--model", "affine"],
                              env=_cli_env(), capture_output=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == f"qecopt: {message}\n".encode()


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(qecopt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [env.get("PYTHONPATH", "")])
    return env


def test_import_leaves_scipy_submodules_unloaded(tmp_path):
    # The runtime is numpy-only: neither the gate channel nor the square
    # lattice's C_z loads SciPy, and --config is checked without jsonschema,
    # which is blocked from import here.  Nor does argv parsing, a parse
    # error or --help load argparse.
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
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['shor', '--gam', '10']) == 2\n"
        "    assert cli.main(['shor', '--help']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('argparse' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "shor.json")],
                          env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "False"]


def _loaded(*args: str) -> list[str]:
    """The qecopt modules a fresh `python args` imports, read from the
    lines "import 'NAME' # ..." that -v writes to stderr for every import."""
    done = subprocess.run([sys.executable, "-v", *args], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return sorted(re.findall(r"^import '(qecopt(?:\.\w+)?)'", done.stderr, re.MULTILINE))


# Each command's library modules beside the package and scheme: those its
# handler calls, and what they import (crosstalk and shor read optimizer,
# shor reads gatesim); a photon-law sweep checks R with scheme alone.  Run
# as `python -m qecopt.cli`, cli is __main__.
LOADS = [
    (["optimize", "--model", "affine", "--eta0", "5e-6", "--c", "1"], ["optimizer"]),
    (["optimize", "--model", "exp", "--eta0", "1e-8", "--beta", "1e-4"], ["optimizer"]),
    (["sweep", "--model", "affine", "--axis", "c:0:1:3", "--eta0", "1e-6"], ["optimizer"]),
    (["sweep", "--model", "shor", "--R", "1000", "--axis", "n_L:1e4:1e13:4:log"],
     ["optimizer"]),
    (["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1000"], ["gatesim"]),
    (["longrange", "--lattice", "chain", "--z", "0.5", "--N0", "1001", "--compare"],
     ["crosstalk", "optimizer"]),
    (["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10"],
     ["gatesim", "optimizer", "shor"]),
    (["fit", "--samples", "0:1e-5,1:2e-5", "--model", "affine"], []),
    (["--help"], []),
]


@pytest.mark.parametrize("argv, modules", LOADS, ids=[" ".join(argv[:3]) for argv, _ in LOADS])
def test_a_command_loads_only_its_modules(argv, modules):
    expected = ["qecopt", *(f"qecopt.{name}" for name in modules), "qecopt.scheme"]
    assert _loaded("-m", "qecopt.cli", *argv) == sorted(expected)


def test_the_package_loads_scheme_alone_and_the_rest_on_first_use():
    assert _loaded("-c", "import qecopt") == ["qecopt", "qecopt.scheme"]
    probe = (
        "import qecopt\n"
        "names = dir(qecopt)\n"
        "assert all(name in names for name in qecopt.__all__)\n"
        "assert all(getattr(qecopt, name) is not None for name in qecopt.__all__)\n"
        "from qecopt import cli\n"
        "for owner in (qecopt, cli):\n"
        "    try:\n"
        "        owner.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "module 'qecopt' has no attribute 'no_such_name'",
        "module 'qecopt.cli' has no attribute 'no_such_name'"]


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


@pytest.mark.parametrize("code, argv", [
    (2, ["optimize", "--model", "affine", "--eta0", "2.0"]),
    (1, ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10", "--nlcap", "10"]),
    (2, ["shor", "--gam", "10", "--omega0", "1e10", "--R", "1000"]),  # flags match exactly
    (0, ["--help"]),
    (0, ["shor", "--help"]),
])
def test_the_entry_point_exits_with_mains_code(code, argv):
    # Through entry_point, as the console script runs: a refusal is one line
    # on stderr and nothing on stdout; help is stdout alone.
    done = subprocess.run([sys.executable, "-m", "qecopt.cli", *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    if code:
        assert done.stdout == "" and done.stderr.count("\n") == 1, done.stderr
    else:
        assert done.stderr == "" and done.stdout.startswith("usage: qecopt ")


def test_a_json_sweep_at_the_grid_cap_runs_in_bounded_memory():
    # 1000 x 1000 points (MAX_SWEEP_POINTS): the report is streamed, so the
    # peak stays far below what 10^6 row dicts and their text need.  Its
    # ~190 MB go to the null device, which --out opens as it would a file.
    probe = (
        "import resource, sys\n"
        "from qecopt import cli\n"
        "code = cli.main(['sweep', '--model', 'affine', '--axis', 'c:0:10:1000',\n"
        "                 '--axis', 'B_eta0:0.01:0.99:1000', '--format', 'json',\n"
        "                 '--out', sys.argv[1]])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, os.devnull],
                          env=_cli_env(), capture_output=True, text=True, timeout=120)
    code, rss_mb = done.stdout.split()
    assert code == "0" and float(rss_mb) <= 160, done.stdout


@pytest.fixture
def log_probs_built(monkeypatch):
    """The log10 value of every LogProb built while the test runs."""
    built = []
    check = scheme.LogProb.__post_init__

    def counted(self):
        built.append(self.log10_value)
        check(self)

    monkeypatch.setattr(scheme.LogProb, "__post_init__", counted)
    return built


@pytest.mark.parametrize("argv", [
    ["optimize", "--model", "exp", "--eta0", "1e-12", "--beta", "1"],
    ["optimize", "--model", "affine", "--eta0", "5e-6", "--c", "1", "--format", "csv"],
    ["sweep", "--model", "exp", "--eta0", "1e-9", "--axis", "beta:0.1:1:3", "--format", "json"],
    ["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1000"],
    ["longrange", "--lattice", "square", "--z", "1.1", "--N0", "250000", "--compare"],
    ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10"],
    ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10", "--nL", "1e12"],
    ["fit", "--samples", "0:1e-5,1:2e-5,2:3e-5", "--model", "affine"],
])
def test_no_command_builds_a_log_prob(capsys, log_probs_built, argv):
    # Reports carry plain log10 floats: LogProb is built only by the
    # OptResult views, which no command reads.
    code, out, err = run(capsys, *argv)
    assert (code, err, log_probs_built) == (0, "", [])


def test_opt_result_views_give_the_floats(log_probs_built):
    # Levels above ~30 overflow to +inf: the curve view gives None there.
    result = optimizer.find_kmax(scheme.get_scheme("aliferis2006"),
                                 scheme.ExponentialNoise(0.5, beta=10000.0), k_cap=1000)
    assert log_probs_built == []
    floats = result.log10_curve
    p_min = result.to_dict()["log10_p_min"]
    assert result.log10_p_min.log10_value == floats[result.k_max] == p_min
    pairs = [(k, None if v is None else v.log10_value) for k, v in result.curve]
    assert pairs == [(k, None if v == math.inf else v) for k, v in enumerate(floats)]
    assert None in dict(pairs).values()
    assert len(log_probs_built) == 1 + sum(v != math.inf for v in floats)


def test_readme_quick_start_runs_as_written(capsys):
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    k_max, log10_p_min, status = lines[0].split()
    assert (k_max, status) == ("17", "optimum-found")
    assert float(log10_p_min) == pytest.approx(-6001.5, abs=0.1)
    k_tilde, lower, upper = map(float, lines[1].split())  # plain floats, no LogProb reprs
    assert lower <= upper
    assert lines[3] == "[17, 8, 3]"  # the sweep's k_max: c = 1 agrees with find_kmax
    assert len(lines) == 4


def test_readme_command_lines_run_as_written(tmp_path, capsys, monkeypatch):
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("qecopt ")]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)  # where --out grid.csv goes
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert (code, err) == (0, ""), line
        assert not out.startswith("{") or is_json_text(out), line
    assert (tmp_path / "grid.csv").read_text().count("\n") == 1 + 101 * 99


class TestInputErrors:
    """One exception means a refused input: InputError exits 2, RuntimeError
    (an unreachable target) exits 1, and anything else is a bug that leaves
    main as a traceback."""

    def test_input_error_is_a_value_error(self):
        assert issubclass(qecopt.InputError, ValueError)
        assert issubclass(cli.UsageError, qecopt.InputError)
        assert scheme.InputError is qecopt.InputError

    @pytest.mark.parametrize("error", [
        ValueError("operands could not be broadcast together with shapes (3,) (4,)"),
        TypeError("unsupported operand type(s) for +: 'float' and 'str'"),
    ])
    def test_a_library_bug_leaves_main(self, capsys, monkeypatch, error):
        def broken(*args):
            raise error

        monkeypatch.setattr(optimizer, "log10_curve", broken)
        with pytest.raises(type(error)) as raised:
            main(["optimize", "--model", "affine", "--eta0", "5e-6", "--c", "1"])
        assert raised.value is error
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, wrapped", [
        (["gatesim", "--theta", "pi/2", "--gamma", "1", "--ng", "1000"],
         (gatesim, "evolve_noisy_gate")),
        (["fit", "--samples", "0:1e-5,1:2e-5", "--model", "affine"],
         (cli.scheme, "fit_noise_model")),
    ])
    def test_json_only_report_refuses_csv_before_computing(self, capsys, monkeypatch,
                                                             argv, wrapped):
        # The parser refuses it, since the command's --format takes json alone.
        module, name = wrapped
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        assert run(capsys, *argv)[0] == 0 and len(calls) == 1
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, out, err) == (2, "", "qecopt: --format must be one of json, got 'csv'\n")
        assert len(calls) == 1

    def test_value_and_type_errors_are_raised_only_where_allowed(self):
        # Every refusal of a caller's value is an InputError.  TypeError keeps
        # its Python meaning, a value of the wrong type, at three sites.
        raised: dict[str, list[str]] = {"ValueError": [], "TypeError": []}
        package = Path(qecopt.__file__).parent
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            parents = {child: node for node in ast.walk(tree)
                       for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                name = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(name, ast.Name) and name.id in raised:
                    scope = parents[node]  # the function that raises, or the module
                    while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                        scope = parents[scope]
                    raised[name.id].append(f"{path.stem}.{getattr(scope, 'name', '')}")
        assert raised["ValueError"] == []
        assert sorted(raised["TypeError"]) == ["optimizer.generic_kmax_bound",
                                               "scheme._check_count", "scheme.model_to_dict"]

    # A rule each, refused by flag and by the same config: kcap below 1 or
    # above 1000 (the optimizer's level range), a count past the grid bound,
    # and three axes (one axis per field of the law).
    AXIS = {"param": "c", "min": 0.0, "max": 1.0, "count": 2}
    SOURCES = {
        "kcap": (["optimize", "--model", "affine", "--eta0", "1e-6", "--kcap", "0"],
                 {"command": "optimize", "model": "affine", "eta0": 1e-6, "kcap": 0},
                 "k_cap must be in [1, 1000], got 0"),
        "kcap_high": (["optimize", "--model", "affine", "--eta0", "1e-6", "--kcap", "1001"],
                      {"command": "optimize", "model": "affine", "eta0": 1e-6, "kcap": 1001},
                      "k_cap must be in [1, 1000], got 1001"),
        "count": (["sweep", "--model", "affine", "--eta0", "1e-6",
                   "--axis", f"c:0:1:{MAX_SWEEP_POINTS + 1}"],
                  {"command": "sweep", "model": "affine", "eta0": 1e-6,
                   "axes": [dict(AXIS, count=MAX_SWEEP_POINTS + 1)]},
                  f"a sweep takes at most {MAX_SWEEP_POINTS} grid points"),
        "axes": (["sweep", "--model", "affine", "--axis", "c:0:1:2",
                  "--axis", "eta0:1e-6:1e-5:2", "--axis", "B_eta0:0.1:0.5:2"],
                 {"command": "sweep", "model": "affine",
                  "axes": [AXIS, dict(AXIS, param="eta0", min=1e-6, max=1e-5),
                           dict(AXIS, param="B_eta0", min=0.1, max=0.5)]},
                 "cannot sweep 'B_eta0': axis 'eta0' already sets eta0; "
                 "choose from eta0, c, B_eta0, one per field"),
    }

    @pytest.mark.parametrize("rule", list(SOURCES))
    def test_one_line_per_rule_whatever_the_source(self, tmp_path, capsys, rule):
        argv, config, line = self.SOURCES[rule]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        expected = (2, "", f"qecopt: {line}\n")
        assert run(capsys, *argv) == expected
        assert run(capsys, argv[0], "--config", str(path)) == expected

    # A run of each command; a choice that needs flags of its own has its own run.
    RUNS = {
        "optimize": ["--model", "affine", "--eta0", "5e-6"],
        "sweep": ["--model", "affine", "--eta0", "5e-6", "--axis", "c:0:4:3"],
        "gatesim": ["--theta", "pi", "--gamma", "1", "--ng", "1000"],
        "longrange": ["--lattice", "chain", "--z", "0.5", "--N0", "101", "--compare"],
        "shor": ["--R", "1000", "--gamma", "10", "--omega0", "1e10"],
        "fit": ["--samples", "0:1e-5,1:2e-5,2:3e-5", "--model", "affine"],
    }
    CHOICE_RUNS = {
        ("optimize", "--model", "exp"): ["--model", "exp", "--eta0", "1e-12", "--beta", "1"],
        ("optimize", "--model", "table"): ["--model", "table", "--eta0", "1e-9",
                                           "--f-values", "1,300,90000"],
        ("optimize", "--model", "shor"): ["--model", "shor", "--nL", "1e9"],
        ("sweep", "--model", "exp"): ["--model", "exp", "--eta0", "1e-12",
                                      "--axis", "beta:0.1:1:2"],
        ("sweep", "--model", "shor"): ["--model", "shor", "--R", "1000",
                                       "--axis", "n_L:1e4:1e13:3:log"],
        ("longrange", "--lattice", "square"): ["--lattice", "square", "--z", "1",
                                               "--N0", "144", "--compare"],
        ("fit", "--model", "exp"): ["--samples", "0:1e-6,1:2.91e-4", "--model", "exp",
                                    "--D", "291"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_offers_only_what_a_command_takes(self, capsys, command):
        _, text, _ = run(capsys, command, "--help")
        offered = re.findall(r"^  (--[\w-]+) \{([\w,]+)\}", text, re.M)
        assert offered
        for flag, choices in offered:
            for choice in choices.split(","):
                argv = self.CHOICE_RUNS.get((command, flag, choice), self.RUNS[command])
                if flag in argv:
                    at = argv.index(flag) + 1
                    argv = [*argv[:at], choice, *argv[at + 1:]]
                else:
                    argv = [*argv, flag, choice]
                code, _, err = run(capsys, command, *argv)
                assert (code, err) == (0, ""), argv
