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
from qecopt.cli import COMMANDS, CONFIG_SCHEMA, main
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
            ["sweep", "--model", "affine", "--eta0", "5e-6", "--kcap", "8",
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
            capsys, "sweep", "--model", "affine", "--eta0", "5e-6",
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
        assert "n_L" in err and "Traceback" not in err
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
        (["--ng", "1e-100"], "propagator is not finite"),
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
        assert "unreachable" in err

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
        # The report echoes nlcap on the --nL path too.
        code, out, err = run(
            capsys, "shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10",
            "--nL", "1e6", "--nlcap", cap,
        )
        assert code == 2
        assert out == ""
        assert "nlcap must be positive and finite" in err and err.count("\n") == 1


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

    def test_degenerate_samples_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "fit", "--samples", "0:1e-5,0:2e-5", "--model", "affine"
        )
        assert code == 2


def test_import_leaves_scipy_submodules_unloaded():
    # scipy.linalg (gate channel), scipy.integrate (square-lattice C_z) and
    # jsonschema (--config) are imported by the calls that need them, not by
    # the CLI.
    env = dict(os.environ)
    src = str(Path(qecopt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [env.get("PYTHONPATH", "")])
    probe = ("import sys, qecopt.cli; "
             "print([m for m in ('scipy.integrate', 'scipy.linalg', 'jsonschema')"
             " if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
