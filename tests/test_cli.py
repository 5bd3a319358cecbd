import csv
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import lst
from lst.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK, FLAGS,
                     MAX_CURVE_POINTS, MAX_DAYS, build_parser, main, parse_days, parse_rate)

DATA = resources.files("lst") / "data"
FUND = str(DATA / "example_fund.csv")
CORR = str(DATA / "example_fund_corr.csv")
BUCKETS = str(DATA / "example_buckets.json")
GATES = str(DATA / "example_gates.csv")
PINNED = Path(__file__).parent / "data"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParsers:
    def test_rates(self):
        assert parse_rate("20bp") == pytest.approx(0.002)
        assert parse_rate("20bps") == pytest.approx(0.002)
        assert parse_rate("1.5%") == pytest.approx(0.015)
        assert parse_rate("0.1") == pytest.approx(0.1)

    def test_days(self):
        assert parse_days("1..5") == [1, 2, 3, 4, 5]
        assert parse_days("3") == [3]
        assert parse_days("1,4,9") == [1, 4, 9]

    @pytest.mark.parametrize("text", ["5..1", ",", ""])
    def test_a_day_list_names_a_day(self, text):
        with pytest.raises(lst.DomainError, match="names no day"):
            parse_days(text)

    def test_a_day_list_stops_at_the_cap(self):
        assert parse_days(f"1..{MAX_DAYS}") == list(range(1, MAX_DAYS + 1))
        assert parse_days(f"{MAX_DAYS}") == [MAX_DAYS]
        for text in (f"1..{MAX_DAYS + 1}", f"0..{MAX_DAYS}", f"1,{MAX_DAYS + 1}"):
            with pytest.raises(lst.DomainError, match=f"at most {MAX_DAYS} days, none after day"):
                parse_days(text)


class TestRcrCommand:
    def test_prorata_matches_published_table(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["rcr", "--portfolio", FUND, "--shock", "0.20",
                     "--policy", "prorata", "--horizon", "6", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["h", "lr_pct", "amount", "rcr_pct", "ls_pct"]
        assert rows[1][1] == "52.53" and rows[1][4] == "9.49"
        assert rows[5][3] == "100.00"

    def test_waterfall_with_schedule_export(self, tmp_path):
        out = tmp_path / "report.csv"
        sched = tmp_path / "sched.csv"
        code = main(["rcr", "--portfolio", FUND, "--policy", "waterfall",
                     "--horizon", "6", "--out", str(out), "--schedule-out", str(sched)])
        assert code == EXIT_OK
        rows = read_rows(sched)
        assert rows[0][:3] == ["h", "A1", "A2"]
        assert rows[0][-1] == "cumulative_value"
        assert len(rows) == 23  # 22 trading days plus the header
        assert rows[1][1:8] == ["20000", "20000", "10000", "20000", "20000", "2000", "1000"]

    @pytest.mark.parametrize("limits, stuck", [
        ({"A7": "0"}, "['A7']"),
        ({"A2": "0", "A7": "0"}, "['A2', 'A7']"),
        ({"A5": "5e-324"}, "['A5']"),  # a limit whose slice rounds to 0
    ], ids=["zero", "two-zeros", "subnormal"])
    def test_an_empty_optimal_slice_is_a_verdict(self, tmp_path, capsys, limits, stuck):
        # phi = 0 once raised "redemption portfolio has no value to liquidate"
        # and exited 2 as a validation error
        rows = read_rows(FUND)
        col = rows[0].index("daily_limit")
        for row in rows[1:]:
            row[col] = limits.get(row[0], row[col])
        fund = tmp_path / "fund.csv"
        with open(fund, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = main(["rcr", "--portfolio", str(fund), "--policy", "optimal", "--tau", "3"])
        assert code == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "infeasible-policy", "binding": "daily-limit",
            "detail": f"the optimal pro-rata slice is empty: held securities {stuck} "
                      "sell nothing within 3 days at their daily limits"}

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            main(["rcr", "--portfolio", FUND, "--shock", "0.20", "--policy", "optimal",
                  "--tau", "5", "--horizon", "5", "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_portfolio_is_a_config_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,shares,price,daily_limit,daily_volume,volatility,spread\n")
        code = main(["rcr", "--portfolio", str(empty)])
        assert code == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"

    def test_missing_file_is_a_config_error(self, capsys):
        code = main(["rcr", "--portfolio", "/nonexistent/fund.csv"])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "missing-file"

    def test_a_directory_is_a_file_error(self, tmp_path, capsys):
        code = main(["rcr", "--portfolio", str(tmp_path)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["error"] == "file" and str(tmp_path) in report["detail"]

    @pytest.mark.parametrize("flag", ["--tau", "--horizon"])
    def test_day_counts_stop_at_the_cap(self, flag, capsys):
        argv = ["rcr", "--portfolio", FUND, "--policy", "optimal"]
        assert main([*argv, flag, str(MAX_DAYS)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == MAX_DAYS + 1
        assert main([*argv, flag, str(MAX_DAYS + 1)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "validation", "detail": (
            f"{flag} must be a whole number from 1 to {MAX_DAYS}, got '{MAX_DAYS + 1}'")}

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"portfolio": FUND, "shock": 0.20, "horizon": 1}))
        code = main(["rcr", "--config", str(cfg), "--policy", "prorata"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("1,52.53")

    def test_config_values_beat_flag_defaults(self, tmp_path, capsys):
        # shock 0.5 and the waterfall policy, neither a default, print as if
        # given as flags
        for flags, cfg in ((["--shock", "0.5"], {"shock": 0.5}),
                           (["--policy", "waterfall"], {"policy": "waterfall"})):
            assert main(["rcr", "--portfolio", FUND, "--horizon", "2", *flags]) == EXIT_OK
            want = capsys.readouterr().out
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"portfolio": FUND, "horizon": 2, **cfg}))
            assert main(["rcr", "--config", str(path)]) == EXIT_OK
            assert capsys.readouterr().out == want
        assert want.splitlines()[1].startswith("1,11.80,")

    def test_explicit_flags_beat_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"portfolio": FUND, "shock": 0.5, "horizon": 1}))
        assert main(["rcr", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("1,23.38,")
        assert main(["rcr", "--config", str(cfg), "--shock", "0.20"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("1,52.53,")

    def test_config_values_meet_the_flag_choices(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"portfolio": FUND, "mode": "bogus"}))
        assert main(["rst", "--config", str(cfg)]) == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "config" and "'bogus'" in report["detail"]

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"portfolio": FUND, "shoc": "0.5"}))
        code = main(["rcr", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "config"
        assert "'shoc'" in report["detail"]


class TestRawOutput:
    def test_rcr_raw_prints_repr_floats(self, capsys):
        argv = ["rcr", "--portfolio", FUND, "--shock", "0.20", "--horizon", "2"]
        assert main(argv) == EXIT_OK
        rounded = capsys.readouterr().out.splitlines()
        assert main([*argv, "--raw"]) == EXIT_OK
        raw = capsys.readouterr().out.splitlines()
        assert rounded[1].startswith("1,52.53,")
        for a, b in zip(rounded[1:], raw[1:]):
            a, b = a.split(","), b.split(",")
            assert a[0] == b[0] and a[2] == b[2]  # the day and the amount stay as they were
            for cell, full in zip(a[1:2] + a[3:], b[1:2] + b[3:]):
                assert repr(float(full)) == full and f"{100 * float(full):.2f}" == cell

    @pytest.mark.parametrize("argv", [
        ["hqla", "--buckets", BUCKETS, "--weights", "0.6,0.3,0.1"], ["buffer"], ["swing"],
        ["goldens"]])
    def test_subcommands_without_rounding_take_no_raw(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--raw"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --raw" in capsys.readouterr().err


class TestHqlaCommand:
    def test_bucket_table(self, tmp_path, capsys):
        code = main(["hqla", "--buckets", BUCKETS, "--weights", "0.6,0.3,0.1",
                     "--shock", "0.40", "--tau", "10"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bucket,weight,value"
        assert any(line.startswith("rcr,") for line in lines)

    @pytest.mark.parametrize("doc, detail", [
        ({"a": 1}, " must hold a JSON list of objects"),
        ([{"name": "x", "lambda": [1]}], ", entry 1: lambda [1] is not a number"),
        ([{"lambda": 0.1}], ", entry 1: name is required"),
        ([{"name": "x"}, {"name": "y", "mdd": 2}], ", entry 2: max_drawdown must lie in [0, 1], got 2.0"),
        # JSON true once read as 1.0, and a null or numeric name as the text None or 5
        ([{"name": "a", "lambda": True}], ", entry 1: lambda True is not a number"),
        ([{"name": "a", "mdd": "0.5"}], ", entry 1: mdd '0.5' is not a number"),
        ([{"name": "a"}, {"name": None}], ", entry 2: name None is not a string"),
        ([{"name": 5, "ccf_static": 1}], ", entry 1: name 5 is not a string"),
        # once an internal OverflowError
        ([{"name": "a", "lambda": 10**400}], ", entry 1: lambda is an integer too large for a float"),
    ])
    def test_malformed_bucket_file_is_a_validation_error(self, doc, detail, tmp_path, capsys):
        path = tmp_path / "buckets.json"
        path.write_text(json.dumps(doc))
        assert main(["hqla", "--buckets", str(path), "--weights", "1"]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation", "detail": f"bucket file {path}{detail}"}

    def test_weight_mismatch_rejected(self, capsys):
        code = main(["hqla", "--buckets", BUCKETS, "--weights", "1.0"])
        assert code == EXIT_CONFIG

    def test_static_buckets_print_their_ccf_and_check_the_horizon(self, tmp_path, capsys):
        path = tmp_path / "buckets.json"
        path.write_text(json.dumps([{"name": "x", "ccf_static": 0.85}, {"name": "c", "ccf_static": 1}]))
        argv = ["hqla", "--buckets", str(path), "--weights", "0.5,0.5"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1:3] == ["x,0.5,0.85", "c,0.5,1"]
        assert main([*argv, "--tau", "-1"]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["detail"].startswith("tau_h must be")

    @pytest.mark.parametrize("flag", [["--tna-star", "1e9"], ["--h-star", "0.01"]])
    def test_specific_risk_thresholds_come_as_a_pair(self, flag, capsys):
        code = main(["hqla", "--buckets", BUCKETS, "--weights", "0.6,0.3,0.1", "--tna", "5e9",
                     "--herfindahl", "0.02", *flag])
        assert code == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation" and "--tna-star and --h-star" in report["detail"]

    @pytest.mark.parametrize("argv, field", [
        (["--weights", "nan,0.3,0.1"], "weight 1"),
        (["--weights", "0.6,inf,0.1"], "weight 2"),
        (["--weights", "0.6,0.3,0.1", "--shock", "nan"], "rate"),
        (["--weights", "0.6,0.3,0.1", "--tau", "nan"], "tau_h"),
        (["--weights", "0.6,0.3,0.1", "--tna", "nan", "--tna-star", "1e9", "--h-star", "0.01"],
         "fund_tna"),
    ])
    def test_non_finite_input_is_a_validation_error(self, argv, field, capsys):
        assert main(["hqla", "--buckets", BUCKETS, *argv]) == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert report["detail"].startswith(field + " ")

    @pytest.mark.parametrize("flag, field", [("--xi-size", "size_coefficient"),
                                             ("--xi-conc", "concentration_coefficient")])
    def test_negative_penalty_is_named(self, flag, field, capsys):
        # a negative penalty once lifted the CCF to 1.29 and was reported as "CCF 1"
        assert main(["hqla", "--buckets", BUCKETS, "--weights", "0.6,0.3,0.1", "--tna-star", "1e9",
                     "--h-star", "0.01", flag, "-0.5", "--tna", "5e9",
                     "--herfindahl", "0.02"]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation", "detail": f"{field} must be finite and non-negative, got -0.5"}


class TestRstCommand:
    def test_liability_table(self, tmp_path):
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("0.20\n0.30\n0\n0.15\n0\n0\n0\n")
        out = tmp_path / "rst.csv"
        code = main(["rst", "--portfolio", FUND, "--mode", "liability",
                     "--alpha", str(alpha), "--floor", "0.25", "--tau", "1..5",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[1][:2] == ["1", "25.00"]
        assert rows[1][3] == "17.72"

    def test_missing_alpha_is_exit_2(self, tmp_path, capsys):
        argv = ["rst", "--portfolio", FUND, "--mode", "liability"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "validation", "detail": "a --alpha file is required"}

    def test_config_supplies_the_alpha_file(self, tmp_path, capsys):
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("0.20\n0.30\n0\n0.15\n0\n0\n0\n")
        argv = ["rst", "--portfolio", FUND, "--mode", "liability"]
        assert main([*argv, "--alpha", str(alpha)]) == EXIT_OK
        want = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": str(alpha)}))
        assert main([*argv, "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out == want

    def test_alpha_header_is_skipped(self, tmp_path, capsys):
        values = "A1,0.20\nA2,0.30\nA3,0\nA4,0.15\nA5,0\nA6,0\nA7,0\n"
        outputs = []
        for name, text in (("plain.csv", values), ("header.csv", "id,alpha\n\n" + values)):
            (tmp_path / name).write_text(text)
            assert main(["rst", "--portfolio", FUND, "--alpha", str(tmp_path / name)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_non_numeric_alpha_names_the_line(self, tmp_path, capsys):
        # such a row was once skipped, shifting each later value onto the
        # security before its own
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("A1,0.2\nA2,0.3\nA3,abc\nA4,0.15\nA5,0\nA6,0\nA7,0\nA8,0.1\n")
        code = main(["rst", "--portfolio", FUND, "--mode", "liability", "--alpha", str(alpha)])
        report = json.loads(capsys.readouterr().err)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert report["detail"] == f"alpha file {alpha}, line 3: value 'abc' is not a number"

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("with_ids", [False, True])
    def test_alpha_out_of_range_names_the_line(self, tmp_path, capsys, value, with_ids):
        values = ["0.2", "0.3", value, "0.15", "0", "0", "0"]
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("".join((f"A{k + 1}," if with_ids else "") + v + "\n" for k, v in enumerate(values)))
        code = main(["rst", "--portfolio", FUND, "--mode", "liability", "--alpha", str(alpha)])
        report = json.loads(capsys.readouterr().err)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert report["detail"] == f"alpha file {alpha}, line 3: alpha proportions must lie in [0, 1], got {value}"

    def test_alpha_rows_with_ids_are_matched_by_id(self, tmp_path, capsys):
        values = {"A1": "0.20", "A2": "0.30", "A3": "0", "A4": "0.15", "A5": "0", "A6": "0", "A7": "0"}
        order = ["A4", "A7", "A1", "A6", "A2", "A5", "A3"]
        files = {"positional.csv": "".join(v + "\n" for v in values.values()),
                 "by_id.csv": "id,alpha\n" + "".join(f"{k},{values[k]}\n" for k in order)}
        outputs = []
        for name, text in files.items():
            (tmp_path / name).write_text(text)
            assert main(["rst", "--portfolio", FUND, "--alpha", str(tmp_path / name)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("rows, detail", [
        (["Z9,0.1"], "ids not in the portfolio ['Z9']"),
        ([], "no value for securities ['A7']"),
        (["A3,0.1"], "security 'A3' is listed twice"),
    ])
    def test_alpha_ids_must_name_each_security_once(self, tmp_path, capsys, rows, detail):
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("".join(f"A{i},0.1\n" for i in range(1, 7)) + "".join(r + "\n" for r in rows))
        code = main(["rst", "--portfolio", FUND, "--mode", "liability", "--alpha", str(alpha)])
        report = json.loads(capsys.readouterr().err)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert report["detail"] == f"alpha file {alpha}: {detail}"

    def test_asset_mode_reports_no_solution_with_exit_one(self, tmp_path, capsys):
        code = main(["rst", "--portfolio", FUND, "--mode", "asset",
                     "--rate-star", "0.30", "--floor", "1.0", "--tau", "1..3"])
        assert code == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        assert "no-solution:ALREADY_BELOW_FLOOR" in out

    def test_a_day_below_one_is_named_by_the_analytics(self, capsys):
        assert main(["rst", "--portfolio", FUND, "--mode", "asset", "--tau", "0..2"]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["detail"] == (
            "tau_h must be an integer of at least 1, got 0")

    @pytest.mark.parametrize("mode", ["liability", "asset"])
    def test_an_empty_day_list_is_a_validation_error(self, mode, capsys):
        code = main(["rst", "--portfolio", FUND, "--mode", mode, "--tau", "5..1"])
        assert code == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation" and "names no day" in report["detail"]
        assert capsys.readouterr().out == ""

    def test_asset_mode_solution(self, capsys):
        code = main(["rst", "--portfolio", FUND, "--mode", "asset",
                     "--rate-star", "0.10", "--floor", "0.5", "--tau", "2"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("rate", ["0.05", "0.10", "0.20"])
    def test_asset_mode_stdout_pinned(self, rate, capsys):
        # recorded from the bisection as published; an exact piecewise-linear
        # root prints differently in some cells (e.g. 0.078259 vs 0.0782592)
        with open(PINNED / "rst_asset_stdout.json") as fh:
            want = json.load(fh)[rate]
        code = main(["rst", "--portfolio", FUND, "--mode", "asset", "--rate-star", rate,
                     "--floor", "0.5,0.9", "--tau", "1..5"])
        assert code == want["exit"]
        assert capsys.readouterr().out == want["stdout"]


class TestOptimizeCommand:
    def test_constrained_policy(self, tmp_path):
        out = tmp_path / "policy.csv"
        code = main(["optimize", "--portfolio", FUND, "--corr", CORR,
                     "--shock", "0.10", "--tr-max", "20bp", "--ls-max", "0.10",
                     "--h", "1", "--out", str(out)])
        assert code == EXIT_OK
        rows = {r[0]: r[1] for r in read_rows(out)[0:]}
        assert float(rows["tc_bp"]) <= 22.6
        assert float(rows["tracking_risk_bp"]) <= 20.0 + 1e-6
        assert float(rows["shortfall_pct"]) <= 10.0 + 1e-6

    def test_infeasible_exit_code(self, capsys):
        code = main(["optimize", "--portfolio", FUND, "--corr", CORR,
                     "--shock", "0.20", "--ls-max", "0.0", "--tr-max", "1.0"])
        assert code == EXIT_INFEASIBLE
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "infeasible-policy"
        assert report["binding"] == "shortfall"
        assert report["detail"].endswith("the least shortfall is 0.409914")

    def test_short_capacity_within_the_shortfall_cap_is_solved(self, tmp_path, capsys):
        # one day at the limits raises 59% of a 20% shock: the least shortfall is 41%
        out = tmp_path / "policy.csv"
        code = main(["optimize", "--portfolio", FUND, "--corr", CORR, "--shock", "0.20",
                     "--tr-max", "1.0", "--ls-max", "0.99", "--h", "1", "--out", str(out)])
        assert code == EXIT_OK and capsys.readouterr().err == ""
        rows = {r[0]: r[1] for r in read_rows(out)}
        assert 40.99 <= float(rows["shortfall_pct"]) <= 99.0

    @pytest.mark.parametrize("h", ["0", "-1"])
    def test_horizon_below_one_day_is_a_validation_error(self, h, capsys):
        code = main(["optimize", "--portfolio", FUND, "--corr", CORR, "--h", h])
        assert code == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert report["detail"] == f"--h must be a whole number from 1 to {MAX_DAYS}, got {h!r}"

    @pytest.mark.parametrize("h", ["1.5", "1e3", str(MAX_DAYS + 1)])
    def test_horizon_that_is_no_whole_day_count_names_the_flag(self, h, capsys):
        code = main(["optimize", "--portfolio", FUND, "--corr", CORR, "--h", h])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "validation",
            "detail": f"--h must be a whole number from 1 to {MAX_DAYS}, got {h!r}"}

    @pytest.mark.parametrize("flag, value, name", [
        ("--tr-max", "nan", "tr_max"), ("--tr-max", "-1bp", "tr_max"),
        ("--ls-max", "nan", "ls_max"), ("--ls-max", "-0.01", "ls_max")])
    def test_nan_or_negative_cap_is_a_validation_error(self, flag, value, name, capsys):
        argv = ["optimize", "--portfolio", FUND, "--corr", CORR, "--shock", "0.10",
                "--tr-max", "20bp", "--ls-max", "0.10", "--h", "1", f"{flag}={value}"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["error"] == "validation"
        assert report["detail"].startswith(f"{name} must be non-negative, got ")

    def test_non_finite_impact_is_a_validation_error(self, capsys):
        code = main(["optimize", "--portfolio", FUND, "--impact", "nan"])
        assert code == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert report["detail"].startswith("beta_impact ")


#: The four ``lst optimize`` runs of the benchmark's CLI catalogue, as
#: shock-tr_max-ls_max-h, on the packaged fund and its correlation file.
OPTIMIZE_RUNS = ["0.10-20bp-0.10-1", "0.05-10bp-0.30-2", "0.15-30bp-0.40-3", "0.20-20bp-0.01-1"]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class TestOptimizeStdoutPinned:
    """Stdout and exit code of the four benchmark ``lst optimize`` runs, as
    recorded in ``tests/data/optimize_stdout.json``."""

    @pytest.mark.parametrize("run", OPTIMIZE_RUNS)
    def test_stdout_pinned(self, run):
        # a fresh interpreter on one BLAS thread: the optimizer's sixth digit
        # depends on the BLAS thread count
        with open(PINNED / "optimize_stdout.json") as fh:
            want = json.load(fh)[run]
        shock, tr_max, ls_max, h = run.split("-")
        env = dict(fresh_env(), **{var: "1" for var in BLAS_THREAD_VARS})
        proc = subprocess.run(
            [sys.executable, "-m", "lst.cli", "optimize", "--portfolio", FUND, "--corr", CORR,
             "--shock", shock, "--tr-max", tr_max, "--ls-max", ls_max, "--h", h],
            capture_output=True, env=env)
        assert proc.returncode == want["exit"]
        assert proc.stdout.decode() == want["stdout"]

    def test_pins_are_the_benchmark_reference(self):
        # the benchmark checks the same runs by the sha256 of their stdout
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "expected_cli.json"
        with open(reference) as fh:
            outputs = json.load(fh)["outputs"]
        with open(PINNED / "optimize_stdout.json") as fh:
            pins = json.load(fh)
        assert sorted(pins) == sorted(OPTIMIZE_RUNS)
        for run, want in pins.items():
            entry = outputs[f"optimize-{run}"]
            assert want["exit"] == entry["code"]
            assert hashlib.sha256(want["stdout"].encode()).hexdigest() == entry["stdout"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_catalogue(inputs, monkeypatch) -> list:
    """The benchmark's cli-daily catalogue, its input files written to ``inputs``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/, write nothing
    spec = importlib.util.spec_from_file_location("perfbench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.cli_catalogue(inputs, Path(FUND).parent)


class TestBenchmarkCatalogue:
    """Every cli-daily entry of the benchmark's catalogue but the four
    ``optimize`` runs (``TestOptimizeStdoutPinned`` runs those), in-process,
    against ``perfbench/expected_cli.json``: exit code, stdout and the files
    written to ``--out-dir``."""

    def test_outputs_are_the_benchmark_reference(self, tmp_path, capsysbinary, monkeypatch):
        expected = json.loads((BENCH / "expected_cli.json").read_text())
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        catalogue = bench_catalogue(inputs, monkeypatch)
        assert {f.name: sha256(f.read_bytes()) for f in sorted(inputs.iterdir())} == \
            expected["inputs"]
        ran = []
        for i, entry in enumerate(catalogue):
            if entry["kind"] == "optimize":
                continue
            out_dir = tmp_path / f"out_{i}" if entry["out_dir"] else None
            code = main(entry["argv"] + (["--out-dir", str(out_dir)] if out_dir else []))
            files = {f.name: sha256(f.read_bytes()) for f in sorted(out_dir.iterdir())} \
                if out_dir and out_dir.is_dir() else {}
            got = dict(code=code, stdout=sha256(capsysbinary.readouterr().out), files=files)
            assert got == expected["outputs"][entry["key"]], entry["key"]
            ran.append(entry["key"])
        assert len(ran) == len(expected["outputs"]) - len(OPTIMIZE_RUNS) == 40


#: The benchmark's optimize and buffer entries, by catalogue key.
SOLVER_RUNS = [f"optimize-{run}" for run in OPTIMIZE_RUNS] + [
    f"buffer-{eta}-{mu}" for eta in ("0.5", "1", "2", "3") for mu in ("0", "0.0001")] + [
    "bufferlimit-0.9"]


class TestSolverTolerances:
    """The printed digits of each benchmark ``optimize`` and ``buffer`` run
    are those of the solver's converged answer: SLSQP at ``ftol`` 1e-12
    instead of 1e-8, and the buffer refine down to a grid spacing
    ``_W_TOL`` of 1e-12 instead of 1e-9, print the same stdout and write
    the same files in-process."""

    @pytest.mark.parametrize("key", [
        pytest.param(key, marks=pytest.mark.xfail(
            strict=True, reason="SLSQP at ftol 1e-12 reaches a cheaper policy, tc_bp 17.5 "
                                "where the default ftol 1e-8 stops at 18.0"))
        if key == "optimize-0.05-10bp-0.30-2" else key for key in SOLVER_RUNS])
    def test_tighter_tolerances_print_the_same(self, key, tmp_path, capsysbinary, monkeypatch):
        from lst import _slsqp, buffer

        inputs = tmp_path / "inputs"
        inputs.mkdir()
        entry = next(e for e in bench_catalogue(inputs, monkeypatch) if e["key"] == key)

        def run(name):
            out_dir = tmp_path / name
            code = main(entry["argv"] + (["--out-dir", str(out_dir)] if entry["out_dir"] else []))
            files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())} \
                if out_dir.is_dir() else {}
            return code, capsysbinary.readouterr().out, files

        default = run("default")
        minimize = _slsqp.minimize
        monkeypatch.setattr(_slsqp, "minimize", lambda *a, **k: minimize(*a, **{**k, "ftol": 1e-12}))
        monkeypatch.setattr(buffer, "_W_TOL", 1e-12)
        assert run("tight") == default


class TestBufferCommand:
    def test_prints_optimum_and_writes_curves(self, tmp_path, capsys):
        out_dir = tmp_path / "curves"
        code = main(["buffer", "--mu-asset", "0.0", "--mu-cash", "0",
                     "--sigma-asset", "0.20", "--spread", "20bp", "--cash-cost", "1bp",
                     "--impact", "0.4", "--xplus", "1.0", "--eta", "1", "--lambda", "0",
                     "--curve-points", "11", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        w_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert w_line.startswith("w_star,")
        assert float(w_line.split(",")[1]) == pytest.approx(0.9667, abs=0.001)
        assert (out_dir / "nbc_curve.csv").exists()
        assert (out_dir / "break_even_curve.csv").exists()

    @pytest.mark.parametrize("xplus", ["1.0", "0.3"])
    def test_break_even_curve_is_one_call(self, xplus, tmp_path, monkeypatch, capsys):
        import lst.buffer

        calls = []
        original = lst.buffer.break_even_premium

        def spy(market, params, w, *args, **kwargs):
            calls.append(getattr(w, "shape", "float"))
            return original(market, params, w, *args, **kwargs)

        monkeypatch.setattr(lst.buffer, "break_even_premium", spy)
        out_dir = tmp_path / "curves"
        assert main(["buffer", "--xplus", xplus, "--curve-points", "7", "--out-dir", str(out_dir)]) == EXIT_OK
        assert calls == [(7,)]
        assert len(read_rows(out_dir / "break_even_curve.csv")) == 8

    @pytest.mark.parametrize("count",["0", "-5", "1.5", "x", "", str(MAX_CURVE_POINTS + 1)])
    def test_curve_points_out_of_range_is_exit_2_before_any_output(self, count, tmp_path, capsys):
        out_dir = tmp_path / "curves"
        assert main(["buffer", "--curve-points", count, "--out-dir", str(out_dir)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not out_dir.exists()
        report = json.loads(captured.err)
        assert report == {"error": "validation", "detail": (
            f"--curve-points must be a whole number from 1 to {MAX_CURVE_POINTS}, got {count!r}")}

    def test_out_dir_that_is_a_file_is_exit_2_before_any_output(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        assert main(["buffer", "--out-dir", str(target)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "file"

    def test_one_curve_point_and_a_config_count(self, tmp_path, capsys):
        out_dir = tmp_path / "curves"
        assert main(["buffer", "--curve-points", "1", "--out-dir", str(out_dir)]) == EXIT_OK
        assert read_rows(out_dir / "nbc_curve.csv") == [["w", "nbc"], ["0", "0"]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"curve_points": 3}))
        assert main(["buffer", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
        assert [row[0] for row in read_rows(out_dir / "nbc_curve.csv")] == ["w", "0", "0.5", "1"]

    def test_eta_with_a_non_finite_cost_is_a_validation_error(self, capsys):
        assert main(["buffer", "--eta", "1e308"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "validation",
                                            "detail": "eta must lie in (0, 12], got 1e+308"}

    def test_a_failed_solve_makes_no_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "dd"
        assert main(["buffer", "--eta", "1e308", "--out-dir", str(out_dir)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not out_dir.exists()
        assert json.loads(captured.err) == {"error": "validation",
                                            "detail": "eta must lie in (0, 12], got 1e+308"}

    def test_non_finite_parameter_names_the_field(self, capsys):
        assert main(["buffer", "--spread", "nan"]) == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert report["detail"].startswith("spread ")


class TestSwingCommand:
    def test_full_swing_worked_example(self, capsys):
        code = main(["swing", "--nav", "100", "--units", "10", "--flow", "-5",
                     "--tc", "30", "--return", "0.05", "--mode", "full"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "nav_swing,99" in out

    def test_mode_none_prints_the_gross_nav_only(self, capsys):
        assert main(["swing", "--mode", "none", "--flow", "-2", "--tc", "30"]) == EXIT_OK
        assert capsys.readouterr().out == "field,value\nnav_gross,100\nactivated,false\n"

    def test_dynamic_mode_on_a_day_with_no_cost_does_not_swing(self, capsys):
        # the inferred factor is 0: this once exited 2 on a factor the user never passed
        assert main(["swing", "--mode", "dynamic", "--flow", "-2", "--tc", "0"]) == EXIT_OK
        assert capsys.readouterr().out == "field,value\nnav_gross,100\nactivated,false\n"

    def test_dual_with_adl(self, capsys):
        code = main(["swing", "--nav", "100", "--units", "10", "--sub", "10",
                     "--red", "5", "--tc", "30", "--return", "0.05", "--mode", "dual",
                     "--adl", "gross"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "nav_ask,107" in out
        assert "nav_bid,103" in out
        assert "adl_entry,3" in out


    @pytest.mark.parametrize("argv, field", [
        (["--flow", "-2", "--tc", "nan"], "tc"),
        (["--flow", "1", "--tc", "inf"], "tc"),
        (["--flow", "1", "--nav", "nan"], "nav"),
        (["--flow", "1", "--return", "nan"], "asset_return"),
        (["--flow", "1", "--threshold", "inf", "--mode", "partial"], "threshold"),
    ])
    def test_non_finite_input_is_a_validation_error(self, argv, field, capsys):
        assert main(["swing", *argv]) == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert report["detail"].startswith(field + " ")

    @pytest.mark.parametrize("mode", [["--mode", "dynamic", "--product", "2e-4"], []])
    @pytest.mark.parametrize("value", ["-1", "-3"])
    def test_return_of_minus_one_or_below_is_a_validation_error(self, mode, value, capsys):
        # -1 once exited 3 on a gross NAV of 0, and without --mode printed a negative NAV
        assert main(["swing", "--flow", "-2", "--tc", "5", "--return", value, *mode]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "validation",
            "detail": f"asset_return must be finite and above -1, got {float(value)!r}"}

    @pytest.mark.parametrize("mode", ["full", "dual"])
    def test_a_negative_redeeming_nav_is_a_validation_error(self, mode, capsys):
        # once printed nav_swing,-150 (nav_bid,-150 in dual mode) and exited 0
        assert main(["swing", "--flow", "-2", "--tc", "500", "--mode", mode]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "validation",
            "detail": "the redeemers' part 500 of the transaction cost 500 exceeds the gross "
                      "value 200 of the 2 redeemed units (NAV -150)"}


class TestGateCommand:
    def test_published_schedule(self, capsys):
        code = main(["gate", "--requests", GATES, "--cap", "0.02"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "0,A,2.00,40.00"
        assert lines[-1] == "3,B,1.00,50.00"

    @pytest.mark.parametrize("body, detail", [
        ("1,B\n", "line 3: 2 fields where the header has 3"),
        ("1,B,0.02,extra\n", "line 3: 4 fields where the header has 3"),
        ("\n1.5,B,0.02\n", "line 4: day '1.5' is not an integer"),
        ("1,B,abc\n", "line 3: rate 'abc' is not a number"),
    ])
    def test_bad_row_is_a_validation_error(self, tmp_path, capsys, body, detail):
        path = tmp_path / "requests.csv"
        path.write_text("day,investor,rate\n0,A,0.05\n" + body)
        assert main(["gate", "--requests", str(path)]) == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert report["detail"] == f"requests file {path}, {detail}"

    def test_a_rate_above_the_fund_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "requests.csv"
        path.write_text("day,investor,rate\n0,A,0.05\n1,B,1e300\n")
        assert main(["gate", "--requests", str(path), "--cap", "1e-4"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "validation",
            "detail": f"requests file {path}, line 3: redemption rate must lie in [0, 1], got 1e+300"}

    @pytest.mark.parametrize("rate", ["nan", "-0.5"])
    def test_a_rate_out_of_range_names_its_line(self, tmp_path, capsys, rate):
        path = tmp_path / "requests.csv"
        path.write_text(f"day,investor,rate\n0,A,0.05\n\n1,B,{rate}\n")
        assert main(["gate", "--requests", str(path)]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation",
            "detail": f"requests file {path}, line 4: redemption rate must lie in [0, 1], got {rate}"}

    def test_missing_column_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "requests.csv"
        path.write_text("day,investor\n0,A\n")
        assert main(["gate", "--requests", str(path)]) == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["detail"] == f"requests file {path}: missing columns ['rate']"


class TestRequiredFlagsFromConfig:
    """``--requests`` (gate) and ``--buckets``/``--weights`` (hqla) may come
    from a config file, like ``--portfolio``; missing from both is exit 2.
    Every key is its flag's name, ``lst swing --return`` included."""

    CASES = {
        "gate": (["gate", "--cap", "0.02"], {"requests": GATES}),
        "hqla": (["hqla", "--shock", "0.4"], {"buckets": BUCKETS, "weights": "0.6,0.3,0.1"}),
        "swing": (["swing", "--flow", "-2", "--tc", "30"], {"return": 0.05}),
    }

    @staticmethod
    def flags(values):
        return [arg for key, value in values.items() for arg in (f"--{key}", str(value))]

    @pytest.mark.parametrize("name", ["gate", "hqla", "swing"])
    def test_config_gives_what_the_flags_give(self, name, tmp_path, capsys):
        argv, values = self.CASES[name]
        assert main([*argv, *self.flags(values)]) == EXIT_OK
        want = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main([*argv, "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out == want

    def test_the_library_field_name_is_an_unknown_key(self, tmp_path, capsys):
        argv, _ = self.CASES["swing"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"asset_return": 0.05}))
        assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "config", "detail": "unknown config key 'asset_return' for lst swing"}

    def test_flags_beat_config_values(self, tmp_path, capsys):
        other = tmp_path / "requests.csv"
        other.write_text("day,investor,rate\n0,Z,0.01\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"requests": str(other)}))
        assert main(["gate", "--config", str(cfg), "--requests", GATES]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "0,A,2.00,40.00"
        cfg.write_text(json.dumps({"buckets": BUCKETS, "weights": "0.2,0.2,0.6"}))
        assert main(["hqla", "--config", str(cfg), "--weights", "0.6,0.3,0.1"]) == EXIT_OK
        got = capsys.readouterr().out
        assert main(["hqla", "--buckets", BUCKETS, "--weights", "0.6,0.3,0.1"]) == EXIT_OK
        assert got == capsys.readouterr().out

    @pytest.mark.parametrize("name, missing", [
        ("gate", "requests"), ("hqla", "buckets"), ("hqla", "weights")])
    def test_missing_from_both_is_exit_2(self, name, missing, tmp_path, capsys):
        argv, values = self.CASES[name]
        values = {k: v for k, v in values.items() if k != missing}
        assert main([*argv, *self.flags(values)]) == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation" and f"--{missing}" in report["detail"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        assert f"--{missing}" in json.loads(capsys.readouterr().err)["detail"]


@pytest.fixture
def pipe():
    """``pipe(text)``: the ``/dev/fd`` path of a new pipe that holds ``text``."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    reads = []

    def fill(text):
        read, write = os.pipe()
        os.write(write, text.encode())  # a small file: the pipe buffer holds it
        os.close(write)
        reads.append(read)
        return f"/dev/fd/{read}"

    yield fill
    for read in reads:
        os.close(read)


class TestPipedInput:
    """Any input file may be a pipe or /dev/stdin: each is read once."""

    def test_portfolio_from_stdin_on_the_csv_path(self, tmp_path, capsys):
        # numpy's reader rejects "1_800", so the csv path parses the file
        text = Path(FUND).read_text().replace("A7,1800,", "A7,1_800,")
        path = tmp_path / "fund.csv"
        path.write_text(text)
        assert main(["rcr", "--portfolio", str(path)]) == EXIT_OK
        want = capsys.readouterr().out
        piped = subprocess.run([sys.executable, "-m", "lst.cli", "rcr", "--portfolio", "/dev/stdin"],
                               input=text, capture_output=True, text=True, env=fresh_env())
        assert (piped.returncode, piped.stderr, piped.stdout) == (EXIT_OK, "", want)

    @pytest.mark.parametrize("flag, argv, text, detail", [
        ("--corr", ["rcr", "--portfolio", FUND],
         Path(CORR).read_text().replace("0.40,0.70,1.00", "0.40,abc,1.00"),
         "correlation file {}, line 3: column 2 'abc' is not a number"),
        ("--alpha", ["rst", "--portfolio", FUND], "0.2\n0.3\n\nabc\n0\n0\n0\n0\n",
         "alpha file {}, line 4: value 'abc' is not a number"),
        ("--requests", ["gate"], "day,investor,rate\n\n0,A,0.05\n1,B,abc\n",
         "requests file {}, line 4: rate 'abc' is not a number"),
    ], ids=["corr", "alpha", "requests"])
    def test_a_bad_cell_names_its_line(self, flag, argv, text, detail, pipe, capsys):
        path = pipe(text)
        assert main([*argv, flag, path]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation", "detail": detail.format(path)}

    def test_buckets_and_config_from_pipes(self, pipe, capsys):
        argv = ["hqla", "--weights", "0.6,0.3,0.1"]
        assert main([*argv, "--buckets", BUCKETS]) == EXIT_OK
        want = capsys.readouterr().out
        assert main([*argv, "--buckets", pipe(Path(BUCKETS).read_text())]) == EXIT_OK
        assert capsys.readouterr().out == want
        cfg = pipe(json.dumps({"buckets": BUCKETS, "weights": "0.6,0.3,0.1"}))
        assert main(["hqla", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out == want


class TestGoldens:
    def test_all_tables_match(self, capsys):
        assert main(["goldens"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "DIFF" not in out and "MISSING" not in out

    def test_regeneration_is_byte_identical(self, tmp_path):
        main(["goldens", "--write", "--out-dir", str(tmp_path / "fresh")])
        golden_dir = resources.files("lst") / "goldens"
        for fresh in sorted((tmp_path / "fresh").glob("*.csv")):
            assert fresh.read_bytes() == (golden_dir / fresh.name).read_bytes()

    def test_an_edited_and_a_missing_table_fail_the_run(self, tmp_path, monkeypatch, capsys):
        expected = tmp_path / "goldens"
        expected.mkdir()
        for golden in (resources.files("lst") / "goldens").iterdir():
            if golden.name.endswith(".csv"):
                (expected / golden.name).write_bytes(golden.read_bytes())
        edited = expected / "gate_schedule.csv"
        edited.write_text(edited.read_text().replace("40.00", "41.00"))
        (expected / "hqla_grid.csv").unlink()
        monkeypatch.setattr("lst.cli._golden_dir", lambda: expected)
        assert main(["goldens"]) == EXIT_INFEASIBLE
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 14
        assert [line for line in lines if not line.endswith(": OK")] == [
            "gate_schedule: DIFF", "hqla_grid: MISSING"]


class TestPortfolioFileErrors:
    HEADER = "id,shares,price,daily_limit,daily_volume,volatility,spread\n"

    def run_rcr(self, tmp_path, body, capsys):
        path = tmp_path / "fund.csv"
        path.write_text(self.HEADER + "A,1,2,3,4,0.1,0.01\n" + body)
        code = main(["rcr", "--portfolio", str(path)])
        return code, json.loads(capsys.readouterr().err)

    def test_short_row_is_a_validation_error(self, tmp_path, capsys):
        code, report = self.run_rcr(tmp_path, "B,1,2,3,4,0.1\n", capsys)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert "line 3: 6 fields where the header has 7" in report["detail"]

    def test_long_row_is_a_validation_error(self, tmp_path, capsys):
        code, report = self.run_rcr(tmp_path, "B,1,2,3,4,0.1,0.01,extra\n", capsys)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert "line 3: 8 fields where the header has 7" in report["detail"]

    def test_non_numeric_cell_names_the_column(self, tmp_path, capsys):
        code, report = self.run_rcr(tmp_path, "B,1,abc,3,4,0.1,0.01\n", capsys)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert report["detail"].endswith("line 3: price 'abc' is not a number")


def fresh_env():
    """Environment in which a fresh interpreter imports this lst."""
    src = str(Path(lst.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_fresh(code):
    """Last stdout line of ``python -c code`` in a fresh interpreter importing this lst."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=fresh_env(), check=True).stdout
    return out.splitlines()[-1]


def run_and_list_modules(argv, module):
    """Exit code of ``lst argv`` in a fresh interpreter and whether it loaded module."""
    return run_fresh("import sys; from lst.cli import main; "
                     f"rc = main({argv!r}); print(rc, {module!r} in sys.modules)")


class TestImportCost:
    def test_rcr_does_not_load_scipy(self):
        # measurement subcommands run without the scipy import
        assert run_and_list_modules(["rcr", "--portfolio", FUND, "--shock", "0.2"],
                                    "scipy") == "0 False"

    def test_limited_buffer_does_not_integrate(self, tmp_path):
        # the gain under a trading limit is closed form: no quadrature module
        argv = ["buffer", "--mu-asset", "0", "--eta", "2", "--xplus", "0.9",
                "--out-dir", str(tmp_path)]
        assert run_and_list_modules(argv, "scipy.integrate") == "0 False"


SCIPY_FREE = {
    "buffer": ["buffer", "--mu-asset", "0", "--eta", "0.5", "--xplus", "1.0", "--out-dir"],
    "buffer-limited": ["buffer", "--mu-asset", "0", "--eta", "2", "--xplus", "0.9", "--out-dir"],
    "goldens": ["goldens"],
    "rcr": ["rcr", "--portfolio", FUND, "--policy", "waterfall"],
    "rst": ["rst", "--portfolio", FUND, "--mode", "asset", "--rate-star", "0.1",
            "--floor", "0.5", "--tau", "1..5"],
    "hqla": ["hqla", "--buckets", BUCKETS, "--weights", "0.6,0.3,0.1"],
    "swing": ["swing", "--flow", "-2", "--mode", "full", "--tc", "30"],
    "gate": ["gate", "--requests", GATES, "--cap", "0.02"],
}


class TestScipyFreeSubcommands:
    @pytest.mark.parametrize("name", sorted(SCIPY_FREE))
    def test_loads_no_scipy_module(self, name, tmp_path):
        argv = SCIPY_FREE[name] + ([str(tmp_path)] if SCIPY_FREE[name][-1] == "--out-dir" else [])
        assert run_and_list_modules(argv, "scipy") == "0 False"

    def test_optimize_loads_only_the_slsqp_kernel(self):
        # SLSQP runs on scipy's compiled kernel alone; this also shows the
        # check above can see a loaded scipy module
        argv = ["optimize", "--portfolio", FUND, "--corr", CORR, "--shock", "0.1"]
        assert run_and_list_modules(argv, "scipy.optimize") == "0 False"
        assert run_and_list_modules(argv, "scipy.optimize._slsqplib") == "0 True"


SWING_FREE = dict(
    SCIPY_FREE,
    optimize=["optimize", "--portfolio", FUND, "--corr", CORR, "--shock", "0.1"],
)


class TestPerSubcommandImports:
    @pytest.mark.parametrize("name", ["gate", "hqla", "swing"])
    def test_scalar_tools_load_no_numpy(self, name):
        assert run_and_list_modules(SCIPY_FREE[name], "numpy") == "0 False"

    def test_rcr_loads_numpy(self):
        # shows the check above can see a loaded module
        assert run_and_list_modules(SCIPY_FREE["rcr"], "numpy") == "0 True"

    def test_rcr_loads_no_gzip(self):
        # numpy parses the text already read; its file opener, which imports
        # gzip on first use, never runs
        assert run_and_list_modules(SCIPY_FREE["rcr"], "gzip") == "0 False"

    @pytest.mark.parametrize("module", ["lst.optimizer", "lst.buffer", "lst.specialfuncs",
                                        "lst._slsqp"])
    @pytest.mark.parametrize("name", ["rcr", "rst"])
    def test_measurement_loads_no_management_module(self, name, module):
        assert run_and_list_modules(SCIPY_FREE[name], module) == "0 False"

    def test_the_bound_rule_and_the_cli_load_no_numpy(self):
        # check_number takes arrays by duck typing, so its module needs no numpy
        assert run_fresh("import sys, lst._checks, lst.cli; print('numpy' in sys.modules)") == "False"

    def test_import_lst_loads_nothing(self):
        out = run_fresh("import sys, lst; print(sorted(m for m in sys.modules "
                        "if m == 'numpy' or m.startswith('lst.')))")
        assert out == "[]"

    @pytest.mark.parametrize("name", ["rcr", "rst", "hqla", "buffer", "optimize"])
    def test_non_swing_commands_load_no_swing_module(self, name, tmp_path):
        argv = SWING_FREE[name] + ([str(tmp_path)] if SWING_FREE[name][-1] == "--out-dir" else [])
        assert run_and_list_modules(argv, "lst.swing") == "0 False"

    def test_swing_loads_the_swing_module(self):
        # shows the check above can see lst.swing
        assert run_and_list_modules(SCIPY_FREE["swing"], "lst.swing") == "0 True"

    def test_swing_mode_choices_are_the_swing_modes(self):
        from lst.swing import SwingMode

        mode = next(flag for flag in FLAGS["swing"][1] if flag.name == "--mode")
        assert list(mode.choices) == [m.value for m in SwingMode]

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_a_one_command_parser_formats_the_same_help(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        helps = []
        for parser in (build_parser(command), build_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert f"usage: lst {command} [-h] [--config CONFIG]" in helps[0]


def run_script(argv, stdout=subprocess.PIPE, **env):
    """``python -m lst.cli argv`` in a fresh interpreter: the exit code, stdout and stderr."""
    proc = subprocess.run([sys.executable, "-m", "lst.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=dict(fresh_env(), **env), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestScriptExit:
    """The script entry, ``lst.cli.run``, exits with ``os._exit``: what
    ``main`` wrote reaches its reader and the exit code is ``main``'s."""

    @pytest.mark.parametrize("argv, code", [
        (["rcr", "--portfolio", FUND, "--policy", "waterfall"], EXIT_OK),
        (["rst", "--portfolio", FUND, "--mode", "asset", "--rate-star", "0.10",
          "--floor", "0.5,0.9", "--tau", "1..5"], EXIT_INFEASIBLE),
        (["rcr", "--portfolio", FUND, "--shock", "lots"], EXIT_CONFIG),
        (["optimize", "--portfolio", FUND, "--shock", "0.2", "--ls-max", "0.01"], EXIT_INFEASIBLE),
    ], ids=["ok", "no-solution", "bad-flag-value", "infeasible-policy"])
    def test_exit_code_and_output_are_mains(self, argv, code, capsysbinary):
        assert main(argv) == code
        captured = capsysbinary.readouterr()
        assert run_script(argv) == (code, captured.out, captured.err)
        if code == EXIT_CONFIG:
            assert json.loads(captured.err)["error"] == "validation"

    @pytest.mark.parametrize("command", ["", "rcr", "swing"])
    def test_help_is_the_pinned_text(self, command):
        with open(PINNED / "cli_help.json") as fh:
            want = json.load(fh)[f"lst {command}".strip()]
        assert run_script([*command.split(), "--help"], COLUMNS="80") == (
            EXIT_OK, want.encode(), b"")

    @pytest.mark.parametrize("argv", [[], ["rcr", "--bogus"], ["nope"], ["--bogus", "rcr"]])
    def test_a_usage_error_exits_2(self, argv):
        code, out, err = run_script(argv)
        assert (code, out) == (EXIT_CONFIG, b"")
        assert err.startswith(b"usage: lst") and b"Traceback" not in err

    def test_a_long_table_reaches_the_pipe_whole(self):
        code, out, err = run_script(["rcr", "--portfolio", FUND, "--shock", "0.01",
                                     "--horizon", str(MAX_DAYS)])
        lines = out.decode().splitlines()
        assert (code, err, len(lines)) == (EXIT_OK, b"", MAX_DAYS + 1)
        assert lines[-1].startswith(f"{MAX_DAYS},")

    def test_out_dir_files_are_mains(self, tmp_path, capsys):
        argv = ["buffer", "--mu-asset", "0", "--eta", "2", "--curve-points", "11", "--out-dir"]
        assert main([*argv, str(tmp_path / "in")]) == EXIT_OK
        assert run_script([*argv, str(tmp_path / "script")])[0] == EXIT_OK
        written = [{f.name: f.read_bytes() for f in (tmp_path / side).iterdir()}
                   for side in ("in", "script")]
        assert sorted(written[0]) == ["break_even_curve.csv", "nbc_curve.csv"]
        assert written[0] == written[1]

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("horizon", ["6", str(MAX_DAYS)])
    def test_a_closed_reader_is_a_file_error(self, horizon, unbuffered):
        # whether the failed write is main's or the final flush's, one JSON line
        read, write = os.pipe()
        os.close(read)
        try:
            code, _, err = run_script(["rcr", "--portfolio", FUND, "--horizon", horizon],
                                      stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert code == EXIT_CONFIG
        assert err.count(b"\n") == 1 and b"Traceback" not in err
        assert json.loads(err) == {"error": "file", "detail": "[Errno 32] Broken pipe"}

    def test_the_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["lst"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is lst.cli.run


SUBMODULES = ("core", "liquidation", "rcr", "hqla", "reverse", "optimizer", "specialfuncs",
              "buffer", "swing")


class TestLazyPackage:
    def test_every_export_is_its_submodule_object(self):
        modules = [importlib.import_module(f"lst.{name}") for name in SUBMODULES]
        for name in lst.__all__:
            holders = [vars(m)[name] for m in modules if name in vars(m)]
            assert holders and all(obj is getattr(lst, name) for obj in holders), name
            assert vars(lst)[name] is holders[0]  # resolved once, then a plain attribute

    def test_dir_covers_all(self):
        assert len(set(lst.__all__)) == len(lst.__all__)
        assert set(lst.__all__) <= set(dir(lst))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lst.no_such_name
        assert not hasattr(lst, "_slsqp_typo")

    def test_submodules_and_private_modules_resolve(self):
        from lst import _slsqp

        assert lst.core is sys.modules["lst.core"]
        assert lst.DomainError is lst.core.DomainError
        assert _slsqp is sys.modules["lst._slsqp"]


class TestInputFileErrors:
    HEADER = "id,shares,price,daily_limit,daily_volume,volatility,spread"

    def test_repeated_column_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "fund.csv"
        path.write_text(self.HEADER + ",price\nA,1,2,3,4,0.1,0.01,-5\n")
        code = main(["rcr", "--portfolio", str(path)])
        report = json.loads(capsys.readouterr().err)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert "repeated columns ['price']" in report["detail"]

    def test_non_numeric_correlation_cell_is_a_validation_error(self, tmp_path, capsys):
        corr = tmp_path / "rho.csv"
        corr.write_text("\n".join(",".join("1" if i == j else "0" for j in range(7))
                                  for i in range(7)).replace("0", "x", 1) + "\n")
        code = main(["optimize", "--portfolio", FUND, "--corr", str(corr), "--shock", "0.1"])
        report = json.loads(capsys.readouterr().err)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert report["detail"] == f"correlation file {corr}, line 1: column 2 'x' is not a number"


class TestFieldLimit:
    LIMIT = csv.field_size_limit()

    @pytest.mark.parametrize("k", [0, 2])
    def test_long_id_is_a_validation_error_on_any_row(self, tmp_path, capsys, k):
        rows = [f"A{i},1,2,3,4,0.1,0.01" for i in range(4)]
        rows[k] = "X" * 200_000 + ",1,2,3,4,0.1,0.01"
        path = tmp_path / "fund.csv"
        path.write_text(TestPortfolioFileErrors.HEADER + "".join(r + "\n" for r in rows))
        code = main(["rcr", "--portfolio", str(path)])
        report = json.loads(capsys.readouterr().err)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert report["detail"] == (f"portfolio file {path}, line {k + 2}: "
                                    f"field larger than field limit ({self.LIMIT})")

    def test_long_alpha_cell(self, tmp_path, capsys):
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("0.2\n0.3\n" + "0" * 200_000 + "\n")
        code = main(["rst", "--portfolio", FUND, "--mode", "liability", "--alpha", str(alpha)])
        report = json.loads(capsys.readouterr().err)
        assert code == EXIT_CONFIG and report["error"] == "validation"
        assert report["detail"].startswith(f"alpha file {alpha}, line 3: field larger")

    def test_long_request_cell(self, tmp_path, capsys):
        path = tmp_path / "requests.csv"
        path.write_text("day,investor,rate\n0," + "A" * 200_000 + ",0.05\n")
        assert main(["gate", "--requests", str(path)]) == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert report["detail"].startswith(f"requests file {path}, line 2: field larger")


class TestInternalErrors:
    def test_an_uncaught_exception_is_one_json_line_and_exit_3(self, monkeypatch, capsys):
        import lst.swing

        def broken(requests, policy):
            raise RuntimeError("queue corrupted")

        monkeypatch.setattr(lst.swing, "gate_schedule", broken)
        assert main(["gate", "--requests", GATES]) == EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": "internal",
                                            "detail": "RuntimeError: queue corrupted"}


HELP_COMMANDS = ["", "rcr", "hqla", "rst", "optimize", "buffer", "swing", "gate", "goldens"]


class TestHelpPinned:
    """``lst --help`` and each ``lst <sub> --help`` at 80 columns, as recorded
    in ``tests/data/cli_help.json``: flags, their order, metavars and help."""

    @pytest.mark.parametrize("command", HELP_COMMANDS)
    def test_help_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with open(PINNED / "cli_help.json") as fh:
            want = json.load(fh)[f"lst {command}".strip()]
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out == want


def run_main(argv, capsys):
    """``main(argv)``'s exit code, stdout and stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config_file(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


class TestConfigValues:
    """A config value is a JSON string or number, read as its text on the
    command line would be, or true or false for a switch; anything else is
    a ``config`` error naming the key."""

    @pytest.mark.parametrize("argv, key, value", [
        (["rcr", "--portfolio", FUND], "raw", "no"),
        (["rcr", "--portfolio", FUND], "raw", 1),
        (["hqla", "--buckets", BUCKETS, "--weights", "0.6,0.3,0.1"], "conservative", "false"),
        (["goldens"], "write", None),
    ])
    def test_a_switch_takes_only_true_or_false(self, argv, key, value, tmp_path, capsys):
        code, out, err = run_main([*argv, "--config", config_file(tmp_path, {key: value})], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert json.loads(err) == {"error": "config", "detail": (
            f"config key {key!r} must be true or false, got {json.dumps(value)}")}

    def test_a_config_switch_is_its_flag(self, tmp_path, capsys):
        argv = ["rcr", "--portfolio", FUND, "--horizon", "2"]
        for flags, value in (([], False), (["--raw"], True)):
            want = run_main([*argv, *flags], capsys)
            assert want[0] == EXIT_OK
            assert run_main([*argv, "--config", config_file(tmp_path, {"raw": value})],
                            capsys) == want

    @pytest.mark.parametrize("value", [[1], None, {"a": 1}, True, []])
    def test_a_value_must_be_a_string_or_number(self, value, tmp_path, capsys):
        cfg = config_file(tmp_path, {"shock": value})
        code, out, err = run_main(["rcr", "--portfolio", FUND, "--config", cfg], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert json.loads(err) == {"error": "config", "detail": (
            f"config key 'shock' must be a JSON string or number, got {json.dumps(value)}")}

    def test_a_number_names_a_file_as_its_text_does(self, tmp_path, monkeypatch, capsys):
        # {"out": 1} writes ./1 as --out 1 does, not to file descriptor 1
        monkeypatch.chdir(tmp_path)
        argv = ["rcr", "--portfolio", FUND]
        assert run_main([*argv, "--out", "1"], capsys) == (EXIT_OK, "", "")
        want = (tmp_path / "1").read_text()
        (tmp_path / "1").unlink()
        assert run_main([*argv, "--config", config_file(tmp_path, {"out": 1})], capsys) == (
            EXIT_OK, "", "")
        assert (tmp_path / "1").read_text() == want and want.startswith("h,lr_pct,")

    def test_a_number_portfolio_is_a_file_name(self, tmp_path, monkeypatch, capsys):
        # {"portfolio": 0} reads the file ./0, not standard input
        monkeypatch.chdir(tmp_path)
        want = run_main(["rcr", "--portfolio", "0"], capsys)
        assert want[0] == EXIT_CONFIG and json.loads(want[2])["error"] == "missing-file"
        assert run_main(["rcr", "--config", config_file(tmp_path, {"portfolio": 0})],
                        capsys) == want

    @pytest.mark.parametrize("key, value, text", [
        ("shock", "abc", "abc"), ("shock", 0.5, "0.5"), ("horizon", 1.0, "1.0"),
        ("horizon", "", ""), ("tau", MAX_DAYS + 1, str(MAX_DAYS + 1)), ("shock", 1e400, "inf"),
        ("policy", "waterfall", "waterfall"),
    ])
    def test_a_value_means_what_its_text_means(self, key, value, text, tmp_path, capsys):
        argv = ["rcr", "--portfolio", FUND, "--policy", "optimal"] if key != "policy" else [
            "rcr", "--portfolio", FUND]
        want = run_main([*argv, f"--{key}={text}"], capsys)
        doc = json.dumps({key: value}).replace("Infinity", "1e400")
        assert run_main([*argv, "--config", config_file(tmp_path, doc)], capsys) == want

    def test_a_choice_mismatch_names_the_key(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"regime": 1})
        code, _, err = run_main(["optimize", "--portfolio", FUND, "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert json.loads(err) == {"error": "config", "detail": (
            "config key 'regime': 1 is not one of ['sqrt', 'sqrt_linear']")}


class TestErrorKinds:
    """A flag value is a ``validation`` error naming the flag; a document that
    is no JSON, or an input file that is not UTF-8, is a ``config`` error;
    any other ValueError or KeyError is a fault of lst (exit 3)."""

    @pytest.mark.parametrize("argv, detail", [
        (["rcr", "--portfolio", FUND, "--shock", "abc"],
         "--shock must be a rate such as 0.2, 20bp or 20%, got 'abc'"),
        (["rst", "--portfolio", FUND, "--floor", "0.5,,0.9"],
         "--floor must be a comma list of rates, got '0.5,,0.9'"),
        (["rst", "--portfolio", FUND, "--tau", "1..x"],
         "--tau must be a day list such as 5, 1..5 or 1,3,5, got '1..x'"),
        (["hqla", "--buckets", BUCKETS, "--weights", "0.6;0.4"],
         "--weights must be a comma list of numbers, got '0.6;0.4'"),
        (["swing", "--nav", "1e3x"], "--nav must be a number, got '1e3x'"),
        (["buffer", "--curve-points", "9" * 5000], None),
        (["rcr", "--portfolio", "fund\0.csv"],
         "--portfolio must be a file name with no NUL byte and no lone surrogate, "
         "got 'fund\\x00.csv'"),
    ])
    def test_a_bad_flag_value_names_the_flag(self, argv, detail, capsys):
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        report = json.loads(err)
        assert report["error"] == "validation"
        if detail is not None:
            assert report["detail"] == detail

    def test_a_long_zero_padded_count_is_read(self, tmp_path, capsys):
        out_dir = tmp_path / "curves"
        argv = ["buffer", "--curve-points", "0" * 5000 + "3", "--out-dir", str(out_dir)]
        assert run_main(argv, capsys)[0] == EXIT_OK
        assert len(read_rows(out_dir / "nbc_curve.csv")) == 4

    @pytest.mark.parametrize("name, shown", [("a\0b", "a\\x00b"), ("\ud800", "\\ud800")])
    def test_a_config_path_the_system_cannot_take_names_the_flag(self, name, shown, tmp_path,
                                                                 capsys):
        cfg = config_file(tmp_path, {"portfolio": name})
        code, _, err = run_main(["rcr", "--config", cfg], capsys)
        assert code == EXIT_CONFIG
        assert json.loads(err) == {"error": "validation", "detail": (
            "--portfolio must be a file name with no NUL byte and no lone surrogate, "
            f"got '{shown}'")}

    @pytest.mark.parametrize("text, detail", [
        ("{", "Expecting property name enclosed in double quotes"),
        ('{"horizon": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits)"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["syntax", "huge-integer", "deep"])
    def test_a_config_that_is_no_json(self, text, detail, tmp_path, capsys):
        cfg = config_file(tmp_path, text)
        code, _, err = run_main(["rcr", "--portfolio", FUND, "--config", cfg], capsys)
        report = json.loads(err)
        assert code == EXIT_CONFIG and report["error"] == "config"
        assert report["detail"].startswith(f"config file {cfg}: {detail}")

    def test_a_bucket_file_with_a_huge_integer(self, tmp_path, capsys):
        path = tmp_path / "buckets.json"
        path.write_text('[{"name": "x", "lambda": ' + "1" * 5000 + "}]")
        code, _, err = run_main(["hqla", "--buckets", str(path), "--weights", "1"], capsys)
        report = json.loads(err)
        assert code == EXIT_CONFIG and report["error"] == "config"
        assert report["detail"].startswith(f"bucket file {path}: Exceeds the limit")

    def test_a_binary_portfolio_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "fund.csv"
        path.write_bytes(b"id,shares\n\xff\xfe\x00\x81\n")
        code, out, err = run_main(["rcr", "--portfolio", str(path)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert json.loads(err)["error"] == "config" and "can't decode" in json.loads(err)["detail"]

    @pytest.mark.parametrize("exc", [ValueError("bad queue"), KeyError("day")])
    def test_any_other_value_or_key_error_is_internal(self, exc, monkeypatch, capsys):
        import lst.swing

        def broken(requests, policy):
            raise exc

        monkeypatch.setattr(lst.swing, "gate_schedule", broken)
        code, out, err = run_main(["gate", "--requests", GATES], capsys)
        assert (code, out) == (EXIT_INTERNAL, "")
        assert json.loads(err) == {"error": "internal",
                                   "detail": f"{type(exc).__name__}: {exc}"}


class TestFlagOnlyChecks:
    """A condition on the flags alone is checked before any file is read or
    any table is computed."""

    def test_write_without_an_out_dir_computes_nothing(self, monkeypatch, capsys):
        def never():
            raise AssertionError("golden tables computed")

        monkeypatch.setattr("lst.cli.golden_tables", never)
        code, out, err = run_main(["goldens", "--write"], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert json.loads(err) == {"error": "validation", "detail": (
            "--write needs an --out-dir to put the refreshed tables in")}

    @pytest.mark.parametrize("flag", ["--horizon", "--tau"])
    def test_an_empty_day_count_is_a_validation_error(self, flag, tmp_path, capsys):
        want = {"error": "validation",
                "detail": f"{flag} must be a whole number from 1 to {MAX_DAYS}, got ''"}
        code, out, err = run_main(["rcr", "--portfolio", FUND, flag, ""], capsys)
        assert (code, out, json.loads(err)) == (EXIT_CONFIG, "", want)
        cfg = config_file(tmp_path, {flag[2:]: ""})
        code, out, err = run_main(["rcr", "--portfolio", FUND, "--config", cfg], capsys)
        assert (code, out, json.loads(err)) == (EXIT_CONFIG, "", want)

    @pytest.mark.parametrize("argv, detail", [
        (["hqla", "--buckets", "/nonexistent/b.json", "--weights", "1", "--tna-star", "1e9"],
         "--tna-star and --h-star go together: give both or neither"),
        (["rst", "--portfolio", "/nonexistent/fund.csv", "--mode", "liability"],
         "a --alpha file is required"),
        (["rcr", "--portfolio", ""], "a --portfolio file is required"),
        (["hqla", "--buckets", BUCKETS, "--weights", ""], "a --weights value is required"),
    ])
    def test_checked_before_any_file_is_read(self, argv, detail, capsys):
        code, out, err = run_main(argv, capsys)
        assert (code, out, json.loads(err)) == (
            EXIT_CONFIG, "", {"error": "validation", "detail": detail})


class TestTypedValues:
    def test_each_command_reads_parsed_values(self, monkeypatch, capsys):
        seen = {}
        monkeypatch.setattr("lst.cli.cmd_rcr", lambda args: seen.update(vars(args)) or EXIT_OK)
        assert main(["rcr", "--portfolio", FUND, "--shock", "20bp", "--tau", "7"]) == EXIT_OK
        want = {"shock": 0.002, "tau": 7, "horizon": None, "raw": False, "policy": "prorata",
                "out": None, "corr": None}
        assert {k: seen[k] for k in want} == want
        assert type(seen["shock"]) is float and type(seen["tau"]) is int


class TestExtremeFlagValues:
    """Values the contract fuzz found to overflow, warn or run without
    bound; a RuntimeWarning raised from lst fails these tests."""

    @pytest.mark.parametrize("argv, code, report", [
        (["buffer", "--sigma-asset", "1e308"], EXIT_CONFIG, {
            "error": "validation",
            "detail": "net buffer cost is not finite on the weight grid at eta = 1.0"}),
        (["buffer", "--xplus", "1e-320"], EXIT_CONFIG, {
            "error": "validation", "detail": "trading limit must be at least 0.0001, got 1e-320"}),
        (["gate", "--requests", GATES, "--cap", "1e-320"], EXIT_CONFIG, {
            "error": "validation", "detail": "gate cap must lie in [0.0001, 1], got 1e-320"}),
        (["optimize", "--portfolio", FUND, "--corr", CORR, "--impact", "1e308"], EXIT_INFEASIBLE,
         {"error": "infeasible-policy", "binding": "tracking-risk",
          "detail": "no evaluated portfolio satisfied both the tracking and shortfall caps"}),
    ], ids=["sigma-asset", "xplus", "gate-cap", "impact"])
    def test_one_json_line_and_no_warning(self, argv, code, report, capsys):
        got, out, err = run_main(argv, capsys)
        assert (got, out, json.loads(err)) == (code, "", report)

    def test_a_tiny_shock_keeps_its_shortfall_cap(self, capsys):
        # a redemption of 1e-15 of net assets sells out on day 1: its policy
        # pays the spread and meets the 10% cap, as the optimizer's sum says
        argv = ["optimize", "--portfolio", FUND, "--corr", CORR, "--shock", "1e-15",
                "--ls-max", "0.10"]
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        fields = dict(line.split(",") for line in out.splitlines()[1:])
        assert (fields["tc_bp"], fields["tc_spread_bp"], fields["shortfall_pct"]) == \
            ("5.0", "5.0", "0.00")

    def test_a_subnormal_shock_raises_no_overflow(self, capsys):
        # the finite-difference quotient of the budget constraint overflows to inf
        argv = ["optimize", "--portfolio", FUND, "--corr", CORR, "--shock", "1e-320"]
        assert run_main(argv, capsys)[::2] == (EXIT_OK, "")
