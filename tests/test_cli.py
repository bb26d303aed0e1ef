"""End-to-end tests of the command line interface through click's runner:
output contracts (JSON/CSV/text), exit statuses, option parsing, and
determinism."""

import contextlib
import csv
import gc
import io
import json
import time
import weakref

import pytest
from click.testing import CliRunner

from almostid.cli import main, parse_int_list, parse_int_range, parse_str_list
from almostid.errors import DomainError
from almostid.report import render_json
from conftest import leading_digits


@pytest.fixture
def runner():
    return CliRunner()


class TestParsers:
    def test_int_range(self):
        assert parse_int_range("7") == [7]
        assert parse_int_range("3..6") == [3, 4, 5, 6]
        assert parse_int_range(" 1..1 ") == [1]
        assert parse_int_range("5..3") == []

    def test_int_list(self):
        assert parse_int_list("2,4,9") == [2, 4, 9]
        assert parse_int_list("1..3,9") == [1, 2, 3, 9]

    def test_str_list(self):
        assert parse_str_list("g1, g2 ,fn3") == ["g1", "g2", "fn3"]

    @pytest.mark.parametrize("bad", ["", "a..b", "1...3", "x"])
    def test_rejects_junk(self, bad):
        with pytest.raises(DomainError):
            parse_int_list(bad)


class TestVerifyCommand:
    def test_json_contract(self, runner):
        result = runner.invoke(
            main, ["verify", "--n", "2", "--base", "2", "--digits", "40",
                   "--format", "json"])
        assert result.exit_code == 0
        row = json.loads(result.output)
        assert row["n"] == 2
        assert row["base"] == 2
        assert row["digits"] == 40
        assert row["target_rational"] == "1/1"
        assert row["target_has_pi"] is False
        assert row["pass"] is True
        assert row["error"] == ""
        assert leading_digits(row["delta"], 2) == (48, -11)
        assert float(row["tail_bounds"]) > 0

    def test_digits_floor_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--n", "2", "--digits", "10"])
        assert result.exit_code == 2
        assert "digits >= 20" in result.output

    def test_residual_gate_failure(self, runner):
        result = runner.invoke(
            main, ["verify", "--n", "4", "--digits", "30",
                   "--residual-tol", "1e-99", "--format", "json"])
        assert result.exit_code == 1
        # the identity check itself still passes; only the exit gate trips
        assert json.loads(result.output)["pass"] is True

    def test_residual_gate_pass(self, runner):
        result = runner.invoke(
            main, ["verify", "--n", "4", "--digits", "30",
                   "--residual-tol", "1e-2"])
        assert result.exit_code == 0

    def test_rejects_range(self, runner):
        result = runner.invoke(main, ["verify", "--n", "3..5"])
        assert result.exit_code == 2

    def test_rejects_junk_n(self, runner):
        result = runner.invoke(main, ["verify", "--n", "abc"])
        assert result.exit_code == 2
        assert "bad integer" in result.output

    def test_rejects_junk_residual_tol(self, runner):
        result = runner.invoke(
            main, ["verify", "--n", "2", "--digits", "30",
                   "--residual-tol", "abc"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["verify", "--n", "4", "--residual-tol", "-1"],
        ["verify", "--n", "4", "--residual-tol", "-0"],
        ["scan", "--n", "1..2", "--residual-tol", "-1e-30"],
    ])
    def test_rejects_negative_residual_tol(self, runner, args):
        # only an exact zero residual could meet a gate <= 0: the run could only exit 1
        result = runner.invoke(main, args + ["--digits", "20"])
        assert result.exit_code == 2
        assert f"got {args[-1]!r}" in result.output

    def test_missing_n(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 2

    def test_digits_env_var(self, runner):
        result = runner.invoke(
            main, ["verify", "--n", "1", "--format", "json"],
            env={"ALMOSTID_DIGITS": "25"})
        assert result.exit_code == 0
        assert json.loads(result.output)["digits"] == 25

    def test_n_over_cap_refused_before_any_sum(self, runner):
        # past n ~ 14 280 the target's denominator would not even print
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "--n", "15000", "--digits", "30"])
        assert result.exit_code == 2
        assert "over the cap 10000" in result.output
        assert time.perf_counter() - start < 1


class TestScanCommand:
    def test_csv_contract(self, runner):
        result = runner.invoke(
            main, ["scan", "--n", "1..6", "--bases", "2", "--digits", "30",
                   "--format", "csv"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["n", "base", "digits", "u", "target_rational",
                           "target_has_pi", "delta", "r_predicted", "residual",
                           "tail_bounds", "pass", "error"]
        assert len(rows) == 7
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5", "6"]
        assert all(r[10] == "true" for r in rows[1:])
        # published leading digits survive the text round trip
        assert leading_digits(rows[1][6], 2) == (53, -12)
        assert leading_digits(rows[6][6], 2) == (29, -9)

    def test_empty_range_yields_header_only(self, runner):
        result = runner.invoke(
            main, ["scan", "--n", "5..3", "--digits", "30", "--format", "csv"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert len(rows) == 1

    def test_bad_cell_fails_exit_status(self, runner):
        result = runner.invoke(
            main, ["scan", "--n", "0..1", "--digits", "30", "--format", "json"])
        assert result.exit_code == 1
        rows = json.loads(result.output)
        assert rows[0] == {
            "n": 0, "base": 2, "digits": "", "u": "", "target_rational": "",
            "target_has_pi": "", "delta": "", "r_predicted": "", "residual": "",
            "tail_bounds": "", "pass": False,
            "error": "n = 0 diverges: every bilateral term equals ln(m)"}
        assert rows[1]["pass"] is True

    def test_text_format(self, runner):
        result = runner.invoke(
            main, ["scan", "--n", "4", "--digits", "30", "--format", "text"])
        assert result.exit_code == 0
        line = result.output.splitlines()[0]
        assert "n=4" in line and "pass=true" in line and "target_rational=1/6" in line

    def test_deterministic_output(self, runner):
        args = ["scan", "--n", "1..3", "--bases", "2,4", "--digits", "30",
                "--format", "json"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output

    def test_json_round_trip(self, runner):
        result = runner.invoke(
            main, ["scan", "--n", "2..3", "--digits", "30", "--format", "json"])
        rows = json.loads(result.output)
        assert json.loads(render_json(rows)) == rows

    def test_rows_equal_verify(self, runner):
        # each scan row is the verify object of its cell, field for field
        result = runner.invoke(
            main, ["scan", "--n", "1..8", "--bases", "2,3,1000000", "--digits", "30",
                   "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert [(row["n"], row["base"]) for row in rows] == [
            (n, m) for m in (2, 3, 10**6) for n in range(1, 9)]
        for row in rows:
            single = runner.invoke(
                main, ["verify", "--n", str(row["n"]), "--base", str(row["base"]),
                       "--digits", "30", "--format", "json"])
            assert json.loads(single.output) == row, (row["n"], row["base"])


class TestMellinCommand:
    def test_single_cell_json(self, runner):
        result = runner.invoke(
            main, ["mellin", "--functions", "g2", "--s", "1/4",
                   "--digits", "30", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "transform"
        assert row["function"] == "g2"
        assert row["pass"] is True
        assert float(row["abs_err"]) < 1e-25
        assert row["numeric"].startswith("4.44288293815")  # pi*sqrt(2)

    def test_out_of_strip_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["mellin", "--functions", "g1", "--s", "1/2", "--digits", "30"])
        assert result.exit_code == 2

    def test_bad_s_text(self, runner):
        result = runner.invoke(
            main, ["mellin", "--functions", "g2", "--s", "quarter",
                   "--digits", "30"])
        assert result.exit_code == 2

    def test_s_near_strip_edge_refused_up_front(self, runner):
        # The first trapezoid level at s = 1e-9 would have ~2e11 nodes.
        start = time.perf_counter()
        result = runner.invoke(
            main, ["mellin", "--functions", "g2", "--s", "1e-9", "--digits", "30"])
        assert result.exit_code == 2
        assert "over the cap" in result.output
        assert time.perf_counter() - start < 1

    def test_harmonic_rows_appended(self, runner):
        result = runner.invoke(
            main, ["mellin", "--functions", "g2", "--s", "1/4", "--harmonic",
                   "--digits", "25", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert [r["kind"] for r in rows] == ["transform", "harmonic"]
        assert rows[1]["numeric"] == ""
        assert float(rows[1]["abs_err"]) < 1e-20
        assert rows[1]["pass"] is True


class TestDualCommand:
    def test_defaults_subset(self, runner):
        result = runner.invoke(
            main, ["dual", "--n", "2..2", "--x", "0.3", "--digits", "25",
                   "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert len(rows) == 1
        assert rows[0]["n"] == 2
        assert rows[0]["pass"] is True
        assert float(rows[0]["abs_err"]) < 1e-20

    def test_x_out_of_window_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["dual", "--n", "1..1", "--x", "0.6", "--digits", "25"])
        assert result.exit_code == 2


class TestNonFiniteInputs:
    @pytest.mark.parametrize("args", [
        ["dual", "--x", "nan"],
        ["dual", "--x", "inf"],
        ["lemma", "--u", "inf"],
        ["lemma", "--u", "nan"],
        ["lemma", "--h", "nan"],
        ["verify", "--n", "4", "--residual-tol", "nan"],
    ])
    def test_is_usage_error(self, runner, args):
        result = runner.invoke(main, args + ["--digits", "25"])
        assert result.exit_code == 2
        assert "finite" in result.output


class TestLemmaCommand:
    def test_grid_passes(self, runner):
        result = runner.invoke(
            main, ["lemma", "--n", "3..4", "--k", "0..1", "--u", "0,2.5",
                   "--digits", "30", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert len(rows) == 8
        assert all(r["pass"] for r in rows)
        assert all(float(r["residual"]) < float(r["bound"]) for r in rows)

    def test_h_override_recorded(self, runner):
        result = runner.invoke(
            main, ["lemma", "--n", "3..3", "--k", "0..0", "--u", "0",
                   "--h", "1e-6", "--digits", "30", "--format", "json"])
        assert result.exit_code == 0
        row = json.loads(result.output)[0]
        assert float(row["h"]) == 1e-6
        assert float(row["bound"]) == pytest.approx(1e-11)

    def test_bad_h_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["lemma", "--n", "3..3", "--k", "0..0", "--u", "0",
                   "--h", "abc", "--digits", "30"])
        assert result.exit_code == 2

    def test_n_below_three_is_usage_error(self, runner):
        result = runner.invoke(main, ["lemma", "--n", "2..3", "--digits", "30"])
        assert result.exit_code == 2


class TestGalleryCommand:
    def test_single_item_text(self, runner):
        result = runner.invoke(
            main, ["gallery", "--item", "e_pi_minus_pi", "--digits", "50"])
        assert result.exit_code == 0
        assert "19.999099979" in result.output

    def test_ramanujan_digit_floor(self, runner):
        result = runner.invoke(
            main, ["gallery", "--item", "ramanujan163", "--digits", "30"])
        assert result.exit_code == 2

    def test_non_ramanujan_allowed_below_forty(self, runner):
        result = runner.invoke(
            main, ["gallery", "--item", "borwein", "--digits", "30",
                   "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)[0]["pass"] is True

    def test_borwein_cap_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["gallery", "--item", "borwein", "--digits", "2001"])
        assert result.exit_code == 2

    def test_hickerson_item_reports_seventeen_honestly(self, runner):
        result = runner.invoke(
            main, ["gallery", "--item", "hickerson", "--digits", "40",
                   "--format", "json"])
        # row 17 is an error row, so the whole command exits 1
        assert result.exit_code == 1
        rows = json.loads(result.output)
        assert len(rows) == 17
        assert all(r["pass"] for r in rows[:16])
        assert rows[16]["pass"] is False
        assert "n=17" in rows[16]["error"]

    def test_all_includes_every_entry(self, runner):
        result = runner.invoke(
            main, ["gallery", "--item", "all", "--digits", "40",
                   "--format", "csv"])
        assert result.exit_code == 1  # honest hickerson-17 failure row
        rows = list(csv.reader(io.StringIO(result.output)))
        assert len(rows) == 1 + 6 + 17
        items = [r[0] for r in rows[1:]]
        assert items[:6] == ["ramanujan37", "ramanujan58", "ramanujan163",
                             "triangle_l", "e_pi_minus_pi", "borwein"]
        assert items[6] == "hickerson1" and items[-1] == "hickerson17"

    def test_unknown_item(self, runner):
        result = runner.invoke(main, ["gallery", "--item", "feigenbaum"])
        assert result.exit_code == 2


class TestOutFile:
    def test_out_writes_file_and_keeps_stdout_quiet(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "--n", "4", "--digits", "30", "--format", "json",
                   "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == ""
        assert json.loads(out.read_text())["n"] == 4


class TestInProcess:
    def test_redirected_stdout_is_released(self):
        # click caches the text stream it makes of each sys.stdout it meets,
        # keyed weakly by that stdout; for a StringIO the stream is the
        # StringIO itself, so a report echoed there without file= is kept
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                main(["verify", "--n", "1", "--digits", "20"], standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        assert code == 0
        assert "pass=true" in buf.getvalue()
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None


class TestErrorRows:
    @pytest.mark.parametrize("args, expected", [
        (["mellin", "--functions", "g2", "--s", "0.25"],
         [{"kind": "transform", "function": "g2", "s": "0.25", "numeric": "",
           "closed": "", "abs_err": "", "pass": False, "error": "no convergence"}]),
        (["mellin", "--functions", "g1,fn3", "--s", "1/4", "--harmonic"],
         [{"kind": kind, "function": fid, "s": "1/4", "numeric": "", "closed": "",
           "abs_err": "", "pass": False, "error": "no convergence"}
          for kind in ("transform", "harmonic") for fid in ("g1", "fn3")]),
        (["dual", "--n", "1..2", "--x", "0.3"],
         [{"n": n, "x": "0.3", "direct": "", "expansion": "", "abs_err": "",
           "pass": False, "error": "no convergence"} for n in (1, 2)]),
    ])
    def test_convergence_error_becomes_error_row(self, runner, monkeypatch, args, expected):
        import almostid.mellin as mellin_mod
        from almostid.errors import ConvergenceError

        def fail(*args, **kwargs):
            raise ConvergenceError("no convergence")

        for name in ("mellin_check", "harmonic_factor_check", "dual_check"):
            monkeypatch.setattr(mellin_mod, name, fail)
        result = runner.invoke(main, args + ["--digits", "25", "--format", "json"])
        assert result.exit_code == 1
        assert json.loads(result.output) == expected

    def test_verify_convergence_error_becomes_error_row(self, runner, monkeypatch):
        import almostid.series as series_mod
        from almostid.errors import ConvergenceError

        def fail(*args, **kwargs):
            raise ConvergenceError("no convergence")

        monkeypatch.setattr(series_mod, "predicted_correction", fail)
        result = runner.invoke(main, ["verify", "--n", "4", "--digits", "25", "--format", "json"])
        assert result.exit_code == 1
        assert json.loads(result.output) == {
            "n": 4, "base": 2, "digits": "", "u": "", "target_rational": "",
            "target_has_pi": "", "delta": "", "r_predicted": "", "residual": "",
            "tail_bounds": "", "pass": False, "error": "no convergence"}

    def test_scan_failing_base_leaves_the_others(self, runner, monkeypatch):
        import almostid.series as series_mod
        from almostid.errors import ConvergenceError

        args = ["scan", "--n", "1..3", "--bases", "4,3,2", "--digits", "25", "--format", "json"]
        clean = json.loads(runner.invoke(main, args).output)
        real = series_mod.predicted_correction

        def fail_at_three(n, base_m, ctx):
            if base_m == 3:
                raise ConvergenceError(f"no convergence at m = {base_m}")
            return real(n, base_m, ctx)

        monkeypatch.setattr(series_mod, "predicted_correction", fail_at_three)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        rows = json.loads(result.output)
        assert [(row["n"], row["base"]) for row in rows] == [
            (n, m) for m in (2, 3, 4) for n in (1, 2, 3)]
        assert rows[:3] == clean[:3] and rows[6:] == clean[6:]
        assert [row["error"] for row in rows[3:6]] == ["no convergence at m = 3"] * 3
        assert not any(row["pass"] for row in rows[3:6])

    def test_scan_failing_cell_gets_its_own_row(self, runner, monkeypatch):
        import almostid.series as series_mod
        from almostid.errors import ConvergenceError

        args = ["scan", "--n", "1..3", "--bases", "2,3", "--digits", "25", "--format", "json"]
        clean = json.loads(runner.invoke(main, args).output)
        real = series_mod.predicted_correction

        def fail_at_2_3(n, base_m, ctx):
            if (n, base_m) == (2, 3):
                raise ConvergenceError("no convergence at n = 2, m = 3")
            return real(n, base_m, ctx)

        monkeypatch.setattr(series_mod, "predicted_correction", fail_at_2_3)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        rows = json.loads(result.output)
        assert rows[4] == {
            "n": 2, "base": 3, "digits": "", "u": "", "target_rational": "",
            "target_has_pi": "", "delta": "", "r_predicted": "", "residual": "",
            "tail_bounds": "", "pass": False, "error": "no convergence at n = 2, m = 3"}
        assert rows[:4] + rows[5:] == clean[:4] + clean[5:]

    def test_scan_term_cap_fails_only_low_n(self, runner, monkeypatch):
        # at 25 digits u_n(2) needs 265, 135, 91, 69, 56 and 48 terms for n = 1..6
        import almostid.series as series_mod

        args = ["scan", "--n", "1..6", "--digits", "25", "--format", "json"]
        clean = json.loads(runner.invoke(main, args).output)
        monkeypatch.setattr(series_mod, "_MAX_TERMS", 60)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        rows = json.loads(result.output)
        assert [row["pass"] for row in rows] == [False] * 4 + [True] * 2
        for row in rows[:4]:
            assert row["error"].startswith("u_direct needs K = ")
            assert row["error"].endswith(f"terms at n={row['n']}, m=2, over the cap 60")
        assert rows[4:] == clean[4:]

    def test_scan_n_over_cap_gets_its_own_row(self, runner, monkeypatch):
        import almostid.series as series_mod

        monkeypatch.setattr(series_mod, "_MAX_N", 3)
        result = runner.invoke(main, ["scan", "--n", "2..4", "--digits", "30", "--format", "json"])
        assert result.exit_code == 1
        rows = json.loads(result.output)
        assert [row["pass"] for row in rows] == [True, True, False]
        assert rows[2] == {
            "n": 4, "base": 2, "digits": "", "u": "", "target_rational": "",
            "target_has_pi": "", "delta": "", "r_predicted": "", "residual": "",
            "tail_bounds": "", "pass": False,
            "error": "n = 4 is over the cap 3 of verify_identity"}


@pytest.mark.parametrize("args, cause", [
    ("gallery --item hickerson --digits 1", "hickerson13 needs digits >= 2"),
    ("lemma --n 3 --k 0 --u 1e50 --digits 30", "are below the bound 10 h^2"),
    ("lemma --n 3 --k 0 --u 1e20 --digits 30", "are below the bound 10 h^2"),
], ids=["hickerson_digits_1", "lemma_u_1e50", "lemma_u_1e20"])
def test_vacuous_cell_is_usage_error(runner, args, cause):
    # a cell whose row could not fail, or whose verdict the digits cannot
    # resolve, is refused instead of reported
    result = runner.invoke(main, args.split())
    assert result.exit_code == 2
    assert cause in result.output


@pytest.mark.parametrize("u", ["1e4400", "-1e4400"])
def test_lemma_huge_u_is_usage_error(runner, u):
    result = runner.invoke(main, ["lemma", "--n", "3", "--k", "0", "--u", u, "--digits", "30"])
    assert result.exit_code == 2
    assert "n |k - u| <= 1e100" in result.output
