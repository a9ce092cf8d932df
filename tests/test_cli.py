import re
from pathlib import Path

import pytest

from liesolve import cli
from liesolve.cli import main

CLI_REFS = Path(__file__).resolve().parents[1] / "bench" / "cli_refs"


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(";")
    rows = [line.split(";") for line in lines[1:]]
    return header, rows


def test_ck_outputs(tmp_path):
    out = tmp_path / "ck.csv"
    assert main(["ck", "--steps", "10", "--ref-steps", "100", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "x0", "x1", "x2"]
    assert len(rows) == 11
    assert float(rows[0][0]) == 3.0 and float(rows[-1][0]) == 4.0
    assert [float(v) for v in rows[0][1:]] == [1.0, 1.0, 1.0]

    inv = tmp_path / "ck_invariant.csv"
    header, rows = read_csv(inv)
    assert header == ["t", "exact", "geometric", "rk4"]
    assert len(rows) == 11
    geo_drift = max(abs(float(r[2]) - 1.4) for r in rows)
    rk4_drift = max(abs(float(r[3]) - 1.4) for r in rows)
    assert geo_drift <= 1e-9
    assert rk4_drift > 100 * geo_drift


def test_ck_deterministic_reruns(tmp_path):
    out = tmp_path / "ck.csv"
    main(["ck", "--steps", "10", "--ref-steps", "100", "--out", str(out)])
    first = out.read_bytes()
    main(["ck", "--steps", "10", "--ref-steps", "100", "--out", str(out)])
    assert out.read_bytes() == first


def test_ck_bad_reference_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["ck", "--steps", "10", "--ref-steps", "15", "--out", str(tmp_path / "x.csv")])


def test_limit_cycle_default_pairs(tmp_path):
    out = tmp_path / "lc.csv"
    assert main(["limit-cycle", "--out", str(out)]) == 0
    rkmk = tmp_path / "lc_rkmk_h0.1.csv"
    rk4_coarse = tmp_path / "lc_rk4_h0.02.csv"
    rk4_fine = tmp_path / "lc_rk4_h0.01.csv"
    for path in (rkmk, rk4_coarse, rk4_fine):
        header, rows = read_csv(path)
        assert header == ["t", "x", "y", "r2"]
    _, rows = read_csv(rkmk)
    assert len(rows) == 21
    assert max(abs(float(r[3]) - 1.0) for r in rows) <= 1e-12
    _, rows = read_csv(rk4_coarse)
    assert max(abs(float(r[3]) - 1.0) for r in rows) > 1e-3


def test_limit_cycle_single_method(tmp_path):
    out = tmp_path / "lc.csv"
    assert main(["limit-cycle", "--method", "magnus4", "--h", "0.1", "--out", str(out)]) == 0
    _, rows = read_csv(tmp_path / "lc_magnus4_h0.1.csv")
    assert len(rows) == 21


def test_limit_cycle_partial_on_domain_error(tmp_path, capsys):
    out = tmp_path / "lc.csv"
    code = main(
        ["limit-cycle", "--method", "rkmk", "--h", "0.1", "--t1", "5",
         "--x0", "2,0", "--out", str(out)]
    )
    assert code == 0  # partial output is still success
    _, rows = read_csv(tmp_path / "lc_rkmk_h0.1.csv")
    assert 1 <= len(rows) < 51
    assert "partial" in capsys.readouterr().err


def test_limit_cycle_rk4_partial_on_blowup(tmp_path):
    # the run stops at t = 0.15 on a finite point whose r2 overflows; that
    # row is dropped, with no inf cell and no RuntimeWarning
    out = tmp_path / "lc.csv"
    code = main(["limit-cycle", "--x0", "2,0", "--method", "rk4", "--h", "0.01",
                 "--out", str(out)])
    assert code == 0
    lines = (tmp_path / "lc_rk4_h0.01.csv").read_text().splitlines()
    assert len(lines) == 16
    assert all("inf" not in cell for line in lines[1:] for cell in line.split(";"))


def test_limit_cycle_partial_past_group_overflow(tmp_path):
    # the group overflows at t = 6.6; the action fails at step 1 before that.
    # The h = 0.01 RK4 run ends on a finite point at t = 0.15 whose r2
    # overflows, and that row is dropped
    out = tmp_path / "lc.csv"
    code = main(["limit-cycle", "--x0", "2,0", "--t1", "7", "--out", str(out)])
    assert code == 0
    for name, lines in (("rkmk_h0.1", 3), ("rk4_h0.02", 10), ("rk4_h0.01", 16)):
        assert len((tmp_path / f"lc_{name}.csv").read_text().splitlines()) == lines


@pytest.mark.parametrize("flag", [["--h", "0.05"], ["--steps", "20"]])
def test_limit_cycle_step_options_need_a_method(tmp_path, flag):
    # the three default runs each have their own h; a step option is not
    # silently dropped
    with pytest.raises(SystemExit, match="need --method"):
        main(["limit-cycle", *flag, "--out", str(tmp_path / "lc.csv")])
    assert not list(tmp_path.iterdir())


def test_limit_cycle_default_pairs_must_tile(tmp_path):
    # h = 0.1 does not tile [0, 2.05]: no file, where 21 steps of h = 0.1025
    # and 102 of h = 0.020098 were written before
    with pytest.raises(SystemExit, match=r"step size 0.1 does not tile \[0.0, 2.05\]"):
        main(["limit-cycle", "--t1", "2.05", "--out", str(tmp_path / "lc.csv")])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("levels", ["0", "1"])
def test_convergence_rejects_fewer_than_two_levels(tmp_path, monkeypatch, levels):
    # a slope needs two step sizes: rejected before any solve
    solves = []
    monkeypatch.setattr("liesolve.cli.solve", lambda *args: solves.append(args))
    with pytest.raises(SystemExit, match="--levels must be at least 2"):
        main(["convergence", "--levels", levels, "--out", str(tmp_path / "conv.csv")])
    assert solves == []
    assert not list(tmp_path.iterdir())


def test_convergence_slopes(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(
        ["convergence", "--steps", "10", "--levels", "3",
         "--ref-steps", "2000", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["h", "error", "method"]
    slopes = {r[2]: float(r[1]) for r in rows if r[0] == "slope"}
    assert set(slopes) == {"magnus2", "magnus4", "rkmk"}
    assert 1.7 <= slopes["magnus2"] <= 2.3
    assert 3.6 <= slopes["magnus4"] <= 4.4
    assert 3.6 <= slopes["rkmk"] <= 4.4
    data = [r for r in rows if r[0] != "slope"]
    assert len(data) == 9
    assert "fitted order" in capsys.readouterr().out


def test_convergence_single_method(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(
        ["convergence", "--method", "magnus2", "--steps", "10", "--levels", "2",
         "--ref-steps", "2000", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert {r[2] for r in rows} == {"magnus2"}


def test_riccati_check_pass(tmp_path, capsys):
    out = tmp_path / "ric.csv"
    assert main(["riccati-check", "--steps", "500", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "direct", "superposed", "abs_err"]
    assert len(rows) == 501
    assert max(float(r[3]) for r in rows) <= 1e-5
    assert "PASS" in capsys.readouterr().out


def test_riccati_check_fail_exit_code(tmp_path, capsys):
    out = tmp_path / "ric.csv"
    code = main(["riccati-check", "--steps", "500", "--tol", "1e-16", "--out", str(out)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_riccati_check_rejects_repeated_inits(tmp_path):
    with pytest.raises(SystemExit):
        main(["riccati-check", "--x0", "0,0,1,2", "--out", str(tmp_path / "r.csv")])


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_riccati_check_rejects_a_tolerance_that_is_not_a_number_ge_0(tmp_path, monkeypatch, tol):
    # these ran the whole solve, wrote the CSV and reported FAIL
    monkeypatch.setattr(cli, "solve_direct_rk4", None)  # a solve would be a TypeError
    message = re.escape(f"error: --tol must be a number >= 0, got {float(tol)}")
    with pytest.raises(SystemExit, match=f"^{message}$"):
        main(["riccati-check", f"--tol={tol}", "--out", str(tmp_path / "r.csv")])
    assert not list(tmp_path.iterdir())


def test_csv_format_is_semicolon_and_17g(tmp_path):
    out = tmp_path / "ck.csv"
    main(["ck", "--steps", "10", "--ref-steps", "100", "--out", str(out)])
    text = out.read_text()
    assert "," not in text
    # values carry full double precision, not a short rounding
    _, rows = read_csv(out)
    assert any(len(v) > 10 for row in rows[1:] for v in row[1:])


def test_bad_step_size_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["ck", "--h", "0.3", "--out", str(tmp_path / "x.csv")])


# Each subcommand with a step option, and a run that reaches _steps_from_args
_STEP_COMMANDS = {
    "ck": ["ck"],
    "convergence": ["convergence"],
    "limit-cycle": ["limit-cycle", "--method", "rk4"],
    "riccati-check": ["riccati-check"],
}
_FINITE_T = r"--t0 and --t1 must be finite, with a finite span, got "
_BAD_STEP_ARGS = {
    "h-zero": (["--h", "0"], r"--h must be a finite number > 0, got 0.0"),
    "h-negative": (["--h", "-0.1"], r"--h must be a finite number > 0, got -0.1"),
    "h-nan": (["--h", "nan"], r"--h must be a finite number > 0, got nan"),
    "h-inf": (["--h", "inf"], r"--h must be a finite number > 0, got inf"),
    "h-subnormal": (["--h", "5e-324"], r"step size 5e-324 gives too many steps on \["),
    "t1-inf": (["--t1", "inf"], _FINITE_T + r"\[.*, inf\]"),
    "t0-nan": (["--t0", "nan"], _FINITE_T + r"\[nan, "),
    "span-overflows": (["--t0=-1e308", "--t1", "1e308"], _FINITE_T + r"\[-1e\+308, 1e\+308\]"),
}


@pytest.mark.parametrize("case", _BAD_STEP_ARGS)
@pytest.mark.parametrize("command", _STEP_COMMANDS)
def test_step_arguments_are_checked_where_they_enter(tmp_path, command, case):
    # a bad --h, --t0 or --t1 exits with an error line before any solve,
    # where a ZeroDivisionError, OverflowError or "cannot convert float NaN
    # to integer" ended the run before
    bad, message = _BAD_STEP_ARGS[case]
    argv = [*_STEP_COMMANDS[command], *bad, "--out", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit, match=rf"^error: {message}"):
        main(argv)
    assert not list(tmp_path.iterdir())


def test_limit_cycle_default_pairs_reject_a_non_finite_t1(tmp_path):
    with pytest.raises(SystemExit, match=r"^error: --t0 and --t1 must be finite"):
        main(["limit-cycle", "--t1", "inf", "--out", str(tmp_path / "lc.csv")])
    assert not list(tmp_path.iterdir())


def test_rk4_baseline_files_match_the_frozen_references(tmp_path, monkeypatch):
    # the RK4 baseline's bits at default arguments, as bench/cli_refs holds them
    monkeypatch.chdir(tmp_path)
    assert main(["limit-cycle"]) == 0
    assert main(["riccati-check"]) == 0
    for name in ("limit_cycle_rk4_h0.02.csv", "limit_cycle_rk4_h0.01.csv", "riccati_check.csv"):
        assert (tmp_path / name).read_bytes() == (CLI_REFS / name).read_bytes(), name


def test_ck_rejects_a_non_finite_x0(tmp_path, capsys):
    out = tmp_path / "ck.csv"
    assert main(["ck", "--x0", "1,nan,1", "--steps", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: initial point x0 must be finite, got x0=[1.0, nan, 1.0]\n"
    assert not out.exists()
