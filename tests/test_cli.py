import numpy as np
import pytest

from liesolve.cli import main


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
    out = tmp_path / "lc.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["limit-cycle", "--x0", "2,0", "--method", "rk4", "--h", "0.01",
                     "--out", str(out)])
    assert code == 0
    assert len((tmp_path / "lc_rk4_h0.01.csv").read_text().splitlines()) == 17


def test_limit_cycle_partial_past_group_overflow(tmp_path):
    # the group overflows at t = 6.6; the action fails at step 1 before that
    out = tmp_path / "lc.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["limit-cycle", "--x0", "2,0", "--t1", "7", "--out", str(out)])
    assert code == 0
    for name, lines in (("rkmk_h0.1", 3), ("rk4_h0.02", 10), ("rk4_h0.01", 17)):
        assert len((tmp_path / f"lc_{name}.csv").read_text().splitlines()) == lines


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
