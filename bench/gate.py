"""The correctness gate: every solve and every CLI file is compared with the
references frozen in ``references.json`` and ``cli_refs/``.

Each check returns a list of failure messages; an empty list means the
output passed.  The margins below are fixed here and are never widened to
make a run pass.
"""

import math

import numpy as np

# A final point may miss the fine-grid reference by the error the frozen
# commit itself made, plus 1 % of that error, plus 1e-10 relative to the
# size of the reference point times the problem's condition number (how much
# it amplifies a relative perturbation of the state: 1 for CK, whose growth
# is already in the size of the point; up to e^{2(e^2-1)} ~ 3.6e5 for a
# limit-cycle start on the unstable circle).  Round-off from reordered
# arithmetic moves a final point by ~1e-13 of that; a change to a method's
# accuracy moves it by far more.
FINAL_REL_MARGIN = 0.01
FINAL_ABS_MARGIN = 1e-10

# Relative invariant drift of a geometric method on CK may reach ten times
# the frozen commit's drift, plus 1e-12.  The frozen drift is round-off
# (1e-16 .. 1e-9 depending on how hyperbolic kappa makes the orbit), so the
# factor absorbs reordered arithmetic while a non-geometric step (drift
# 1e-6 and up) still trips it.
DRIFT_FACTOR = 10.0
DRIFT_ABS_MARGIN = 1e-12

# CLI CSV values are compared with the frozen files.  State columns (times,
# coordinates, invariants) must agree to round-off; columns that are
# themselves small differences (errors, fitted slopes) are compared
# relatively, since reordered round-off moves a 1e-8 error in its 5th digit.
STATE_RTOL, STATE_ATOL = 1e-9, 1e-12
DIFF_RTOL, DIFF_ATOL = 1e-3, 1e-12
DIFF_COLUMNS = ("error", "abs_err")


def ck_invariant(kappa, points) -> np.ndarray:
    """I = x0^2 + k1 x1^2 + k1 k2 x2^2 at every row of points."""
    k1, k2 = kappa
    p = np.asarray(points, dtype=float)
    return p[:, 0] ** 2 + k1 * p[:, 1] ** 2 + k1 * k2 * p[:, 2] ** 2


def relative_drift(kappa, points) -> float:
    inv = ck_invariant(kappa, points)
    return float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))


def final_point_error(x, x_ref) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(x_ref, dtype=float)))


def check_final_point(x, x_ref, seed_err: float, cond: float = 1.0) -> list:
    err = final_point_error(x, x_ref)
    scale = max(1.0, float(np.linalg.norm(x_ref))) * cond
    limit = seed_err * (1.0 + FINAL_REL_MARGIN) + FINAL_ABS_MARGIN * scale
    if not err <= limit:
        return [f"final point misses the reference by {err:.3e} > {limit:.3e}"]
    return []


def check_drift(kappa, points, seed_drift: float) -> list:
    drift = relative_drift(kappa, points)
    limit = DRIFT_FACTOR * seed_drift + DRIFT_ABS_MARGIN
    if not drift <= limit:
        return [f"relative invariant drift {drift:.3e} > {limit:.3e}"]
    return []


def check_ck_solve(entry: dict, method: str, n: int, points) -> list:
    """Final point and, for a geometric method, invariant drift."""
    key = str(n)
    fails = check_final_point(points[-1], entry["x_ref"], entry["seed_err"][method][key])
    if method != "rk4":
        fails += check_drift(entry["kappa"], points, entry["seed_drift"][method][key])
    return fails


def error_step(err: BaseException, t0: float, h: float):
    """The step an error names: its ``step`` attribute, else the ``t=...``
    in its message converted to a step index; None when it names neither."""
    step = getattr(err, "step", None)
    if isinstance(step, int):
        return step
    text = str(err)
    at = text.find("t=")
    if at < 0:
        return None
    num = []
    for ch in text[at + 2:]:
        if ch.isdigit() or ch in "+-.eE":
            num.append(ch)
        else:
            break
    try:
        t = float("".join(num))
    except ValueError:
        return None
    return round((t - t0) / h)


def check_limit_cycle(outcome: dict, t0: float, h: float, points=None, err=None) -> list:
    """A start either finishes near the analytic reference or raises the
    recorded error type at the recorded step."""
    if "error" not in outcome:
        if err is not None:
            return [f"unexpected {type(err).__name__}: {err}"]
        return check_final_point(
            points[-1], outcome["x_ref"], outcome["seed_err"], outcome["cond"]
        )
    if err is None:
        return [f"expected {outcome['error']} at step {outcome['step']}, solve finished"]
    if outcome["error"] not in {c.__name__ for c in type(err).__mro__}:
        return [f"expected {outcome['error']}, got {type(err).__name__}: {err}"]
    step = error_step(err, t0, h)
    if step != outcome["step"]:
        return [f"{outcome['error']} at step {step}, expected step {outcome['step']}"]
    return []


def _parse_csv(text: str):
    lines = text.splitlines()
    return lines[0].split(";"), [line.split(";") for line in lines[1:]]


def check_csv(name: str, text: str, ref_text: str) -> list:
    """Same header, rows and labels as the frozen file; numbers within the
    column's tolerance."""
    header, rows = _parse_csv(text)
    ref_header, ref_rows = _parse_csv(ref_text)
    if header != ref_header:
        return [f"{name}: header {header} differs from {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, expected {len(ref_rows)}"]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref):
            return [f"{name}: row {i + 1} has {len(row)} fields, expected {len(ref)}"]
        # A footer row such as 'slope;<value>;<method>' holds a fitted
        # slope, which is a difference quantity too.
        footer = not _is_number(ref[0])
        for col, (v, r) in enumerate(zip(row, ref)):
            if not _is_number(r):
                if v != r:
                    return [f"{name}: row {i + 1} field {col} is {v!r}, expected {r!r}"]
                continue
            if not _is_number(v):
                return [f"{name}: row {i + 1} field {col} is {v!r}, expected a number"]
            if footer or header[col] in DIFF_COLUMNS:
                rtol, atol = DIFF_RTOL, DIFF_ATOL
            else:
                rtol, atol = STATE_RTOL, STATE_ATOL
            fv, fr = float(v), float(r)
            if not abs(fv - fr) <= atol + rtol * abs(fr):
                return [f"{name}: row {i + 1} field {col} = {v}, frozen {r}"]
    return []


def _is_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False
