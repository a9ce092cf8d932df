"""Command-line harness: runs the benchmark experiments and writes
semicolon-separated CSV suitable for plotting.

Subcommands:
  ck             curved-space system: trajectory + invariant tracks
  limit-cycle    planar limit-cycle system, geometric vs classical RK4
  convergence    error-vs-h sweep with fitted orders
  riccati-check  superposition-rule reconstruction against direct RK4
"""

import argparse
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .benchmarks import (
    ck_benchmark_coefficients,
    limit_cycle_system,
    riccati_rhs,
    riccati_rho_from_solution,
    riccati_superposition,
)
from .ckspaces import CKParams, ck_invariant, ck_lie_system
from .integrators import GEOMETRIC_METHODS, StepperConfig
from .liesystem import (
    ActionDomainError,
    NonFiniteStateError,
    estimate_order,
    global_error,
    solve,
    solve_direct_rk4,
)


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(";".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _sibling(path: Path, tag: str) -> Path:
    return path.with_name(path.stem + tag + (path.suffix or ".csv"))


def _steps_from_args(args, default_h: float) -> int:
    span = args.t1 - args.t0
    if not math.isfinite(span):  # a t0 or t1 that is not finite, or a span that overflows
        raise SystemExit(f"error: --t0 and --t1 must be finite, with a finite span, "
                         f"got [{args.t0}, {args.t1}]")
    if span <= 0:
        raise SystemExit("error: need t1 > t0")
    if args.steps is not None:
        if args.steps < 1:
            raise SystemExit("error: need at least one step")
        return args.steps
    h = args.h if args.h is not None else default_h
    if not (math.isfinite(h) and h > 0):
        raise SystemExit(f"error: --h must be a finite number > 0, got {h}")
    if not math.isfinite(span / h):  # a subnormal h
        raise SystemExit(f"error: step size {h} gives too many steps on [{args.t0}, {args.t1}]")
    n = round(span / h)
    if n < 1 or abs(n * h - span) > 1e-9 * max(1.0, span):
        raise SystemExit(f"error: step size {h} does not tile [{args.t0}, {args.t1}]")
    return n


def _parse_x0(text: str, dim: int) -> np.ndarray:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != dim:
        raise SystemExit(f"error: --x0 needs {dim} comma-separated values")
    return np.array(vals)


def run_ck(args) -> int:
    ck = CKParams(args.kappa1, args.kappa2)
    coeffs = ck_benchmark_coefficients()
    system = ck_lie_system(ck, coeffs)
    n = _steps_from_args(args, default_h=0.1)
    x0 = _parse_x0(args.x0, 3)
    ref_n = args.ref_steps if args.ref_steps is not None else 1000 * n
    if ref_n < 10 * n:
        raise SystemExit("error: --ref-steps must be at least 10x the step count")
    if ref_n % n:
        raise SystemExit("error: --ref-steps must be a multiple of the step count")

    config = StepperConfig(method=args.method)
    geo = solve(system, x0, args.t0, args.t1, n, config)
    ref = solve(system, x0, args.t0, args.t1, ref_n, StepperConfig(method="magnus4"))
    rk4 = solve_direct_rk4(system, x0, args.t0, args.t1, n)

    out = Path(args.out if args.out else "ck_trajectory.csv")
    _write_csv(
        out,
        "t;x0;x1;x2",
        ([t, p[0], p[1], p[2]] for t, p in zip(geo.times, geo.points)),
    )
    stride = ref_n // n
    inv_rows = [
        [t, ck_invariant(ck, ref.points[k * stride]), ck_invariant(ck, geo.points[k]),
         ck_invariant(ck, rk4.points[k])]
        for k, t in enumerate(geo.times)
    ]
    inv_path = _sibling(out, "_invariant")
    _write_csv(inv_path, "t;exact;geometric;rk4", inv_rows)
    print(f"wrote {out} and {inv_path}")
    return 0


def _limit_cycle_trajectory(system, x0, t0, t1, n, method):
    """The (method, n) run, or its partial trajectory if it stops early."""
    try:
        if method == "rk4":
            return solve_direct_rk4(system, x0, t0, t1, n)
        return solve(system, x0, t0, t1, n, StepperConfig(method=method))
    except (ActionDomainError, NonFiniteStateError) as err:
        print(f"note: {err} (writing partial trajectory)", file=sys.stderr)
        return err.partial


def run_limit_cycle(args) -> int:
    b1 = lambda t: 1.0 + t * t
    b2 = math.exp
    system = limit_cycle_system(b1, b2)
    x0 = _parse_x0(args.x0, 2)
    out = Path(args.out if args.out else "limit_cycle.csv")

    if args.method is not None:
        n = _steps_from_args(args, default_h=0.1)
        pairs = [(args.method, n)]
    elif args.h is not None or args.steps is not None:
        raise SystemExit("error: --h and --steps need --method")
    else:
        # with neither --h nor --steps, each default h must tile the span
        pairs = [(method, _steps_from_args(args, default_h=h))
                 for method, h in (("rkmk", 0.1), ("rk4", 0.02), ("rk4", 0.01))]

    for method, n in pairs:
        h = (args.t1 - args.t0) / n
        traj = _limit_cycle_trajectory(system, x0, args.t0, args.t1, n, method)
        rows = []
        for t, (x, y) in zip(traj.times.tolist(), traj.points.tolist()):
            r2 = x * x + y * y
            if not math.isfinite(r2):
                # a blown-up partial run can end on a finite point whose r2 overflows
                print(f"note: r2 overflows at t={t:g} (dropping that row)", file=sys.stderr)
                break
            rows.append([t, x, y, r2])
        path = _sibling(out, f"_{method}_h{h:g}")
        _write_csv(path, "t;x;y;r2", rows)
        print(f"wrote {path}")
    return 0


def run_convergence(args) -> int:
    if args.levels < 2:
        raise SystemExit("error: --levels must be at least 2 to fit an order")
    ck = CKParams(args.kappa1, args.kappa2)
    system = ck_lie_system(ck, ck_benchmark_coefficients())
    x0 = _parse_x0(args.x0, 3)
    span = args.t1 - args.t0
    base_n = _steps_from_args(args, default_h=0.1)
    ns = [base_n * 2 ** i for i in range(args.levels)]
    ref_n = args.ref_steps if args.ref_steps is not None else round(span / 1e-4)
    for n in ns:
        if ref_n % n:
            raise SystemExit(f"error: reference steps {ref_n} not a multiple of {n}")
    if ref_n < 10 * ns[-1]:
        raise SystemExit("error: reference grid too coarse; raise --ref-steps")
    ref = solve(system, x0, args.t0, args.t1, ref_n, StepperConfig(method="magnus4"))

    methods = [args.method] if args.method else list(GEOMETRIC_METHODS)
    rows = []
    slopes = []
    for method in methods:
        hs, errs = [], []
        for n in ns:
            traj = solve(system, x0, args.t0, args.t1, n, StepperConfig(method=method))
            err = global_error(traj, ref)
            hs.append(span / n)
            errs.append(err)
            rows.append([span / n, err, method])
        slopes.append(["slope", estimate_order(hs, errs), method])
    out = Path(args.out if args.out else "convergence.csv")
    _write_csv(out, "h;error;method", rows + slopes)
    for _, slope, method in slopes:
        print(f"{method}: fitted order {slope:.3f}")
    print(f"wrote {out}")
    return 0


def run_riccati_check(args) -> int:
    if not args.tol >= 0:  # nan too: every comparison with it is False
        raise SystemExit(f"error: --tol must be a number >= 0, got {args.tol}")
    b1 = lambda t: 1.0
    b2 = lambda t: t
    b12 = math.sin
    inits = [float(v) for v in args.x0.split(",")]
    if len(inits) != 4:
        raise SystemExit("error: --x0 needs 4 comma-separated initial values")
    if len(set(inits)) != 4:
        raise SystemExit("error: initial values must be pairwise distinct")
    n = _steps_from_args(args, default_h=1e-3)
    # The four initial values integrate side by side as one 4-vector.
    riccati = SimpleNamespace(rhs=riccati_rhs(b1, b2, b12))
    traj = solve_direct_rk4(riccati, inits, args.t0, args.t1, n)

    rho = riccati_rho_from_solution(inits[0], inits[1], inits[2], inits[3])
    rows = []
    max_err = 0.0
    for t, (x1, x2, x3, x4) in zip(traj.times, traj.points):
        try:
            rebuilt = riccati_superposition(x1, x2, x3, rho)
        except ZeroDivisionError as err:
            raise SystemExit(f"error: superposition degenerate at t={t:g}: {err}")
        err_k = abs(rebuilt - x4)
        max_err = max(max_err, err_k)
        rows.append([t, x4, rebuilt, err_k])
    out = Path(args.out if args.out else "riccati_check.csv")
    _write_csv(out, "t;direct;superposed;abs_err", rows)
    ok = max_err <= args.tol
    print(f"max |direct - superposed| = {max_err:.3e} -> {'PASS' if ok else 'FAIL'} "
          f"(tolerance {args.tol:g})")
    print(f"wrote {out}")
    return 0 if ok else 1


def _add_common(p, methods, *, t0, t1, x0, dim_hint):
    if methods:
        p.add_argument("--method", choices=methods, default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--h", type=float, default=None, help="step size")
    group.add_argument("--steps", type=int, default=None, help="number of steps")
    p.add_argument("--t0", type=float, default=t0)
    p.add_argument("--t1", type=float, default=t1)
    p.add_argument("--x0", default=x0, help=f"initial point, {dim_hint} comma-separated values")
    p.add_argument("--out", default=None, help="output CSV path")


def _add_ck_options(p):
    p.add_argument("--ref-steps", type=int, default=None,
                   help="steps for the fine reference run")
    p.add_argument("--kappa1", type=float, default=0.8)
    p.add_argument("--kappa2", type=float, default=-0.5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liesolve", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ck", help="curved-space trajectory and invariant tracks")
    _add_common(p, GEOMETRIC_METHODS, t0=3.0, t1=4.0, x0="1,1,1", dim_hint=3)
    _add_ck_options(p)
    p.set_defaults(func=run_ck, method="rkmk")

    p = sub.add_parser("limit-cycle", help="circle retention vs escape")
    _add_common(p, GEOMETRIC_METHODS + ("rk4",), t0=0.0, t1=2.0, x0="0,1", dim_hint=2)
    p.set_defaults(func=run_limit_cycle)

    p = sub.add_parser("convergence", help="error-vs-h sweep with fitted orders")
    _add_common(p, GEOMETRIC_METHODS, t0=3.0, t1=4.0, x0="1,1,1", dim_hint=3)
    _add_ck_options(p)
    p.add_argument("--levels", type=int, default=4, help="number of h halvings")
    p.set_defaults(func=run_convergence)

    p = sub.add_parser("riccati-check", help="superposition-rule reconstruction")
    _add_common(p, (), t0=0.0, t1=1.0, x0="0,1,-1,0.5", dim_hint=4)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=run_riccati_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, OSError, ActionDomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
