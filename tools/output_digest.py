"""Digest liesolve's outputs over one fixed sweep, to check that two commits
give the same bits.

    python3 tools/output_digest.py

Run from anywhere; liesolve is imported from the src/ directory next to
this file's tools/.  It runs one fixed sweep and prints one sha256 per case
group, then one over all groups.  Run it at two commits and diff the
output: an equal line means every output of that group is bit for bit the
same at both.  To digest a commit that predates this file, copy the file
into that checkout's tools/ and run it there.

What each case feeds its digest:

* a solve that returns: its times and points, as float64 bytes;
* a mat_exp call that returns: the matrix, as float64 bytes;
* a solve that raises: the error's type name, message and step, and the
  times and points of its partial trajectory when it has one;
* any warning raised during the case: its category and message;
* a CLI command: its return code, stdout, stderr, and the name and bytes of
  every file it wrote.

The groups:

* ck-linear, ck-flow-composition: CK systems with kappa1, kappa2 in
  {-0.5, 0, 0.8} (all nine sign classes) with the stock coefficients on
  [3, 4] at N in {10, 40, 300}, by magnus2, magnus4, rkmk and direct RK4;
* integrate-group: the group solutions Y_k of the nine CK bases and of the
  limit cycle's diagonal basis, at N = 40 by each geometric method;
* limit-cycle: starts inside, on and outside the unit circle, on [0, 2] at
  h = 0.05 and on [0, 7] at h = 0.1, where most outside starts leave the
  action's domain and some group elements overflow;
* errors: inputs that fail, by each geometric method and by direct RK4
  where a system is solved: the stock CK system on [-3, -1.5], where
  b12 = ln(t + 1) has no value; a nan coefficient; an x0 of the wrong
  size; a config that is not a StepperConfig; bad grids (t1 <= t0,
  no steps, 2.5 steps, an infinite t0); the limit cycle with b1 = 1/t on
  [-1, 1] at N = 4, which divides by zero at t = 0; the limit cycle
  with a b1 that raises one stored ValueError, solved twice, the second
  outcome digested; integrate_group on the 1 x 1 basis with b = 100 on
  [0, 10] at N = 10, whose Y overflows at step 7; and the TypeErrors of a
  coefficient that returns None or a 2-vector, of a flow-composition
  extractor that returns None and of an rhs that returns an object(); and
  the limit cycle with a flow that returns complex values and with an
  extractor that returns a complex coordinate;
* mat-exp-n3: matrixcore.mat_exp on random 3 x 3 matrices (the
  Cayley-Hamilton path) at norms from 1e-9 to 10, among them one just
  under each degree bound, so that every Taylor degree 1..12 and squaring
  count 0..6 shows;
* mat-exp-n2-n4-diag: the same sweep at n = 2 and 4 (Horner), and
  diagonal inputs at n = 2, 3 and 4 (the exact path, A = 0 and -0.0 off
  the diagonal included), in a group of their own so that a change to the
  n = 3 path leaves this line as it was;
* cli: the four CLI commands the benchmark runs (ck --ref-steps 100,
  convergence --ref-steps 800, limit-cycle, riccati-check), each in an
  empty temporary directory.

The digests compare commits on one machine, with one Python, one numpy and
one BLAS only.  Floating-point results may differ in their last bits across
BLAS builds, CPUs or library versions, so digests from two machines are not
comparable.  BLAS runs on one thread here, as in the benchmark.  The sweep
takes a few seconds.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from liesolve import cli  # noqa: E402
from liesolve.algebra import AlgebraBasis, CoefficientSet  # noqa: E402
from liesolve.benchmarks import ck_benchmark_coefficients, limit_cycle_system  # noqa: E402
from liesolve.ckspaces import CKParams, ck_generators, ck_lie_system  # noqa: E402
from liesolve.integrators import (  # noqa: E402
    GEOMETRIC_METHODS,
    StepperConfig,
    integrate_group,
)
from liesolve.liesystem import GroupAction, solve, solve_direct_rk4  # noqa: E402
from liesolve.matrixcore import _DEGREE_BOUNDS, mat_exp  # noqa: E402

KAPPAS = (-0.5, 0.0, 0.8)
CK_STEPS = (10, 40, 300)
CK_X0 = (1.0, 0.5, 0.25)
METHODS = GEOMETRIC_METHODS + ("rk4",)
LIMIT_CYCLE_STARTS = ((0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.6, 0.8), (1.0 + 1e-9, 0.0),
                      (0.0, 1.2), (2.0, 0.0))
LIMIT_CYCLE_RUNS = ((0.0, 2.0, 40), (0.0, 7.0, 70))
MAT_EXP_NORMS = (1e-9, 1e-4, 6e-3, 0.05, 0.2, 0.26, 1.0, 1.6, 3.0, 6.0, 10.0) + tuple(
    0.9 * bound for bound in _DEGREE_BOUNDS[:11]
)
CLI_COMMANDS = (
    ["ck", "--ref-steps", "100"],
    ["convergence", "--ref-steps", "800"],
    ["limit-cycle"],
    ["riccati-check"],
)


def _feed(h, *items) -> None:
    """Add items to h, each length-prefixed: arrays as dtype, shape and
    bytes, anything else as its repr."""
    for item in items:
        if isinstance(item, np.ndarray):
            item = np.ascontiguousarray(item)
            data = f"{item.dtype.str}{item.shape}".encode() + item.tobytes()
        else:
            data = repr(item).encode()
        h.update(f"{len(data)}:".encode() + data)


def _outcome(h, label, run) -> None:
    """Feed h the label and the outcome of run(): the trajectory it returns
    or the error it raises, and every warning either way."""
    _feed(h, label)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            traj = run()
        except Exception as err:  # the error is an output like any other
            _feed(h, "error", type(err).__name__, str(err), getattr(err, "step", None))
            partial = getattr(err, "partial", None)
            if partial is not None:
                _feed(h, partial.times, partial.points)
        else:
            if isinstance(traj, np.ndarray):  # a mat_exp case
                _feed(h, "ok", traj)
            else:
                _feed(h, "ok", traj.times, traj.points)
    for w in caught:
        _feed(h, "warning", w.category.__name__, str(w.message))


def _solves(system, x0, t0, t1, n):
    """(label, run) for each of the four methods on one system and grid."""
    for method in METHODS:
        if method == "rk4":
            run = functools.partial(solve_direct_rk4, system, x0, t0, t1, n)
        else:
            run = functools.partial(solve, system, x0, t0, t1, n, StepperConfig(method))
        yield (x0, t0, t1, n, method), run


def _ck_cases(mode):
    coeffs = ck_benchmark_coefficients()
    for k1 in KAPPAS:
        for k2 in KAPPAS:
            system = ck_lie_system(CKParams(k1, k2), coeffs, action_mode=mode)
            for n in CK_STEPS:
                for label, run in _solves(system, CK_X0, 3.0, 4.0, n):
                    yield ((k1, k2), label), run


def _group_cases():
    ck_coeffs = ck_benchmark_coefficients()
    lc = limit_cycle_system(math.sin, math.exp)
    systems = [((k1, k2), ck_generators(CKParams(k1, k2)), ck_coeffs, 3.0, 4.0)
               for k1 in KAPPAS for k2 in KAPPAS]
    systems.append(("limit-cycle", lc.basis, lc.coeffs, 0.0, 2.0))
    for name, basis, coeffs, t0, t1 in systems:
        for method in GEOMETRIC_METHODS:
            config = StepperConfig(method)
            yield (name, method), functools.partial(
                integrate_group, basis, coeffs, config, t0, t1, 40
            )


def _limit_cycle_cases():
    # the CLI's system: b1 = 1 + t^2, b2 = e^t
    system = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    for x0 in LIMIT_CYCLE_STARTS:
        for t0, t1, n in LIMIT_CYCLE_RUNS:
            yield from _solves(system, x0, t0, t1, n)


def _error_cases():
    coeffs = ck_benchmark_coefficients()
    system = ck_lie_system(CKParams(0.8, -0.5), coeffs)
    # b12 = ln(t + 1) is undefined on [-3, -1.5]
    yield from _solves(system, CK_X0, -3.0, -1.5, 10)
    nan = CoefficientSet(funcs=(coeffs.funcs[0], lambda t: math.nan, coeffs.funcs[2]))
    yield from _solves(ck_lie_system(CKParams(0.8, -0.5), nan), CK_X0, 3.0, 4.0, 10)
    yield from _solves(system, CK_X0[:2], 3.0, 4.0, 10)
    yield "config", functools.partial(solve, system, CK_X0, 3.0, 4.0, 10, "rkmk")
    for t0, t1, n in ((4.0, 3.0, 10), (3.0, 4.0, 0), (3.0, 4.0, 2.5), (-math.inf, 4.0, 10)):
        yield from _solves(system, CK_X0, t0, t1, n)
    # b1 = 1/t divides by zero at t = 0, a node of rkmk and RK4 on this grid
    yield from _solves(limit_cycle_system(lambda t: 1 / t, math.exp), (0.5, 0.0), -1.0, 1.0, 4)
    stored = ValueError("no value")

    def no_value(t):
        raise stored

    for label, run in _solves(limit_cycle_system(no_value, math.exp), (0.5, 0.0), 0.0, 1.0, 4):
        yield ("twice",) + label, functools.partial(_second_run, run)
    # Y_k = e^{100 k} overflows first in E_7 Y_7
    line = AlgebraBasis((np.eye(1),), np.zeros((1, 1, 1)))
    hundred = CoefficientSet(funcs=(lambda t: 100.0,))
    for method in GEOMETRIC_METHODS:
        yield ("group overflow", method), functools.partial(
            integrate_group, line, hundred, StepperConfig(method), 0.0, 10.0, 10
        )
    for bad in (lambda t: None, lambda t: np.array([t, t])):
        funcs = CoefficientSet(funcs=(coeffs.funcs[0], bad, coeffs.funcs[2]))
        yield from _solves(ck_lie_system(CKParams(0.8, -0.5), funcs), CK_X0, 3.0, 4.0, 10)
    flows = ck_lie_system(CKParams(0.8, -0.5), coeffs, "flow-composition").action.flows
    no_coords = dataclasses.replace(system, action=GroupAction(flows, lambda g: None))
    yield from _solves(no_coords, CK_X0, 3.0, 4.0, 10)
    no_slope = dataclasses.replace(system, rhs=lambda t, x: object())
    yield "rhs type", functools.partial(solve_direct_rk4, no_slope, CK_X0, 3.0, 4.0, 10)
    lc = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    (f0, f1), lc_extract = lc.action.flows, lc.action.extract
    complex_flow = GroupAction((lambda lam, x: f0(lam, x) + 1j, f1), lc_extract)
    complex_lam = GroupAction((f0, f1), lambda g: tuple(map(complex, lc_extract(g))))
    for action in (complex_flow, complex_lam):
        yield from _solves(dataclasses.replace(lc, action=action), (0.5, 0.0), 0.0, 1.0, 4)


def _mat_exp_cases(sizes):
    """mat_exp on three random n x n matrices at each of MAT_EXP_NORMS."""
    rng = np.random.default_rng(30)
    for n in sizes:
        for norm in MAT_EXP_NORMS:
            for i in range(3):
                a = rng.normal(size=(n, n))
                a *= norm / np.linalg.norm(a)
                yield (n, norm, i), functools.partial(mat_exp, a)


def _diagonal_cases():
    """mat_exp on diagonal inputs: the exact path."""
    for n in (2, 3, 4):
        yield (n, "zero"), functools.partial(mat_exp, np.zeros((n, n)))
        for norm in (1e-9, 0.2, 3.0, 700.0):
            d = np.linspace(-1.0, 1.0, n) * norm
            yield (n, norm), functools.partial(mat_exp, np.diag(d))
            signed = np.diag(d)
            signed[1, 0] = -0.0
            yield (n, norm, "-0.0"), functools.partial(mat_exp, signed)


def _second_run(run):
    """run() after a first run() whose error is dropped: the outcome of an
    error object raised a second time."""
    with contextlib.suppress(Exception):
        run()
    return run()


def _run_cli(h, argv) -> None:
    """Feed h what one CLI command returns, prints, warns and writes, run in
    an empty temporary directory."""
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = cli.main(argv)
        finally:
            os.chdir(here)
        _feed(h, argv, code, out.getvalue(), err.getvalue())
        for w in caught:
            _feed(h, "warning", w.category.__name__, str(w.message))
        for path in sorted(Path(workdir).rglob("*")):
            if path.is_file():
                _feed(h, str(path.relative_to(workdir)), path.read_bytes())


def main() -> int:
    total = hashlib.sha256()
    groups = (
        ("ck-linear", _ck_cases("linear")),
        ("ck-flow-composition", _ck_cases("flow-composition")),
        ("integrate-group", _group_cases()),
        ("limit-cycle", _limit_cycle_cases()),
        ("errors", _error_cases()),
        ("mat-exp-n3", _mat_exp_cases((3,))),
        ("mat-exp-n2-n4-diag", itertools.chain(_mat_exp_cases((2, 4)), _diagonal_cases())),
    )
    for name, cases in groups:
        h = hashlib.sha256()
        count = 0
        for label, run in cases:
            _outcome(h, label, run)
            count += 1
        _report(total, name, count, h)
    h = hashlib.sha256()
    for argv in CLI_COMMANDS:
        _run_cli(h, argv)
    _report(total, "cli", len(CLI_COMMANDS), h)
    print(f"{'total':<20} {'':10} {total.hexdigest()}")
    return 0


def _report(total, name, count, h) -> None:
    digest = h.hexdigest()
    _feed(total, name, digest)
    print(f"{name:<20} {count:4d} cases  {digest}")


if __name__ == "__main__":
    raise SystemExit(main())
