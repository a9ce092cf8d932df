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
import functools
import hashlib
import io
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
from liesolve.benchmarks import ck_benchmark_coefficients, limit_cycle_system  # noqa: E402
from liesolve.ckspaces import CKParams, ck_generators, ck_lie_system  # noqa: E402
from liesolve.integrators import (  # noqa: E402
    GEOMETRIC_METHODS,
    StepperConfig,
    integrate_group,
)
from liesolve.liesystem import solve, solve_direct_rk4  # noqa: E402

KAPPAS = (-0.5, 0.0, 0.8)
CK_STEPS = (10, 40, 300)
CK_X0 = (1.0, 0.5, 0.25)
METHODS = GEOMETRIC_METHODS + ("rk4",)
LIMIT_CYCLE_STARTS = ((0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.6, 0.8), (1.0 + 1e-9, 0.0),
                      (0.0, 1.2), (2.0, 0.0))
LIMIT_CYCLE_RUNS = ((0.0, 2.0, 40), (0.0, 7.0, 70))
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
