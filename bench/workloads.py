"""The workloads' parts: what one pass over a workload's batch runs, and
how its outputs are checked afterwards.

Every call goes through a module attribute (``liesystem.solve``, not a name
imported from it), so the tracer's wrappers, installed in the liesolve
namespaces, see the calls the benchmark makes.
"""

import contextlib
import functools
import inspect
import io
import math
import os
from pathlib import Path
from time import perf_counter

import numpy as np

from liesolve import benchmarks, ckspaces, cli, integrators, liesystem

import gate
from pools import CLI_COMMANDS, CLI_REFS, METHODS
from tracer import rebind, unbind

WARMUP_STEPS = 10


class PassResult:
    """What one pass did: per-method µs/step samples, CLI call times, the
    steps taken, and one deferred check per operation."""

    def __init__(self):
        self.us_per_step = {m: [] for m in METHODS}
        self.cli_s = {}
        self.steps = 0
        self.checks = []
        self.elapsed = 0.0

    def check(self) -> list:
        """Run the deferred checks: one message per failed operation."""
        fails = []
        for check in self.checks:
            msgs = check()
            if msgs:
                fails.append("; ".join(msgs))
        return fails


def ck_coefficients(count=None):
    """The paper's CK coefficients b1 = t^2, b2 = sin t, b12 = ln(t+1) with
    analytic derivatives; count wraps every callable with a call counter."""
    base = benchmarks.ck_benchmark_coefficients()
    if count is None:
        return base
    wrap = lambda fs: None if fs is None else tuple(map(count, fs))  # noqa: E731
    return type(base)(funcs=wrap(base.funcs), d1=wrap(base.d1), d2=wrap(base.d2))


def ck_system(entry, action_mode, count=None):
    ck = ckspaces.CKParams(*entry["kappa"])
    return ckspaces.ck_lie_system(ck, ck_coefficients(count), action_mode)


def limit_cycle(count=None):
    """The CLI's limit-cycle system: b1 = 1 + t^2, b2 = e^t."""
    b1, b2 = (lambda t: 1.0 + t * t), math.exp
    if count is not None:
        b1, b2 = count(b1), count(b2)
    return benchmarks.limit_cycle_system(b1, b2)


def call_method(method, system, x0, t0, t1, n):
    if method == "rk4":
        return liesystem.solve_direct_rk4(system, x0, t0, t1, n)
    return liesystem.solve(system, x0, t0, t1, n, integrators.StepperConfig(method))


def timed_solve(res: PassResult, method, system, x0, t0, t1, n):
    """One solve: (points, error).  A solve that finishes adds a µs/step
    sample; one that raises adds none, since it did fewer than n steps."""
    start = perf_counter()
    try:
        traj = call_method(method, system, x0, t0, t1, n)
    except Exception as err:  # checked against the recorded outcome later
        res.steps += _steps_done(err, t0, (t1 - t0) / n)
        return None, err
    res.us_per_step[method].append((perf_counter() - start) * 1e6 / n)
    res.steps += n
    return traj.points, None


def _steps_done(err, t0, h):
    step = gate.error_step(err, t0, h)
    return 0 if step is None else step + 1


def _unexpected(err):
    return [f"unexpected {type(err).__name__}: {err}"]


# --- ck-sweep, ck-long and the CK half of local-actions ---------------------


def _ck_batch(res, systems, section, action_mode, ns, count):
    t0, t1 = section["t0"], section["t1"]
    for entry in systems:
        system = ck_system(entry, action_mode, count)
        for n in ns:
            for method in METHODS:
                points, err = timed_solve(res, method, system, entry["x0"], t0, t1, n)
                if err is not None:
                    res.checks.append(functools.partial(_unexpected, err))
                else:
                    res.checks.append(
                        functools.partial(gate.check_ck_solve, entry, method, n, points)
                    )


def _limit_cycle_batch(res, starts, section, count):
    t0, t1, n = section["t0"], section["t1"], section["n"]
    system = limit_cycle(count)
    for entry in starts:
        for method in METHODS:
            with np.errstate(over="ignore", invalid="ignore"):
                points, err = timed_solve(res, method, system, entry["x0"], t0, t1, n)
            res.checks.append(
                functools.partial(
                    gate.check_limit_cycle,
                    entry["outcome"][method],
                    t0,
                    (t1 - t0) / n,
                    points,
                    err,
                )
            )


# --- cli-experiments --------------------------------------------------------


@contextlib.contextmanager
def _cli_solve_timers(res: PassResult):
    """Time the solves the CLI makes, wherever liesolve binds the solvers."""
    undo = []
    for name in ("solve", "solve_direct_rk4"):
        orig = getattr(liesystem, name, None)
        if orig is not None:
            undo += rebind(orig, _timing_wrapper(orig, name == "solve_direct_rk4", res))
    try:
        yield
    finally:
        unbind(undo)


def _timing_wrapper(orig, is_rk4, res):
    sig = inspect.signature(orig)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        out = orig(*args, **kwargs)
        elapsed = perf_counter() - start
        bound = sig.bind(*args, **kwargs).arguments
        n = bound.get("n_steps")
        method = "rk4" if is_rk4 else getattr(bound.get("config"), "method", None)
        if isinstance(n, int) and method in res.us_per_step:
            res.us_per_step[method].append(elapsed * 1e6 / n)
            res.steps += n
        return out

    return wrapper


def _cli_batch(res, commands, workdir: Path, first_bytes: dict):
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with _cli_solve_timers(res):
            for command in commands:
                sink = io.StringIO()
                start = perf_counter()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = cli.main(CLI_COMMANDS[command][0])
                except Exception as err:  # a crash is a failed operation
                    code = err
                res.cli_s[command] = perf_counter() - start
                res.checks.append(
                    functools.partial(
                        _check_cli, command, code, workdir, sink.getvalue(), first_bytes
                    )
                )
    finally:
        os.chdir(here)


def _check_cli(command, code, workdir: Path, output: str, first_bytes: dict):
    if code != 0:
        return [f"cli {command} returned {code!r}: {output.strip()[-300:]}"]
    fails = []
    for fname in CLI_COMMANDS[command][1]:
        path = workdir / fname
        if not path.is_file():
            fails.append(f"cli {command} did not write {fname}")
            continue
        data = path.read_bytes()
        fails += gate.check_csv(fname, data.decode(), (CLI_REFS / fname).read_text())
        first = first_bytes.setdefault(fname, data)
        if data != first:
            fails.append(f"cli {command}: {fname} differs from this run's first invocation")
    return fails


# --- the workload table ------------------------------------------------------


class Workload:
    """One workload's inputs (by part), references and run state."""

    def __init__(self, inputs, refs, workdir=None):
        self.inputs = inputs
        self.refs = refs
        self.workdir = workdir
        # The bytes of every CLI file at its first invocation in this run;
        # later invocations must reproduce them exactly.
        self.first_bytes = {}

    def run_pass(self, tracer=None) -> PassResult:
        """One timed pass over the batch; the checks are deferred so that
        their cost stays out of the pass time."""
        res = PassResult()
        count = tracer.count if tracer is not None else None
        refs = self.refs
        start = perf_counter()
        for part, inputs in self.inputs.items():
            if part == "ck-sweep":
                sec = refs["ck_sweep"]
                _ck_batch(res, inputs["systems"], sec, "linear", sec["ns"], count)
            elif part == "ck-long":
                sec = refs["ck_long"]
                _ck_batch(res, inputs["systems"], sec, "linear", (sec["n"],), count)
            elif part == "local-actions":
                sec = refs["local_ck"]
                _ck_batch(res, inputs["systems"], sec, "flow-composition", (sec["n"],), count)
                _limit_cycle_batch(res, inputs["starts"], refs["local_lc"], count)
            else:
                _cli_batch(res, inputs["commands"], self.workdir, self.first_bytes)
        res.elapsed = perf_counter() - start
        return res

    def build_systems(self):
        """The workload's fixed systems, as a user builds them before solving."""
        systems = []
        for part, inputs in self.inputs.items():
            if part == "cli-experiments":
                cli.build_parser()
                systems += [ck_system({"kappa": (0.8, -0.5)}, "linear"), limit_cycle()]
            elif part == "local-actions":
                systems += [ck_system(e, "flow-composition") for e in inputs["systems"]]
                systems.append(limit_cycle())
            else:
                systems += [ck_system(e, "linear") for e in inputs["systems"]]
        return systems


def warm_up(systems):
    """One short solve per method on the first system."""
    system = systems[0]
    x0 = np.ones(system.dim)
    for method in METHODS:
        call_method(method, system, x0, 3.0, 4.0, WARMUP_STEPS)
