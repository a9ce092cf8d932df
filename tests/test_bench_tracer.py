"""The benchmark's tracer (bench/tracer.py, stdlib only) still finds the
library functions it times, and leaves none of them wrapped."""

import importlib.util
import sys
from pathlib import Path

import liesolve.cli  # noqa: F401 (imported by the tracer too, which wraps _write_csv)
from liesolve.algebra import AlgebraBasis
from liesolve.benchmarks import ck_benchmark_coefficients
from liesolve.ckspaces import CKParams, ck_lie_system
from liesolve.integrators import GEOMETRIC_METHODS, StepperConfig
from liesolve.liesystem import GroupAction, solve, solve_direct_rk4

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Targets that bench/tracer.py lists but the library no longer has; their
# per-layer metrics read 0.  The benchmark change of ROADMAP item 1 retargets
# them and updates this list.  A name that turns up here otherwise is a
# function the tracer times that was deleted or renamed.
STALE_TARGETS = [
    "liesolve.algebra.assemble_A_derivatives",
    "liesolve.ckspaces.ck_flow",
    "liesolve.matrixcore.central_second_derivatives",
]


def _namespaces():
    """Copies of every loaded liesolve module namespace and of the two
    classes whose methods the tracer wraps."""
    spaces = [vars(m) for n, m in sys.modules.items() if n.split(".")[0] == "liesolve"]
    return [dict(s) for s in spaces + [vars(AlgebraBasis), vars(GroupAction)]]


def test_tracer_targets_are_live():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    system = ck_lie_system(CKParams(0.8, -0.5), ck_benchmark_coefficients())
    before = _namespaces()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for method in GEOMETRIC_METHODS:
            solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, StepperConfig(method))
        solve_direct_rk4(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10)
    finally:
        tracer.remove()
    assert _namespaces() == before
    assert sorted(tracer.absent) == STALE_TARGETS
    # the step kernels are wrapped where the solves look them up
    assert tracer.stats["integrators.increment"].calls == 30
    assert tracer.stats["integrators.rk4_direct_step"].calls == 10
    assert tracer.stats["matrixcore.mat_exp"].calls == 30
