"""Fixtures shared across the test modules."""

import math

import numpy as np
import pytest

from liesolve.algebra import AlgebraBasis, CoefficientSet
from liesolve.benchmarks import ck_benchmark_coefficients
from liesolve.ckspaces import CKParams, ck_generators, ck_lie_system
from liesolve.integrators import StepperConfig, integrate_group
from liesolve.liesystem import solve


@pytest.fixture(scope="session")
def ck_reference():
    """The 10^4-step Magnus-4 solve of the benchmark CK system
    (kappa = (0.8, -0.5), x0 = (1, 1, 1), t in [3, 4]).

    Several tests measure coarse solves against it; it is built once per
    session and must not be modified."""
    system = ck_lie_system(CKParams(0.8, -0.5), ck_benchmark_coefficients())
    return solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10000, StepperConfig("magnus4"))


@pytest.fixture(scope="session")
def ck_group_reference():
    """The group side of ck_reference: integrate_group over the same
    10^4 Magnus-4 steps.  Built once per session; must not be modified."""
    basis = ck_generators(CKParams(0.8, -0.5))
    return integrate_group(
        basis, ck_benchmark_coefficients(), StepperConfig("magnus4"), 3.0, 4.0, 10000
    )


def _sl2_system():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    coeffs = CoefficientSet(
        funcs=(math.cos, lambda t: t, lambda t: math.exp(-t)),
        d1=(lambda t: -math.sin(t), lambda t: 1.0, lambda t: -math.exp(-t)),
        d2=(lambda t: -math.cos(t), lambda t: 0.0, lambda t: math.exp(-t)),
    )
    return AlgebraBasis.from_generators((e, f, h)), coeffs


def _diagonal_system():
    basis = AlgebraBasis((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.zeros((2, 2, 2)))
    coeffs = CoefficientSet(
        funcs=(lambda t: 1.0 + t * t, math.exp),
        d1=(lambda t: 2.0 * t, math.exp),
        d2=(lambda t: 2.0, math.exp),
    )
    return basis, coeffs


_COORDINATE_SYSTEMS = {
    "ck-hyperbolic": lambda: (ck_generators(CKParams(-0.7, -1.3)), ck_benchmark_coefficients()),
    "ck-flat": lambda: (ck_generators(CKParams(0.0, 0.0)), ck_benchmark_coefficients()),
    "ck-elliptic": lambda: (ck_generators(CKParams(0.8, 0.5)), ck_benchmark_coefficients()),
    "ck-mixed": lambda: (ck_generators(CKParams(0.8, -0.5)), ck_benchmark_coefficients()),
    "sl2": _sl2_system,
    "diagonal": _diagonal_system,
}


@pytest.fixture(params=sorted(_COORDINATE_SYSTEMS))
def coordinate_system(request):
    """(basis, coefficients with analytic derivatives) over CK bases with
    kappa < 0, = 0, > 0 and mixed, sl(2) from its generators (n = 2) and
    the abelian diagonal basis."""
    return _COORDINATE_SYSTEMS[request.param]()
