"""Fixtures shared across the test modules."""

import pytest

from liesolve.benchmarks import ck_benchmark_coefficients
from liesolve.ckspaces import CKParams, ck_lie_system
from liesolve.integrators import StepperConfig
from liesolve.liesystem import solve


@pytest.fixture(scope="session")
def ck_reference():
    """The 10^4-step Magnus-4 solve of the benchmark CK system
    (kappa = (0.8, -0.5), x0 = (1, 1, 1), t in [3, 4]), with its group.

    Several tests measure coarse solves against it; it is built once per
    session and must not be modified."""
    system = ck_lie_system(CKParams(0.8, -0.5), ck_benchmark_coefficients())
    return solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10000, StepperConfig("magnus4"))
