"""Structure-preserving integration of Lie systems on matrix Lie groups."""

from .algebra import (
    AlgebraBasis,
    CoefficientSet,
)
from .integrators import (
    NonFiniteStateError,
    StepperConfig,
    Trajectory,
    integrate_group,
)
from .liesystem import (
    ActionDomainError,
    GroupAction,
    LieSystemSpec,
    estimate_order,
    global_error,
    solve,
    solve_direct_rk4,
)
from .matrixcore import mat_exp

__all__ = [
    "ActionDomainError",
    "AlgebraBasis",
    "CoefficientSet",
    "GroupAction",
    "LieSystemSpec",
    "NonFiniteStateError",
    "StepperConfig",
    "Trajectory",
    "estimate_order",
    "global_error",
    "integrate_group",
    "mat_exp",
    "solve",
    "solve_direct_rk4",
]
