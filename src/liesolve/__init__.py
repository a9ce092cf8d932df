"""Structure-preserving integration of Lie systems on matrix Lie groups."""

from .algebra import (
    AlgebraBasis,
    CoefficientSet,
    assemble_A,
    dexpinv,
)
from .integrators import (
    GroupTrajectory,
    NonFiniteStateError,
    StepperConfig,
    integrate_group,
    magnus2_increment,
    magnus4_increment,
    rk4_direct_step,
    rkmk_increment,
)
from .liesystem import (
    ActionDomainError,
    GroupAction,
    LieSystemSpec,
    Trajectory,
    estimate_order,
    global_error,
    solve,
    solve_direct_rk4,
)
from .matrixcore import (
    commutator,
    mat_exp,
)

__all__ = [
    "ActionDomainError",
    "AlgebraBasis",
    "CoefficientSet",
    "GroupAction",
    "GroupTrajectory",
    "LieSystemSpec",
    "NonFiniteStateError",
    "StepperConfig",
    "Trajectory",
    "assemble_A",
    "commutator",
    "dexpinv",
    "estimate_order",
    "global_error",
    "integrate_group",
    "magnus2_increment",
    "magnus4_increment",
    "mat_exp",
    "rk4_direct_step",
    "rkmk_increment",
    "solve",
    "solve_direct_rk4",
]
