import liesolve

PUBLIC_NAMES = [
    "ActionDomainError",
    "AlgebraBasis",
    "CoefficientSet",
    "GroupAction",
    "GroupTrajectory",
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


def test_public_surface_is_pinned():
    # a name added to or dropped from the package surface shows up here
    assert sorted(liesolve.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(liesolve, name) is not None, name
