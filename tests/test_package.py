import dataclasses

import liesolve

PUBLIC_NAMES = [
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


def test_public_surface_is_pinned():
    # a name added to or dropped from the package surface shows up here
    assert sorted(liesolve.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(liesolve, name) is not None, name


# The fields of the public record types, in order
RECORD_FIELDS = {
    "CoefficientSet": ("funcs", "d1", "d2"),
    "LieSystemSpec": ("basis", "coeffs", "action", "dim", "rhs", "invariant"),
    "StepperConfig": ("method",),
    "Trajectory": ("times", "points"),
}


def test_record_fields_are_pinned():
    # a setting or a buffer added to or dropped from a record shows up here
    for name, fields in RECORD_FIELDS.items():
        got = tuple(f.name for f in dataclasses.fields(getattr(liesolve, name)))
        assert got == fields, name
