import dataclasses
import math

import numpy as np
import pytest

from liesolve.algebra import AlgebraBasis, CoefficientSet
from liesolve.benchmarks import (
    ck_benchmark_coefficients,
    limit_cycle_system,
    radial_flow,
    rotation_flow,
)
from liesolve.ckspaces import CKParams, ck_exp_closed, ck_invariant, ck_lie_system
from liesolve.integrators import StepperConfig, integrate_group
from liesolve.liesystem import (
    ActionDomainError,
    GroupAction,
    NonFiniteStateError,
    Trajectory,
    estimate_order,
    global_error,
    solve,
    solve_direct_rk4,
)
from liesolve.matrixcore import mat_exp


def ck_setup(mode="linear"):
    ck = CKParams(0.8, -0.5)
    return ck, ck_lie_system(ck, ck_benchmark_coefficients(), action_mode=mode)


def test_solve_zero_coefficients_is_constant():
    ck = CKParams(0.8, -0.5)
    coeffs = CoefficientSet(funcs=(lambda t: 0.0,) * 3)
    system = ck_lie_system(ck, coeffs)
    traj = solve(system, [1.0, 2.0, 3.0], 0.0, 1.0, 10, StepperConfig("rkmk"))
    assert np.allclose(traj.points, [1.0, 2.0, 3.0])


def test_solve_preserves_ck_invariant():
    ck, system = ck_setup()
    traj = solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, StepperConfig("rkmk"))
    for p in traj.points:
        assert abs(ck_invariant(ck, p) - 1.4) <= 1e-9


def test_incremental_equals_cumulative():
    ck, system = ck_setup()
    x0 = np.array([1.0, 1.0, 1.0])
    traj = solve(system, x0, 3.0, 4.0, 10, StepperConfig("rkmk"))
    for y, x in zip(traj.group.elements, traj.points):
        assert np.linalg.norm(y @ x0 - x) <= 1e-9


def test_solve_group_reconstruction():
    _, system = ck_setup()
    traj = solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, StepperConfig("magnus4"))
    for k, w in enumerate(traj.group.increments):
        assert np.linalg.norm(
            mat_exp(w) @ traj.group.elements[k] - traj.group.elements[k + 1]
        ) <= 1e-12


def test_solve_refinement_consistency():
    _, system = ck_setup()
    x0 = [1.0, 1.0, 1.0]
    coarse = solve(system, x0, 3.0, 4.0, 10, StepperConfig("rkmk"))
    fine = solve(system, x0, 3.0, 4.0, 20, StepperConfig("rkmk"))
    diff = np.linalg.norm(coarse.points[-1] - fine.points[-1])
    assert diff <= 1e-4  # both are 4th-order accurate


def test_solve_reports_domain_error_step():
    system = limit_cycle_system(lambda t: 0.0, lambda t: 1.0)
    # starting outside the unit circle, b grows until the radicand dies
    with pytest.raises(ActionDomainError) as excinfo:
        solve(system, [2.0, 0.0], 0.0, 5.0, 50, StepperConfig("rkmk"))
    err = excinfo.value
    assert err.step is not None
    assert err.partial is not None
    assert len(err.partial.times) == len(err.partial.points) == err.step + 1
    group = err.partial.group
    assert len(group.elements) == err.step + 1
    assert len(group.increments) == err.step


def test_solve_stops_group_at_first_action_failure():
    calls = []

    def b1(t):
        calls.append(t)
        return 1.0 + t * t

    system = limit_cycle_system(b1, math.exp)
    with pytest.raises(ActionDomainError) as excinfo:
        solve(system, [2.0, 0.0], 0.0, 7.0, 70, StepperConfig("rkmk"))
    assert excinfo.value.step == 1
    # two group steps, each evaluating the coefficients at the three
    # distinct RK4 stage times; none past the failing step
    assert calls == pytest.approx([0.0, 0.05, 0.1, 0.1, 0.15, 0.2])


@pytest.mark.parametrize("method", ["magnus2", "magnus4", "rkmk"])
def test_solve_group_equals_integrate_group(method):
    _, system = ck_setup()
    config = StepperConfig(method)
    traj = solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, config)
    group = traj.group
    assert traj.points.shape == (11, 3)
    assert group.elements.shape == (11, 3, 3)
    assert group.increments.shape == (10, 3, 3)
    alone = integrate_group(system.basis, system.coeffs, config, 3.0, 4.0, 10)
    assert np.array_equal(group.times, alone.times)
    for field in ("elements", "increments"):
        ours, theirs = getattr(group, field), getattr(alone, field)
        assert len(ours) == len(theirs)
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


def assert_partial_owns_rows(partial, step):
    """The partial of a solve that failed at step k holds copies of k+1
    times, points and elements and of k increments, so that the error keeps
    no full-length buffer alive."""
    rows = {
        "times": (partial.times, step + 1),
        "points": (partial.points, step + 1),
        "elements": (partial.group.elements, step + 1),
        "increments": (partial.group.increments, step),
    }
    for name, (array, count) in rows.items():
        assert len(array) == count, name
        assert array.base is None, name


def test_solve_transports_up_to_group_overflow():
    # Y's second entry is exp(e^t - 1), which overflows at t = 6.6 (step 65)
    system = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    config = StepperConfig("rkmk")
    # an escaping start still stops at its earlier action failure
    with pytest.raises(ActionDomainError) as excinfo:
        solve(system, [2.0, 0.0], 0.0, 7.0, 70, config)
    assert excinfo.value.step == 1
    assert_partial_owns_rows(excinfo.value.partial, 1)
    # a start inside the circle is transported until the group blows up
    with pytest.raises(NonFiniteStateError) as excinfo:
        solve(system, [0.5, 0.0], 0.0, 7.0, 70, config)
    err = excinfo.value
    assert err.step == 65
    assert np.all(np.isfinite(err.partial.points))
    assert_partial_owns_rows(err.partial, 65)


def test_rk4_reports_blowup_step():
    system = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    with pytest.raises(FloatingPointError) as excinfo:
        solve_direct_rk4(system, [2.0, 0.0], 0.0, 2.0, 200)  # h = 0.01
    err = excinfo.value
    assert err.step == 15
    assert len(err.partial.times) == len(err.partial.points) == 16
    assert err.partial.points.base is None
    assert "t=0.15" in str(err)


def test_rk4_needs_at_least_one_step():
    _, system = ck_setup()
    with pytest.raises(ValueError, match="need at least one step"):
        solve_direct_rk4(system, [1.0, 1.0, 1.0], 0.0, 1.0, 0)


def test_rk4_rhs_sees_float_stage_times():
    seen = []

    def rhs(t, x):
        seen.append(t)
        return -x

    system = dataclasses.replace(ck_setup()[1], rhs=rhs)
    traj = solve_direct_rk4(system, [1.0, 1.0, 1.0], 3.0, 4.0, 7)
    h = 1.0 / 7
    assert len(seen) == 4 * 7
    assert all(type(t) is float for t in seen)
    for k, t_k in enumerate(traj.times[:-1]):
        stages = seen[4 * k : 4 * k + 4]
        assert stages == [t_k, t_k + 0.5 * h, t_k + 0.5 * h, t_k + h]


def test_action_identity_and_composition_laws():
    ck, system = ck_setup(mode="flow-composition")
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, 3)
    assert np.allclose(system.action.act(np.eye(3), x), x)
    for _ in range(10):
        lg = rng.uniform(-0.1, 0.1, 3)
        lh = rng.uniform(-0.1, 0.1, 3)
        g = ck_exp_closed(ck, 0, lg[0]) @ ck_exp_closed(ck, 1, lg[1]) @ ck_exp_closed(ck, 2, lg[2])
        h = ck_exp_closed(ck, 0, lh[0]) @ ck_exp_closed(ck, 1, lh[1]) @ ck_exp_closed(ck, 2, lh[2])
        two_step = system.action.act(g, system.action.act(h, x))
        one_step = system.action.act(g @ h, x)
        assert np.linalg.norm(two_step - one_step) <= 1e-10


def test_action_fundamental_field_law():
    ck, system = ck_setup(mode="flow-composition")
    rng = np.random.default_rng(22)
    eps = 1e-6
    for alpha in range(3):
        m = system.basis.generators[alpha]
        for _ in range(5):
            x = rng.uniform(-1, 1, 3)
            plus = system.action.act(mat_exp(eps * m), x)
            minus = system.action.act(mat_exp(-eps * m), x)
            tangent = (plus - minus) / (2 * eps)
            # unit coefficient on generator alpha only
            coeffs = CoefficientSet(
                funcs=tuple((lambda a: (lambda t: 1.0 if a == alpha else 0.0))(a) for a in range(3))
            )
            from liesolve.ckspaces import ck_system_rhs

            assert np.linalg.norm(tangent - ck_system_rhs(ck, coeffs, 0.0, x)) <= 1e-6


def test_rhs_baseline_trivial_and_drifting():
    ck, system = ck_setup()
    zero = ck_lie_system(ck, CoefficientSet(funcs=(lambda t: 0.0,) * 3))
    traj = solve_direct_rk4(zero, [1.0, 2.0, 3.0], 0.0, 1.0, 5)
    assert traj.points.shape == (6, 3)
    assert np.allclose(traj.points, [1.0, 2.0, 3.0])

    rk4 = solve_direct_rk4(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10)
    drift = max(abs(ck_invariant(ck, p) - 1.4) for p in rk4.points)
    assert drift > 1e-7  # the non-geometric baseline leaks the invariant


def test_global_error_trivial_cases():
    t = np.linspace(0.0, 1.0, 6)
    pts = np.zeros((6, 2))
    traj = Trajectory(times=t, points=pts)
    assert global_error(traj, Trajectory(times=t, points=pts.copy())) == 0.0
    other = pts.copy()
    other[3] = [0.3, 0.0]
    assert global_error(traj, Trajectory(times=t, points=other)) == pytest.approx(0.3)


def test_global_error_subsamples_reference():
    t = np.linspace(0.0, 1.0, 3)
    tref = np.linspace(0.0, 1.0, 9)
    traj = Trajectory(times=t, points=np.zeros((3, 1)))
    ref = Trajectory(times=tref, points=np.ones((9, 1)))
    assert global_error(traj, ref) == pytest.approx(1.0)
    bad = Trajectory(times=np.linspace(0.0, 1.0, 8), points=np.zeros((8, 1)))
    with pytest.raises(ValueError):
        global_error(traj, bad)


def test_estimate_order_exact_power_laws():
    hs = [0.1, 0.05, 0.025, 0.0125]
    assert estimate_order(hs, [3.0 * h ** 2 for h in hs]) == pytest.approx(2.0)
    assert estimate_order(hs, [0.7 * h ** 4 for h in hs]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        estimate_order([0.1], [0.1])
    with pytest.raises(ValueError):
        estimate_order([0.1, 0.2], [1.0, 1.0])


def test_estimate_order_on_ck_sweep(ck_reference):
    _, system = ck_setup()
    x0 = [1.0, 1.0, 1.0]
    hs, errs = [], []
    for n in (10, 20, 40, 80):
        traj = solve(system, x0, 3.0, 4.0, n, StepperConfig("rkmk"))
        hs.append(1.0 / n)
        errs.append(global_error(traj, ck_reference))
    assert 3.6 <= estimate_order(hs, errs) <= 4.4
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))


def test_group_action_validation():
    # flows without an extractor of their coordinates, and the reverse
    with pytest.raises(ValueError):
        GroupAction((rotation_flow, radial_flow))
    with pytest.raises(ValueError):
        GroupAction(extract=lambda g: (0.0, 0.0))
    # no flows: the linear action
    x = np.array([1.0, 2.0])
    assert np.array_equal(GroupAction().act(np.diag((2.0, 3.0)), x), [2.0, 6.0])
