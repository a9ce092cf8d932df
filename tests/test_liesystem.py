import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from liesolve.algebra import AlgebraBasis, CoefficientSet
from liesolve.benchmarks import (
    ck_benchmark_coefficients,
    limit_cycle_system,
    radial_flow,
    rotation_flow,
)
from liesolve.ckspaces import (
    CKParams,
    CoordinateChartError,
    ck_exp_closed,
    ck_generators,
    ck_invariant,
    ck_lie_system,
)
from liesolve.integrators import (
    GEOMETRIC_METHODS,
    StepperConfig,
    integrate_group,
    magnus4_increment,
)
from liesolve.liesystem import (
    ActionDomainError,
    GroupAction,
    LieSystemSpec,
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
    group = integrate_group(system.basis, system.coeffs, StepperConfig("rkmk"), 3.0, 4.0, 10)
    for y, x in zip(group.points, traj.points):
        assert np.linalg.norm(y @ x0 - x) <= 1e-9


def test_solve_group_reconstruction():
    _, system = ck_setup()
    traj = solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, StepperConfig("magnus4"))
    # w_k recomputed by the kernel at t_k, with the grid's h
    for k, t_k in enumerate(traj.times[:-1].tolist()):
        t_half = t_k + 0.5 * 0.1
        samples = [system.coeffs.values(t_half), system.coeffs.derivatives(t_half)]
        w = magnus4_increment(system.basis, samples, 0.1)
        x = system.action.act(mat_exp(system.basis.element(w)), traj.points[k])
        assert np.linalg.norm(x - traj.points[k + 1]) <= 1e-12


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


def test_solve_keeps_the_action_error_subtype():
    # one step of [3, 4] leaves the second-kind chart of this CK group: the
    # action's CoordinateChartError (a ValueError too) reaches the caller
    # with the step and the partial trajectory added
    system = ck_lie_system(
        CKParams(-1.0, 1.0), ck_benchmark_coefficients(), action_mode="flow-composition"
    )
    with pytest.raises(CoordinateChartError) as excinfo:
        solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 1, StepperConfig("magnus2"))
    err = excinfo.value
    assert isinstance(err, ValueError)
    assert str(err) == (
        "group action undefined at step 0 (t=3): group element outside the extraction chart"
    )
    assert err.step == 0
    assert len(err.partial.points) == 1


def test_solve_names_the_step_of_an_extractor_count_error():
    # an extractor that returns 2 of 3 coordinates stopped a solve with a
    # bare ValueError, without the step or the time
    system = ck_lie_system(CKParams(0.8, -0.5), ck_benchmark_coefficients(), "flow-composition")
    flows, chart = system.action.flows, system.action.extract
    calls = []

    def extract(g):
        calls.append(g)
        return chart(g) if len(calls) < 3 else chart(g)[:2]

    system = dataclasses.replace(system, action=GroupAction(flows, extract))
    with pytest.raises(ValueError) as excinfo:
        solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, StepperConfig("magnus2"))
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == (
        "group action failed at step 2 (t=3.2): "
        "extracted coordinate count does not match flow count"
    )


class _RecordingAction(GroupAction):
    """The linear action, recording each group element it is handed."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def act(self, g, x):
        self.seen.append(g.copy())
        return super().act(g, x)


@pytest.mark.parametrize("method", ["magnus2", "magnus4", "rkmk"])
def test_solve_group_equals_integrate_group(method):
    # solve moves the point by the group's own E_k: each g it hands the
    # action takes integrate_group's Y_k to its Y_{k+1}, to the bit
    _, system = ck_setup()
    config = StepperConfig(method)
    recording = dataclasses.replace(system, action=_RecordingAction())
    traj = solve(recording, [1.0, 1.0, 1.0], 3.0, 4.0, 10, config)
    assert traj.points.shape == (11, 3)
    assert np.array_equal(traj.points, solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, config).points)
    alone = integrate_group(system.basis, system.coeffs, config, 3.0, 4.0, 10)
    assert np.array_equal(traj.times, alone.times)
    seen = recording.action.seen
    assert len(seen) == 10
    for k, g in enumerate(seen):
        assert np.array_equal(g @ alone.points[k], alone.points[k + 1]), k


def assert_partial_owns_rows(partial, step):
    """The partial of a solve that failed at step k holds copies of k+1
    times and points, so that the error keeps no full-length buffer
    alive."""
    rows = {"times": partial.times, "points": partial.points}
    for name, array in rows.items():
        assert len(array) == step + 1, name
        assert array.base is None, name


def test_solve_runs_past_group_overflow():
    # Y's second entry is exp(e^t - 1), which overflows at t = 6.6 (step 65).
    # solve moves the point by each E_k and never forms Y, so only
    # integrate_group stops there
    system = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    config = StepperConfig("rkmk")
    # an escaping start still stops at its earlier action failure
    with pytest.raises(ActionDomainError) as excinfo:
        solve(system, [2.0, 0.0], 0.0, 7.0, 70, config)
    assert excinfo.value.step == 1
    assert_partial_owns_rows(excinfo.value.partial, 1)
    # a start inside the circle runs to t1, its point shrinking to 0 with
    # the exact solution
    for method in GEOMETRIC_METHODS:
        traj = solve(system, [0.5, 0.0], 0.0, 7.0, 70, StepperConfig(method))
        assert traj.points.shape == (71, 2), method
        assert np.all(np.isfinite(traj.points)), method
        assert np.abs(traj.points[traj.times > 6.5]).max() <= 1e-280, method
    with pytest.raises(NonFiniteStateError) as excinfo:
        integrate_group(system.basis, system.coeffs, config, 0.0, 7.0, 70)
    err = excinfo.value
    assert err.step == 65
    assert np.all(np.isfinite(err.partial.points))
    assert_partial_owns_rows(err.partial, 65)


def _long_arrays_on_traceback(err, step):
    """Names of the frame locals, and attributes of locals, on the
    tracebacks of err and of its causes that are arrays with more than
    step + 1 rows: the (N+1,) time grid as well as the points."""
    found = []
    exc = err
    while exc is not None:
        tb = exc.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            for name, value in frame.f_locals.items():
                attrs = getattr(value, "__dict__", {})
                pairs = [(name, value)] + [(f"{name}.{a}", v) for a, v in attrs.items()]
                for label, v in pairs:
                    if isinstance(v, np.ndarray) and v.ndim >= 1 and len(v) > step + 1:
                        found.append(f"{frame.f_code.co_name}: {label} {v.shape}")
            tb = tb.tb_next
        exc = exc.__cause__ or exc.__context__
    return found


def test_failed_solves_keep_no_full_length_buffer():
    # the traceback keeps every frame a failed solve went through: none of
    # their locals may still hold the (N+1)-row points buffer (manifold
    # points, or integrate_group's Y_k), whatever the type of the error
    system = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    config = StepperConfig("rkmk")
    # under the linear action x_k = (1e308 e^{kh}, 1) overflows at step 4105
    # of h = 1/7000
    basis = AlgebraBasis((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.zeros((2, 2, 2)))
    coeffs = CoefficientSet(funcs=(lambda t: 1.0, lambda t: 0.0))
    growing = LieSystemSpec(basis, coeffs, GroupAction(), 2, rhs=None)
    # b_1 turns nan past t = 3.50005, which rkmk's step 3500 is the first to read
    late_nan = CoefficientSet(
        funcs=(lambda t: math.nan if t > 3.50005 else 1.0, lambda t: 0.5, lambda t: 0.1)
    )
    ck_nan = ck_lie_system(CKParams(0.8, -0.5), late_nan)
    # an extractor that returns 2 of 3 coordinates at step 3
    ck_flows = ck_lie_system(CKParams(0.8, -0.5), ck_benchmark_coefficients(), "flow-composition")
    flows, chart = ck_flows.action.flows, ck_flows.action.extract
    calls = []

    def extract(g):
        calls.append(g)
        return chart(g) if len(calls) <= 3 else chart(g)[:2]

    ck_flows = dataclasses.replace(ck_flows, action=GroupAction(flows, extract))
    # name: (run, the failing step of an error that does not carry one)
    runs = {
        "solve, state overflow": (
            lambda: solve(growing, [1e308, 1.0], 0.0, 1.0, 7000, config), None
        ),
        "solve, action error": (lambda: solve(system, [2.0, 0.0], 0.0, 7.0, 7000, config), None),
        "integrate_group": (
            lambda: integrate_group(system.basis, system.coeffs, config, 0.0, 7.0, 7000), None
        ),
        "solve_direct_rk4": (
            lambda: solve_direct_rk4(system, [2.0, 0.0], 0.0, 7.0, 7000), None
        ),
        "solve, nan coefficient": (
            lambda: solve(ck_nan, [1.0, 1.0, 1.0], 3.0, 4.0, 7000, config), 3500
        ),
        "solve, extractor count": (
            lambda: solve(ck_flows, [1.0, 1.0, 1.0], 3.0, 4.0, 7000, config), 3
        ),
    }
    for name, (run, step) in runs.items():
        with pytest.raises((NonFiniteStateError, ActionDomainError, ValueError)) as excinfo:
            run()
        err = excinfo.value
        if step is None:
            step = err.step
        else:
            assert type(err) is ValueError, name
        assert 0 < step < 6999, name
        assert _long_arrays_on_traceback(err, step) == [], name


def test_solvers_reject_a_config_that_is_not_a_stepper_config():
    # a method name in place of the config ended in "'str' object has no
    # attribute 'method'"; it is rejected before any coefficient is read
    calls = []
    coeffs = CoefficientSet(funcs=(lambda t: calls.append(t) or 0.0,) * 3)
    system = ck_lie_system(CKParams(0.8, -0.5), coeffs)
    runs = [
        lambda c: solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, c),
        lambda c: integrate_group(system.basis, system.coeffs, c, 3.0, 4.0, 10),
    ]
    for run in runs:
        for bad in ("rkmk", None):
            expected = f"^config must be a StepperConfig, got {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=expected):
                run(bad)
    assert calls == []


def test_solve_reports_non_finite_state_step():
    # Y_k = diag(e^{kh}, 1) stays finite while the linear action's
    # x_k = (1e308 e^{kh}, 1) overflows at step 5 of h = 0.1
    basis = AlgebraBasis((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.zeros((2, 2, 2)))
    coeffs = CoefficientSet(funcs=(lambda t: 1.0, lambda t: 0.0))
    system = LieSystemSpec(basis, coeffs, GroupAction(), 2, rhs=None)
    for method in GEOMETRIC_METHODS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as excinfo:
                solve(system, [1e308, 1.0], 0.0, 1.0, 10, StepperConfig(method))
        err = excinfo.value
        assert str(err) == "non-finite state at step 5 (t=0.5)", method
        assert err.step == 5
        assert len(err.partial.points) == 6
        assert np.isfinite(err.partial.points).all()


def test_basis_and_spec_can_be_compared_and_hashed():
    # frozen records promise == and hash; a basis compared its arrays and
    # raised numpy's "truth value ... ambiguous", and hash() a TypeError.
    # A basis compares by identity, a spec by its fields
    ck, system = ck_setup()
    basis = system.basis
    assert basis == basis
    assert basis != ck_generators(ck)
    assert hash(basis) == hash(basis)
    assert system == dataclasses.replace(system)
    assert len({system, system, dataclasses.replace(system)}) == 1


def test_solve_checks_the_initial_point_dimension():
    _, system = ck_setup()
    for x0 in ([1.0, 1.0], [[1.0, 1.0, 1.0]]):
        with pytest.raises(ValueError, match="^initial point must have dimension 3$"):
            solve(system, x0, 3.0, 4.0, 2, StepperConfig("magnus2"))


def test_solvers_reject_a_non_finite_initial_point():
    # rejected where x0 enters, before any step: not blamed on step 0
    _, system = ck_setup()
    runs = [lambda x0: solve_direct_rk4(system, x0, 3.0, 4.0, 10)]
    runs += [
        lambda x0, m=m: solve(system, x0, 3.0, 4.0, 10, StepperConfig(m))
        for m in GEOMETRIC_METHODS
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            for bad in (math.nan, math.inf, -math.inf):
                expected = rf"^initial point x0 must be finite, got x0=\[1.0, {bad}, 1.0\]$"
                with pytest.raises(ValueError, match=expected) as excinfo:
                    run([1.0, bad, 1.0])
                assert not isinstance(excinfo.value, NonFiniteStateError)


def test_solve_direct_rk4_checks_the_initial_point_dimension():
    # as solve does, before step 0: not an unpacking error inside the rhs
    _, system = ck_setup()
    for x0 in ([1.0, 1.0], [[1.0, 1.0, 1.0]]):
        with pytest.raises(ValueError, match="^initial point must have dimension 3$"):
            solve_direct_rk4(system, x0, 3.0, 4.0, 10)
    # an rhs without a system has no dim: any shape is stepped
    decay = SimpleNamespace(rhs=lambda t, x: -x)
    for x0 in (1.0, [1.0, 2.0], [[1.0], [2.0]]):
        traj = solve_direct_rk4(decay, x0, 0.0, 1.0, 2)
        assert traj.points.shape == (3,) + np.shape(x0)


def test_coefficient_and_rhs_errors_name_their_step():
    # b12 = ln(t + 1) is undefined on [-3, -1.5]: math's ValueError at step 0
    _, system = ck_setup()
    runs = [
        (lambda m=m: solve(system, [1.0, 1.0, 1.0], -3.0, -1.5, 10, StepperConfig(m)),
         "coefficients")
        for m in GEOMETRIC_METHODS
    ]
    runs.append((lambda: solve_direct_rk4(system, [1.0, 1.0, 1.0], -3.0, -1.5, 10), "rhs"))
    for run, what in runs:
        expected = rf"^{what} failed at step 0 \(t=-3\): math domain error$"
        with pytest.raises(ValueError, match=expected) as excinfo:
            run()
        assert type(excinfo.value) is ValueError
        assert getattr(excinfo.value, "step", None) is None


def _failing_after(t_bad, raised):
    """CK coefficients that are 0 up to t_bad and raise a fresh ValueError
    past it, each one appended to raised."""

    def b(t):
        if t > t_bad:
            raised.append(ValueError(f"no value at t={t}"))
            raise raised[-1]
        return 0.0

    return CoefficientSet(funcs=(b, b, b))


def test_a_failing_coefficient_keeps_its_error_object():
    # h = 0.25: step 0's samples reach t = 0.25 at most, step 1's pass it
    for method in GEOMETRIC_METHODS:
        raised = []
        system = ck_lie_system(CKParams(0.8, -0.5), _failing_after(0.25, raised))
        runs = (
            lambda: solve(system, [1.0, 1.0, 1.0], 0.0, 1.0, 4, StepperConfig(method)),
            lambda: integrate_group(system.basis, system.coeffs, StepperConfig(method), 0.0, 1.0, 4),
        )
        for run in runs:
            with pytest.raises(ValueError, match=r"^coefficients failed at step 1 \(t=0.25\): ") as excinfo:
                run()
            assert excinfo.value is raised[-1], method
    raised = []
    system = ck_lie_system(CKParams(0.8, -0.5), _failing_after(0.25, raised))
    with pytest.raises(ValueError, match=r"^rhs failed at step 1 \(t=0.25\): no value at t=0.375$") as excinfo:
        solve_direct_rk4(system, [1.0, 1.0, 1.0], 0.0, 1.0, 4)
    assert excinfo.value is raised[-1]


def test_a_zero_division_names_its_step():
    # b1 = 1/t on [-1, 1] at N = 4: rkmk's sample at t_1 + h = 0 and RK4's
    # last stage there divide by zero (the Magnus nodes miss t = 0); the
    # error ended both solves bare, without its step
    raised = []

    def inverse(t):
        try:
            return 1 / t
        except ZeroDivisionError as err:
            raised.append(err)
            raise

    system = limit_cycle_system(inverse, math.exp)
    runs = (
        (lambda: solve(system, [0.5, 0.0], -1.0, 1.0, 4, StepperConfig("rkmk")), "coefficients"),
        (lambda: solve_direct_rk4(system, [0.5, 0.0], -1.0, 1.0, 4), "rhs"),
    )
    for run, what in runs:
        with pytest.raises(ZeroDivisionError) as excinfo:
            run()
        assert excinfo.value is raised[-1]
        assert type(excinfo.value) is ZeroDivisionError
        assert str(excinfo.value) == f"{what} failed at step 1 (t=-0.5): float division by zero"
        assert getattr(excinfo.value, "step", None) is None


def test_solve_names_the_step_of_a_zero_division_in_the_action():
    system = ck_lie_system(CKParams(0.8, -0.5), ck_benchmark_coefficients(), "flow-composition")
    flows, chart = system.action.flows, system.action.extract
    calls = []

    def extract(g):
        calls.append(g)
        return chart(g) if len(calls) < 3 else [x / 0.0 for x in chart(g)]

    system = dataclasses.replace(system, action=GroupAction(flows, extract))
    with pytest.raises(ZeroDivisionError) as excinfo:
        solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, StepperConfig("magnus2"))
    assert type(excinfo.value) is ZeroDivisionError
    assert str(excinfo.value) == "group action failed at step 2 (t=3.2): float division by zero"


def test_an_extractor_of_the_wrong_type_names_its_step():
    # an extractor that returns None ended the solve in a bare TypeError
    # from len(); it keeps its type, as a ValueError of the action does
    system = ck_lie_system(CKParams(0.8, -0.5), ck_benchmark_coefficients(), "flow-composition")
    system = dataclasses.replace(system, action=GroupAction(system.action.flows, lambda g: None))
    with pytest.raises(TypeError) as excinfo:
        solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 10, StepperConfig("magnus2"))
    assert type(excinfo.value) is TypeError
    assert str(excinfo.value) == (
        "group action failed at step 0 (t=3): object of type 'NoneType' has no len()"
    )


def test_an_rhs_of_the_wrong_type_names_its_step():
    # an rhs that returns an object() ended RK4 in a bare TypeError from
    # float(); it keeps its type, as a ValueError of the rhs does
    system = SimpleNamespace(rhs=lambda t, x: object())
    with pytest.raises(TypeError) as excinfo:
        solve_direct_rk4(system, [0.5, 0.0], 0.0, 1.0, 4)
    assert type(excinfo.value) is TypeError
    assert str(excinfo.value).startswith("rhs failed at step 0 (t=0): float() argument must be")


def test_solve_direct_rk4_reports_overflow_without_a_warning():
    # the rhs overflows in numpy at step 0's second stage: the typed step
    # error, not the RuntimeWarning, also with warnings turned into errors
    system = SimpleNamespace(rhs=lambda t, x: x * 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError) as excinfo:
            solve_direct_rk4(system, np.array([1.0, 1.0]), 0.0, 1.0, 4)
    assert excinfo.value.step == 0
    assert excinfo.value.partial.points.tolist() == [[1.0, 1.0]]


def test_solvers_reject_a_complex_initial_point():
    # np.asarray(x0, dtype=float) dropped the imaginary part with only a
    # ComplexWarning and solved from the real part
    _, system = ck_setup()
    runs = [lambda x0: solve_direct_rk4(system, x0, 3.0, 4.0, 10)]
    runs += [
        lambda x0, m=m: solve(system, x0, 3.0, 4.0, 10, StepperConfig(m))
        for m in GEOMETRIC_METHODS
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for run in runs:
            for x0 in (np.array([1.0, 1j, 1.0]), [1.0, 1.0 + 0j, 1.0]):
                expected = "^initial point x0 must be real, got complex entries$"
                with pytest.raises(TypeError, match=expected):
                    run(x0)
    assert caught == []


def test_complex_flow_output_and_coordinates_raise():
    # np.asarray(flow(lam, x), dtype=float) dropped the imaginary part with
    # only a ComplexWarning, and solve went on from the real part
    system = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    flows, extract = system.action.flows, system.action.extract
    complex_flow = (lambda lam, x: flows[0](lam, x) + 1j, flows[1])

    def complex_coordinates(g):
        lam1, lam2 = extract(g)
        return lam1, complex(lam2)

    cases = [
        (GroupAction(complex_flow, extract), "flow output must be real, got complex entries"),
        (GroupAction(flows, complex_coordinates), "extracted coordinate must be real, got ("),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for action, message in cases:
            broken = dataclasses.replace(system, action=action)
            for method in GEOMETRIC_METHODS:
                with pytest.raises(TypeError) as excinfo:
                    solve(broken, [0.5, 0.0], 0.0, 1.0, 4, StepperConfig(method))
                assert type(excinfo.value) is TypeError
                prefix = "group action failed at step 0 (t=0): "
                assert str(excinfo.value).startswith(prefix + message)
    assert caught == []


def test_a_reused_error_names_only_its_latest_step():
    # one stored ValueError raised by every call: each solve rewrote the
    # message of the same object, so the second read "coefficients failed
    # at step 0 (t=0): coefficients failed at step 0 (t=0): no value"
    stored = ValueError("no value")

    def fail(_):
        raise stored

    system = limit_cycle_system(fail, math.exp)
    runs = [
        (lambda m=m: solve(system, [0.5, 0.0], 0.0, 1.0, 4, StepperConfig(m)),
         "coefficients failed at step 0 (t=0)")
        for m in GEOMETRIC_METHODS
    ]
    runs.append((lambda: solve_direct_rk4(system, [0.5, 0.0], 0.0, 1.0, 4),
                 "rhs failed at step 0 (t=0)"))
    ck = ck_lie_system(CKParams(0.8, -0.5), ck_benchmark_coefficients(), "flow-composition")
    ck = dataclasses.replace(ck, action=GroupAction(ck.action.flows, fail))
    runs.append((lambda: solve(ck, [1.0, 1.0, 1.0], 3.0, 4.0, 4, StepperConfig("magnus2")),
                 "group action failed at step 0 (t=3)"))
    for run, prefix in runs:
        for _ in range(2):
            with pytest.raises(ValueError) as excinfo:
                run()
            assert excinfo.value is stored
            assert str(stored) == f"{prefix}: no value"


@pytest.mark.parametrize("method", GEOMETRIC_METHODS)
def test_solve_reports_increment_overflow(method):
    # w = h b = 10 * 1e308 overflows: a typed step error with the partial
    # trajectory, as when exp(W_k) overflows
    z = lambda t: 0.0
    coeffs = CoefficientSet(funcs=(lambda t: 1e308, z, z), d1=(z,) * 3, d2=(z,) * 3)
    system = ck_lie_system(CKParams(0.8, -0.5), coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError, match=r"at step 0 \(t=0\)") as excinfo:
            solve(system, [1.0, 1.0, 1.0], 0.0, 10.0, 1, StepperConfig(method))
    err = excinfo.value
    assert err.step == 0
    assert err.partial.points.tolist() == [[1.0, 1.0, 1.0]]


@pytest.mark.parametrize("mode", ["linear", "flow-composition"])
def test_symmetric_solves_return_to_x0(mode):
    # a solve over [3, 4], then the time-reversed equation over [3, 4] from
    # x(4), with b~(s) = -b(7 - s), b~'(s) = b'(7 - s), b~''(s) = -b''(7 - s):
    # the Magnus methods are symmetric, so the second solve undoes the first
    # to rounding, with or without analytic derivatives; rkmk on the RK4
    # tableau and direct RK4 are not, and return only to their order
    coeffs = ck_benchmark_coefficients()
    flip = lambda funcs, sign: [lambda s, f=f: sign * f(7.0 - s) for f in funcs]
    back = CoefficientSet(flip(coeffs.funcs, -1.0), flip(coeffs.d1, 1.0), flip(coeffs.d2, -1.0))
    analytic = (coeffs, back)
    free = tuple(CoefficientSet(funcs=c.funcs) for c in analytic)
    x0 = np.array([1.0, 1.0, 1.0])

    def round_trip(method, sets, n):
        there, back = (ck_lie_system(CKParams(0.8, -0.5), c, mode) for c in sets)
        if method == "rk4":
            run = lambda system, x: solve_direct_rk4(system, x, 3.0, 4.0, n).points[-1]
        else:
            config = StepperConfig(method)
            run = lambda system, x: solve(system, x, 3.0, 4.0, n, config).points[-1]
        return np.linalg.norm(run(back, run(there, x0)) - x0) / np.linalg.norm(x0)

    for n in (40, 160):
        for method, sets in (("magnus2", analytic), ("magnus4", analytic), ("magnus4", free)):
            assert round_trip(method, sets, n) <= 1e-14, (method, sets is free, n)
    assert round_trip("rkmk", analytic, 40) >= 1e-10
    assert round_trip("rk4", analytic, 40) >= 1e-6


def test_solve_reports_magnus4_h_cubed_overflow():
    # h = 1e103 overflows magnus4's h ** 3 on a Python float: a typed step
    # error with the partial trajectory, not a bare OverflowError
    z = lambda t: 0.0
    coeffs = CoefficientSet(funcs=(lambda t: 1e-200, z, z), d1=(z,) * 3, d2=(z,) * 3)
    system = ck_lie_system(CKParams(0.8, -0.5), coeffs)
    with pytest.raises(NonFiniteStateError, match=r"^non-finite increment at step 0 \(t=0\)$") as excinfo:
        solve(system, [1.0, 1.0, 1.0], 0.0, 1e103, 1, StepperConfig("magnus4"))
    err = excinfo.value
    assert err.step == 0
    assert isinstance(err.__cause__, OverflowError)
    assert err.partial.times.tolist() == [0.0]
    assert err.partial.points.tolist() == [[1.0, 1.0, 1.0]]


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


def _solver_runs():
    """run(t0, t1, n=3) over n steps of the CK system, for every solver."""
    _, system = ck_setup()
    x0 = [1.0, 1.0, 1.0]
    runs = [lambda t0, t1, n=3: solve_direct_rk4(system, x0, t0, t1, n)]
    runs += [
        lambda t0, t1, n=3, m=m: solve(system, x0, t0, t1, n, StepperConfig(m))
        for m in GEOMETRIC_METHODS
    ]
    runs.append(
        lambda t0, t1, n=3: integrate_group(
            system.basis, system.coeffs, StepperConfig("rkmk"), t0, t1, n
        )
    )
    return runs


def test_solvers_reject_a_non_integer_step_count():
    # 2.5 steps made integrate_group's grid [0, 0.4, 0.8, 1.2], past t1, and
    # the solvers failed in np.empty; an integer of numpy's type still works
    for run in _solver_runs():
        for n in (2.5, 3.0, np.float64(2.5)):
            expected = f"^n_steps must be an integer, got {re.escape(repr(n))}$"
            with pytest.raises(TypeError, match=expected):
                run(0.0, 1.0, n)
        assert np.array_equal(run(0.0, 1.0, np.int64(3)).times, run(0.0, 1.0, 3).times)


def test_solvers_reject_non_finite_endpoints():
    # rejected before a grid is built: no nan grid, no numpy warning, and the
    # error names t0 and t1, not a coefficient; an empty or reversed span is
    # rejected there too, which is what lets the steps take h > 0 unchecked
    runs = _solver_runs()
    ends = [(0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (0.0, np.float64(math.inf))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            for t0, t1 in ends:
                with pytest.raises(ValueError, match=r"t0 and t1 must be finite, got t0="):
                    run(t0, t1)
            for t0, t1 in ((1.0, 1.0), (1.0, 0.0)):
                with pytest.raises(ValueError, match="^t1 must exceed t0$"):
                    run(t0, t1)


def test_solvers_reject_overflowing_span():
    # finite endpoints whose span t1 - t0 overflows get the non-finite
    # endpoint error before h = inf can make a nan grid; the numpy
    # RuntimeWarning that grid would print is an error under the
    # error::RuntimeWarning:liesolve filter
    ends = [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)), (-1e308, np.float64(1.7e308))]
    for run in _solver_runs():
        for t0, t1 in ends:
            with pytest.raises(ValueError, match=r"t0 and t1 must be finite, got .*t1 - t0=inf"):
                run(t0, t1)


def test_rk4_rhs_sees_float_stage_times():
    # with float and with np.float64 endpoints alike
    for t0, t1 in ((3.0, 4.0), (np.float64(3.0), np.float64(4.0))):
        seen = []

        def rhs(t, x):
            seen.append(t)
            return -x

        system = dataclasses.replace(ck_setup()[1], rhs=rhs)
        traj = solve_direct_rk4(system, [1.0, 1.0, 1.0], t0, t1, 7)
        h = 1.0 / 7
        assert len(seen) == 4 * 7
        assert all(type(t) is float for t in seen), type(t0)
        for k, t_k in enumerate(traj.times[:-1]):
            stages = seen[4 * k : 4 * k + 4]
            assert stages == [t_k, t_k + 0.5 * h, t_k + 0.5 * h, t_k + h]


def test_geometric_steps_hand_coefficients_floats():
    # funcs, d1 and d2 see Python floats at every stage time, with float and
    # with np.float64 endpoints alike
    base = ck_benchmark_coefficients()
    for t0, t1 in ((3.0, 4.0), (np.float64(3.0), np.float64(4.0))):
        seen = {"funcs": [], "d1": [], "d2": []}

        def recorded(name):
            def wrap(f):
                return lambda t: seen[name].append(t) or f(t)

            return tuple(map(wrap, getattr(base, name)))

        coeffs = CoefficientSet(recorded("funcs"), recorded("d1"), recorded("d2"))
        system = ck_lie_system(CKParams(0.8, -0.5), coeffs)
        for method in GEOMETRIC_METHODS:
            for times in seen.values():
                times.clear()
            traj = solve(system, [1.0, 1.0, 1.0], t0, t1, 7, StepperConfig(method))
            h = 1.0 / 7
            t_k = traj.times[:-1].tolist()
            stages = {t + 0.5 * h for t in t_k}
            if method == "rkmk":
                stages |= set(t_k) | {t + h for t in t_k}
            assert set(seen["funcs"]) == stages, method
            if method == "magnus4":
                assert set(seen["d1"]) == set(seen["d2"]) == stages
            every = seen["funcs"] + seen["d1"] + seen["d2"]
            assert all(type(t) is float for t in every), (method, type(t0))


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


def test_global_error_accepts_a_refinement_far_from_zero():
    # a 240-step grid subsampled to 24 steps differs from the 24-step grid
    # by one ulp of t0 (3.7e-9 here), past a fixed 1e-9
    decay = SimpleNamespace(rhs=lambda t, x: -x)
    t0 = -25366129.697604313
    t1 = t0 + 2.2109250577728403
    coarse, fine = (solve_direct_rk4(decay, [1.0], t0, t1, n) for n in (24, 240))
    gap = np.max(np.abs(fine.times[::10] - coarse.times))
    assert gap == math.ulp(t0) and gap > 1e-9
    assert global_error(coarse, fine) == np.max(np.abs(fine.points[::10] - coarse.points))


def test_global_error_rejects_a_shifted_reference():
    # the tolerance grows with |t| by a few ulps, not enough to pass a grid
    # shifted by a fraction of a step, far from t = 0 or near it
    decay = SimpleNamespace(rhs=lambda t, x: -x)
    for t0, shift in ((-25366129.697604313, 1e-6), (1e9, 1e-5), (0.0, 1e-8)):
        t1 = t0 + 2.2109250577728403
        coarse = solve_direct_rk4(decay, [1.0], t0, t1, 24)
        shifted = solve_direct_rk4(decay, [1.0], t0 + shift, t1 + shift, 240)
        with pytest.raises(ValueError, match="^time grids disagree after subsampling$"):
            global_error(coarse, shifted)


def test_estimate_order_exact_power_laws():
    hs = [0.1, 0.05, 0.025, 0.0125]
    assert estimate_order(hs, [3.0 * h ** 2 for h in hs]) == pytest.approx(2.0)
    assert estimate_order(hs, [0.7 * h ** 4 for h in hs]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        estimate_order([0.1], [0.1])
    with pytest.raises(ValueError):
        estimate_order([0.1, 0.2], [1.0, 1.0])


def test_global_error_rejects_a_trajectory_without_steps():
    # a step-0 partial has one point: it was a ZeroDivisionError as the
    # trajectory, and "slice step cannot be zero" as the reference
    one = Trajectory(times=np.array([0.0]), points=np.zeros((1, 2)))
    full = Trajectory(times=np.linspace(0.0, 1.0, 3), points=np.zeros((3, 2)))
    expected = "^trajectory and reference need at least one step each$"
    for traj, ref in ((one, full), (full, one), (one, one)):
        with pytest.raises(ValueError, match=expected):
            global_error(traj, ref)


def test_global_error_rejects_points_of_different_shapes():
    # an (11, 1) reference broadcast against (11, 3) points and gave 1.732
    t = np.linspace(0.0, 1.0, 11)
    three = Trajectory(times=t, points=np.zeros((11, 3)))
    one = Trajectory(times=t, points=np.ones((11, 1)))
    with pytest.raises(ValueError, match=r"^points of shape \(3,\) against a reference of shape \(1,\)$"):
        global_error(three, one)
    with pytest.raises(ValueError, match=r"^points of shape \(1,\) against a reference of shape \(3,\)$"):
        global_error(one, three)


def test_global_error_takes_the_norm_of_each_flattened_state():
    # scalar states raised numpy's AxisError, and integrate_group's Y_k would
    # get their largest column norm in place of the Frobenius norm
    decay = SimpleNamespace(rhs=lambda t, x: -x)
    coarse, fine = (solve_direct_rk4(decay, 1.0, 0.0, 1.0, n) for n in (10, 20))
    assert coarse.points.shape == (11,)
    assert global_error(coarse, fine) == np.max(np.abs(fine.points[::2] - coarse.points))
    basis, coeffs = ck_generators(CKParams(0.8, -0.5)), ck_benchmark_coefficients()
    coarse, fine = (
        integrate_group(basis, coeffs, StepperConfig("magnus2"), 3.0, 4.0, n) for n in (10, 20)
    )
    expected = max(np.linalg.norm(fine.points[2 * k] - coarse.points[k], "fro") for k in range(11))
    assert global_error(coarse, fine) == pytest.approx(expected, rel=1e-14)


def test_estimate_order_rejects_non_finite_errors():
    # a nan or inf error, or an inf h, made the fitted order nan without a word
    hs = [0.1, 0.05, 0.025]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^errors must be finite and positive$"):
            estimate_order(hs, [1e-3, bad, 1e-5])
    with pytest.raises(ValueError, match="^h values must be finite, positive and strictly"):
        estimate_order([math.inf, 0.1], [1.0, 0.5])


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


def test_spec_checks_arity_like_integrate_group():
    coeffs = CoefficientSet(funcs=(math.cos, math.sin))
    with pytest.raises(ValueError, match="^coefficient arity 2 != basis rank 3$"):
        LieSystemSpec(ck_generators(CKParams(0.8, -0.5)), coeffs, GroupAction(), 3, rhs=None)


def test_spec_checks_the_linear_action_dimension():
    # a dim other than the matrix size failed at step 0 with a bare matmul
    # error; the flow-composition action is not tied to the matrix size
    with pytest.raises(ValueError, match="^the linear action needs dim = 3, got 2$"):
        dataclasses.replace(ck_setup()[1], dim=2)
    assert dataclasses.replace(ck_setup("flow-composition")[1], dim=2).dim == 2


def test_spec_checks_the_flow_count():
    # 2 flows for a rank-3 basis built, and solve ended at step 0 in a bare
    # "extracted coordinate count does not match flow count", with no step
    system = ck_setup("flow-composition")[1]
    action = GroupAction(system.action.flows[:2], system.action.extract)
    with pytest.raises(ValueError, match="^the flow-composition action needs 3 flows, got 2$"):
        dataclasses.replace(system, action=action)


def test_group_action_validation():
    # flows without an extractor of their coordinates, and the reverse
    with pytest.raises(ValueError):
        GroupAction((rotation_flow, radial_flow))
    with pytest.raises(ValueError):
        GroupAction(extract=lambda g: (0.0, 0.0))
    # no flows: the linear action
    x = np.array([1.0, 2.0])
    assert np.array_equal(GroupAction().act(np.diag((2.0, 3.0)), x), [2.0, 6.0])
    # an extractor that returns fewer coordinates than there are flows
    action = GroupAction((rotation_flow, radial_flow), extract=lambda g: (0.0,))
    with pytest.raises(ValueError, match="^extracted coordinate count does not match flow count$"):
        action.act(np.eye(2), x)
