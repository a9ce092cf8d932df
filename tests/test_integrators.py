import math
import warnings

import numpy as np
import pytest

from liesolve import integrators
from liesolve.algebra import AlgebraBasis, CoefficientSet, _dexpinv_series
from liesolve.benchmarks import ck_benchmark_coefficients, limit_cycle_system, riccati_rhs
from liesolve.ckspaces import CKParams, ck_generators, ck_lie_system
from liesolve.integrators import (
    _RK4_WEIGHTS,
    GEOMETRIC_METHODS,
    NonFiniteStateError,
    StepperConfig,
    _magnus4_from_values,
    integrate_group,
    magnus2_increment,
    magnus4_increment,
    rk4_direct_step,
    rkmk_increment,
)
from liesolve.liesystem import solve
from liesolve.matrixcore import commutator, mat_exp


def constant_basis_coeffs(m, value=1.0):
    basis = AlgebraBasis((m,), np.zeros((1, 1, 1)))
    coeffs = CoefficientSet(funcs=(lambda t: value,))
    return basis, coeffs


def diagonal_basis():
    return AlgebraBasis(
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.zeros((2, 2, 2))
    )


def values_only(method, coeffs):
    """Whether a step of method on coeffs runs on b alone although its
    analytic path takes b' and b'': magnus4 on a set without them."""
    return method == "magnus4" and coeffs.d1 is None


def samples(method, coeffs, t, h):
    """What a step of method from t samples, at node times written out by
    hand: b at t + h/2 for magnus2, with (b', b'') there for magnus4 on
    analytic derivatives, and b at t, t + h/2 and t + h for rkmk and for
    magnus4 without them."""
    if method == "magnus2":
        return [coeffs.values(t + 0.5 * h)]
    if method == "magnus4" and not values_only(method, coeffs):
        return [coeffs.values(t + 0.5 * h), coeffs.derivatives(t + 0.5 * h)]
    return [coeffs.values(t), coeffs.values(t + 0.5 * h), coeffs.values(t + h)]


KERNELS = {"magnus2": magnus2_increment, "magnus4": magnus4_increment, "rkmk": rkmk_increment}


def increment(method, basis, coeffs, t, h):
    """w of the kernel a step of method from t runs, on its samples."""
    kernel = _magnus4_from_values if values_only(method, coeffs) else KERNELS[method]
    return kernel(basis, samples(method, coeffs, t, h), h)


def a_matrix(basis, coeffs, t):
    """A(t) = sum_a b_a(t) M_a."""
    return basis.element(np.array(coeffs.values(t)))


def test_stepper_config_truncation_rule():
    # RKMK truncates dexp-inverse at p - 2 = 2 for its RK4 tableau: the
    # method is the only setting, and no truncation knob is left to set
    for method in GEOMETRIC_METHODS:
        assert StepperConfig(method).method == method
    with pytest.raises(TypeError):
        StepperConfig("rkmk", truncation_order=3)
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        StepperConfig(method="bogus")


def test_magnus2_constant_field():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    w = increment("magnus2", basis, coeffs, 0.0, 0.1)
    assert np.allclose(w, [0.1])
    assert np.allclose(basis.element(w), 0.1 * m)


def test_magnus2_midpoint_evaluation():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    w = increment("magnus2", basis, coeffs, 3.0, 0.1)
    assert np.asarray(w).shape == (3,)
    assert np.allclose(basis.element(w), 0.1 * a_matrix(basis, coeffs, 3.05), atol=1e-15)


def test_magnus2_small_h_limit():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    a_norm = np.linalg.norm(a_matrix(basis, coeffs, 3.0))
    for h in (1e-4, 1e-6):
        w = increment("magnus2", basis, coeffs, 3.0, h)
        assert np.linalg.norm(basis.element(w)) / h == pytest.approx(a_norm, rel=1e-3)


def test_magnus4_constant_and_abelian():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    w = increment("magnus4", basis, coeffs, 0.3, 0.1)
    assert np.allclose(basis.element(w), 0.1 * m, atol=1e-9)

    lin = CoefficientSet(funcs=(lambda t: t,), d1=(lambda t: 1.0,), d2=(lambda t: 0.0,))
    basis = AlgebraBasis((m,), np.zeros((1, 1, 1)))
    w = increment("magnus4", basis, lin, 0.2, 0.1)
    assert np.allclose(basis.element(w), 0.1 * (0.2 + 0.05) * m, atol=1e-14)


def test_magnus4_analytic_vs_derivative_free():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    analytic = ck_benchmark_coefficients()
    free = CoefficientSet(funcs=analytic.funcs)
    w_a = increment("magnus4", basis, analytic, 3.0, 0.1)
    w_free = increment("magnus4", basis, free, 3.0, 0.1)
    assert np.abs(basis.element(w_a) - basis.element(w_free)).max() <= 1e-6


def test_derivative_free_magnus4_is_simpson_on_an_abelian_basis():
    # every bracket is 0, so w is Simpson's rule on the step's three
    # samples, to the bit: h (b_0 + 4 b_1/2 + b_1)/6 in that order
    basis = diagonal_basis()
    coeffs = CoefficientSet(funcs=(lambda t: 1.0 + t * t, math.exp))
    for t, h in ((0.3, 0.1), (1.0, 0.01), (3.0, 1e-3)):
        b0, b_half, b1 = (coeffs.values(s) for s in (t, t + 0.5 * h, t + h))
        simpson = [h * (x + 4.0 * m + y) / 6.0 for x, m, y in zip(b0, b_half, b1)]
        assert increment("magnus4", basis, coeffs, t, h) == simpson, (t, h)


def test_rkmk_constant_field_any_table():
    m = np.array([[0.0, 2.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    w = increment("rkmk", basis, coeffs, 0.0, 0.1)
    assert np.allclose(basis.element(w), 0.1 * m, atol=1e-14)


def test_rkmk_first_stage_is_field_at_tk():
    # stage 1 has Theta_1 = 0, so F_1 = b(t_k); with coefficients that vanish
    # at t_k + h/2 and t_k + h every later stage is 0, and the increment is
    # F_1's share h b(t_k) / 6
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    bench = ck_benchmark_coefficients()
    coeffs = CoefficientSet(funcs=tuple(
        (lambda t, f=f: f(t) if t == 3.0 else 0.0) for f in bench.funcs
    ))
    w = increment("rkmk", basis, coeffs, 3.0, 0.1)
    assert np.allclose(w, 0.1 / 6.0 * np.array(bench.values(3.0)), rtol=1e-15, atol=0.0)


def test_rkmk_abelian_matches_scalar_rk4_quadrature():
    basis = diagonal_basis()
    coeffs = CoefficientSet(funcs=(lambda t: 1 + t * t, math.exp))
    t_k, h = 0.4, 0.05
    w = increment("rkmk", basis, coeffs, t_k, h)
    # scalar RK4 on d(omega)/dt = b(t) for each diagonal entry
    for idx, b in enumerate(coeffs.funcs):
        k1 = b(t_k)
        k2 = b(t_k + h / 2)
        k3 = b(t_k + h / 2)
        k4 = b(t_k + h)
        expected = h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert w[idx] == pytest.approx(expected, abs=1e-15)


def test_rkmk_abelian_is_numpy_weighted_sum_to_the_bit():
    # criterion 9 (the limit cycle on the diagonal group, h = 0.1 on [0, 2])
    # keeps its 1e-12 drift on the repelling unit circle only by rounding:
    # its drift is 3.8e-14, while a 1-ulp change to w_1 gives 3.6e-11.  On an
    # abelian basis every bracket is 0, so w must be numpy's RK4 weighted
    # sum of b at the nodes, bit for bit
    basis = diagonal_basis()
    coeffs = CoefficientSet(funcs=(lambda t: 1.0 + t * t, math.exp))
    b = coeffs.values
    h = 0.1
    for t in (h * np.arange(20)).tolist():
        expected = h * (_RK4_WEIGHTS @ np.array([b(t), b(t + h / 2), b(t + h / 2), b(t + h)]))
        assert np.array_equal(increment("rkmk", basis, coeffs, t, h), expected), t


def _logging_coeffs(log, analytic):
    """The stock CK coefficients (r = 3), every function appending
    (kind, t) to log; without analytic derivatives if not analytic."""
    stock = ck_benchmark_coefficients()

    def logged(kind, funcs):
        return tuple((lambda t, f=f: log.append((kind, t)) or f(t)) for f in funcs)

    if not analytic:
        return CoefficientSet(funcs=logged("b", stock.funcs))
    return CoefficientSet(
        funcs=logged("b", stock.funcs), d1=logged("d1", stock.d1), d2=logged("d2", stock.d2)
    )


def test_each_method_samples_its_nodes():
    # one step from t = 3 with h = 0.1 on r = 3 coefficients: where each
    # method samples b (and b', b''), and how many calls it makes
    basis = ck_generators(CKParams(0.8, -0.5))
    t, h = 3.0, 3.1 - 3.0
    mid = t + 0.5 * h
    nodes = {("b", t), ("b", mid), ("b", t + h)}
    cases = [
        ("magnus2", True, {("b", mid)}, 3),
        ("magnus4", True, {("b", mid), ("d1", mid), ("d2", mid)}, 9),
        ("magnus4", False, nodes, 9),
        ("rkmk", True, nodes, 9),
    ]
    for method, analytic, expected, calls in cases:
        log = []
        integrate_group(basis, _logging_coeffs(log, analytic), StepperConfig(method), t, 3.1, 1)
        assert set(log) == expected, (method, analytic)
        assert len(log) == calls, (method, analytic)


def test_integrate_group_zero_field():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    basis = AlgebraBasis((m,), np.zeros((1, 1, 1)))
    coeffs = CoefficientSet(funcs=(lambda t: 0.0,))
    traj = integrate_group(basis, coeffs, StepperConfig("magnus2"), 0.0, 1.0, 5)
    assert len(traj.times) == len(traj.points) == 6
    for y in traj.points:
        assert np.array_equal(y, np.eye(2))


@pytest.mark.parametrize("method", ["magnus2", "magnus4", "rkmk"])
def test_integrate_group_checks_arity(method):
    basis = ck_generators(CKParams(0.8, -0.5))
    coeffs = CoefficientSet(funcs=(math.cos, math.sin))
    with pytest.raises(ValueError, match="coefficient arity 2 != basis rank 3"):
        integrate_group(basis, coeffs, StepperConfig(method), 0.0, 1.0, 4)


def test_integrate_group_constant_field_exact():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    traj = integrate_group(basis, coeffs, StepperConfig("magnus2"), 0.0, 0.1, 1)
    assert np.allclose(traj.points[-1], mat_exp(0.1 * m), atol=1e-14)


def test_integrate_group_reconstruction_invariant():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    traj = integrate_group(basis, coeffs, StepperConfig("rkmk"), 3.0, 4.0, 10)
    assert len(traj.times) == len(traj.points) == 11
    # w_k recomputed by the kernel at t_k, with the grid's h
    for k, t_k in enumerate(traj.times[:-1].tolist()):
        w = increment("rkmk", basis, coeffs, t_k, 0.1)
        rebuilt = mat_exp(basis.element(w)) @ traj.points[k]
        assert np.array_equal(rebuilt, traj.points[k + 1])
        assert np.linalg.norm(rebuilt - traj.points[k + 1]) <= 1e-12


def test_integrate_group_reports_overflow_step():
    basis, coeffs = constant_basis_coeffs(np.array([[1.0]]), value=100.0)
    # Y_{k+1} = e^{100 (k+1)} overflows first at k = 7, in E_k.dot(Y_k):
    # the typed error of any moved state, not numpy's RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError) as excinfo:
            integrate_group(basis, coeffs, StepperConfig("magnus2"), 0.0, 10.0, 10)
    err = excinfo.value
    assert err.step == 7
    assert str(err) == "non-finite state at step 7 (t=7)"
    group = err.partial
    assert len(group.times) == len(group.points) == 8
    assert np.all(np.isfinite(group.points[-1]))


def test_integrate_group_reports_exp_overflow_step():
    # exp(W_0) overflows at W_0 = diag(800, 0), and at ||W_0||_F = 1e200 on
    # the diagonal and on the Taylor path of mat_exp
    cases = [
        (diagonal_basis(), CoefficientSet(funcs=(lambda t: 800.0, lambda t: 0.0))),
        (diagonal_basis(), CoefficientSet(funcs=(lambda t: 1e200, lambda t: 0.0))),
        constant_basis_coeffs(np.array([[1.0, 1.0], [0.0, 0.0]]), value=1e200),
    ]
    for basis, coeffs in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as excinfo:
                integrate_group(basis, coeffs, StepperConfig("magnus2"), 0.0, 1.0, 1)
        err = excinfo.value
        assert err.step == 0
        assert isinstance(err.__cause__, FloatingPointError)
        assert len(err.partial.times) == len(err.partial.points) == 1


@pytest.mark.parametrize(
    "bad", [lambda t: None, lambda t: np.array([t, t])], ids=["None", "vector"]
)
def test_a_coefficient_of_the_wrong_type_names_its_step(bad):
    # float() of None or of a 2-vector raised a bare TypeError, without the
    # step that sampled it; it keeps its type, as a ValueError does
    coeffs = ck_benchmark_coefficients()
    coeffs = CoefficientSet(funcs=(coeffs.funcs[0], bad, coeffs.funcs[2]))
    system = ck_lie_system(CKParams(0.8, -0.5), coeffs)
    for method in GEOMETRIC_METHODS:
        runs = (
            lambda: solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 4, StepperConfig(method)),
            lambda: integrate_group(system.basis, coeffs, StepperConfig(method), 3.0, 4.0, 4),
        )
        for run in runs:
            with pytest.raises(TypeError) as excinfo:
                run()
            assert type(excinfo.value) is TypeError, method
            assert str(excinfo.value).startswith("coefficients failed at step 0 (t=3): "), method


@pytest.mark.parametrize("method", GEOMETRIC_METHODS)
def test_integrate_group_reports_increment_overflow(method):
    # w = h b = 10 * 1e308 overflows before exp(W_0) is formed: the typed
    # step error, not mat_exp's ValueError for non-finite entries
    z = lambda t: 0.0
    coeffs = CoefficientSet(funcs=(lambda t: 1e308, z, z), d1=(z,) * 3, d2=(z,) * 3)
    basis = ck_generators(CKParams(0.8, -0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError, match=r"at step 0 \(t=0\)") as excinfo:
            integrate_group(basis, coeffs, StepperConfig(method), 0.0, 10.0, 1)
    err = excinfo.value
    assert err.step == 0
    assert len(err.partial.times) == len(err.partial.points) == 1


def test_integrate_group_reports_magnus4_h_cubed_overflow():
    # magnus4's h ** 3 overflows a Python float (OverflowError) for
    # h = 1e103: the typed step error with the cut partial, where magnus2,
    # rkmk and derivative-free magnus4, which forms no power of h alone,
    # step on, since w stays finite for b = (1e-200, 0, 0)
    z = lambda t: 0.0
    coeffs = CoefficientSet(funcs=(lambda t: 1e-200, z, z), d1=(z,) * 3, d2=(z,) * 3)
    basis = ck_generators(CKParams(0.8, -0.5))
    with pytest.raises(NonFiniteStateError, match=r"^non-finite increment at step 0 \(t=0\)$") as excinfo:
        integrate_group(basis, coeffs, StepperConfig("magnus4"), 0.0, 1e103, 1)
    err = excinfo.value
    assert err.step == 0
    assert isinstance(err.__cause__, OverflowError)
    assert len(err.partial.times) == len(err.partial.points) == 1
    free = CoefficientSet(funcs=coeffs.funcs)
    for method, stepped in (("magnus2", coeffs), ("rkmk", coeffs), ("magnus4", free)):
        group = integrate_group(basis, stepped, StepperConfig(method), 0.0, 1e103, 1)
        assert np.isfinite(group.points).all(), method


@pytest.mark.parametrize("h", [1e-170, 1e-300])
def test_derivative_free_magnus4_steps_where_h_squared_underflows(h):
    # h * h underflows to 0 here; the Simpson form never divides by h or
    # forms h^2 alone, so magnus4 steps on values as rkmk does
    basis = ck_generators(CKParams(0.8, -0.5))
    coeffs = CoefficientSet(funcs=(math.cos,) * 3)
    m4 = integrate_group(basis, coeffs, StepperConfig("magnus4"), 0.0, h, 1).points[-1]
    rk = integrate_group(basis, coeffs, StepperConfig("rkmk"), 0.0, h, 1).points[-1]
    assert np.isfinite(m4).all()
    assert np.abs(m4 - rk).max() <= 1e-15


def test_derivative_free_magnus4_reports_an_overflowing_estimate():
    # finite samples whose difference b_1 - b_0 = -2e308 overflows: the
    # typed step error with the cut partial, from integrate_group and from
    # solve, and no RuntimeWarning on the way
    z = lambda t: 0.0
    coeffs = CoefficientSet(funcs=(lambda t: 1e308 if t < 3.5 else -1e308, z, z))
    system = ck_lie_system(CKParams(0.8, -0.5), coeffs)
    config = StepperConfig("magnus4")
    runs = (
        lambda: integrate_group(system.basis, coeffs, config, 3.0, 4.0, 1),
        lambda: solve(system, [1.0, 1.0, 1.0], 3.0, 4.0, 1, config),
    )
    for run in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as excinfo:
                run()
        err = excinfo.value
        assert str(err) == "non-finite group element at step 0 (t=3)"
        assert err.step == 0
        assert len(err.partial.times) == len(err.partial.points) == 1


@pytest.mark.parametrize("method", GEOMETRIC_METHODS)
def test_integrate_group_non_finite_coefficient_keeps_value_error(method):
    # only the increment's OverflowError becomes the step error
    z = lambda t: 0.0
    coeffs = CoefficientSet(funcs=(lambda t: math.nan, z, z), d1=(z,) * 3, d2=(z,) * 3)
    basis = ck_generators(CKParams(0.8, -0.5))
    with pytest.raises(ValueError, match="non-finite coefficient value") as excinfo:
        integrate_group(basis, coeffs, StepperConfig(method), 0.0, 1.0, 1)
    assert not isinstance(excinfo.value, NonFiniteStateError)


def test_derivative_free_magnus4_keeps_order_4_far_from_t_0():
    # bounded coefficients on [t0, t0 + 2]: without analytic derivatives the
    # error falls as h^4 at every t0 and stays near the analytic set's,
    # whatever the size of t
    basis = ck_generators(CKParams(0.8, -0.5))
    analytic = CoefficientSet(
        funcs=(math.cos, lambda t: 0.5 * math.sin(2.0 * t), lambda t: 0.3),
        d1=(lambda t: -math.sin(t), lambda t: math.cos(2.0 * t), lambda t: 0.0),
        d2=(lambda t: -math.cos(t), lambda t: -2.0 * math.sin(2.0 * t), lambda t: 0.0),
    )
    free = CoefficientSet(funcs=analytic.funcs)
    config = StepperConfig("magnus4")
    for t0 in (0.0, 1e3, 1e5):
        ref = integrate_group(basis, analytic, config, t0, t0 + 2.0, 1280).points[-1]
        errors = {}
        for name, coeffs in (("analytic", analytic), ("free", free)):
            for n in (20, 80):
                y = integrate_group(basis, coeffs, config, t0, t0 + 2.0, n).points[-1]
                errors[name, n] = np.linalg.norm(y - ref)
        assert errors["free", 20] >= 12.0 * errors["free", 80], (t0, errors)
        for n in (20, 80):
            assert errors["free", n] <= 2.0 * errors["analytic", n], (t0, n, errors)


@pytest.mark.parametrize("n", [10, 1000])
def test_derivative_free_magnus4_samples_only_the_span(n):
    # b = sqrt(t) has no value before t0 = 0; the step's own nodes stay in
    # [t0, t1], so magnus4 steps from t0 as rkmk does, to its order
    basis = ck_generators(CKParams(0.8, -0.5))
    coeffs = CoefficientSet(funcs=(math.sqrt,) * 3)
    m4 = integrate_group(basis, coeffs, StepperConfig("magnus4"), 0.0, 1e-3, n).points
    rk = integrate_group(basis, coeffs, StepperConfig("rkmk"), 0.0, 1e-3, n).points
    assert np.isfinite(m4).all()
    assert np.abs(m4 - rk).max() <= 1e-15


def test_integrate_group_matches_fine_reference(ck_group_reference):
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    coarse = integrate_group(basis, coeffs, StepperConfig("rkmk"), 3.0, 4.0, 10)
    fine = ck_group_reference
    err = max(
        np.linalg.norm(coarse.points[k] - fine.points[1000 * k]) for k in range(11)
    )
    assert err <= 1e-4


def test_rk4_direct_step_zero_field():
    x = np.array([1.0, 2.0])
    out = rk4_direct_step(lambda t, x: np.zeros(2), 0.0, 0.1, x)
    assert np.array_equal(out, x)


def test_rk4_direct_step_exponential_growth():
    h = 0.1
    expected = 1.0 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24
    out = rk4_direct_step(lambda t, x: x, 0.0, h, np.array([1.0]))
    assert out[0] == pytest.approx(expected, abs=1e-15)


def test_rk4_direct_step_linear_system_columnwise():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3))
    h = 0.05
    full = np.stack(
        [rk4_direct_step(lambda t, x: a @ x, 0.0, h, col) for col in np.eye(3)]
    ).T
    # matrix-RK4 polynomial applied to the identity
    poly = np.eye(3) + h * a + (h * a) @ (h * a) / 2 + np.linalg.matrix_power(h * a, 3) / 6 \
        + np.linalg.matrix_power(h * a, 4) / 24
    assert np.allclose(full, poly, atol=1e-12)


def rk4_numpy(f, t, h, x):
    """The RK4 update written out on arrays: the reference that the float
    step must match to the bit."""
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(t, x), dtype=float)
    k2 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(t + h, x + h * k3), dtype=float)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_cases():
    """(name, rhs, t, h, x): every library rhs and the rhs shapes the step
    accepts."""
    coeffs = ck_benchmark_coefficients()
    cases = [
        (f"ck{kappa}", ck_lie_system(CKParams(*kappa), coeffs).rhs, 3.0, 0.1, [1.0, 0.3, -0.7])
        for kappa in ((0.8, 0.5), (0.0, 0.0), (-0.7, -1.3))
    ]
    lc = limit_cycle_system(lambda t: 1.0 + t * t, math.exp).rhs
    riccati = riccati_rhs(lambda t: 1.0, lambda t: t, math.sin)
    a = np.random.default_rng(5).normal(size=(2, 3))
    return cases + [
        ("limit-cycle", lc, 0.2, 0.02, [0.3, 0.9]),
        ("riccati", riccati, 0.1, 1e-3, [0.0, 1.0, -1.0, 0.5]),
        ("2x3", lambda t, x: a * x + t, 0.1, 0.05, np.arange(6.0).reshape(2, 3) / 7.0),
        ("list", lambda t, x: [x[1], -x[0] * t], 0.3, 0.1, [1.0, 2.0]),
        ("own-input", lambda t, x: x, 0.0, 0.1, [1.0, -2.0, 1.0 / 3.0]),
    ]


@pytest.mark.parametrize("name, f, t, h, x", _rk4_cases(), ids=[c[0] for c in _rk4_cases()])
def test_rk4_direct_step_is_the_array_formula_to_the_bit(name, f, t, h, x):
    expected = rk4_numpy(f, t, h, x)
    out = rk4_direct_step(f, t, h, x)
    assert out.dtype == np.float64 and out.shape == expected.shape
    assert np.array_equal(out, expected)


def test_rk4_direct_step_hands_rhs_arrays_of_the_state_shape():
    seen = []

    def f(t, y):
        seen.append((type(y), y.dtype, y.shape))
        return np.ones(6)  # any array-like of the state's size

    rk4_direct_step(f, 0.0, 0.1, np.zeros((2, 3)))
    assert seen == [(np.ndarray, np.float64, (2, 3))] * 4


def test_rk4_direct_step_rejects_an_rhs_of_another_size():
    # no output is broadcast or cut to the state's size
    for out in ([1.0], np.ones(4), 2.0):
        with pytest.raises(ValueError, match=r"rhs returned \d values for a state of size 3"):
            rk4_direct_step(lambda t, x: out, 0.0, 0.1, np.ones(3))


def test_rk4_direct_step_scalar_rhs_on_a_one_element_state():
    x = np.array([1.5])
    out = rk4_direct_step(lambda t, x: -x[0], 0.0, 0.1, x)
    assert out.shape == (1,)
    assert np.array_equal(out, rk4_numpy(lambda t, x: -x[0], 0.0, 0.1, x))


def relative_error(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "derivative-free"])
def test_magnus4_matches_matrix_formula(coordinate_system, analytic):
    basis, coeffs = coordinate_system
    if not analytic:
        coeffs = CoefficientSet(funcs=coeffs.funcs)
    for t_k, h in ((0.3, 0.1), (3.0, 0.05), (1.0, 0.4)):
        t_half = t_k + 0.5 * h
        a = a_matrix(basis, coeffs, t_half)
        if analytic:
            d1, d2 = map(basis.element, coeffs.derivatives(t_half))
        else:
            # b' and b'' estimated from the step's samples at t_k, t_k + h/2
            # and t_k + h: the matrix form the Simpson kernel is checked against
            a0, a1 = a_matrix(basis, coeffs, t_k), a_matrix(basis, coeffs, t_k + h)
            d1, d2 = (a1 - a0) / h, 4.0 * (a1 - 2.0 * a + a0) / h ** 2
        expected = h * a + h ** 3 * (d2 / 24.0 - commutator(a, d1 / 12.0))
        w = increment("magnus4", basis, coeffs, t_k, h)
        assert relative_error(basis.element(w), expected) <= 1e-14


@pytest.mark.parametrize(
    "method, analytic",
    [("magnus2", True), ("magnus4", True), ("magnus4", False)],
    ids=["magnus2", "magnus4", "magnus4-derivative-free"],
)
def test_magnus_increments_are_time_symmetric(coordinate_system, method, analytic):
    # both Magnus methods are symmetric: the step from t + h back by -h
    # undoes the step from t, w(t, h) = -w(t + h, -h), up to the rounding
    # of the midpoint.  RKMK on the RK4 tableau is not symmetric.  So is
    # derivative-free magnus4, Simpson's rule plus one bracket on b at t,
    # t + h/2 and t + h.
    basis, coeffs = coordinate_system
    if not analytic:
        coeffs = CoefficientSet(funcs=coeffs.funcs)
    for t in (0.3, 1.0, 3.0):
        for h in (0.1, 0.01, 1e-3):
            w = np.asarray(increment(method, basis, coeffs, t, h))
            back = np.asarray(increment(method, basis, coeffs, t + h, -h))
            assert np.linalg.norm(w + back) <= 2e-15 * np.linalg.norm(w), (t, h)


def test_increments_are_lists_of_r_python_floats(coordinate_system):
    # w stays in Python floats from the samples to AlgebraBasis.element
    basis, coeffs = coordinate_system
    for method in GEOMETRIC_METHODS:
        w = increment(method, basis, coeffs, 0.3, 0.1)
        assert type(w) is list and len(w) == basis.r, method
        assert all(type(x) is float for x in w), method


# The classical RK4 tableau (a, b, c), the one rkmk_increment runs.
RK4 = (
    np.array(
        [[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    ),
    np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]),
    np.array([0.0, 0.5, 0.5, 1.0]),
)


def rkmk_matrix_reference(basis, coeffs, table, j, t_k, h):
    """Stagewise RKMK on n x n matrices: F_l = dexpinv(T_l, A(t_k + c_l h))."""
    from liesolve.algebra import dexpinv

    a, b, c = table
    f = []
    for l in range(len(b)):
        theta = h * sum((a[l, m] * f[m] for m in range(l)), np.zeros((basis.n, basis.n)))
        f.append(dexpinv(theta, a_matrix(basis, coeffs, t_k + c[l] * h), j))
    return h * sum(b[l] * f[l] for l in range(len(b)))


@pytest.mark.parametrize("table", [RK4], ids=["rk4"])
def test_rkmk_matches_matrix_formula(coordinate_system, table):
    # rkmk_increment truncates dexp-inverse at j = p - 2 = 2; the orders
    # 0-10 of the coordinate series are covered in test_properties.py
    basis, coeffs = coordinate_system
    for t_k, h in ((0.3, 0.1), (3.0, 0.05)):
        expected = rkmk_matrix_reference(basis, coeffs, table, 2, t_k, h)
        w = increment("rkmk", basis, coeffs, t_k, h)
        assert relative_error(basis.element(w), expected) <= 1e-13, (t_k, h)


def _loop_bracket(basis, u, v):
    # the loop over the nonzero structure constants that AlgebraBasis's
    # compiled bracket replaced
    c = basis.structure_constants
    out = [0.0] * basis.r
    for a, b, g in np.argwhere(c).tolist():
        out[g] += c[a, b, g].item() * u[a] * v[b]
    return out


def rkmk_series_reference(basis, samples, h):
    """rkmk_increment with its stages through _dexpinv_series and the loop
    bracket, as before the compiled kernels."""

    def stage(theta, b):
        return _dexpinv_series(lambda v: _loop_bracket(basis, theta, v), b, 2)

    f1, b_half, b_end = samples
    f2 = stage([h * (0.5 * x) for x in f1], b_half)
    f3 = stage([h * (0.5 * x) for x in f2], b_half)
    f4 = stage([h * x for x in f3], b_end)
    return h * (_RK4_WEIGHTS @ np.array((f1, f2, f3, f4)))


def magnus4_loop_reference(basis, samples, h):
    """magnus4_increment with the loop bracket."""
    b, (d1, d2) = samples
    ad = _loop_bracket(basis, b, [x / 12.0 for x in d1])
    return np.array([h * x + h ** 3 * (y / 24.0 - z) for x, y, z in zip(b, d2, ad)])


_CK_SIGN_CLASSES = [(s1 * 0.8, s2 * 0.5) for s1 in (-1, 0, 1) for s2 in (-1, 0, 1)]


@pytest.mark.parametrize(
    "method, reference",
    [("rkmk", rkmk_series_reference), ("magnus4", magnus4_loop_reference)],
    ids=["rkmk", "magnus4"],
)
def test_compiled_kernels_keep_solve_points_to_the_bit(monkeypatch, method, reference):
    # the compiled bracket and order-2 dexp-inverse round exactly as the loop
    # and the series did: solve's points are equal, not close, on CK in all
    # nine sign classes (linear and flow-composition actions) and on the
    # limit cycle, on and inside its unit circle
    runs = [
        (ck_lie_system(CKParams(*kappa), ck_benchmark_coefficients(), mode), [1.0, 0.3, 0.2], 3.0)
        for kappa in _CK_SIGN_CLASSES
        for mode in ("linear", "flow-composition")
    ]
    lc = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    runs += [(lc, x0, 0.0) for x0 in ([0.0, 1.0], [0.3, 0.2])]
    config = StepperConfig(method)
    compiled = [solve(system, x0, t0, t0 + 1.0, 40, config).points for system, x0, t0 in runs]
    monkeypatch.setattr(integrators, f"{method}_increment", reference)
    for (system, x0, t0), points in zip(runs, compiled):
        expected = solve(system, x0, t0, t0 + 1.0, 40, config).points
        assert np.array_equal(points, expected), (system.basis.structure_constants, x0)
