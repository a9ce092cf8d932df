import math
import warnings

import numpy as np
import pytest

from liesolve.algebra import AlgebraBasis, CoefficientSet
from liesolve.benchmarks import ck_benchmark_coefficients, limit_cycle_system, riccati_rhs
from liesolve.ckspaces import CKParams, ck_generators, ck_lie_system
from liesolve.integrators import (
    _RK4_WEIGHTS,
    GEOMETRIC_METHODS,
    NonFiniteStateError,
    StepperConfig,
    integrate_group,
    magnus2_increment,
    magnus4_increment,
    rk4_direct_step,
    rkmk_increment,
)
from liesolve.matrixcore import commutator, mat_exp


def constant_basis_coeffs(m, value=1.0):
    basis = AlgebraBasis((m,), np.zeros((1, 1, 1)))
    coeffs = CoefficientSet(funcs=(lambda t: value,))
    return basis, coeffs


def diagonal_basis():
    return AlgebraBasis(
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.zeros((2, 2, 2))
    )


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
    w = magnus2_increment(basis, coeffs, 0.0, 0.1)
    assert np.allclose(w, [0.1])
    assert np.allclose(basis.element(w), 0.1 * m)


def test_magnus2_midpoint_evaluation():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    from liesolve.algebra import assemble_A

    w = magnus2_increment(basis, coeffs, 3.0, 0.1)
    assert w.shape == (3,)
    assert np.allclose(basis.element(w), 0.1 * assemble_A(basis, coeffs, 3.05), atol=1e-15)


def test_magnus2_small_h_limit():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    from liesolve.algebra import assemble_A

    a_norm = np.linalg.norm(assemble_A(basis, coeffs, 3.0))
    for h in (1e-4, 1e-6):
        w = magnus2_increment(basis, coeffs, 3.0, h)
        assert np.linalg.norm(basis.element(w)) / h == pytest.approx(a_norm, rel=1e-3)


def test_magnus4_constant_and_abelian():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    w = magnus4_increment(basis, coeffs, 0.3, 0.1)
    assert np.allclose(basis.element(w), 0.1 * m, atol=1e-9)

    lin = CoefficientSet(funcs=(lambda t: t,), d1=(lambda t: 1.0,), d2=(lambda t: 0.0,))
    basis = AlgebraBasis((m,), np.zeros((1, 1, 1)))
    w = magnus4_increment(basis, lin, 0.2, 0.1)
    assert np.allclose(basis.element(w), 0.1 * (0.2 + 0.05) * m, atol=1e-14)


def test_magnus4_analytic_vs_finite_difference():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    analytic = ck_benchmark_coefficients()
    fd_only = CoefficientSet(funcs=analytic.funcs)
    w_a = magnus4_increment(basis, analytic, 3.0, 0.1)
    w_fd = magnus4_increment(basis, fd_only, 3.0, 0.1)
    assert np.abs(basis.element(w_a) - basis.element(w_fd)).max() <= 1e-6


def test_rkmk_constant_field_any_table():
    m = np.array([[0.0, 2.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    w = rkmk_increment(basis, coeffs, 0.0, 0.1)
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
    w = rkmk_increment(basis, coeffs, 3.0, 0.1)
    assert np.allclose(w, 0.1 / 6.0 * np.array(bench.values(3.0)), rtol=1e-15, atol=0.0)


def test_rkmk_abelian_matches_scalar_rk4_quadrature():
    basis = diagonal_basis()
    coeffs = CoefficientSet(funcs=(lambda t: 1 + t * t, math.exp))
    t_k, h = 0.4, 0.05
    w = rkmk_increment(basis, coeffs, t_k, h)
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
        assert np.array_equal(rkmk_increment(basis, coeffs, t, h), expected), t


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
        w = rkmk_increment(basis, coeffs, t_k, 0.1)
        rebuilt = mat_exp(basis.element(w)) @ traj.points[k]
        assert np.array_equal(rebuilt, traj.points[k + 1])
        assert np.linalg.norm(rebuilt - traj.points[k + 1]) <= 1e-12


def test_integrate_group_reports_overflow_step():
    basis, coeffs = constant_basis_coeffs(np.array([[1.0]]), value=100.0)
    # Y_{k+1} = e^{100 (k+1)} overflows first at k = 7
    with pytest.raises(NonFiniteStateError) as excinfo:
        integrate_group(basis, coeffs, StepperConfig("magnus2"), 0.0, 10.0, 10)
    err = excinfo.value
    assert err.step == 7
    assert "t=7" in str(err)
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
    # h = 1e103: the typed step error with the cut partial, where magnus2
    # and rkmk step on, since w = h b stays finite for b = (1e-200, 0, 0)
    z = lambda t: 0.0
    coeffs = CoefficientSet(funcs=(lambda t: 1e-200, z, z), d1=(z,) * 3, d2=(z,) * 3)
    basis = ck_generators(CKParams(0.8, -0.5))
    with pytest.raises(NonFiniteStateError, match=r"^non-finite increment at step 0 \(t=0\)$") as excinfo:
        integrate_group(basis, coeffs, StepperConfig("magnus4"), 0.0, 1e103, 1)
    err = excinfo.value
    assert err.step == 0
    assert isinstance(err.__cause__, OverflowError)
    assert len(err.partial.times) == len(err.partial.points) == 1
    for method in ("magnus2", "rkmk"):
        group = integrate_group(basis, coeffs, StepperConfig(method), 0.0, 1e103, 1)
        assert np.isfinite(group.points).all()


@pytest.mark.parametrize("method", GEOMETRIC_METHODS)
def test_integrate_group_non_finite_coefficient_keeps_value_error(method):
    # only the increment's OverflowError becomes the step error
    z = lambda t: 0.0
    coeffs = CoefficientSet(funcs=(lambda t: math.nan, z, z), d1=(z,) * 3, d2=(z,) * 3)
    basis = ck_generators(CKParams(0.8, -0.5))
    with pytest.raises(ValueError, match="non-finite coefficient value") as excinfo:
        integrate_group(basis, coeffs, StepperConfig(method), 0.0, 1.0, 1)
    assert not isinstance(excinfo.value, NonFiniteStateError)


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


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "finite-difference"])
def test_magnus4_matches_matrix_formula(coordinate_system, analytic):
    from liesolve.algebra import assemble_A

    basis, coeffs = coordinate_system
    if not analytic:
        coeffs = CoefficientSet(funcs=coeffs.funcs)
    for t_k, h in ((0.3, 0.1), (3.0, 0.05), (1.0, 0.4)):
        t_half = t_k + 0.5 * h
        a = assemble_A(basis, coeffs, t_half)
        d1, d2 = map(basis.element, coeffs.derivatives(t_half))
        expected = h * a + h ** 3 * (d2 / 24.0 - commutator(a, d1 / 12.0))
        w = magnus4_increment(basis, coeffs, t_k, h)
        assert relative_error(basis.element(w), expected) <= 1e-14


@pytest.mark.parametrize(
    "increment", [magnus2_increment, magnus4_increment], ids=["magnus2", "magnus4"]
)
def test_magnus_increments_are_time_symmetric(coordinate_system, increment):
    # both Magnus methods are symmetric: the step from t + h back by -h
    # undoes the step from t, w(t, h) = -w(t + h, -h), up to the rounding
    # of the midpoint.  RKMK on the RK4 tableau is not symmetric.
    basis, coeffs = coordinate_system
    for t in (0.3, 1.0, 3.0):
        for h in (0.1, 0.01, 1e-3):
            w = increment(basis, coeffs, t, h)
            back = increment(basis, coeffs, t + h, -h)
            assert np.linalg.norm(w + back) <= 2e-15 * np.linalg.norm(w), (t, h)


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
    from liesolve.algebra import assemble_A, dexpinv

    a, b, c = table
    f = []
    for l in range(len(b)):
        theta = h * sum((a[l, m] * f[m] for m in range(l)), np.zeros((basis.n, basis.n)))
        f.append(dexpinv(theta, assemble_A(basis, coeffs, t_k + c[l] * h), j))
    return h * sum(b[l] * f[l] for l in range(len(b)))


@pytest.mark.parametrize("table", [RK4], ids=["rk4"])
def test_rkmk_matches_matrix_formula(coordinate_system, table):
    # rkmk_increment truncates dexp-inverse at j = p - 2 = 2; the orders
    # 0-10 of the coordinate series are covered in test_properties.py
    basis, coeffs = coordinate_system
    for t_k, h in ((0.3, 0.1), (3.0, 0.05)):
        expected = rkmk_matrix_reference(basis, coeffs, table, 2, t_k, h)
        w = rkmk_increment(basis, coeffs, t_k, h)
        assert relative_error(basis.element(w), expected) <= 1e-13, (t_k, h)
