import math
import warnings

import numpy as np
import pytest

from liesolve.algebra import AlgebraBasis, CoefficientSet
from liesolve.benchmarks import ck_benchmark_coefficients
from liesolve.ckspaces import CKParams, ck_generators
from liesolve.integrators import (
    MAGNUS_CONVERGENCE_RADIUS,
    RK4_TABLE,
    ButcherTable,
    NonFiniteStateError,
    StepperConfig,
    integrate_group,
    magnus2_increment,
    magnus4_increment,
    magnus_radius_check,
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


def test_butcher_validation():
    with pytest.raises(ValueError):
        ButcherTable(a=np.zeros((2, 2)), b=np.array([0.3, 0.3]), c=np.array([0.0, 0.5]), order=2)
    with pytest.raises(ValueError):
        ButcherTable(a=np.ones((2, 2)), b=np.array([0.5, 0.5]), c=np.array([0.0, 0.5]), order=2)


def test_stepper_config_truncation_rule():
    with pytest.raises(ValueError):
        StepperConfig(method="rkmk", truncation_order=1)
    StepperConfig(method="rkmk", truncation_order=2)
    with pytest.raises(ValueError):
        StepperConfig(method="bogus")


def test_magnus2_constant_field():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    w = magnus2_increment(basis, coeffs, 0.0, 0.1)
    assert np.allclose(w, 0.1 * m)


def test_magnus2_midpoint_evaluation():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    from liesolve.algebra import assemble_A

    w = magnus2_increment(basis, coeffs, 3.0, 0.1)
    assert np.allclose(w, 0.1 * assemble_A(basis, coeffs, 3.05), atol=1e-15)


def test_magnus2_small_h_limit():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    from liesolve.algebra import assemble_A

    a_norm = np.linalg.norm(assemble_A(basis, coeffs, 3.0))
    for h in (1e-4, 1e-6):
        w = magnus2_increment(basis, coeffs, 3.0, h)
        assert np.linalg.norm(w) / h == pytest.approx(a_norm, rel=1e-3)


def test_magnus4_constant_and_abelian():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    assert np.allclose(magnus4_increment(basis, coeffs, 0.3, 0.1), 0.1 * m, atol=1e-9)

    lin = CoefficientSet(funcs=(lambda t: t,), d1=(lambda t: 1.0,), d2=(lambda t: 0.0,))
    basis = AlgebraBasis((m,), np.zeros((1, 1, 1)))
    w = magnus4_increment(basis, lin, 0.2, 0.1)
    assert np.allclose(w, 0.1 * (0.2 + 0.05) * m, atol=1e-14)


def test_magnus4_analytic_vs_finite_difference():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    analytic = ck_benchmark_coefficients()
    fd_only = CoefficientSet(funcs=analytic.funcs)
    w_a = magnus4_increment(basis, analytic, 3.0, 0.1)
    w_fd = magnus4_increment(basis, fd_only, 3.0, 0.1)
    assert np.abs(w_a - w_fd).max() <= 1e-6


def test_rkmk_constant_field_any_table():
    m = np.array([[0.0, 2.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    w = rkmk_increment(basis, coeffs, RK4_TABLE, 2, 0.0, 0.1)
    assert np.allclose(w, 0.1 * m, atol=1e-14)


def test_rkmk_first_stage_is_field_at_tk():
    # stage 1 has Theta_1 = 0, so F_1 = A(t_k); with a one-stage table the
    # increment is exactly h A(t_k)
    table = ButcherTable(
        a=np.zeros((1, 1)), b=np.array([1.0]), c=np.array([0.0]), order=1
    )
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    from liesolve.algebra import assemble_A

    w = rkmk_increment(basis, coeffs, table, 2, 3.0, 0.1)
    assert np.allclose(w, 0.1 * assemble_A(basis, coeffs, 3.0), atol=1e-15)


def test_rkmk_abelian_matches_scalar_rk4_quadrature():
    basis = diagonal_basis()
    coeffs = CoefficientSet(funcs=(lambda t: 1 + t * t, math.exp))
    t_k, h = 0.4, 0.05
    w = rkmk_increment(basis, coeffs, RK4_TABLE, 2, t_k, h)
    # scalar RK4 on d(omega)/dt = b(t) for each diagonal entry
    for idx, b in enumerate(coeffs.funcs):
        k1 = b(t_k)
        k2 = b(t_k + h / 2)
        k3 = b(t_k + h / 2)
        k4 = b(t_k + h)
        expected = h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert w[idx, idx] == pytest.approx(expected, abs=1e-15)
    assert np.abs(w - np.diag(np.diag(w))).max() == 0.0


def test_integrate_group_zero_field():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    basis = AlgebraBasis((m,), np.zeros((1, 1, 1)))
    coeffs = CoefficientSet(funcs=(lambda t: 0.0,))
    y0 = np.array([[2.0, 1.0], [0.0, 1.0]])
    traj = integrate_group(basis, coeffs, StepperConfig("magnus2"), 0.0, 1.0, 5, y0)
    for y in traj.elements:
        assert np.allclose(y, y0)


def test_integrate_group_constant_field_exact():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    basis, coeffs = constant_basis_coeffs(m)
    traj = integrate_group(basis, coeffs, StepperConfig("magnus2"), 0.0, 0.1, 1)
    assert np.allclose(traj.elements[-1], mat_exp(0.1 * m), atol=1e-14)


def test_integrate_group_reconstruction_invariant():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    traj = integrate_group(basis, coeffs, StepperConfig("rkmk"), 3.0, 4.0, 10)
    assert len(traj.elements) - 1 == len(traj.increments) == 10
    for k, w in enumerate(traj.increments):
        rebuilt = mat_exp(w) @ traj.elements[k]
        assert np.array_equal(rebuilt, traj.elements[k + 1])
        assert np.linalg.norm(rebuilt - traj.elements[k + 1]) <= 1e-12


def test_integrate_group_reports_overflow_step():
    basis, coeffs = constant_basis_coeffs(np.array([[1.0]]), value=100.0)
    # Y_{k+1} = e^{100 (k+1)} overflows first at k = 7
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteStateError) as excinfo:
            integrate_group(basis, coeffs, StepperConfig("magnus2"), 0.0, 10.0, 10)
    err = excinfo.value
    assert err.step == 7
    assert "t=7" in str(err)
    group = err.partial
    assert len(group.times) == len(group.elements) == 8
    assert len(group.increments) == 7
    assert np.all(np.isfinite(group.elements[-1]))


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
        assert len(err.partial.times) == len(err.partial.elements) == 1
        assert len(err.partial.increments) == 0


def test_integrate_group_matches_fine_reference(ck_reference):
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    coarse = integrate_group(basis, coeffs, StepperConfig("rkmk"), 3.0, 4.0, 10)
    fine = ck_reference.group
    err = max(
        np.linalg.norm(coarse.elements[k] - fine.elements[1000 * k]) for k in range(11)
    )
    assert err <= 1e-4


def test_radius_check_zero_and_constant():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])  # Frobenius norm 1
    basis = AlgebraBasis((m,), np.zeros((1, 1, 1)))
    zero = CoefficientSet(funcs=(lambda t: 0.0,))
    val, warn = magnus_radius_check(basis, zero, 0.0, 2.0)
    assert val == pytest.approx(0.0, abs=1e-14)
    assert not warn
    one = CoefficientSet(funcs=(lambda t: 1.0,))
    val, warn = magnus_radius_check(basis, one, 0.0, 2.0)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert warn


def test_radius_check_on_benchmark_coefficients():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = ck_benchmark_coefficients()
    # the coefficients are large on [3, 4]: even one h=0.1 step exceeds the
    # sufficient bound (the methods still converge; the bound is conservative)
    val, warn = magnus_radius_check(basis, coeffs, 3.0, 3.1)
    assert val > MAGNUS_CONVERGENCE_RADIUS
    assert warn
    val, warn = magnus_radius_check(basis, coeffs, 3.0, 3.01)
    assert val < MAGNUS_CONVERGENCE_RADIUS
    assert not warn


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


MIDPOINT = ButcherTable(
    a=np.array([[0.0, 0.0], [0.5, 0.0]]), b=np.array([0.0, 1.0]), c=np.array([0.0, 0.5]), order=2
)


def relative_error(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "finite-difference"])
def test_magnus4_matches_matrix_formula(coordinate_system, analytic):
    from liesolve.algebra import assemble_A, assemble_A_derivatives

    basis, coeffs = coordinate_system
    if not analytic:
        coeffs = CoefficientSet(funcs=coeffs.funcs)
    for t_k, h in ((0.3, 0.1), (3.0, 0.05), (1.0, 0.4)):
        t_half = t_k + 0.5 * h
        a = assemble_A(basis, coeffs, t_half)
        d1, d2 = assemble_A_derivatives(basis, coeffs, t_half)
        expected = h * a + h ** 3 * (d2 / 24.0 - commutator(a, d1 / 12.0))
        w = magnus4_increment(basis, coeffs, t_k, h)
        assert relative_error(w, expected) <= 1e-13


def rkmk_matrix_reference(basis, coeffs, table, j, t_k, h):
    """Stagewise RKMK on n x n matrices: F_l = dexpinv(T_l, A(t_k + c_l h))."""
    from liesolve.algebra import assemble_A, dexpinv

    f = []
    for l in range(table.stages):
        theta = h * sum((table.a[l, m] * f[m] for m in range(l)), np.zeros((basis.n, basis.n)))
        f.append(dexpinv(theta, assemble_A(basis, coeffs, t_k + table.c[l] * h), j))
    return h * sum(table.b[l] * f[l] for l in range(table.stages))


@pytest.mark.parametrize("table", [RK4_TABLE, MIDPOINT], ids=["rk4", "midpoint"])
def test_rkmk_matches_matrix_formula(coordinate_system, table):
    basis, coeffs = coordinate_system
    for j in range(max(0, table.order - 2), 11):
        for t_k, h in ((0.3, 0.1), (3.0, 0.05)):
            expected = rkmk_matrix_reference(basis, coeffs, table, j, t_k, h)
            w = rkmk_increment(basis, coeffs, table, j, t_k, h)
            assert relative_error(w, expected) <= 1e-13, (j, t_k, h)


def test_rkmk_rejects_truncation_order_out_of_range():
    basis, coeffs = constant_basis_coeffs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    one_stage = ButcherTable(a=np.zeros((1, 1)), b=np.array([1.0]), c=np.array([0.0]), order=1)
    with pytest.raises(ValueError):
        rkmk_increment(basis, coeffs, one_stage, 11, 0.0, 0.1)
    with pytest.raises(ValueError):
        rkmk_increment(basis, coeffs, RK4_TABLE, 1, 0.0, 0.1)
