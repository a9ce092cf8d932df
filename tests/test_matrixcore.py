import math
import warnings

import numpy as np
import pytest

from liesolve.matrixcore import (
    DimensionMismatchError,
    central_second_derivatives,
    commutator,
    frobenius_norm,
    mat_exp,
)


def test_commutator_of_matrix_with_itself_vanishes():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    assert np.abs(commutator(a, a)).max() == 0.0


def test_commutator_elementary_matrices():
    # [e01, e10] = e00 - e11 computed by direct 3x3 multiplication
    e01 = np.zeros((3, 3))
    e01[0, 1] = 1.0
    e10 = np.zeros((3, 3))
    e10[1, 0] = 1.0
    expected = np.diag([1.0, -1.0, 0.0])
    assert np.allclose(commutator(e01, e10), expected)


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(np.eye(2), np.eye(3))


def test_commutator_bilinear_and_jacobi():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        c /= np.linalg.norm(c)
        s, u = rng.uniform(-1, 1, 2)
        lin = commutator(s * a + u * b, c) - s * commutator(a, c) - u * commutator(b, c)
        assert np.abs(lin).max() <= 1e-12
        jac = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert np.abs(jac).max() <= 1e-12


def test_frobenius_norm_values():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)


def test_mat_exp_zero_and_diagonal():
    assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))
    d = mat_exp(np.diag([math.log(2.0), math.log(3.0)]))
    assert np.allclose(d, np.diag([2.0, 3.0]), atol=1e-13)
    # a diagonal input takes the exact path
    for d in ([math.log(2.0), -3.5], [1e-9, 0.3, -7.0, 12.0]):
        assert np.array_equal(mat_exp(np.diag(d)), np.diag(np.exp(d)))


def test_mat_exp_quarter_turn():
    # exp((pi/2) P1) at kappa1 = 1 is the quarter rotation in the x0-x1 plane
    p1 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(mat_exp(math.pi / 2 * p1), expected, atol=1e-13)


def test_mat_exp_inverse_and_group_properties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        a *= rng.uniform(0, 2) / np.linalg.norm(a)
        assert np.linalg.norm(mat_exp(a) @ mat_exp(-a) - np.eye(3)) <= 1e-10
        s, u = rng.uniform(-1, 1, 2)
        lhs = mat_exp((s + u) * a)
        rhs = mat_exp(s * a) @ mat_exp(u * a)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_mat_exp_large_norm_accuracy():
    # scaling-and-squaring contract: relative error <= 1e-12 for ||A|| <= 10
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.normal(size=(3, 3))
        a *= 10.0 / np.linalg.norm(a)
        # oracle: exponential of the halved matrix, squared
        half = mat_exp(a / 2.0)
        ref = half @ half
        got = mat_exp(a)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-12


def test_mat_exp_overflow_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="800"):
            mat_exp(np.diag([800.0, 0.0]))
        # just below the overflow threshold the result stays finite
        assert np.isfinite(mat_exp(np.diag([700.0, 0.0]))).all()
        # ||A||_F = 1e200: on the diagonal path, and on the Taylor path (667
        # squarings)
        with pytest.raises(FloatingPointError, match=r"\|\|A\|\|_F = 1e\+200"):
            mat_exp(np.diag([1e200, 0.0]))
        with pytest.raises(FloatingPointError, match=r"\|\|A\|\|_F = 1.41421e\+200"):
            mat_exp(np.array([[1e200, 1e200], [0.0, 0.0]]))
        # a Frobenius norm past the float range is itself the overflow
        with pytest.raises(FloatingPointError, match="overflows"):
            mat_exp(np.full((2, 2), 1e308))


def test_mat_exp_rejects_non_finite_and_non_square():
    with pytest.raises(ValueError, match="finite"):
        mat_exp(np.array([[0.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        mat_exp(np.zeros((2, 3)))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("norm", [1e-9, 1e-4, 6e-3, 0.05, 0.2, 0.26, 1.0, 3.0, 10.0])
def test_mat_exp_matches_mpmath(n, norm):
    # the norms take the Taylor degree from 1 to 12 and lie on both sides
    # of the s = 0 / 1 boundary at 1/4; mpmath's expm at 40 digits is the
    # reference
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(round(1000 * n + 1e6 * norm))
    with mpmath.workdps(40):
        for _ in range(3):
            a = rng.normal(size=(n, n))
            a *= norm / np.linalg.norm(a)
            ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
            err = np.linalg.norm(mat_exp(a) - ref) / np.linalg.norm(ref)
            assert err <= 1e-13


def test_central_derivatives_constant_and_linear():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    d1, d2 = central_second_derivatives(lambda t: m, 0.7, 1e-3)
    assert np.abs(d1).max() <= 1e-10
    assert np.abs(d2).max() <= 1e-7
    d1, d2 = central_second_derivatives(lambda t: t * m, 0.7, 1e-3)
    assert np.allclose(d1, m, atol=1e-10)
    assert np.abs(d2).max() <= 1e-7


def test_central_derivatives_sine():
    m = np.array([[1.0, -2.0], [0.5, 3.0]])
    step = 1e-3
    d1, d2 = central_second_derivatives(lambda t: math.sin(t) * m, 0.0, step)
    assert np.abs(d1 - m).max() <= 10 * step ** 2
    assert np.abs(d2).max() <= 10 * step ** 2


def test_central_derivatives_rejects_bad_step():
    with pytest.raises(ValueError):
        central_second_derivatives(lambda t: np.eye(2), 0.0, 0.0)
