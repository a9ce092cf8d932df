import math
from fractions import Fraction

import numpy as np
import pytest

from liesolve.algebra import (
    AlgebraBasis,
    CoefficientSet,
    assemble_A,
    dexpinv,
)
from liesolve.ckspaces import CKParams, ck_generators
from liesolve.matrixcore import commutator


def single_generator_basis():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    return AlgebraBasis((m,), np.zeros((1, 1, 1)))


def test_bernoulli_values():
    # the series term i of dexpinv is (B_i / i!) ad_omega^i (H); with
    # omega = diag(4, -4) and H = E_12, ad_omega^i H = 8^i H exactly, and
    # each term outweighs the partial sum before it, so the difference of
    # consecutive truncations recovers B_j to rounding
    omega = np.diag([4.0, -4.0])
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: 0,
        4: Fraction(-1, 30),
        5: 0,
        6: Fraction(1, 42),
        7: 0,
        8: Fraction(-1, 30),
        9: 0,
        10: Fraction(5, 66),
    }
    assert np.array_equal(dexpinv(omega, h, 0), h)
    for j in range(1, 11):
        term = dexpinv(omega, h, j) - dexpinv(omega, h, j - 1)
        want = float(expected[j] / math.factorial(j)) * 8.0 ** j * h
        if j % 2 and j >= 3:
            assert not term.any()
        else:
            assert np.linalg.norm(term - want) <= 1e-15 * np.linalg.norm(want)
    for j in (11, -1):
        with pytest.raises(ValueError):
            dexpinv(omega, h, j)


def test_basis_rejects_wrong_constants():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    bad = np.ones((1, 1, 1))  # not antisymmetric
    with pytest.raises(ValueError):
        AlgebraBasis((m,), bad)


def test_basis_rejects_dependent_generators():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        AlgebraBasis((m, 2.0 * m), np.zeros((2, 2, 2)))


def test_from_generators_recovers_sl2_constants():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    basis = AlgebraBasis.from_generators((e, f, h))
    # [e, f] = h, [h, e] = 2e, [h, f] = -2f
    assert np.allclose(basis.structure_constants[0, 1], [0, 0, 1])
    assert np.allclose(basis.structure_constants[2, 0], [2, 0, 0])
    assert np.allclose(basis.structure_constants[2, 1], [0, -2, 0])


def test_ck_structure_constants_match_brackets():
    basis = ck_generators(CKParams(0.8, -0.5))
    c = basis.structure_constants
    for a in range(3):
        for b in range(3):
            lhs = commutator(basis.generators[a], basis.generators[b])
            rhs = sum(c[a, b, g] * basis.generators[g] for g in range(3))
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_assemble_A_zero_and_single():
    basis = single_generator_basis()
    coeffs = CoefficientSet(funcs=(lambda t: 0.0,))
    assert np.abs(assemble_A(basis, coeffs, 2.0)).max() == 0.0
    coeffs = CoefficientSet(funcs=(lambda t: t,))
    assert np.allclose(assemble_A(basis, coeffs, 2.5), 2.5 * basis.generators[0])


def test_assemble_A_ck_combination():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = CoefficientSet(
        funcs=(lambda t: t * t, math.sin, lambda t: math.log(t + 1.0))
    )
    a = assemble_A(basis, coeffs, 3.0)
    expected = (
        9.0 * basis.generators[0]
        + math.sin(3.0) * basis.generators[1]
        + math.log(4.0) * basis.generators[2]
    )
    assert np.allclose(a, expected, atol=1e-15)


def test_assemble_A_arity_mismatch():
    basis = single_generator_basis()
    coeffs = CoefficientSet(funcs=(lambda t: 1.0, lambda t: 1.0))
    with pytest.raises(ValueError):
        assemble_A(basis, coeffs, 0.0)


def test_assemble_derivatives_constant_and_polynomial():
    basis = single_generator_basis()
    const = CoefficientSet(funcs=(lambda t: 3.0,))
    d1, d2 = map(basis.element, const.derivatives(1.0))
    assert np.abs(d1).max() <= 1e-9
    assert np.abs(d2).max() <= 1e-6

    quad = CoefficientSet(
        funcs=(lambda t: t * t,), d1=(lambda t: 2.0 * t,), d2=(lambda t: 2.0,)
    )
    d1, d2 = map(basis.element, quad.derivatives(3.0))
    assert np.allclose(d1, 6.0 * basis.generators[0])
    assert np.allclose(d2, 2.0 * basis.generators[0])


def test_assemble_derivatives_finite_difference_matches_analytic():
    basis = single_generator_basis()
    coeffs = CoefficientSet(funcs=(math.sin,))
    d1, d2 = map(basis.element, coeffs.derivatives(0.0))
    assert np.abs(d1 - basis.generators[0]).max() <= 1e-6
    assert np.abs(d2).max() <= 1e-6


def test_dexpinv_zero_omega_is_identity_map():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(3, 3))
    for j in (0, 2, 8):
        assert np.array_equal(dexpinv(np.zeros((3, 3)), h, j), h)


def test_dexpinv_commuting_arguments():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(3, 3))
    assert np.allclose(dexpinv(0.37 * h, h, 2), h, atol=1e-13)


def test_dexpinv_j2_closed_form():
    rng = np.random.default_rng(7)
    omega = rng.normal(size=(3, 3))
    h = rng.normal(size=(3, 3))
    expected = (
        h
        - 0.5 * commutator(omega, h)
        + commutator(omega, commutator(omega, h)) / 12.0
    )
    assert np.abs(dexpinv(omega, h, 2) - expected).max() <= 1e-12


def test_dexpinv_linear_in_h():
    rng = np.random.default_rng(8)
    omega = rng.normal(size=(3, 3))
    h1 = rng.normal(size=(3, 3))
    h2 = rng.normal(size=(3, 3))
    a, b = 0.7, -1.3
    lhs = dexpinv(omega, a * h1 + b * h2, 4)
    rhs = a * dexpinv(omega, h1, 4) + b * dexpinv(omega, h2, 4)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_dexpinv_truncation_error_bound():
    rng = np.random.default_rng(9)
    for _ in range(50):
        omega = rng.normal(size=(3, 3))
        omega *= 0.1 / np.linalg.norm(omega)
        h = rng.normal(size=(3, 3))
        diff = np.linalg.norm(dexpinv(omega, h, 2) - dexpinv(omega, h, 8))
        bound = 10.0 * np.linalg.norm(omega) ** 3 * np.linalg.norm(h)
        assert diff <= bound


def test_dexpinv_defining_property():
    # finite-difference tangent of exp(W + s dexpinv(W, H)) exp(-W) at s=0 is H
    from liesolve.matrixcore import mat_exp

    rng = np.random.default_rng(10)
    for _ in range(5):
        omega = rng.normal(size=(3, 3))
        omega *= 0.5 / np.linalg.norm(omega)
        h = rng.normal(size=(3, 3))
        h /= np.linalg.norm(h)
        d = dexpinv(omega, h, 8)
        s = 1e-6
        y_plus = mat_exp(omega + s * d) @ mat_exp(-omega)
        y_minus = mat_exp(omega - s * d) @ mat_exp(-omega)
        tangent = (y_plus - y_minus) / (2.0 * s)
        assert np.linalg.norm(tangent - h) <= 1e-4


def test_dexpinv_validation():
    with pytest.raises(ValueError):
        dexpinv(np.zeros((2, 2)), np.zeros((2, 2)), 11)
    from liesolve.matrixcore import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        dexpinv(np.zeros((2, 2)), np.zeros((3, 3)), 2)


def test_element_and_ad_match_commutator(coordinate_system):
    basis, _ = coordinate_system
    rng = np.random.default_rng(12)
    for _ in range(20):
        u, v = rng.normal(size=(2, basis.r))
        mu = sum(x * m for x, m in zip(u, basis.generators))
        mv = sum(x * m for x, m in zip(v, basis.generators))
        assert np.abs(basis.element(u) - mu).max() <= 1e-14 * np.abs(mu).max()
        expected = commutator(mu, mv)
        got = basis.element(v @ basis.ad(u))
        assert np.linalg.norm(got - expected) <= 1e-13 * max(np.linalg.norm(expected), 1.0)


def test_coefficient_derivatives_analytic_and_finite_difference(coordinate_system):
    _, coeffs = coordinate_system
    t = 0.7
    d1, d2 = coeffs.derivatives(t)
    assert np.array_equal(d1, [f(t) for f in coeffs.d1])
    assert np.array_equal(d2, [f(t) for f in coeffs.d2])
    fd1, fd2 = CoefficientSet(funcs=coeffs.funcs).derivatives(t)
    assert np.abs(fd1 - d1).max() <= 1e-8
    assert np.abs(fd2 - d2).max() <= 1e-6
    # one analytic derivative missing: the other stays analytic
    half = CoefficientSet(funcs=coeffs.funcs, d1=coeffs.d1)
    h1, h2 = half.derivatives(t)
    assert np.array_equal(h1, d1)
    assert np.array_equal(h2, fd2)


def test_coefficient_derivatives_reject_non_finite():
    coeffs = CoefficientSet(funcs=(math.sin,), d1=(math.cos,), d2=(lambda t: math.inf,))
    with pytest.raises(ValueError, match="non-finite coefficient derivative"):
        coeffs.derivatives(0.0)


def test_coefficient_values_reject_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        coeffs = CoefficientSet(funcs=(math.sin, lambda t, bad=bad: bad))
        with pytest.raises(ValueError, match=r"non-finite coefficient value at t=0\.25"):
            coeffs.values(0.25)


def test_coefficient_values_are_float64():
    out = CoefficientSet(funcs=(lambda t: 1, math.cos)).values(0.0)
    assert out.dtype == np.float64
    assert out.tolist() == [1.0, 1.0]
