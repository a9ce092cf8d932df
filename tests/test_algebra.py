import copy
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from liesolve.algebra import (
    AlgebraBasis,
    CoefficientSet,
    _compile_kernels,
    dexpinv,
)
from liesolve.benchmarks import limit_cycle_system
from liesolve.ckspaces import CKParams, ck_generators
from liesolve.matrixcore import commutator


KAPPAS = (-0.5, 0.0, 0.8)


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


def test_basis_rejects_non_finite_generators_and_constants(capfd):
    # an antisymmetric inf constant passed both structure checks (inf * 0 is
    # nan, and nan > tol is False) and made bracket return nan; a nan
    # generator failed in LAPACK's SVD and printed to stderr
    basis = ck_generators(CKParams(0.8, -0.5))
    gens, c = basis.generators, basis.structure_constants
    inf_c = np.zeros((3, 3, 3))
    inf_c[0, 1, 2], inf_c[1, 0, 2] = math.inf, -math.inf
    with pytest.raises(ValueError, match="^generators and structure constants must be finite$"):
        AlgebraBasis(gens, inf_c)
    for bad in (math.nan, math.inf):
        g = gens[0].copy()
        g[0, 1] = bad
        with pytest.raises(ValueError, match="^generators and structure constants must be finite$"):
            AlgebraBasis((g,) + gens[1:], c)
        with pytest.raises(ValueError, match="^generators must be finite$"):
            AlgebraBasis.from_generators((g,) + gens[1:])
    assert capfd.readouterr().err == ""


def test_from_generators_validation():
    # from_generators failed on these inside numpy (np.stack, lstsq, matmul)
    # with numpy's messages; it now checks them as the constructor does
    cases = (
        ([], "^basis needs at least one generator$"),
        ([np.ones(3)], "^all generators must share the same square shape$"),
        ([np.ones((2, 3))], "^all generators must share the same square shape$"),
        ([np.eye(2), np.eye(3)], "^all generators must share the same square shape$"),
    )
    for gens, message in cases:
        with pytest.raises(ValueError, match=message):
            AlgebraBasis.from_generators(gens)
        with pytest.raises(ValueError, match=message):
            AlgebraBasis(gens, np.zeros((len(gens),) * 3))


def test_bases_reject_complex_input():
    # np.asarray(g, dtype=float) dropped the imaginary part with only a
    # ComplexWarning, so i sigma_x became the zero matrix
    g = np.array([[0.0, 1j], [1j, 0.0]])
    runs = (
        (lambda: AlgebraBasis((g,), np.zeros((1, 1, 1))), "generators"),
        (lambda: AlgebraBasis.from_generators([g]), "generators"),
        (lambda: AlgebraBasis((g.imag,), np.zeros((1, 1, 1), dtype=complex)),
         "structure constants"),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for run, name in runs:
            with pytest.raises(TypeError, match=f"^{name} must be real, got complex entries$"):
                run()
    assert caught == []


def test_from_generators_rejects_overflowing_commutators(capfd):
    # finite generators whose products overflow printed two RuntimeWarnings
    # (matmul overflow, invalid subtract) and then blamed the generators for
    # not being finite; under -W error the RuntimeWarning itself was raised
    e = np.array([[0.0, 1e200], [0.0, 0.0]])
    gens = (e, e.T, np.diag([1e200, -1e200]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^commutators of the generators overflow$"):
            AlgebraBasis.from_generators(gens)
    assert caught == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^commutators of the generators overflow$"):
            AlgebraBasis.from_generators(gens)
    assert capfd.readouterr().err == ""


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
    assert np.abs(basis.element(np.array(coeffs.values(2.0)))).max() == 0.0
    coeffs = CoefficientSet(funcs=(lambda t: t,))
    assert np.allclose(basis.element(np.array(coeffs.values(2.5))), 2.5 * basis.generators[0])


def test_assemble_A_ck_combination():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    coeffs = CoefficientSet(
        funcs=(lambda t: t * t, math.sin, lambda t: math.log(t + 1.0))
    )
    # A(t) = sum_a b_a(t) M_a
    a = basis.element(np.array(coeffs.values(3.0)))
    expected = (
        9.0 * basis.generators[0]
        + math.sin(3.0) * basis.generators[1]
        + math.log(4.0) * basis.generators[2]
    )
    assert np.allclose(a, expected, atol=1e-15)


def test_assemble_derivatives_polynomial():
    basis = single_generator_basis()
    quad = CoefficientSet(
        funcs=(lambda t: t * t,), d1=(lambda t: 2.0 * t,), d2=(lambda t: 2.0,)
    )
    d1, d2 = map(basis.element, quad.derivatives(3.0))
    assert np.allclose(d1, 6.0 * basis.generators[0])
    assert np.allclose(d2, 2.0 * basis.generators[0])


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
    # ad_u v = [u, v] in coordinates is basis.bracket(u, v)
    basis, _ = coordinate_system
    rng = np.random.default_rng(12)
    for _ in range(20):
        u, v = rng.normal(size=(2, basis.r))
        mu = sum(x * m for x, m in zip(u, basis.generators))
        mv = sum(x * m for x, m in zip(v, basis.generators))
        assert np.abs(basis.element(u) - mu).max() <= 1e-14 * np.abs(mu).max()
        expected = commutator(mu, mv)
        got = basis.element(np.array(basis.bracket(u, v)))
        assert np.linalg.norm(got - expected) <= 1e-13 * max(np.linalg.norm(expected), 1.0)


def _flat_product(basis, w):
    """sum_a w_a M_a as the product of w with the stacked flat generators."""
    flat = np.stack([g.ravel() for g in basis.generators])
    return (np.asarray(w) @ flat).reshape(basis.n, basis.n)


def test_element_is_the_flat_product_to_the_bit():
    # where no matrix entry sums two nonzero generator entries: the CK bases
    # of all nine sign classes, the limit cycle's diagonal one and sl(2);
    # the bytes compare the signs of zeros too
    e, f = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    bases = [ck_generators(CKParams(k1, k2)) for k1 in KAPPAS for k2 in KAPPAS]
    bases.append(limit_cycle_system(math.sin, math.exp).basis)
    bases.append(AlgebraBasis.from_generators((e, f, np.diag([1.0, -1.0]))))
    rng = np.random.default_rng(21)
    for basis in bases:
        r = basis.r
        ws = rng.normal(size=(20, r)).tolist() + [[0.0] * r, [-0.0] * r, [-1.0, 0.0, 2.0][:r]]
        for w in ws:
            expected = _flat_product(basis, w).tobytes()
            for arg in (w, np.array(w)):
                got = basis.element(arg)
                assert got.dtype == np.float64 and got.shape == (basis.n, basis.n)
                assert got.tobytes() == expected, (basis, w)


def test_element_of_a_dense_basis():
    # so(3) in a rotated frame: each entry sums three terms, which numpy's
    # product may round otherwise (fused multiply-adds)
    q = np.linalg.qr(np.random.default_rng(22).normal(size=(3, 3)))[0]
    rotations = [np.zeros((3, 3)) for _ in range(3)]
    for a, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        rotations[a][i, j], rotations[a][j, i] = -1.0, 1.0
    basis = AlgebraBasis.from_generators([q @ m @ q.T for m in rotations])
    flat = np.abs(np.stack([g.ravel() for g in basis.generators]))
    for w in np.random.default_rng(23).normal(size=(50, 3)).tolist():
        error = np.abs(basis.element(w) - _flat_product(basis, w)).ravel()
        assert (error <= 1e-15 * (np.abs(w) @ flat)).all(), w


def test_kernels_are_compiled_once_per_sparsity_pattern():
    # every CK basis with nonzero kappa has the same six nonzero constants:
    # one compiled kernel, bound to each basis's own constants
    rng = np.random.default_rng(4)
    kappas = rng.uniform(0.1, 2.0, (200, 2)) * rng.choice((-1.0, 1.0), (200, 2))
    misses = _compile_kernels.cache_info().misses
    bases = [ck_generators(CKParams(*k)) for k in kappas.tolist()]
    assert _compile_kernels.cache_info().misses - misses <= 1
    assert len({b.bracket.__code__ for b in bases}) == 1
    assert len({b.dexpinv2.__code__ for b in bases}) == 1
    assert len({b.element.__code__ for b in bases}) == 1
    # the constants and entries differ: [P1, P2] = -kappa1 J12, M_P1[0, 1] = kappa1
    for basis, (k1, _) in zip(bases[:5], kappas.tolist()):
        assert basis.bracket([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == [0.0, 0.0, -k1]
        assert basis.element([1.0, 0.0, 0.0])[0, 1] == k1
    # the generated code names this module in tracebacks
    assert bases[0].bracket.__module__ == "liesolve.algebra"
    assert "liesolve.algebra" in bases[0].bracket.__code__.co_filename


def test_basis_pickle_and_deepcopy_keep_the_kernels(coordinate_system):
    basis, _ = coordinate_system
    u, v = np.random.default_rng(6).normal(size=(2, basis.r)).tolist()
    for copied in (pickle.loads(pickle.dumps(basis)), copy.deepcopy(basis), copy.copy(basis)):
        assert np.array_equal(copied.structure_constants, basis.structure_constants)
        assert copied.bracket(u, v) == basis.bracket(u, v)
        assert copied.dexpinv2(u, v) == basis.dexpinv2(u, v)
        assert copied.element(u).tobytes() == basis.element(u).tobytes()


def test_coefficient_derivatives_are_the_analytic_ones(coordinate_system):
    _, coeffs = coordinate_system
    t = 0.7
    d1, d2 = map(np.array, coeffs.derivatives(t))
    assert np.array_equal(d1, [f(t) for f in coeffs.d1])
    assert np.array_equal(d2, [f(t) for f in coeffs.d2])


def test_derivatives_without_analytic_ones_raise_value_error():
    # magnus4 steps on its step's samples of b instead; a direct
    # call names what is missing rather than calling None
    with pytest.raises(ValueError, match="no analytic derivatives: d1 and d2"):
        CoefficientSet(funcs=(math.sin,)).derivatives(0.0)


def test_one_analytic_derivative_alone_is_rejected():
    for one in ({"d1": (math.cos,)}, {"d2": (math.sin,)}):
        with pytest.raises(ValueError, match="both analytic derivatives d1 and d2, or neither"):
            CoefficientSet(funcs=(math.sin,), **one)


def test_derivatives_accept_any_iterable():
    # the stored tuples are checked, so a generator passes as for funcs
    fs = (math.sin, math.cos)
    coeffs = CoefficientSet(funcs=(f for f in fs), d1=(f for f in fs), d2=(f for f in fs))
    assert coeffs.d1 == coeffs.d2 == coeffs.funcs == fs
    with pytest.raises(ValueError, match="d1 arity mismatch"):
        CoefficientSet(funcs=fs, d1=(f for f in fs[:1]), d2=fs)


def test_coefficient_derivatives_reject_non_finite():
    coeffs = CoefficientSet(funcs=(math.sin,), d1=(math.cos,), d2=(lambda t: math.inf,))
    with pytest.raises(ValueError, match="non-finite coefficient derivative"):
        coeffs.derivatives(0.0)
    coeffs = CoefficientSet(funcs=(math.sin,), d1=(lambda t: math.nan,), d2=(math.sin,))
    with pytest.raises(ValueError, match=r"non-finite coefficient derivative at t=0\.25"):
        coeffs.derivatives(0.25)


def test_coefficient_values_reject_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        coeffs = CoefficientSet(funcs=(math.sin, lambda t, bad=bad: bad))
        with pytest.raises(ValueError, match=r"non-finite coefficient value at t=0\.25"):
            coeffs.values(0.25)


def test_coefficient_values_are_float64():
    # Python floats, which are float64
    out = CoefficientSet(funcs=(lambda t: 1, math.cos)).values(0.0)
    assert [type(x) for x in out] == [float, float]
    assert out == [1.0, 1.0]
    # int-returning analytic derivatives too
    ints = CoefficientSet(funcs=(math.sin,), d1=(lambda t: 1,), d2=(lambda t: 0,))
    d1, d2 = ints.derivatives(0.0)
    assert [type(x) for x in d1 + d2] == [float, float]
    assert (d1, d2) == ([1.0], [0.0])
