import bisect
import math
import warnings

import numpy as np
import pytest

from liesolve.matrixcore import (
    _DEGREE_BOUNDS,
    _INV_FACTORIALS,
    TAYLOR_ORDER,
    DimensionMismatchError,
    commutator,
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


def test_mat_exp_zero_and_diagonal():
    assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))
    d = mat_exp(np.diag([math.log(2.0), math.log(3.0)]))
    assert np.allclose(d, np.diag([2.0, 3.0]), atol=1e-13)
    # a diagonal input takes the exact path
    for d in ([math.log(2.0), -3.5], [1e-9, 0.3, -7.0, 12.0]):
        assert np.array_equal(mat_exp(np.diag(d)), np.diag(np.exp(d)))
        # -0.0 off the diagonal counts as zero
        a = np.diag(d)
        a[1, 0] = -0.0
        assert np.array_equal(mat_exp(a), np.diag(np.exp(d)))


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


def test_mat_exp_rejects_a_complex_matrix():
    # np.asarray(a, dtype=float) dropped the imaginary part with only a
    # ComplexWarning and returned exp(0) = I for i sigma_x
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for a in (np.array([[0, 1j], [1j, 0]]), [[0.0, 1.0 + 0j], [0.0, 0.0]]):
            with pytest.raises(TypeError, match="^matrix A must be real, got complex entries$"):
                mat_exp(a)
    assert caught == []


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
    # ||A||_F is inf when an entry is inf, also beside a nan: still a
    # ValueError, not an overflow
    inf, nan = math.inf, math.nan
    for a in ([[0.0, nan], [0.0, 0.0]], [[inf, 0.0], [0.0, 0.0]], [[inf, nan], [0.0, 0.0]],
              [[1.0, -inf], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            mat_exp(np.array(a))
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


def _jordan(n, lam, nu, blocks):
    """lam I + nu N with N ones on the superdiagonal inside the blocks of
    the given sizes: one n-block is defective throughout, (2, 1) at n = 3
    a 2 x 2 Jordan block beside a simple eigenvalue."""
    a = lam * np.eye(n)
    i = 0
    for size in blocks:
        for k in range(i, i + size - 1):
            a[k, k + 1] = nu
        i += size
    return a


@pytest.mark.parametrize("blocks", [(2,), (3,), (2, 1)])
@pytest.mark.parametrize("lam", [0.0, 1e-3, -0.7, 2.5])
@pytest.mark.parametrize("nu", [1e-8, 0.1, 1.0])
def test_mat_exp_of_defective_and_repeated_eigenvalues_matches_mpmath(blocks, lam, nu):
    # neither the Cayley-Hamilton path (n = 3) nor Horner (n = 2) divides
    # by eigenvalue gaps: defective and repeated eigenvalues, as Jordan
    # blocks, similar to them (a non-triangular A) and, for (2, 1), a
    # repeated eigenvalue with two eigenvectors, are as accurate as generic
    # input.  Every A here has ||A||_F <= 7; the worst relative error
    # measured was 3.5e-15 on both paths, and the bound leaves 2.8x.
    mpmath = pytest.importorskip("mpmath")
    n = sum(blocks)
    similar = np.eye(n) + 0.5 * np.random.default_rng(n).normal(size=(n, n))
    jordan = _jordan(n, lam, nu, blocks)
    cases = [jordan, similar @ jordan @ np.linalg.inv(similar)]
    if blocks == (2, 1):
        repeated = np.diag([lam, lam, lam + nu])
        cases.append(similar @ repeated @ np.linalg.inv(similar))
    with mpmath.workdps(40):
        for a in cases:
            ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
            assert np.linalg.norm(mat_exp(a) - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [2, 3, 4, 16])
@pytest.mark.parametrize("norm", [1e-9, 1e-4, 6e-3, 0.05, 0.25])
def test_mat_exp_taylor_coefficients_on_a_shift_matrix(n, norm):
    # B = c N with N the shift matrix: entry (0, j) of the polynomial is
    # c^j / j! alone, so every coefficient up to the degree m shows, the top
    # one 1/m! included (its term is below the tolerance of the accuracy
    # tests).  ||B||_F <= 1/4 keeps s = 0; the terms past m are 0 and, by
    # the degree rule, below 2^-56.
    c = norm / math.sqrt(n - 1)
    got = mat_exp(c * np.eye(n, k=1))
    terms = [c ** j / math.factorial(j) for j in range(n)]
    kept = [j for j in range(n) if got[0, j] != 0.0]
    assert kept == list(range(len(kept)))
    for j, term in enumerate(terms):
        if j in kept:
            assert got[0, j] == pytest.approx(term, rel=1e-14, abs=0.0)
        else:
            assert term <= 2.0 ** -56
    assert np.array_equal(got, np.triu(got))
    assert all(np.array_equal(np.diagonal(got, j), np.full(n - j, got[0, j])) for j in range(n))


def _scaled(a):
    """mat_exp's scaling and degree rule for a non-diagonal A: (B, m, s)."""
    nrm = math.hypot(*a.ravel().tolist())
    s = max(0, math.ceil(math.log2(nrm)) + 2)
    scale = math.ldexp(1.0, -s)
    m = min(bisect.bisect_left(_DEGREE_BOUNDS, nrm * scale) + 1, TAYLOR_ORDER)
    return (a * scale if s else a), m, s


def _squared(acc, s):
    for _ in range(s):
        acc = acc @ acc
    return acc


def _mat_exp_with_matmul(a):
    """mat_exp's path at n != 3, Horner, with every product as @:
    (exp(A), degree m, squarings s) for a non-diagonal A."""
    n = len(a)
    b, m, s = _scaled(a)
    acc = b * _INV_FACTORIALS[m] + np.eye(n) * _INV_FACTORIALS[m - 1]
    for j in range(m - 2, -1, -1):
        acc = b @ acc + np.eye(n) * _INV_FACTORIALS[j]
    return _squared(acc, s), m, s


def _mat_exp_cayley_hamilton_with_matmul(a):
    """mat_exp's path at n = 3, with B^2 and the squarings as @: Horner on
    the coordinates (x, y, z) of acc = x I + y B + z B^2, reduced by the
    characteristic polynomial, then I + B q(B) with the I added last.
    (exp(A), degree m, squarings s) for a non-diagonal A."""
    b, m, s = _scaled(a)
    c = _INV_FACTORIALS
    rows, squares = b.tolist(), (b @ b).tolist()
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = rows
    e1 = b00 + b11 + b22
    e2 = b00 * b11 - b01 * b10 + b00 * b22 - b02 * b20 + b11 * b22 - b12 * b21
    e3 = (b00 * (b11 * b22 - b12 * b21) - b01 * (b10 * b22 - b12 * b20)
          + b02 * (b10 * b21 - b11 * b20))
    x, y, z = c[m], 0.0, 0.0
    for j in range(m - 1, 0, -1):
        x, y, z = c[j] + z * e3, x - z * e2, y + z * e1
    x, y, z = z * e3, x - z * e2, y + z * e1
    acc = np.array([[y * u + z * v for u, v in zip(row, square)]
                    for row, square in zip(rows, squares)])
    for i in range(3):
        acc[i, i] = 1.0 + (x + acc[i, i])
    return _squared(acc, s), m, s


def test_mat_exp_products_give_the_bits_of_matmul():
    # mat_exp multiplies through ndarray.dot because @ costs about twice as
    # much per call at 3 x 3; on C-contiguous float64 both run the same
    # dgemm.  If a numpy or BLAS upgrade ever separates the two paths, this
    # says so before a tolerance downstream drifts.  Each path has its
    # mirror: Cayley-Hamilton at n = 3 (where B^2 and the squarings are the
    # products), Horner at every other n.  The norms are those of
    # test_mat_exp_matches_mpmath, one just under each degree's bound and
    # two more, so that every degree and squaring count shows on each path.
    norms = [1e-9, 1e-4, 6e-3, 0.05, 0.2, 0.26, 1.0, 3.0, 10.0, 1.6, 6.0]
    norms += [0.9 * bound for bound in _DEGREE_BOUNDS[:11]]
    rng = np.random.default_rng(25)
    seen = {_mat_exp_with_matmul: set(), _mat_exp_cayley_hamilton_with_matmul: set()}
    for n in (2, 3, 4, 16):
        mirror = _mat_exp_cayley_hamilton_with_matmul if n == 3 else _mat_exp_with_matmul
        for norm in norms:
            for _ in range(3):
                a = rng.normal(size=(n, n))
                a *= norm / np.linalg.norm(a)
                assert a.flags.c_contiguous and a.dtype == np.float64
                expected, m, s = mirror(a)
                assert np.array_equal(mat_exp(a), expected)
                seen[mirror].add((m, s))
    for pairs in seen.values():
        assert {m for m, _ in pairs} == set(range(1, 13))
        assert {s for _, s in pairs} == set(range(7))


def test_mat_exp_identity_terms_do_not_leak_into_results():
    # the identity terms I / j! are built once per size and shared by every
    # call: a result mutated in place, and calls interleaving sizes and
    # degrees, leave later results unchanged
    rng = np.random.default_rng(5)
    cases = []
    for n in (2, 3, 4, 16):
        for norm in (1e-9, 6e-3, 0.2, 1.6):
            a = rng.normal(size=(n, n))
            cases.append(a * (norm / np.linalg.norm(a)))
    first = [mat_exp(a).copy() for a in cases]
    for _ in range(2):
        for a, expected in zip(cases[::-1], first[::-1]):
            got = mat_exp(a)
            assert got.flags.writeable and got.flags.owndata
            assert np.array_equal(got, expected)
            got[...] = math.nan
    for a, expected in zip(cases, first):
        assert np.array_equal(mat_exp(a), expected)
        # and the shared terms were right to begin with
        ref = np.eye(len(a))
        term = np.eye(len(a))
        for j in range(1, 30):
            term = term @ a / j
            ref = ref + term
        assert np.linalg.norm(expected - ref) <= 1e-13 * np.linalg.norm(ref)
