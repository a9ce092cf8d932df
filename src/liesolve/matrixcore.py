"""Dense small-matrix arithmetic: the commutator and the exponential.

Everything in this package runs on tiny dense real matrices (2x2 and 3x3 in
practice, n <= 16 tested), so the exponential uses plain scaling-and-squaring
with a Taylor kernel whose degree follows the norm, instead of Pade
machinery.  At n = 3 (the CK systems) the Taylor polynomial is reduced by
Cayley-Hamilton to coordinates on I, B and B^2 (_taylor_cayley_hamilton); at
every other n Horner multiplies matrices and adds the identity terms of
_eye_terms.
"""

import bisect
import functools
import math

import numpy as np

# Cap on the Taylor degree.  Degree m serves ||B|| up to _DEGREE_BOUNDS[m - 1],
# the norm at which the tail bound ||B||^(m+1) / (m+1)! reaches 2^-56.
TAYLOR_ORDER = 18
_DEGREE_BOUNDS = [
    (2.0 ** -56 * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(1, TAYLOR_ORDER + 1)
]
# 1 / j! for j <= TAYLOR_ORDER, each correctly rounded (j! is exact in a float)
_INV_FACTORIALS = [1.0 / math.factorial(j) for j in range(TAYLOR_ORDER + 1)]
_FLOAT64 = np.dtype(float)  # the dtype of every matrix a step passes to mat_exp


@functools.cache
def _eye_terms(n: int) -> tuple:
    """The identity terms I / j! of the n x n Taylor polynomial, j <=
    TAYLOR_ORDER, built once per size n != 3 (n = 3 takes the
    Cayley-Hamilton path).  Read-only: mat_exp only adds them into arrays
    of its own."""
    terms = tuple(np.eye(n) * c for c in _INV_FACTORIALS)
    for term in terms:
        term.flags.writeable = False
    return terms


class DimensionMismatchError(ValueError):
    pass


def _real_array(a, name: str) -> np.ndarray:
    """a as a float64 array; complex entries, whose imaginary parts
    np.asarray(a, dtype=float) drops with a warning, raise TypeError."""
    if np.asarray(a).dtype.kind == "c":
        raise TypeError(f"{name} must be real, got complex entries")
    return np.asarray(a, dtype=float)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the array a is finite, checked on Python
    floats: at 3 x 3, np.isfinite(a).all() costs more than a product."""
    return all(map(math.isfinite, a.ravel().tolist()))


def _taylor_cayley_hamilton(b: np.ndarray, p: list, m: int) -> np.ndarray:
    """sum_{j<=m} B^j / j! for a 3 x 3 B whose entries, row-major, are the
    Python floats p.

    By Cayley-Hamilton every power of B is x I + y B + z B^2, with
    B^3 = e1 B^2 - e2 B + e3 I (e1 = tr B, e2 its principal 2 x 2 minors,
    e3 = det B).  So Horner's acc = B acc + I/j! runs on the coordinates
    (x, y, z), three float updates per degree, and the one numpy product
    is B^2.  The sum is
    I + B q(B) with q = sum_{1<=j<=m} B^(j-1) / j!; its I is added last,
    1 + (x + y b_ii + z b2_ii), so that each diagonal entry is rounded once
    after the small terms are summed."""
    c = _INV_FACTORIALS
    q = b.dot(b).ravel().tolist()
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = p
    e1 = b00 + b11 + b22
    e2 = b00 * b11 - b01 * b10 + b00 * b22 - b02 * b20 + b11 * b22 - b12 * b21
    e3 = (b00 * (b11 * b22 - b12 * b21) - b01 * (b10 * b22 - b12 * b20)
          + b02 * (b10 * b21 - b11 * b20))
    x, y, z = c[m], 0.0, 0.0
    for j in range(m - 1, 0, -1):  # B (x I + y B + z B^2), reduced by B^3
        x, y, z = c[j] + z * e3, x - z * e2, y + z * e1
    x, y, z = z * e3, x - z * e2, y + z * e1
    entries = [y * u + z * v for u, v in zip(p, q)]
    for i in (0, 4, 8):
        entries[i] = 1.0 + (x + entries[i])
    acc = np.array(entries)
    acc.shape = (3, 3)  # in place: the result owns its data
    return acc


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring.

    A diagonal A (A = 0 included) gives exactly diag(exp(a_ii)).  Otherwise
    s = max(0, ceil(log2(||A||_F)) + 2) squarings follow a Taylor polynomial
    in B = A / 2^s of the smallest degree m <= TAYLOR_ORDER whose tail
    bound ||B||^(m+1) / (m+1)! is <= 2^-56 (m = 6 at ||B|| = 6e-3, m = 12
    at the largest ||B||, 1/4).  The polynomial sum_{j<=m} B^j / j! is
    evaluated by Horner in coefficient form, acc = B acc + I/j!.  At
    n = 3 that recurrence runs on the coordinates of acc on I, B and B^2
    (Cayley-Hamilton), three float updates per degree and one product,
    B^2, at any degree.  At every other n it costs one product and one
    in-place sum per degree; the terms I/j! are built once per size n.
    The products (B^2 at n = 3, Horner's elsewhere and the squarings') go
    through ndarray.dot, which gives the same bits as @ on C-contiguous
    float64 input at about half its call cost.  Relative error <= 1e-13 in
    Frobenius norm for ||A||_F <= 10.

    Overflow raises FloatingPointError naming ||A||_F, without a
    RuntimeWarning: on the diagonal path when some exp(a_ii) overflows, on
    the Taylor path when the squarings do (with s = 0 the polynomial is
    bounded by e^(1/4) and is not checked), and on both when ||A||_F itself
    overflows although the entries are finite.  An entry that is not
    finite raises ValueError, and a complex A TypeError.
    """
    if getattr(a, "dtype", None) is not _FLOAT64:  # the steps pass float64: no test
        a = _real_array(a, "matrix A")
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    # the entries as Python floats serve the norm, the finite check and the
    # diagonal test: a numpy call costs more than this arithmetic at 3 x 3
    entries = a.ravel().tolist()
    nrm = math.hypot(*entries)  # scaled internally: no overflow warning
    if not math.isfinite(nrm):  # a non-finite entry, or finite ones that overflow it
        if not all(map(math.isfinite, entries)):
            raise ValueError("matrix entries must be finite")
        raise FloatingPointError("matrix exponential overflows (||A||_F overflows)")
    # diagonal (A = 0 included) when every off-diagonal entry is 0.0 or -0.0
    if entries.count(0.0) == entries[:: n + 1].count(0.0) + n * (n - 1):
        with np.errstate(over="ignore"):
            acc = np.diag(np.exp(np.diagonal(a)))
    else:
        s = max(0, math.ceil(math.log2(nrm)) + 2)
        scale = math.ldexp(1.0, -s)  # 2.0 ** s overflows for s > 1023
        b = a * scale if s else a
        m = min(bisect.bisect_left(_DEGREE_BOUNDS, nrm * scale) + 1, TAYLOR_ORDER)
        if n == 3:
            acc = _taylor_cayley_hamilton(b, b.ravel().tolist() if s else entries, m)
        else:
            # two numpy calls per degree and no np.eye per call: at small n
            # a numpy call costs more than its arithmetic, and @ costs about
            # twice ndarray.dot (the matmul gufunc machinery before the same
            # dgemm)
            eye_terms = _eye_terms(n)
            acc = b * _INV_FACTORIALS[m]
            acc += eye_terms[m - 1]
            for j in range(m - 2, -1, -1):
                acc = b.dot(acc)
                acc += eye_terms[j]
        if not s:
            return acc
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                acc = acc.dot(acc)
    if not _all_finite(acc):
        raise FloatingPointError(f"matrix exponential overflows (||A||_F = {nrm:g})")
    return acc

