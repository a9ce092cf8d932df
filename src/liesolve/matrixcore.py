"""Dense small-matrix arithmetic: the commutator and the exponential.

Everything in this package runs on tiny dense real matrices (2x2 and 3x3 in
practice, n <= 16 tested), so the exponential uses plain scaling-and-squaring
with a Taylor kernel whose degree follows the norm, instead of Pade
machinery.
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


@functools.cache
def _eye_terms(n: int) -> tuple:
    """The identity terms I / j! of the n x n Taylor polynomial, j <=
    TAYLOR_ORDER, built once per size.  Read-only: mat_exp only adds them
    into arrays of its own."""
    terms = tuple(np.eye(n) * c for c in _INV_FACTORIALS)
    for term in terms:
        term.flags.writeable = False
    return terms


class DimensionMismatchError(ValueError):
    pass


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
    evaluated by Horner in coefficient form, acc = B acc + I/j!, one
    product and one in-place sum per degree; the terms I/j! are built once
    per size n.  The products, Horner's and the squarings', go through
    ndarray.dot, which gives the same bits as @ on C-contiguous float64
    input at about half its call cost.  Relative error <= 1e-13 in
    Frobenius norm for ||A||_F <= 10.

    Overflow raises FloatingPointError naming ||A||_F, without a
    RuntimeWarning: on the diagonal path when some exp(a_ii) overflows, on
    the Taylor path when the squarings do (with s = 0 the polynomial is
    bounded by e^(1/4) and is not checked), and on both when ||A||_F itself
    overflows although the entries are finite.  An entry that is not
    finite raises ValueError.
    """
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
        # two numpy calls per degree and no np.eye per call: at 3 x 3 a
        # numpy call costs more than its arithmetic, and @ costs about twice
        # ndarray.dot (the matmul gufunc machinery before the same dgemm)
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
    if not np.isfinite(acc).all():
        raise FloatingPointError(f"matrix exponential overflows (||A||_F = {nrm:g})")
    return acc

