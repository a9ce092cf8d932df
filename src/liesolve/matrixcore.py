"""Dense small-matrix arithmetic: products, commutators, exponential, norms.

Everything in this package runs on tiny dense real matrices (2x2 and 3x3 in
practice, n <= 16 tested), so the exponential uses plain scaling-and-squaring
with a Taylor kernel whose degree follows the norm, instead of Pade
machinery.
"""

import bisect
import math

import numpy as np

# Cap on the Taylor degree.  Degree m serves ||B|| up to _DEGREE_BOUNDS[m - 1],
# the norm at which the tail bound ||B||^(m+1) / (m+1)! reaches 2^-56.
TAYLOR_ORDER = 18
_DEGREE_BOUNDS = [
    (2.0 ** -56 * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(1, TAYLOR_ORDER + 1)
]


class DimensionMismatchError(ValueError):
    pass


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring.

    A diagonal A (A = 0 included) gives exactly diag(exp(a_ii)).  Otherwise
    s = max(0, ceil(log2(||A||_F)) + 2) squarings follow a Taylor polynomial
    in B = A / 2^s, evaluated by Horner at the smallest degree
    m <= TAYLOR_ORDER whose tail bound ||B||^(m+1) / (m+1)! is <= 2^-56
    (m = 6 at ||B|| = 6e-3, m = 12 at the largest ||B||, 1/4).  Relative
    error <= 1e-13 in Frobenius norm for ||A||_F <= 10.

    Overflow raises FloatingPointError naming ||A||_F, without a
    RuntimeWarning: on the diagonal path when some exp(a_ii) overflows, on
    the Taylor path when the squarings do (with s = 0 the polynomial is
    bounded by e^(1/4) and is not checked), and on both when ||A||_F itself
    overflows although the entries are finite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"need a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    nrm = math.hypot(*a.ravel().tolist())  # scaled internally: no overflow warning
    if nrm == math.inf:
        raise FloatingPointError("matrix exponential overflows (||A||_F overflows)")
    d = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(d):  # diagonal, A = 0 included
        with np.errstate(over="ignore"):
            acc = np.diag(np.exp(d))
    else:
        s = max(0, math.ceil(math.log2(nrm)) + 2)
        scale = math.ldexp(1.0, -s)  # 2.0 ** s overflows for s > 1023
        b = a * scale if s else a
        m = min(bisect.bisect_left(_DEGREE_BOUNDS, nrm * scale) + 1, TAYLOR_ORDER)
        eye = np.eye(n)
        acc = eye + b / m
        for k in range(m - 1, 0, -1):
            acc = eye + b @ acc / k
        if not s:
            return acc
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                acc = acc @ acc
    if not np.all(np.isfinite(acc)):
        raise FloatingPointError(f"matrix exponential overflows (||A||_F = {nrm:g})")
    return acc


def central_second_derivatives(f, t: float, step: float):
    """Central-difference first and second derivatives of a matrix curve.

    First derivative uses the 4th-order five-point stencil, second
    derivative the standard 2nd-order three-point stencil.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    fm2 = np.asarray(f(t - 2 * step), dtype=float)
    fm1 = np.asarray(f(t - step), dtype=float)
    f0 = np.asarray(f(t), dtype=float)
    fp1 = np.asarray(f(t + step), dtype=float)
    fp2 = np.asarray(f(t + 2 * step), dtype=float)
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * step)
    d2 = (fp1 - 2.0 * f0 + fm1) / (step * step)
    if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
        raise ValueError(f"non-finite derivative estimate at t={t}")
    return d1, d2
