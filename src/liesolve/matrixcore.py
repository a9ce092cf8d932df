"""Dense small-matrix arithmetic: products, commutators, exponential, norms.

Everything in this package runs on tiny dense real matrices (2x2 and 3x3 in
practice, n <= 16 tested), so the exponential uses plain scaling-and-squaring
with a truncated Taylor kernel instead of Pade machinery.
"""

import math

import numpy as np

TAYLOR_ORDER = 18


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

    Squaring count s = max(0, ceil(log2(||A||_F)) + 2), Taylor kernel of
    order 18 on the scaled matrix.  Relative error <= 1e-12 in Frobenius
    norm for ||A||_F <= 10.  A result that overflows in the squarings
    raises FloatingPointError; with s = 0 the Taylor sum is bounded by
    e^(1/4) and is not checked.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    nrm = frobenius_norm(a)
    if nrm == 0.0:
        return np.eye(n)
    s = max(0, math.ceil(math.log2(nrm)) + 2)
    b = a / (2.0 ** s)
    term = np.eye(n)
    acc = np.eye(n)
    for k in range(1, TAYLOR_ORDER + 1):
        term = term @ b / k
        acc = acc + term
    if s:
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
