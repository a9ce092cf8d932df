"""Lie-algebra layer: basis with structure constants, A(t) assembly and the
truncated dexp-inverse series.

An algebra element sum_a w_a M_a is held as its coordinate vector w; the
basis turns w into the n x n matrix (element) and gives the r x r matrix of
ad_u (ad), so that brackets and dexp-inverse run on r-vectors through the
structure constants."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .matrixcore import DimensionMismatchError, central_second_derivatives, commutator

# Convention with B1 = -1/2 (the one that makes the dexp-inverse truncation
# read H - [W,H]/2 + [W,[W,H]]/12 + ...).
_BERNOULLI = (
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
)

MAX_DEXPINV_ORDER = len(_BERNOULLI) - 1

# The dexp-inverse series coefficients B_i / i!, as floats.
_DEXPINV_COEFFS = tuple(float(b / math.factorial(i)) for i, b in enumerate(_BERNOULLI))

STRUCTURE_TOL = 1e-10

# Default finite-difference step for coefficient derivatives; balances
# truncation vs round-off at double precision for smooth coefficients.
def default_fd_step(t: float) -> float:
    return max(1e-4, 1e-4 * abs(t))


@dataclass(frozen=True)
class AlgebraBasis:
    """Ordered basis M_1..M_r of a matrix Lie algebra with its structure
    constants c[a][b][g], so that [M_a, M_b] = sum_g c[a][b][g] M_g."""

    generators: tuple
    structure_constants: np.ndarray

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=float) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        c = np.asarray(self.structure_constants, dtype=float)
        object.__setattr__(self, "structure_constants", c)
        r = len(gens)
        if r == 0:
            raise ValueError("basis needs at least one generator")
        n = gens[0].shape[0]
        for g in gens:
            if g.shape != (n, n):
                raise ValueError("all generators must share the same square shape")
        if c.shape != (r, r, r):
            raise ValueError(f"structure constants must have shape ({r},{r},{r})")
        if not np.allclose(c, -np.transpose(c, (1, 0, 2)), atol=STRUCTURE_TOL):
            raise ValueError("structure constants are not antisymmetric")
        for a in range(r):
            for b in range(r):
                lhs = commutator(gens[a], gens[b])
                rhs = sum(c[a, b, g] * gens[g] for g in range(r))
                if np.linalg.norm(lhs - rhs) > STRUCTURE_TOL:
                    raise ValueError(
                        f"structure constants do not reproduce [M_{a}, M_{b}]"
                    )
        v = np.stack([g.ravel() for g in gens])
        if np.linalg.matrix_rank(v, tol=1e-12 * max(1.0, np.abs(v).max())) < r:
            raise ValueError("generators are linearly dependent")
        object.__setattr__(self, "_flat_generators", v)
        object.__setattr__(self, "_flat_constants", c.reshape(r, r * r))

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        return self.generators[0].shape[0]

    def element(self, w: np.ndarray) -> np.ndarray:
        """The matrix sum_a w_a M_a of the coordinate vector w."""
        return (w @ self._flat_generators).reshape(self.n, self.n)

    def ad(self, u: np.ndarray) -> np.ndarray:
        """The r x r matrix of ad_u: the coordinates of [u, v] are v @ ad(u)."""
        r = self.r
        return (u @ self._flat_constants).reshape(r, r)

    @classmethod
    def from_generators(cls, generators: Sequence[np.ndarray]) -> "AlgebraBasis":
        """Derive structure constants by least squares on the vectorized
        generators (they must actually close under the bracket)."""
        gens = [np.asarray(g, dtype=float) for g in generators]
        r = len(gens)
        v = np.stack([g.ravel() for g in gens]).T  # (n^2, r)
        c = np.zeros((r, r, r))
        for a in range(r):
            for b in range(r):
                w = commutator(gens[a], gens[b]).ravel()
                coef, *_ = np.linalg.lstsq(v, w, rcond=None)
                c[a, b] = coef
        return cls(tuple(gens), c)


@dataclass(frozen=True)
class CoefficientSet:
    """The scalar coefficients b_a(t) building A(t) = sum_a b_a(t) M_a,
    with optional analytic first/second derivatives."""

    funcs: tuple
    d1: Optional[tuple] = None
    d2: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "funcs", tuple(self.funcs))
        for name in ("d1", "d2"):
            derivs = getattr(self, name)
            if derivs is not None:
                object.__setattr__(self, name, tuple(derivs))
                if len(derivs) != len(self.funcs):
                    raise ValueError(f"{name} arity mismatch")

    @property
    def r(self) -> int:
        return len(self.funcs)

    def values(self, t: float) -> np.ndarray:
        # Python floats: a numpy array and its checks cost more than the
        # arithmetic for a handful of coefficients
        out = [float(f(t)) for f in self.funcs]
        if not all(map(math.isfinite, out)):
            raise ValueError(f"non-finite coefficient value at t={t}")
        return np.array(out)

    def derivatives(self, t: float):
        """(b'(t), b''(t)), analytic where derivatives were supplied and
        central differences of values (step default_fd_step(t)) otherwise."""
        if self.d1 is None or self.d2 is None:
            fd1, fd2 = central_second_derivatives(self.values, t, default_fd_step(t))
        analytic = lambda fs: np.array([f(t) for f in fs], dtype=float)
        d1 = fd1 if self.d1 is None else analytic(self.d1)
        d2 = fd2 if self.d2 is None else analytic(self.d2)
        if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
            raise ValueError(f"non-finite coefficient derivative at t={t}")
        return d1, d2


def _check_arity(basis: AlgebraBasis, coeffs: CoefficientSet) -> None:
    if coeffs.r != basis.r:
        raise ValueError(f"coefficient arity {coeffs.r} != basis rank {basis.r}")


def assemble_A(basis: AlgebraBasis, coeffs: CoefficientSet, t: float) -> np.ndarray:
    """A(t) = sum_a b_a(t) M_a."""
    _check_arity(basis, coeffs)
    return basis.element(coeffs.values(t))


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_DEXPINV_ORDER:
        raise ValueError(f"truncation order must be in [0, {MAX_DEXPINV_ORDER}], got {order}")


def _dexpinv_series(bracket, h: np.ndarray, order: int) -> np.ndarray:
    """sum_{i=0..order} (B_i / i!) bracket^i (h), where bracket applies
    ad_omega to matrices or to coordinate vectors alike."""
    acc = h.copy()
    ad = h
    for i in range(1, order + 1):
        ad = bracket(ad)
        if _DEXPINV_COEFFS[i] != 0:
            acc = acc + _DEXPINV_COEFFS[i] * ad
    return acc


def dexpinv(omega: np.ndarray, h: np.ndarray, order: int) -> np.ndarray:
    """Truncated inverse differential of exp:
    sum_{i=0..order} (B_i / i!) ad_omega^i (H).

    Accuracy is only guaranteed for ||omega||_F <= 1; the series needs a
    convergence condition that the callers enforce by keeping per-step
    increments small.
    """
    omega = np.asarray(omega, dtype=float)
    h = np.asarray(h, dtype=float)
    if omega.shape != h.shape:
        raise DimensionMismatchError(f"shape mismatch: {omega.shape} vs {h.shape}")
    _check_order(order)
    return _dexpinv_series(lambda x: commutator(omega, x), h, order)
