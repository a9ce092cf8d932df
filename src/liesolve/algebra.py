"""Lie-algebra layer: basis with structure constants, A(t) assembly,
Bernoulli numbers, and the truncated dexp-inverse series."""

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


def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j (B1 = -1/2 convention), j <= 10."""
    if not 0 <= j <= MAX_DEXPINV_ORDER:
        raise ValueError(f"Bernoulli numbers supported for 0 <= j <= {MAX_DEXPINV_ORDER}, got {j}")
    return _BERNOULLI[j]


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

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        return self.generators[0].shape[0]

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
        out = np.array([f(t) for f in self.funcs], dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"non-finite coefficient value at t={t}")
        return out


def _combine(weights, mats, n: int) -> np.ndarray:
    """sum_a w_a M_a as an n x n matrix, accumulated from zeros in order.
    Skipping zero weights leaves the sum bit-identical for finite terms."""
    out = np.zeros((n, n))
    for w, m in zip(weights, mats):
        if w != 0.0:
            out += w * m
    return out


def assemble_A(basis: AlgebraBasis, coeffs: CoefficientSet, t: float) -> np.ndarray:
    """A(t) = sum_a b_a(t) M_a."""
    if coeffs.r != basis.r:
        raise ValueError(f"coefficient arity {coeffs.r} != basis rank {basis.r}")
    return _combine(coeffs.values(t), basis.generators, basis.n)


def assemble_A_derivatives(basis: AlgebraBasis, coeffs: CoefficientSet, t: float):
    """(dA/dt, d2A/dt2) at t, analytic where derivatives were supplied and
    central differences (step default_fd_step(t)) otherwise."""
    if coeffs.r != basis.r:
        raise ValueError(f"coefficient arity {coeffs.r} != basis rank {basis.r}")

    need_fd = coeffs.d1 is None or coeffs.d2 is None
    if need_fd:
        fd1, fd2 = central_second_derivatives(
            lambda s: assemble_A(basis, coeffs, s), t, default_fd_step(t)
        )

    analytic = lambda fs: _combine((f(t) for f in fs), basis.generators, basis.n)
    d1 = fd1 if coeffs.d1 is None else analytic(coeffs.d1)
    d2 = fd2 if coeffs.d2 is None else analytic(coeffs.d2)
    if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
        raise ValueError(f"non-finite coefficient derivative at t={t}")
    return d1, d2


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
    if not 0 <= order <= MAX_DEXPINV_ORDER:
        raise ValueError(f"truncation order must be in [0, {MAX_DEXPINV_ORDER}], got {order}")
    acc = h.copy()
    ad = h
    for i in range(1, order + 1):
        ad = commutator(omega, ad)
        if _DEXPINV_COEFFS[i] != 0:
            acc = acc + _DEXPINV_COEFFS[i] * ad
    return acc
