"""Lie-algebra layer: basis with structure constants, A(t) assembly and the
truncated dexp-inverse series.

An algebra element sum_a w_a M_a is held as its coordinate vector w; the
basis turns w into the n x n matrix (element) and brackets coordinate
vectors as Python floats through its nonzero structure constants (bracket),
so that dexp-inverse runs on r-vectors too."""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .matrixcore import DimensionMismatchError, commutator

# The dexp-inverse series coefficients B_i / i!, in the Bernoulli convention
# B_1 = -1/2 that makes the truncation read H - [W,H]/2 + [W,[W,H]]/12 + ...
# Each is the float nearest the exact fraction.
_DEXPINV_COEFFS = (
    1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0, -1 / 1209600, 0.0, 1 / 47900160,
)

MAX_DEXPINV_ORDER = len(_DEXPINV_COEFFS) - 1

STRUCTURE_TOL = 1e-10


def _check_generators(gens) -> None:
    if not gens:
        raise ValueError("basis needs at least one generator")
    shape = gens[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(g.shape != shape for g in gens):
        raise ValueError("all generators must share the same square shape")


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
        _check_generators(gens)
        r = len(gens)
        if c.shape != (r, r, r):
            raise ValueError(f"structure constants must have shape ({r},{r},{r})")
        v = np.stack([g.ravel() for g in gens])
        # an inf constant passes the checks below: inf * 0 = nan, and nan > tol is False
        if not (np.isfinite(v).all() and np.isfinite(c).all()):
            raise ValueError("generators and structure constants must be finite")
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
        if np.linalg.matrix_rank(v, tol=1e-12 * max(1.0, np.abs(v).max())) < r:
            raise ValueError("generators are linearly dependent")
        object.__setattr__(self, "_flat_generators", v)
        # (a, b, g, c[a][b][g]) over the nonzero constants: 6 on CK, 0 if abelian
        terms = tuple((a, b, g, c[a, b, g].item()) for a, b, g in np.argwhere(c).tolist())
        object.__setattr__(self, "_bracket_terms", terms)

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        return self.generators[0].shape[0]

    def element(self, w: np.ndarray) -> np.ndarray:
        """The matrix sum_a w_a M_a of the coordinate vector w."""
        return (w @ self._flat_generators).reshape(self.n, self.n)

    def bracket(self, u, v) -> list:
        """The coordinates of [u, v] as a list of Python floats."""
        out = [0.0] * self.r
        for a, b, g, c in self._bracket_terms:
            out[g] += c * u[a] * v[b]
        return out

    @classmethod
    def from_generators(cls, generators: Sequence[np.ndarray]) -> "AlgebraBasis":
        """Derive structure constants by least squares on the vectorized
        generators (they must actually close under the bracket)."""
        gens = [np.asarray(g, dtype=float) for g in generators]
        _check_generators(gens)
        r = len(gens)
        v = np.stack([g.ravel() for g in gens]).T  # (n^2, r)
        if not np.isfinite(v).all():
            raise ValueError("generators must be finite")
        # finite generators can still overflow in their products
        with np.errstate(over="ignore", invalid="ignore"):
            brackets = [[commutator(g, f).ravel() for f in gens] for g in gens]
        if not np.isfinite(brackets).all():
            raise ValueError("commutators of the generators overflow")
        c = np.zeros((r, r, r))
        for a in range(r):
            for b in range(r):
                c[a, b] = np.linalg.lstsq(v, brackets[a][b], rcond=None)[0]
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

    def values(self, t: float) -> list:
        """b(t) as a list of Python floats."""
        return _floats(self.funcs, t, "value")

    def derivatives(self, t: float):
        """(b'(t), b''(t)) as two lists of Python floats, analytic where
        derivatives were supplied and central differences of values
        otherwise: the five-point stencil for b', the three-point one for
        b'', with step max(1e-4, 1e-4 |t|)."""
        if self.d1 is None or self.d2 is None:
            # the step balances truncation against round-off at double
            # precision for smooth coefficients
            h = max(1e-4, 1e-4 * abs(t))
            fm2, fm1, f0, fp1, fp2 = (
                _floats(self.funcs, s, "value") for s in (t - 2 * h, t - h, t, t + h, t + 2 * h)
            )
            fd1 = [
                (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
                for m2, m1, p1, p2 in zip(fm2, fm1, fp1, fp2)
            ]
            fd2 = [(p1 - 2.0 * x + m1) / (h * h) for m1, x, p1 in zip(fm1, f0, fp1)]
            if not all(map(math.isfinite, fd1 + fd2)):
                raise ValueError(f"non-finite derivative estimate at t={t}")
        d1 = fd1 if self.d1 is None else _floats(self.d1, t, "derivative")
        d2 = fd2 if self.d2 is None else _floats(self.d2, t, "derivative")
        return d1, d2


def _floats(funcs: tuple, t: float, what: str) -> list:
    """The list of f(t) over funcs as Python floats; a non-finite value
    raises ValueError naming what and t."""
    # Python floats: a numpy array and its checks cost more than the
    # arithmetic for a handful of coefficients
    out = [float(f(t)) for f in funcs]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"non-finite coefficient {what} at t={t}")
    return out


def _check_arity(basis: AlgebraBasis, coeffs: CoefficientSet) -> None:
    if coeffs.r != basis.r:
        raise ValueError(f"coefficient arity {coeffs.r} != basis rank {basis.r}")


def assemble_A(basis: AlgebraBasis, coeffs: CoefficientSet, t: float) -> np.ndarray:
    """A(t) = sum_a b_a(t) M_a."""
    _check_arity(basis, coeffs)
    return basis.element(coeffs.values(t))


def _dexpinv_series(bracket, h: list, order: int) -> list:
    """sum_{i=0..order} (B_i / i!) bracket^i (h) on a list of Python floats,
    where bracket applies ad_omega to such a list: coordinate vectors, or
    the entries of a matrix."""
    acc = ad = h
    for coeff in _DEXPINV_COEFFS[1 : order + 1]:
        ad = bracket(ad)
        if coeff:
            acc = [x + coeff * y for x, y in zip(acc, ad)]
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
    if not 0 <= order <= MAX_DEXPINV_ORDER:
        raise ValueError(f"truncation order must be in [0, {MAX_DEXPINV_ORDER}], got {order}")
    ad_omega = lambda x: commutator(omega, np.reshape(x, h.shape)).ravel().tolist()
    return np.reshape(_dexpinv_series(ad_omega, h.ravel().tolist(), order), h.shape)
