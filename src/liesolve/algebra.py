"""Lie-algebra layer: basis with structure constants, the coefficients
b(t) of A(t) = sum_a b_a(t) M_a, and the truncated dexp-inverse series.

An algebra element sum_a w_a M_a is held as its coordinate vector w; the
basis turns w into the n x n matrix through its nonzero generator entries
(element) and brackets coordinate vectors as Python floats through its
nonzero structure constants (bracket), so that dexp-inverse runs on
r-vectors too (dexpinv2)."""

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .matrixcore import DimensionMismatchError, _real_array, commutator

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


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """Ordered basis M_1..M_r of a matrix Lie algebra with its structure
    constants c[a][b][g], so that [M_a, M_b] = sum_g c[a][b][g] M_g.
    Equality and hash go by identity: the fields are arrays.

    Three kernels on coordinate lists are set per basis, generated from its
    nonzero structure constants and generator entries (_kernel_source):
    bracket(u, v) returns the coordinates of [u, v], and dexpinv2(theta, v)
    those of v - [theta, v]/2 + [theta, [theta, v]]/12, the dexp-inverse
    series truncated at order 2 (an RKMK stage).  Both return lists of
    Python floats, rounded exactly as _dexpinv_series over the loop
    out[g] += c[a][b][g] * u[a] * v[b] in np.argwhere order.  element(w)
    takes r floats (a list or a 1-D array) and returns the n x n matrix
    sum_a w_a M_a as a float64 array."""

    generators: tuple
    structure_constants: np.ndarray

    def __post_init__(self):
        gens = tuple(_real_array(g, "generators") for g in self.generators)
        object.__setattr__(self, "generators", gens)
        c = _real_array(self.structure_constants, "structure constants")
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
        # the (a, b, g) of the nonzero constants: 6 on CK, none if abelian,
        # and the (a, i) of the nonzero generator entries, M_a.flat[i]: 6 on CK
        pattern = tuple(map(tuple, np.argwhere(c).tolist()))
        entries = tuple(map(tuple, np.argwhere(v).tolist()))
        make = _compile_kernels(self.n, r, pattern, entries)
        bracket, dexpinv2, element = make(
            *[c[abg].item() for abg in pattern],
            *[v[ai].item() for ai in entries],
            _DEXPINV_COEFFS[1],
            _DEXPINV_COEFFS[2],
        )
        object.__setattr__(self, "bracket", bracket)
        object.__setattr__(self, "dexpinv2", dexpinv2)
        object.__setattr__(self, "element", element)

    def __reduce__(self):
        # the kernels are closures, which pickle cannot store: the copy is
        # built again from the two fields
        return type(self), (self.generators, self.structure_constants)

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
        gens = [_real_array(g, "generators") for g in generators]
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


def _kernel_source(n: int, r: int, pattern: tuple, entries: tuple) -> str:
    """Source of make(c0, .., e0, .., b1, b2), which binds a basis's constants
    c_k = c[a][b][g] at pattern[k] = (a, b, g), its generator entries
    e_k = M_a.flat[i] at entries[k] = (a, i) and the series coefficients
    b1 = -1/2, b2 = 1/12 into its three kernels, bracket, dexpinv2 and
    element.

    Each out[g] is 0.0 + c_k u[a] v[b] + ... over pattern in order, with
    (c_k u[a]) v[b] as the product, as in the loop it replaces; dexpinv2
    forms k_k = c_k theta[a] once for both of its brackets.  Each entry i of
    element is 0.0 + e_k w[a] + ... over entries in order, the sum that
    w @ (the stacked flat generators) forms from +0.0 with its zero terms
    left out: the same bits where an entry has at most one nonzero term."""

    def unpack(x):
        return ", ".join(f"{x}{i}" for i in range(r)) + f", = {x}"

    def sums(size, terms):
        # the size sums 0.0 + term + ..., from (output index, term) in order
        rows = [["0.0"] for _ in range(size)]
        for at, term in terms:
            rows[at].append(term)
        return [" + ".join(row) for row in rows]

    bracket = sums(r, ((g, f"c{k}*u{a}*v{b}") for k, (a, b, g) in enumerate(pattern)))
    p = sums(r, ((g, f"k{k}*v{b}") for k, (_, b, g) in enumerate(pattern)))
    q = sums(r, ((g, f"k{k}*p{b}") for k, (_, b, g) in enumerate(pattern)))
    matrix = sums(n * n, ((i, f"e{k}*w{a}") for k, (a, i) in enumerate(entries)))
    params = [f"c{k}" for k in range(len(pattern))] + [f"e{k}" for k in range(len(entries))]
    lines = [
        f"def make({', '.join(params + ['b1', 'b2'])}):",
        "    def bracket(u, v):",
        f"        {unpack('u')}",
        f"        {unpack('v')}",
        f"        return [{', '.join(bracket)}]",
        "",
        "    def dexpinv2(t, v):",
        f"        {unpack('t')}",
        f"        {unpack('v')}",
        *(f"        k{k} = c{k}*t{a}" for k, (a, _, _) in enumerate(pattern)),
        *(f"        p{g} = {x}" for g, x in enumerate(p)),
        *(f"        q{g} = {x}" for g, x in enumerate(q)),
        f"        return [{', '.join(f'(v{g} + b1*p{g}) + b2*q{g}' for g in range(r))}]",
        "",
        "    def element(w):",
        f"        {unpack('w')}",
        f"        return array([{', '.join(matrix)}]).reshape({n}, {n})",
        "",
        "    return bracket, dexpinv2, element",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _compile_kernels(n: int, r: int, pattern: tuple, entries: tuple):
    """make for the sparsity pattern (see _kernel_source), compiled once per
    (n, r, pattern, entries): straight-line code, because at r = 3 a call
    and a loop step cost more than the arithmetic.  Each basis binds its own
    constants and generator entries."""
    namespace = {"__name__": __name__, "array": np.array}
    filename = (
        f"<liesolve.algebra kernels, n={n}, r={r}, {len(pattern)} constants, "
        f"{len(entries)} entries>"
    )
    exec(compile(_kernel_source(n, r, pattern, entries), filename, "exec"), namespace)
    return namespace["make"]


@dataclass(frozen=True)
class CoefficientSet:
    """The scalar coefficients b_a(t) building A(t) = sum_a b_a(t) M_a, with
    analytic derivatives d1 and d2, or neither: magnus4 then steps on b alone."""

    funcs: tuple
    d1: Optional[tuple] = None
    d2: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "funcs", tuple(self.funcs))
        for name in ("d1", "d2"):
            derivs = getattr(self, name)
            if derivs is not None:
                derivs = tuple(derivs)  # a generator has no len()
                object.__setattr__(self, name, derivs)
                if len(derivs) != len(self.funcs):
                    raise ValueError(f"{name} arity mismatch")
        if (self.d1 is None) != (self.d2 is None):
            raise ValueError("give both analytic derivatives d1 and d2, or neither")

    @property
    def r(self) -> int:
        return len(self.funcs)

    def values(self, t: float) -> list:
        """b(t) as a list of Python floats."""
        return _floats(self.funcs, t, "value")

    def derivatives(self, t: float):
        """(b'(t), b''(t)) from the analytic d1 and d2, as two lists of
        Python floats; a set without them raises ValueError."""
        if self.d1 is None:
            raise ValueError("no analytic derivatives: d1 and d2 were not given")
        return _floats(self.d1, t, "derivative"), _floats(self.d2, t, "derivative")


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
