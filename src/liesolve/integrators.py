"""One-step integrators on the group side: Magnus 2/4 and RKMK increments,
the group recursion Y_{k+1} = exp(W_k) Y_k, and a plain RK4 baseline.

The increments are computed in algebra coordinates: coefficient vectors,
brackets through the structure constants (AlgebraBasis.ad) and dexp-inverse
on r-vectors, with one n x n assembly (AlgebraBasis.element) per step."""

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .algebra import (
    AlgebraBasis,
    CoefficientSet,
    _check_order,
    _dexpinv_series,
    assemble_A,
)
from .matrixcore import frobenius_norm, mat_exp

# Absolute-convergence bound for the increment series: a step is safe when
# the integral of ||A|| over it stays below this.
MAGNUS_CONVERGENCE_RADIUS = 1.086868702


class _StepError(Exception):
    """A solve stopped at a step; carries the failing step index and the
    partial trajectory when raised inside a solve loop."""

    def __init__(self, message, step: Optional[int] = None, partial=None):
        super().__init__(message)
        self.step = step
        self.partial = partial


class NonFiniteStateError(_StepError, FloatingPointError):
    """The group element or the manifold state stopped being finite (the
    solution blew up)."""


@dataclass(frozen=True)
class ButcherTable:
    """Explicit Runge-Kutta tableau (a strictly lower triangular)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        a, b, c = self.a, self.b, self.c
        s = len(b)
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError("tableau dimensions are inconsistent")
        if abs(b.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (consistency)")
        if c[0] != 0.0:
            raise ValueError("explicit method needs c[0] = 0")
        if np.any(np.triu(a) != 0.0):
            raise ValueError("explicit method needs a strictly lower triangular tableau")

    @property
    def stages(self) -> int:
        return len(self.b)


RK4_TABLE = ButcherTable(
    a=np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    ),
    b=np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]),
    c=np.array([0.0, 0.5, 0.5, 1.0]),
    order=4,
)

@dataclass(frozen=True)
class StepperConfig:
    """Method selection for the group-side stepper.

    For rkmk, the series truncation must satisfy j >= p - 2, where p is the
    tableau's order; the step size itself comes from the (t0, t1, N) split.
    """

    method: str
    butcher: ButcherTable = RK4_TABLE
    truncation_order: int = 2

    def __post_init__(self):
        if self.method not in ("magnus2", "magnus4", "rkmk"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "rkmk":
            j = self.truncation_order
            _check_order(j)
            if j < self.butcher.order - 2:
                raise ValueError(
                    f"truncation order {j} too low for an order-{self.butcher.order} tableau "
                    f"(need j >= p - 2)"
                )


@dataclass
class GroupTrajectory:
    """Times t_k, group elements Y_k and algebra increments W_k, with
    Y_{k+1} = exp(W_k) Y_k.  Over N steps of an n x n group, elements is an
    (N+1, n, n) array and increments an (N, n, n) array."""

    times: np.ndarray
    elements: np.ndarray
    increments: np.ndarray

    def _cut(self, k: int) -> None:
        """Cut in place to t_0..t_k: k+1 elements and k increments, copied out
        of the full-length buffers so that nothing still holds those.  A no-op
        when the trajectory has k increments already."""
        if len(self.increments) > k:
            self.times = self.times[: k + 1].copy()
            self.elements = self.elements[: k + 1].copy()
            self.increments = self.increments[:k].copy()


def _new_group(times: np.ndarray, y0: np.ndarray) -> GroupTrajectory:
    """A group trajectory over times with Y_0 = y0 and its other rows
    allocated, to be filled by _group_steps."""
    n_steps = len(times) - 1
    elements = np.empty((n_steps + 1,) + y0.shape)
    elements[0] = y0
    return GroupTrajectory(times, elements, np.empty((n_steps,) + y0.shape))


def magnus2_increment(
    basis: AlgebraBasis, coeffs: CoefficientSet, t_k: float, h: float
) -> np.ndarray:
    """Order 2: W_k = h A(t_k + h/2)."""
    if h <= 0:
        raise ValueError("h must be positive")
    return h * assemble_A(basis, coeffs, t_k + 0.5 * h)


def magnus4_increment(
    basis: AlgebraBasis,
    coeffs: CoefficientSet,
    t_k: float,
    h: float,
) -> np.ndarray:
    """Order 4: with b, b', b'' the coefficients and their derivatives at
    t+h/2, W_k = h b + h^3 (b''/24 - [b, b'/12]), i.e.
    h A + h^3 (A''/24 - [A, A'/12]) at t+h/2."""
    if h <= 0:
        raise ValueError("h must be positive")
    t_half = t_k + 0.5 * h
    b = coeffs.values(t_half)
    d1, d2 = coeffs.derivatives(t_half)
    w = h * b + h ** 3 * (d2 / 24.0 - (d1 / 12.0) @ basis.ad(b))
    return basis.element(w)


def rkmk_increment(
    basis: AlgebraBasis,
    coeffs: CoefficientSet,
    butcher: ButcherTable,
    truncation_order: int,
    t_k: float,
    h: float,
) -> np.ndarray:
    """Stagewise T_l = h sum_m a[l,m] F_m, F_l = dexpinv(T_l, A(t_k + c_l h)),
    then W = h sum_l b_l F_l.  Runs on coordinate vectors: T_0 = 0 gives
    F_0 = b(t_k), the coefficients are evaluated once per distinct c_l, and
    dexpinv(T, v) = sum_i (B_i / i!) v ad(T)^i."""
    if h <= 0:
        raise ValueError("h must be positive")
    _check_order(truncation_order)
    if truncation_order < butcher.order - 2:
        raise ValueError("truncation order violates j >= p - 2")
    values = {0.0: coeffs.values(t_k)}
    f = np.empty((butcher.stages, coeffs.r))
    f[0] = values[0.0]
    for l in range(1, butcher.stages):
        c = butcher.c[l]
        if c not in values:
            values[c] = coeffs.values(t_k + c * h)
        ad = basis.ad(h * (butcher.a[l, :l] @ f[:l]))
        f[l] = _dexpinv_series(lambda v: v @ ad, values[c], truncation_order)
    return basis.element(h * (butcher.b @ f))


def make_increment_fn(
    basis: AlgebraBasis, coeffs: CoefficientSet, config: StepperConfig
) -> Callable[[float, float], np.ndarray]:
    if config.method == "magnus2":
        return lambda t, h: magnus2_increment(basis, coeffs, t, h)
    if config.method == "magnus4":
        return lambda t, h: magnus4_increment(basis, coeffs, t, h)
    return lambda t, h: rkmk_increment(
        basis, coeffs, config.butcher, config.truncation_order, t, h
    )


def _time_grid(t0: float, t1: float, n_steps: int):
    """(h, times) of a fixed-step run over [t0, t1] in n_steps steps."""
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if n_steps < 1:
        raise ValueError("need at least one step")
    h = (t1 - t0) / n_steps
    return h, t0 + h * np.arange(n_steps + 1)


def _group_steps(
    basis: AlgebraBasis, coeffs: CoefficientSet, config: StepperConfig, h: float,
    group: GroupTrajectory,
) -> Iterator[np.ndarray]:
    """Steps group (from _new_group) from Y_0 over its time grid.  Step k
    writes W_k and Y_{k+1} = E_k Y_k into group, then yields E_k = exp(W_k).

    An E_k or Y_{k+1} that is not finite raises NonFiniteStateError with
    step=k and the group, cut to t_0..t_k."""
    increment = make_increment_fn(basis, coeffs, config)
    for k, t in enumerate(group.times[:-1]):
        w = increment(t, h)
        try:
            e = mat_exp(w)
            np.matmul(e, group.elements[k], out=group.elements[k + 1])
            if not np.all(np.isfinite(group.elements[k + 1])):
                raise FloatingPointError("Y overflows")
        except FloatingPointError as err:
            group._cut(k)
            raise NonFiniteStateError(
                f"non-finite group element at step {k} (t={t:g})", step=k, partial=group
            ) from err
        group.increments[k] = w
        yield e


def integrate_group(
    basis: AlgebraBasis,
    coeffs: CoefficientSet,
    config: StepperConfig,
    t0: float,
    t1: float,
    n_steps: int,
    y0: Optional[np.ndarray] = None,
) -> GroupTrajectory:
    """Fixed-step solve of dY/dt = A(t) Y via Y_{k+1} = exp(W_k) Y_k.

    A Y_{k+1} that is not finite raises NonFiniteStateError with step=k and
    the group trajectory up to t_k."""
    h, times = _time_grid(t0, t1, n_steps)
    y = np.eye(basis.n) if y0 is None else np.asarray(y0, dtype=float)
    group = _new_group(times, y)
    for _ in _group_steps(basis, coeffs, config, h, group):
        pass
    return group


def magnus_radius_check(
    basis: AlgebraBasis, coeffs: CoefficientSet, t0: float, t1: float, panels: int = 512
):
    """Composite-Simpson estimate of the integral of ||A|| over [t0, t1] and
    a flag for exceeding the absolute-convergence bound.

    Informational only: the steppers re-center coordinates each step, so
    what matters in practice is the per-step integral.
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if panels % 2:
        panels += 1
    ts = np.linspace(t0, t1, panels + 1)
    vals = np.array([frobenius_norm(assemble_A(basis, coeffs, t)) for t in ts])
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integral = float((t1 - t0) / (3.0 * panels) * (w @ vals))
    return integral, integral > MAGNUS_CONVERGENCE_RADIUS


def rk4_direct_step(f, t: float, h: float, x: np.ndarray) -> np.ndarray:
    """Classical explicit RK4 update on raw coordinates (the non-geometric
    baseline)."""
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(t, x), dtype=float)
    k2 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(t + h, x + h * k3), dtype=float)
    out = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"non-finite RK4 state at t={t}")
    return out
