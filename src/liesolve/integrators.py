"""One-step integrators on the group side: Magnus 2/4 and RKMK increments,
the group recursion Y_{k+1} = exp(W_k) Y_k, and a plain RK4 baseline."""

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .algebra import (
    MAX_DEXPINV_ORDER,
    AlgebraBasis,
    CoefficientSet,
    _combine,
    assemble_A,
    assemble_A_derivatives,
    dexpinv,
)
from .matrixcore import commutator, frobenius_norm, mat_exp

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
            if not 0 <= j <= MAX_DEXPINV_ORDER:
                raise ValueError(f"truncation order {j} out of range")
            if j < self.butcher.order - 2:
                raise ValueError(
                    f"truncation order {j} too low for an order-{self.butcher.order} tableau "
                    f"(need j >= p - 2)"
                )


@dataclass
class GroupTrajectory:
    """Times, group elements Y_k and algebra increments W_k, with
    Y_{k+1} = exp(W_k) Y_k."""

    times: np.ndarray
    elements: list
    increments: list


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
    """Order 4: with a0 = A(t+h/2), a1 = A'(t+h/2)/12, a2 = A''(t+h/2)/24,
    W_k = h a0 + h^3 (a2 - [a0, a1])."""
    if h <= 0:
        raise ValueError("h must be positive")
    t_half = t_k + 0.5 * h
    a0 = assemble_A(basis, coeffs, t_half)
    d1, d2 = assemble_A_derivatives(basis, coeffs, t_half)
    a1 = d1 / 12.0
    a2 = d2 / 24.0
    return h * a0 + h ** 3 * (a2 - commutator(a0, a1))


def rkmk_increment(
    basis: AlgebraBasis,
    coeffs: CoefficientSet,
    butcher: ButcherTable,
    truncation_order: int,
    t_k: float,
    h: float,
) -> np.ndarray:
    """Stagewise T_l = h sum_m a[l,m] F_m, F_l = dexpinv(T_l, A(t_k + c_l h)),
    then W = h sum_l b_l F_l."""
    if h <= 0:
        raise ValueError("h must be positive")
    if truncation_order < butcher.order - 2:
        raise ValueError("truncation order violates j >= p - 2")
    f = []
    for l in range(butcher.stages):
        theta = h * _combine(butcher.a[l, :l], f, basis.n)
        a_stage = assemble_A(basis, coeffs, t_k + butcher.c[l] * h)
        f.append(dexpinv(theta, a_stage, truncation_order))
    return h * _combine(butcher.b, f, basis.n)


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
    """Steps group from its one element over its time grid.  Step k stores
    W_k and Y_{k+1} = E_k Y_k in group, then yields E_k = exp(W_k).

    A Y_{k+1} that is not finite raises NonFiniteStateError with step=k and
    the group trajectory up to t_k."""
    increment = make_increment_fn(basis, coeffs, config)
    y = group.elements[0]
    for k, t in enumerate(group.times[:-1]):
        w = increment(t, h)
        e = mat_exp(w)
        y = e @ y
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError(
                f"non-finite group element at step {k} (t={t:g})",
                step=k,
                partial=GroupTrajectory(group.times[: k + 1], group.elements, group.increments),
            )
        group.elements.append(y)
        group.increments.append(w)
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
    y = np.eye(basis.n) if y0 is None else np.asarray(y0, dtype=float).copy()
    group = GroupTrajectory(times, [y], [])
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
