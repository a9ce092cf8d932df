"""Lie systems and their geometric solver, in the method's two stages:
integrate_group solves dY/dt = A(t) Y, then the group action moves the point
to the manifold step by step.

The manifold update is the incremental one, x_{k+1} = phi(E_k, x_k) with
E_k = exp(W_k).  That is the reading consistent with the cumulative form
x(t) = phi(Y(t), x0) and with Y_{k+1} = E_k Y_k; both paths are cross-checked
in the tests.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import AlgebraBasis, CoefficientSet
from .integrators import (
    GroupTrajectory,
    NonFiniteStateError,
    StepperConfig,
    _StepError,
    _time_grid,
    integrate_group,
    rk4_direct_step,
)


class ActionDomainError(_StepError, RuntimeError):
    """The group action is local and was asked for a point outside its
    domain."""


class GroupAction:
    """Partial map phi: G x N -> N.

    linear variant:           phi(g, x) = g x  (matrix-vector product).
    flow-composition variant: extract second-kind canonical coordinates
    (l_1..l_r) of g, then apply phi = F_1(l_1, F_2(l_2, ... F_r(l_r, x))).
    """

    def __init__(self, variant: str, flows=None, extract=None):
        if variant not in ("linear", "flow-composition"):
            raise ValueError(f"unknown action variant {variant!r}")
        if variant == "flow-composition" and (flows is None or extract is None):
            raise ValueError("flow-composition action needs flows and an extractor")
        self.variant = variant
        self.flows = tuple(flows) if flows is not None else ()
        self.extract = extract

    @classmethod
    def linear(cls) -> "GroupAction":
        return cls("linear")

    @classmethod
    def flow_composition(cls, flows, extract) -> "GroupAction":
        return cls("flow-composition", flows=flows, extract=extract)

    def act(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.variant == "linear":
            return g @ x
        lams = self.extract(g)
        if len(lams) != len(self.flows):
            raise ValueError("extracted coordinate count does not match flow count")
        out = x
        for lam, flow in zip(reversed(lams), reversed(self.flows)):
            out = np.asarray(flow(lam, out), dtype=float)
        return out


@dataclass(frozen=True)
class LieSystemSpec:
    """A Lie system dx/dt = sum_a b_a(t) X_a(x) together with the data that
    lets the group-side solution act on the manifold.

    rhs is the direct vector field (t, x) -> dx/dt, used by the RK4
    baseline and as an oracle; invariant is an optional conserved quantity
    used for drift tracking.
    """

    basis: AlgebraBasis
    coeffs: CoefficientSet
    action: GroupAction
    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    invariant: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        if self.basis.r != self.coeffs.r:
            raise ValueError("basis rank and coefficient arity differ")


@dataclass
class Trajectory:
    """Time-stamped manifold points, plus the group trajectory when the run
    produced one."""

    times: np.ndarray
    points: np.ndarray
    group: Optional[GroupTrajectory] = None


def solve(
    sys: LieSystemSpec,
    x0: Sequence[float],
    t0: float,
    t1: float,
    n_steps: int,
    config: StepperConfig,
) -> Trajectory:
    """Geometric solve: integrate_group gives E_k = exp(W_k) and
    Y_{k+1} = E_k Y_k, then x_{k+1} = phi(E_k, x_k) moves the point.

    A failing step k raises ActionDomainError (outside the action's domain)
    or NonFiniteStateError with step=k and the trajectory up to t_k.  When
    Y blows up at step k, the steps before k are still transported, so an
    earlier action failure is the one reported."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.dim,):
        raise ValueError(f"initial point must have dimension {sys.dim}")
    try:
        group, failure = integrate_group(sys.basis, sys.coeffs, config, t0, t1, n_steps), None
    except NonFiniteStateError as err:
        group, failure = err.partial, err
    times, points = group.times, [x]
    for k, e in enumerate(group.exps):
        try:
            x = sys.action.act(e, x)
        except ActionDomainError as err:
            failure = ActionDomainError(
                f"group action undefined at step {k} (t={times[k]:g}): {err}", step=k
            )
            failure.__cause__ = err
            break
        if not np.all(np.isfinite(x)):
            failure = NonFiniteStateError(f"non-finite state at step {k} (t={times[k]:g})", step=k)
            break
        points.append(x)
    if failure is not None:
        failure.partial = _partial(group, points, failure.step)
        raise failure
    return Trajectory(times=times, points=np.array(points), group=group)


def _partial(group: GroupTrajectory, points: list, k: int) -> Trajectory:
    """The trajectory up to t_k: k+1 points and group elements, k steps.
    Cuts the run's own group in place, so nothing past t_k stays referenced."""
    group.times = group.times[: k + 1]
    del group.elements[k + 1 :], group.increments[k:], group.exps[k:]
    return Trajectory(times=group.times, points=np.array(points), group=group)


def solve_direct_rk4(
    sys: LieSystemSpec, x0: Sequence[float], t0: float, t1: float, n_steps: int
) -> Trajectory:
    """Classical RK4 on the raw coordinates; ignores all the geometry and
    reads only sys.rhs.

    A state that blows up at step k raises NonFiniteStateError with step=k
    and the trajectory up to t_k."""
    h, times = _time_grid(t0, t1, n_steps)
    x = np.asarray(x0, dtype=float)
    points = [x]
    for k in range(n_steps):
        try:
            x = rk4_direct_step(sys.rhs, times[k], h, x)
        except FloatingPointError as err:
            raise NonFiniteStateError(
                f"non-finite RK4 state at step {k} (t={times[k]})",
                step=k,
                partial=Trajectory(times=times[: k + 1], points=np.array(points)),
            ) from err
        points.append(x)
    return Trajectory(times=times, points=np.array(points))


def global_error(traj: Trajectory, reference: Trajectory) -> float:
    """max_k ||x_ref(t_k) - x_k||_2, with the reference subsampled onto the
    trajectory's grid (its step count must be a multiple)."""
    n = len(traj.times) - 1
    n_ref = len(reference.times) - 1
    if n_ref % n != 0:
        raise ValueError("reference grid is not a refinement of the trajectory grid")
    stride = n_ref // n
    ref_times = reference.times[::stride]
    if not np.allclose(ref_times, traj.times, atol=1e-9, rtol=0):
        raise ValueError("time grids disagree after subsampling")
    diff = reference.points[::stride] - traj.points
    return float(np.max(np.linalg.norm(diff, axis=1)))


def estimate_order(hs: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 2 or len(hs) != len(errors):
        raise ValueError("need at least two (h, error) pairs")
    if np.any(hs <= 0) or np.any(np.diff(hs) >= 0):
        raise ValueError("h values must be positive and strictly decreasing")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive")
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return float(slope)
