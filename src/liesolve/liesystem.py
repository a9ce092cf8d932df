"""Lie systems and their geometric solver.  solve hands the one group-side
step (integrators._group_step) the system's action: each step makes
E_k = exp(W_k) and moves the point, x_{k+1} = phi(E_k, x_k).  The run ends at
the first failing step; solve never forms Y_k, only integrate_group does.

The incremental update is the reading consistent with the cumulative form
x(t) = phi(Y(t), x0) and with Y_{k+1} = E_k Y_k; both paths are cross-checked
in the tests.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import AlgebraBasis, CoefficientSet, _check_arity
from .integrators import (  # ActionDomainError: re-exported
    ActionDomainError,
    NonFiniteStateError,
    StepperConfig,
    Trajectory,
    _group_step,
    _name_step,
    _record,
    rk4_direct_step,
)
from .matrixcore import _real_array


class GroupAction:
    """Partial map phi: G x N -> N.

    GroupAction() is the linear action phi(g, x) = g x (matrix-vector
    product).  GroupAction(flows, extract) is the flow-composition action:
    extract second-kind canonical coordinates (l_1..l_r) of g, then apply
    phi = F_1(l_1, F_2(l_2, ... F_r(l_r, x))).
    """

    def __init__(self, flows=(), extract=None):
        self.flows = tuple(flows)
        if bool(self.flows) != (extract is not None):
            raise ValueError("flow-composition action needs both flows and an extractor")
        self.extract = extract

    def act(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        x = np.asarray(x, dtype=float)
        if not self.flows:
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
        _check_arity(self.basis, self.coeffs)
        n, r, flows = self.basis.n, self.basis.r, len(self.action.flows)
        if not flows and self.dim != n:
            raise ValueError(f"the linear action needs dim = {n}, got {self.dim}")
        if flows and flows != r:
            raise ValueError(f"the flow-composition action needs {r} flows, got {flows}")


def _initial_point(x0, dim: Optional[int]) -> np.ndarray:
    """x0 as a float array of shape (dim,), any shape if dim is None; a bad
    one raises before any step, so that no step is blamed for it."""
    x = _real_array(x0, "initial point x0")
    if not np.isfinite(x).all():
        raise ValueError(f"initial point x0 must be finite, got x0={x.tolist()}")
    if dim is not None and x.shape != (dim,):
        raise ValueError(f"initial point must have dimension {dim}")
    return x


def solve(
    sys: LieSystemSpec,
    x0: Sequence[float],
    t0: float,
    t1: float,
    n_steps: int,
    config: StepperConfig,
) -> Trajectory:
    """Geometric solve in one pass: each group step E_k = exp(W_k) moves
    the point, x_{k+1} = phi(E_k, x_k).  Only the points are returned;
    integrate_group gives the Y_k.

    The first failing step k raises the action's own ActionDomainError,
    subtype kept (outside the action's domain), or NonFiniteStateError (E_k
    or x blew up), with step=k and the trajectory up to t_k.  A TypeError,
    ValueError or ZeroDivisionError of the action keeps its type and names
    step k and t_k in its message."""
    x = _initial_point(x0, sys.dim)
    return _record(x, t0, t1, n_steps, _group_step(sys.basis, sys.coeffs, config, sys.action.act))


def solve_direct_rk4(
    sys: LieSystemSpec, x0: Sequence[float], t0: float, t1: float, n_steps: int
) -> Trajectory:
    """Classical RK4 on the raw coordinates; ignores all the geometry and
    reads sys.rhs, and sys.dim if it has one (x0 of any shape otherwise).

    A state that blows up at step k raises NonFiniteStateError with step=k
    and the trajectory up to t_k.  A TypeError, ValueError or
    ZeroDivisionError of the rhs keeps its type and names step k and t_k."""

    def step(k, t, h, x):
        try:
            return rk4_direct_step(sys.rhs, t, h, x)
        except FloatingPointError as err:
            raise NonFiniteStateError(f"non-finite RK4 state at step {k} (t={t})") from err
        except (TypeError, ValueError, ZeroDivisionError) as err:
            _name_step(err, "rhs failed", k, t)
            raise

    return _record(_initial_point(x0, getattr(sys, "dim", None)), t0, t1, n_steps, step)


def global_error(traj: Trajectory, reference: Trajectory) -> float:
    """max_k ||x_ref(t_k) - x_k||_2 over the flattened states (|x_ref - x|
    for scalar states, the Frobenius norm for integrate_group's Y_k), with
    the reference subsampled onto the trajectory's grid (its step count
    must be a multiple)."""
    n = len(traj.times) - 1
    n_ref = len(reference.times) - 1
    if min(n, n_ref) < 1:
        raise ValueError("trajectory and reference need at least one step each")
    if traj.points.shape[1:] != reference.points.shape[1:]:
        # an (N+1, 1) reference would broadcast against (N+1, 3) points
        raise ValueError(
            f"points of shape {traj.points.shape[1:]} against a reference of shape "
            f"{reference.points.shape[1:]}"
        )
    if n_ref % n != 0:
        raise ValueError("reference grid is not a refinement of the trajectory grid")
    stride = n_ref // n
    ref_times = reference.times[::stride]
    # two grids over one span round apart by about an ulp of t, which far
    # from t = 0 is past 1e-9: allow a few ulps of the largest |t|
    t_max = max(abs(traj.times[0]), abs(traj.times[-1]))
    if not np.allclose(ref_times, traj.times, atol=max(1e-9, 4 * math.ulp(t_max)), rtol=0):
        raise ValueError("time grids disagree after subsampling")
    diff = reference.points[::stride] - traj.points
    return float(np.max(np.linalg.norm(diff.reshape(len(diff), -1), axis=1)))


def estimate_order(hs: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 2 or len(hs) != len(errors):
        raise ValueError("need at least two (h, error) pairs")
    if not np.all(np.isfinite(hs) & (hs > 0)) or np.any(np.diff(hs) >= 0):
        raise ValueError("h values must be finite, positive and strictly decreasing")
    if not np.all(np.isfinite(errors) & (errors > 0)):
        raise ValueError("errors must be finite and positive")
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return float(slope)
