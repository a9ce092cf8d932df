"""One-step integrators on the group side: Magnus 2/4 and RKMK increments,
the group recursion Y_{k+1} = exp(W_k) Y_k, and a plain RK4 baseline.

The increments are computed in algebra coordinates: each returns the
coefficient vector w of W_k.  Magnus-4 and RKMK run their stages on Python
float lists, through the basis's compiled kernels: the bracket
(AlgebraBasis.bracket) and the order-2 dexp-inverse on r-vectors
(AlgebraBasis.dexpinv2).  _group_step is the one place where w becomes the
group element exp(AlgebraBasis.element(w)), and _record, which every solver
hands its step function, is the one loop over the time grid."""

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import AlgebraBasis, CoefficientSet, _check_arity
from .matrixcore import mat_exp

GEOMETRIC_METHODS = ("magnus2", "magnus4", "rkmk")


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
class StepperConfig:
    """Method selection for the group-side stepper: magnus2, magnus4 or rkmk
    (RKMK on the classical RK4 tableau); the step size itself comes from the
    (t0, t1, N) split."""

    method: str

    def __post_init__(self):
        if self.method not in GEOMETRIC_METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class Trajectory:
    """Time-stamped states over N steps: the (N+1, dim) manifold points of a
    solve, or the (N+1, n, n) group elements Y_k of integrate_group."""

    times: np.ndarray
    points: np.ndarray


def magnus2_increment(
    basis: AlgebraBasis, coeffs: CoefficientSet, t_k: float, h: float
) -> np.ndarray:
    """Order 2: W_k = h A(t_k + h/2), i.e. w = h b(t_k + h/2).  h > 0 is
    not checked here: it comes from _time_grid."""
    return h * np.array(coeffs.values(t_k + 0.5 * h))


def magnus4_increment(
    basis: AlgebraBasis, coeffs: CoefficientSet, t_k: float, h: float
) -> np.ndarray:
    """Order 4: with b, b', b'' the coefficients and their derivatives at
    t+h/2, w = h b + h^3 (b''/24 - [b, b'/12]), the coordinates of
    h A + h^3 (A''/24 - [A, A'/12]) at t+h/2.  h > 0 is not checked here:
    it comes from _time_grid."""
    t_half = t_k + 0.5 * h
    b = coeffs.values(t_half)
    d1, d2 = coeffs.derivatives(t_half)
    ad = basis.bracket(b, [x / 12.0 for x in d1])
    return np.array([h * x + h ** 3 * (y / 24.0 - z) for x, y, z in zip(b, d2, ad)])


# Weights of the classical RK4 tableau, whose nodes are c = 0, 1/2, 1/2, 1.
_RK4_WEIGHTS = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])


def rkmk_increment(
    basis: AlgebraBasis, coeffs: CoefficientSet, t_k: float, h: float
) -> np.ndarray:
    """RKMK on the classical RK4 tableau: F_1 = b(t_k), then
    F_l = dexpinv(T_l, b(t_k + c_l h)) with T_l = h F_1/2, h F_2/2, h F_3
    at c_l = 1/2, 1/2, 1, and w = h (F_1 + 2 F_2 + 2 F_3 + F_4) / 6.

    Runs its stages on coordinate lists of Python floats, with dexpinv
    truncated at 2 = p - 2, all that an order-p = 4 tableau needs
    (AlgebraBasis.dexpinv2), and evaluates b once each at t_k, t_k + h/2
    and t_k + h.  h > 0 is not checked here: it comes from _time_grid."""
    stage = basis.dexpinv2
    f1 = coeffs.values(t_k)
    b_half = coeffs.values(t_k + 0.5 * h)
    f2 = stage([h * (0.5 * x) for x in f1], b_half)
    f3 = stage([h * (0.5 * x) for x in f2], b_half)
    f4 = stage([h * x for x in f3], coeffs.values(t_k + h))
    # numpy's weighted sum: summed in Python the last bits of w change
    return h * (_RK4_WEIGHTS @ np.array((f1, f2, f3, f4)))


def _time_grid(t0: float, t1: float, n_steps: int):
    """(h, times) of a fixed-step run over [t0, t1] in n_steps steps; h is a
    Python float whatever the type of t0 and t1.  Endpoints that are not
    finite, or whose span overflows, raise ValueError before any grid, and
    an n_steps that is not an integer raises TypeError."""
    span = float(t1) - float(t0)  # Python floats: inf or nan without a warning
    if not math.isfinite(span):
        raise ValueError(f"t0 and t1 must be finite, got t0={t0}, t1={t1}, t1 - t0={span}")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    try:
        n_steps = operator.index(n_steps)  # 2.5 steps would overshoot t1
    except TypeError:
        raise TypeError(f"n_steps must be an integer, got {n_steps!r}") from None
    if n_steps < 1:
        raise ValueError("need at least one step")
    h = span / n_steps
    return h, t0 + h * np.arange(n_steps + 1)


def _group_step(basis: AlgebraBasis, coeffs: CoefficientSet, config: StepperConfig):
    """The group step of a solve: step(k, t, h) returns E_k = exp(W_k).

    A config that is not a StepperConfig raises TypeError here, before any
    step.  A W_k or E_k that is not finite, or an increment that overflows
    a Python float (OverflowError), raises NonFiniteStateError; _record
    attaches the step and the partial trajectory.  A non-finite coefficient
    keeps its ValueError."""
    if not isinstance(config, StepperConfig):
        raise TypeError(f"config must be a StepperConfig, got {config!r}")
    # the kernels are looked up here, as module globals, when the solve
    # starts: a kernel rebound in this module is the one that steps
    increment = {
        "magnus2": magnus2_increment,
        "magnus4": magnus4_increment,
        "rkmk": rkmk_increment,
    }[config.method]

    def step(k: int, t: float, h: float) -> np.ndarray:
        try:
            w = increment(basis, coeffs, t, h)
        except OverflowError as err:  # magnus4's h ** 3 for h >~ 5.6e102
            raise NonFiniteStateError(f"non-finite increment at step {k} (t={t:g})") from err
        try:
            return mat_exp(basis.element(w))
        except (FloatingPointError, ValueError) as err:
            # mat_exp raises ValueError for a W_k whose increment overflowed
            raise NonFiniteStateError(f"non-finite group element at step {k} (t={t:g})") from err

    return step


def _record(x0: np.ndarray, t0: float, t1: float, n_steps: int, step) -> Trajectory:
    """The one stepping loop: x_{k+1} = step(k, t_k, h, x_k) over the grid
    of _time_grid(t0, t1, n_steps), one row per time from x0.

    An error at step k leaves with the trajectory cut to rows 0..k; a
    _StepError also gets step=k and that trajectory as its partial.  The
    steps run under the calling solver's np.errstate."""
    h, times = _time_grid(t0, t1, n_steps)
    points = np.empty((len(times),) + x0.shape)
    points[0] = x = x0
    k = 0
    try:
        # the steps get Python floats: numpy scalars make their arithmetic slower
        for k, t in enumerate(times[:-1].tolist()):
            points[k + 1] = x = step(k, t, h, x)
    except BaseException as err:
        # copies of rows 0..k: this frame, kept by the traceback, drops the full buffers
        times, points = times[: k + 1].copy(), points[: k + 1].copy()
        if isinstance(err, _StepError):
            err.step = k
            err.partial = Trajectory(times, points)
        raise
    return Trajectory(times, points)


@np.errstate(over="ignore", invalid="ignore")  # the step checks Y is finite
def integrate_group(
    basis: AlgebraBasis,
    coeffs: CoefficientSet,
    config: StepperConfig,
    t0: float,
    t1: float,
    n_steps: int,
) -> Trajectory:
    """Fixed-step solve of dY/dt = A(t) Y from Y_0 = I via
    Y_{k+1} = exp(W_k) Y_k; the one solver that forms the Y_k, stored as points.

    A Y_{k+1} that is not finite raises NonFiniteStateError with step=k and
    the group trajectory up to t_k."""
    _check_arity(basis, coeffs)
    group_step = _group_step(basis, coeffs, config)

    def step(k, t, h, y):
        y = group_step(k, t, h).dot(y)  # ndarray.dot: see mat_exp
        if not np.isfinite(y).all():
            msg = f"non-finite group element at step {k} (t={t:g})"
            raise NonFiniteStateError(msg) from FloatingPointError("Y overflows")
        return y

    return _record(np.eye(basis.n), t0, t1, n_steps, step)


def _slope(f, t: float, y: np.ndarray, size: int) -> list:
    """f(t, y) read once as a list of Python floats; an output of another
    size than y's raises ValueError."""
    k = np.asarray(f(t, y), dtype=float)
    k = (k if k.ndim == 1 else k.ravel()).tolist()
    if len(k) != size:
        raise ValueError(f"rhs returned {len(k)} values for a state of size {size}")
    return k


def rk4_direct_step(f, t: float, h: float, x: np.ndarray) -> np.ndarray:
    """Classical explicit RK4 update on raw coordinates (the non-geometric
    baseline).

    f(t, y) gets each stage state y as a float64 array of x's shape and may
    return any array-like of x's size; another size raises ValueError.  The
    arithmetic runs on Python floats in numpy's operation order, so the
    result is bit-identical to x + h/6 (k1 + 2 k2 + 2 k3 + k4) on arrays."""
    # Python floats: numpy calls cost more than the arithmetic on a few entries
    x = np.asarray(x, dtype=float)
    xs = x.ravel().tolist()
    size = len(xs)

    def array(v: list) -> np.ndarray:
        # np.array of a flat list has x's shape already when x is 1-D
        y = np.array(v, dtype=float)
        return y if x.ndim == 1 else y.reshape(x.shape)

    half = 0.5 * h
    k1 = _slope(f, t, x, size)
    k2 = _slope(f, t + half, array([a + half * b for a, b in zip(xs, k1)]), size)
    k3 = _slope(f, t + half, array([a + half * b for a, b in zip(xs, k2)]), size)
    k4 = _slope(f, t + h, array([a + h * b for a, b in zip(xs, k3)]), size)
    sixth = h / 6.0
    out = [a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(xs, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise FloatingPointError(f"non-finite RK4 state at t={t}")
    return array(out)
