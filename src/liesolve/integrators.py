"""One-step integrators on the group side: Magnus 2/4 and RKMK increments,
the group recursion Y_{k+1} = exp(W_k) Y_k, and a plain RK4 baseline.

Each method samples b(t) at its nodes (_METHODS), and its kernel combines
the samples into the coordinates w of W_k, a list of r Python floats up to
AlgebraBasis.element; Magnus-4 without analytic b', b'' is Simpson's
rule on rkmk's nodes plus one bracket.  Magnus-4 and RKMK run their
stages on such lists, through the basis's compiled kernels: the bracket
and the order-2 dexp-inverse (AlgebraBasis.dexpinv2).
_group_step, the one group-side step, samples b(t) and moves x to
act(exp(AlgebraBasis.element(w)), x) for integrate_group (act = ndarray.dot)
and liesystem.solve alike; _record, which every solver hands its step
function, is the one loop over the time grid."""

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import AlgebraBasis, CoefficientSet, _check_arity
from .matrixcore import _all_finite, mat_exp

# The samples each method's kernel, <method>_increment, combines, in order:
# b(t_k + c h) ("values") or (b', b'') there ("derivatives") at the node c.
# The kernel is looked up by name when a solve starts, so that one rebound
# here steps; none checks h > 0, which comes from _time_grid.  A set without
# analytic derivatives steps magnus4 on rkmk's nodes (_magnus4_from_values).
_METHODS = {
    "magnus2": (("values", 0.5),),
    "magnus4": (("values", 0.5), ("derivatives", 0.5)),
    "rkmk": (("values", 0.0), ("values", 0.5), ("values", 1.0)),
}

GEOMETRIC_METHODS = tuple(_METHODS)


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


class ActionDomainError(_StepError, RuntimeError):
    """The group action is local and was asked for a point outside its
    domain."""


def _name_step(err: Exception, what: str, k: int, t: float) -> None:
    """Rewrite err's message in place to "<what> at step k (t=t_k): <text>",
    with the text err was first raised with: the same object, so its type
    is kept, and an instance raised again names only its latest step."""
    text = err.__dict__.setdefault("_liesolve_text", str(err))
    err.args = (f"{what} at step {k} (t={t:g}): {text}",)


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


def magnus2_increment(basis: AlgebraBasis, samples: list, h: float) -> list:
    """Order 2: W_k = h A(t_k + h/2), i.e. w = h b from samples = [b] there."""
    (b,) = samples
    return [h * x for x in b]


def magnus4_increment(basis: AlgebraBasis, samples: list, h: float) -> list:
    """Order 4: from samples = [b, (b', b'')] at t_k + h/2,
    w = h b + h^3 (b''/24 - [b, b'/12]), the coordinates of
    h A + h^3 (A''/24 - [A, A'/12]) there."""
    b, (d1, d2) = samples
    ad = basis.bracket(b, [x / 12.0 for x in d1])
    return [h * x + h ** 3 * (y / 24.0 - z) for x, y, z in zip(b, d2, ad)]


def _magnus4_from_values(basis: AlgebraBasis, samples: list, h: float) -> list:
    """Order 4 on samples = [b(t_k), b(t_k + h/2), b(t_k + h)]: Simpson's
    rule plus one bracket, w = h (b_0 + 4 b_1/2 + b_1)/6 - (h^2/12) [b_1/2,
    b_1 - b_0], magnus4_increment on the O(h^2) estimates b' = (b_1 - b_0)/h
    and b'' = 4 (b_1 - 2 b_1/2 + b_0)/h^2, with no power of h formed alone."""
    b0, b_half, b1 = samples
    ad = basis.bracket(b_half, [y - x for x, y in zip(b0, b1)])
    return [h * (x + 4.0 * m + y) / 6.0 - h * (h * z) / 12.0
            for x, m, y, z in zip(b0, b_half, b1, ad)]


# Weights of the classical RK4 tableau, whose nodes are c = 0, 1/2, 1/2, 1.
_RK4_WEIGHTS = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])


def rkmk_increment(basis: AlgebraBasis, samples: list, h: float) -> list:
    """RKMK on the classical RK4 tableau from samples = [b(t_k),
    b(t_k + h/2), b(t_k + h)]: F_1 = b(t_k), then F_l = dexpinv(T_l, b(t_k
    + c_l h)) with T_l = h F_1/2, h F_2/2, h F_3 at c_l = 1/2, 1/2, 1, and
    w = h (F_1 + 2 F_2 + 2 F_3 + F_4) / 6.

    Runs its stages on coordinate lists of Python floats, with dexpinv
    truncated at 2 = p - 2, all that an order-p = 4 tableau needs
    (AlgebraBasis.dexpinv2)."""
    stage = basis.dexpinv2
    f1, b_half, b_end = samples
    f2 = stage([h * (0.5 * x) for x in f1], b_half)
    f3 = stage([h * (0.5 * x) for x in f2], b_half)
    f4 = stage([h * x for x in f3], b_end)
    # numpy's weighted sum: summed in Python the last bits of w change
    return (h * (_RK4_WEIGHTS @ np.array((f1, f2, f3, f4)))).tolist()


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


def _group_step(basis: AlgebraBasis, coeffs: CoefficientSet, config: StepperConfig, act):
    """The group-side step of a solve: step(k, t, h, x) samples b at the
    method's nodes and returns act(E_k, x) for E_k = exp(W_k).

    A config that is not a StepperConfig raises TypeError here, before any
    step.  A non-finite W_k, E_k or act(E_k, x), or an OverflowError of a
    sample or an increment, raises NonFiniteStateError (_record adds the
    step and the partial).  act's ActionDomainError and a TypeError,
    ValueError or ZeroDivisionError of the sampling or of act name step k
    and t_k in the same object, type kept."""
    if not isinstance(config, StepperConfig):
        raise TypeError(f"config must be a StepperConfig, got {config!r}")
    increment = globals()[f"{config.method}_increment"]
    nodes = _METHODS[config.method]
    if config.method == "magnus4" and coeffs.d1 is None:
        increment, nodes = _magnus4_from_values, _METHODS["rkmk"]
    samplers = [(getattr(coeffs, what), c) for what, c in nodes]

    def step(k: int, t: float, h: float, x: np.ndarray) -> np.ndarray:
        try:
            samples = []
            for sample, c in samplers:
                samples.append(sample(t + c * h))
            w = increment(basis, samples, h)
        except OverflowError as err:  # a coefficient, or magnus4's h ** 3 for h >~ 5.6e102
            raise NonFiniteStateError(f"non-finite increment at step {k} (t={t:g})") from err
        except (TypeError, ValueError, ZeroDivisionError) as err:
            # from the sampling: the kernels only do arithmetic
            _name_step(err, "coefficients failed", k, t)
            raise
        try:
            e = mat_exp(basis.element(w))
        except (FloatingPointError, ValueError) as err:
            # mat_exp raises ValueError for a W_k whose increment overflowed
            raise NonFiniteStateError(f"non-finite group element at step {k} (t={t:g})") from err
        try:
            x = act(e, x)
        except ActionDomainError as err:
            # the same object, so that a subtype such as CoordinateChartError survives
            _name_step(err, "group action undefined", k, t)
            raise
        except (TypeError, ValueError, ZeroDivisionError) as err:
            # e.g. an extractor that returns another count of coordinates
            # than there are flows; the same object, type kept
            _name_step(err, "group action failed", k, t)
            raise
        if not _all_finite(x):
            raise NonFiniteStateError(f"non-finite state at step {k} (t={t:g})")
        return x

    return step


@np.errstate(over="ignore", invalid="ignore")  # each step checks its state is finite
def _record(x0: np.ndarray, t0: float, t1: float, n_steps: int, step) -> Trajectory:
    """The one stepping loop: x_{k+1} = step(k, t_k, h, x_k) over the grid
    of _time_grid(t0, t1, n_steps), one row per time from x0.

    An error at step k leaves with the trajectory cut to rows 0..k; a
    _StepError also gets step=k and that trajectory as its partial.  The
    steps run without numpy's overflow and invalid warnings."""
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
    # the group acting on itself by left multiplication; ndarray.dot: see mat_exp
    step = _group_step(basis, coeffs, config, np.ndarray.dot)
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
