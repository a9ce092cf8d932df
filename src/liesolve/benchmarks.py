"""Benchmark Lie systems beyond the curved-space family: the planar
limit-cycle system, whose GroupAction is local on the diagonal group, and
the Riccati vector field with its superposition rule; plus the stock
coefficient set used by the curved-space experiment."""

import math

import numpy as np

from .algebra import AlgebraBasis, CoefficientSet
from .liesystem import ActionDomainError, GroupAction, LieSystemSpec


def ck_benchmark_coefficients() -> CoefficientSet:
    """b1 = t^2, b2 = sin t, b12 = ln(t+1), with analytic derivatives."""
    return CoefficientSet(
        funcs=(lambda t: t * t, math.sin, lambda t: math.log(t + 1.0)),
        d1=(lambda t: 2.0 * t, math.cos, lambda t: 1.0 / (t + 1.0)),
        d2=(lambda t: 2.0, lambda t: -math.sin(t), lambda t: -1.0 / (t + 1.0) ** 2),
    )


# --- planar limit-cycle system -------------------------------------------


def rotation_flow(t: float, p) -> np.ndarray:
    """Clockwise rotation (x cos t + y sin t, -x sin t + y cos t)."""
    x, y = np.asarray(p, dtype=float)
    c, s = math.cos(t), math.sin(t)
    return np.array([x * c + y * s, -x * s + y * c])


def radial_flow(t: float, p) -> np.ndarray:
    """(x, y) / sqrt(r^2 - (r^2 - 1) e^{2t}); undefined when the radicand
    is not positive."""
    p = np.asarray(p, dtype=float)
    r2 = float(p @ p)
    denom = r2 - (r2 - 1.0) * math.exp(2.0 * t)
    if denom <= 0.0:
        raise ActionDomainError(
            f"radial flow undefined: r^2 - (r^2-1) e^(2t) = {denom:g} <= 0"
        )
    return p / math.sqrt(denom)


def _limit_cycle_extract(g: np.ndarray):
    g = np.asarray(g, dtype=float)
    if g[0, 0] <= 0.0 or g[1, 1] <= 0.0:
        raise ActionDomainError("diagonal entries must be positive")
    return math.log(g[0, 0]), math.log(g[1, 1])


def limit_cycle_system(b1, b2) -> LieSystemSpec:
    """dx/dt = b1 y + b2 (x^2+y^2-1) x, dy/dt = -b1 x + b2 (x^2+y^2-1) y,
    lifted to the abelian group of positive diagonal 2x2 matrices.

    The action is phi(diag(a, b), p) = rotation_flow(ln a, radial_flow(ln b, p)),
    i.e. p rotated by ln a and scaled by 1/sqrt(r^2 - (r^2 - 1) b^2); it
    leaves the unit circle and the origin invariant and is local in (a, b).

    The attached invariant is r^2 = x^2 + y^2; it is conserved exactly only
    on the unit-circle stratum, which is where the drift tests start.
    """
    basis = AlgebraBasis(
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.zeros((2, 2, 2))
    )
    coeffs = CoefficientSet(funcs=(b1, b2))
    action = GroupAction((rotation_flow, radial_flow), _limit_cycle_extract)

    def rhs(t, p):
        x, y = np.asarray(p, dtype=float).tolist()
        c1, c2 = b1(t), b2(t)
        u = x * x + y * y - 1.0
        return np.array([c1 * y + c2 * u * x, -c1 * x + c2 * u * y])

    return LieSystemSpec(
        basis=basis,
        coeffs=coeffs,
        action=action,
        dim=2,
        rhs=rhs,
        invariant=lambda p: float(p[0] ** 2 + p[1] ** 2),
    )


# --- Riccati superposition rule ------------------------------------------


def riccati_rhs(b1, b2, b12):
    """dx/dt = b1(t) + b2(t) x + b12(t) x^2, componentwise on a vector of
    independent solutions."""

    def rhs(t, x):
        x = np.asarray(x, dtype=float)
        return b1(t) + b2(t) * x + b12(t) * x ** 2

    return rhs


def riccati_superposition(
    x1: float, x2: float, x3: float, rho: float = 0.0, *, rho_infinite: bool = False
) -> float:
    """General solution from three particular solutions:
    [x2 (x3-x1) + rho x3 (x1-x2)] / [(x3-x1) + rho (x1-x2)];
    rho_infinite selects the exact rho -> infinity limit, x3."""
    if x1 == x2 or x2 == x3 or x1 == x3:
        raise ValueError("particular solutions must be pairwise distinct")
    if rho_infinite:
        return float(x3)
    denom = (x3 - x1) + rho * (x1 - x2)
    if denom == 0.0:
        raise ZeroDivisionError("superposition denominator vanished")
    return ((x2 * (x3 - x1)) + rho * x3 * (x1 - x2)) / denom


def riccati_rho_from_solution(x1: float, x2: float, x3: float, x: float) -> float:
    """The constant rho that makes the superposition rule reproduce x."""
    if x1 == x2 or x2 == x3 or x1 == x3:
        raise ValueError("particular solutions must be pairwise distinct")
    denom = (x1 - x2) * (x3 - x)
    if denom == 0.0:
        raise ZeroDivisionError("degenerate configuration: cannot solve for rho")
    return (x3 - x1) * (x - x2) / denom
