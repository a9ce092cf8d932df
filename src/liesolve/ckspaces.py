"""The Cayley-Klein family SO_{k1,k2}(3): kappa-trigonometry, generators,
closed-form exponentials, second-kind canonical coordinates, the quadratic
invariant, and the Lie system on ambient R^3 with its group action.

Sign convention: the group-side generators below are the negatives of the
manifold vector-field representation, so exp(l M_a) literally equals the
flow matrix of the corresponding vector field (the flows are
ck_exp_closed(ck, a, l) @ x) and the action is plain phi(g, x) = g x.
The coordinate extraction reads -g21/g11, -g31, -g32/g33 accordingly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraBasis, CoefficientSet
from .liesystem import ActionDomainError, GroupAction, LieSystemSpec

# |kappa| below this is treated as exactly zero (parabolic branch).
KAPPA_ZERO_TOL = 1e-30


class CoordinateChartError(ActionDomainError, ValueError):
    """Group element outside the second-kind coordinate chart around the
    identity; callers should shrink the step."""


@dataclass(frozen=True)
class CKParams:
    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa1) and math.isfinite(self.kappa2)):
            raise ValueError("curvature parameters must be finite")


def _is_zero(kappa: float) -> bool:
    return abs(kappa) < KAPPA_ZERO_TOL


def ck_cos(kappa: float, lam: float) -> float:
    if _is_zero(kappa):
        return 1.0
    if kappa > 0:
        return math.cos(math.sqrt(kappa) * lam)
    w = math.sqrt(-kappa)
    return math.cosh(w * lam)


def ck_sin(kappa: float, lam: float) -> float:
    if _is_zero(kappa):
        return float(lam)
    if kappa > 0:
        w = math.sqrt(kappa)
        return math.sin(w * lam) / w
    w = math.sqrt(-kappa)
    return math.sinh(w * lam) / w


def ck_tan(kappa: float, lam: float) -> float:
    c = ck_cos(kappa, lam)
    if c == 0.0:
        raise ValueError(f"kappa-tangent pole at lambda={lam}")
    return ck_sin(kappa, lam) / c


def ck_versin(kappa: float, lam: float) -> float:
    # (1 - C_kappa(lam)) / kappa written as 2 S_kappa(lam/2)^2, which does
    # not cancel when kappa lam^2 is small
    s = ck_sin(kappa, 0.5 * lam)
    return 2.0 * s * s


def _inv_tan(kappa: float, t: float) -> float:
    # inverse of ck_tan near 0
    if _is_zero(kappa):
        return float(t)
    if kappa > 0:
        w = math.sqrt(kappa)
        return math.atan(t * w) / w
    w = math.sqrt(-kappa)
    u = t * w
    if abs(u) >= 1.0:
        raise CoordinateChartError(f"kappa-arctangent argument {u} out of (-1, 1)")
    return math.atanh(u) / w


def _inv_sin(kappa: float, s: float) -> float:
    # inverse of ck_sin near 0
    if _is_zero(kappa):
        return float(s)
    if kappa > 0:
        w = math.sqrt(kappa)
        u = s * w
        if abs(u) > 1.0:
            raise CoordinateChartError(f"kappa-arcsine argument {u} out of [-1, 1]")
        return math.asin(u) / w
    w = math.sqrt(-kappa)
    return math.asinh(s * w) / w


def ck_bilinear_form(ck: CKParams) -> np.ndarray:
    """I_k = diag(1, k1, k1 k2); the group preserves it: g^T I_k g = I_k."""
    return np.diag([1.0, ck.kappa1, ck.kappa1 * ck.kappa2])


def ck_generators(ck: CKParams) -> AlgebraBasis:
    """Group-side basis (M_P1, M_P2, M_J12).

    These generate the flow matrices literally: exp(l M_a) x = Phi_a(l, x).
    Their brackets are the opposite of the vector-field algebra (as they
    must be, since X_M(x) = M x reverses brackets):
    [M_P1, M_P2] = -k1 M_J12, [M_J12, M_P1] = -M_P2, [M_J12, M_P2] = k2 M_P1.
    """
    k1, k2 = ck.kappa1, ck.kappa2
    m_p1 = np.array([[0.0, k1, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    m_p2 = np.array([[0.0, 0.0, k1 * k2], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    m_j12 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, k2], [0.0, -1.0, 0.0]])
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = -k1
    c[1, 0, 2] = k1
    c[2, 0, 1] = -1.0
    c[0, 2, 1] = 1.0
    c[2, 1, 0] = k2
    c[1, 2, 0] = -k2
    return AlgebraBasis((m_p1, m_p2, m_j12), c)


def ck_exp_closed(ck: CKParams, alpha: int, lam: float) -> np.ndarray:
    """Closed form of exp(lam M_alpha) via kappa-trigonometry."""
    k1, k2 = ck.kappa1, ck.kappa2
    if alpha == 0:
        c, s = ck_cos(k1, lam), ck_sin(k1, lam)
        return np.array([[c, k1 * s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    if alpha == 1:
        k12 = k1 * k2
        c, s = ck_cos(k12, lam), ck_sin(k12, lam)
        return np.array([[c, 0.0, k12 * s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if alpha == 2:
        c, s = ck_cos(k2, lam), ck_sin(k2, lam)
        return np.array([[1.0, 0.0, 0.0], [0.0, c, k2 * s], [0.0, -s, c]])
    raise ValueError(f"generator index must be 0, 1 or 2, got {alpha}")


def ck_extract_coords(ck: CKParams, g: np.ndarray):
    """Second-kind canonical coordinates (l1, l2, l3) near zero with
    g = exp(l1 M_P1) exp(l2 M_P2) exp(l3 M_J12).

    Reads -g21/g11 (kappa1-tangent), -g31 (kappa1*kappa2-sine) and
    -g32/g33 (kappa2-tangent); only the principal branches, so elements far
    from the identity are rejected.  A non-finite entry among the five read
    raises ValueError naming the first of them.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError("expected a 3x3 group element")
    flat = g.ravel().tolist()
    g11, g21, g31, g32, g33 = flat[0], flat[3], flat[6], flat[7], flat[8]
    # one check on the sum; a sum of finite entries that overflows passes on
    if not math.isfinite(g11 + g21 + g31 + g32 + g33):
        for i, j in ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2)):
            value = flat[3 * i + j]
            if not math.isfinite(value):
                raise ValueError(f"group element entry g[{i}, {j}] = {value} is not finite")
    if g11 <= 0.0 or g33 <= 0.0:
        raise CoordinateChartError("group element outside the extraction chart")
    lam1 = _inv_tan(ck.kappa1, -g21 / g11)
    lam2 = _inv_sin(ck.kappa1 * ck.kappa2, -g31)
    lam3 = _inv_tan(ck.kappa2, -g32 / g33)
    return lam1, lam2, lam3


def ck_invariant(ck: CKParams, x) -> float:
    """I = x0^2 + k1 x1^2 + k1 k2 x2^2, conserved by the system and by every
    flow."""
    x = np.asarray(x, dtype=float)
    return float(x[0] ** 2 + ck.kappa1 * x[1] ** 2 + ck.kappa1 * ck.kappa2 * x[2] ** 2)


def ck_system_rhs(ck: CKParams, coeffs: CoefficientSet, t: float, x) -> np.ndarray:
    """The ambient-coordinate ODE: dx/dt = (b1 M_P1 + b2 M_P2 + b12 M_J12) x."""
    x0, x1, x2 = np.asarray(x, dtype=float).tolist()
    b1, b2, b12 = coeffs.values(t)
    k1, k2 = ck.kappa1, ck.kappa2
    return np.array(
        [
            b1 * k1 * x1 + b2 * k1 * k2 * x2,
            -b1 * x0 + b12 * k2 * x2,
            -b2 * x0 - b12 * x1,
        ],
        dtype=float,
    )


def ck_lie_system(
    ck: CKParams, coeffs: CoefficientSet, action_mode: str = "linear"
) -> LieSystemSpec:
    """Bundle the CK data into a solvable system on ambient R^3; the
    flow-composition action agrees with the linear one on the chart."""
    basis = ck_generators(ck)
    if action_mode == "linear":
        action = GroupAction()
    elif action_mode == "flow-composition":
        flows = tuple(lambda lam, x, a=a: ck_exp_closed(ck, a, lam) @ x for a in range(3))
        action = GroupAction(flows, lambda g: ck_extract_coords(ck, g))
    else:
        raise ValueError(f"unknown action mode {action_mode!r}")
    return LieSystemSpec(
        basis=basis,
        coeffs=coeffs,
        action=action,
        dim=3,
        rhs=lambda t, x: ck_system_rhs(ck, coeffs, t, x),
        invariant=lambda x: ck_invariant(ck, x),
    )
