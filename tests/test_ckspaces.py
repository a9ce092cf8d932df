import math

import numpy as np
import pytest

from liesolve.algebra import CoefficientSet, assemble_A
from liesolve.benchmarks import ck_benchmark_coefficients
from liesolve.ckspaces import (
    CKParams,
    CoordinateChartError,
    ck_bilinear_form,
    ck_cos,
    ck_exp_closed,
    ck_extract_coords,
    ck_generators,
    ck_invariant,
    ck_lie_system,
    ck_sin,
    ck_system_rhs,
    ck_tan,
    ck_versin,
)
from liesolve.matrixcore import mat_exp

KAPPAS = (-1.0, -0.5, 0.0, 0.4, 0.8, 1.0)
CK_GRID = (CKParams(1.0, 1.0), CKParams(0.8, -0.5), CKParams(0.0, 1.0), CKParams(-1.0, 0.0))


def action_for(ck, mode="linear"):
    return ck_lie_system(ck, ck_benchmark_coefficients(), mode).action


def test_parabolic_values():
    assert ck_cos(0.0, 7.0) == 1.0
    assert ck_sin(0.0, 7.0) == 7.0
    assert ck_tan(0.0, 3.0) == 3.0
    assert ck_versin(0.0, 2.0) == 2.0


def test_circular_and_hyperbolic_values():
    assert ck_cos(1.0, math.pi) == pytest.approx(-1.0)
    assert ck_cos(-1.0, 1.0) == pytest.approx(math.cosh(1.0))
    assert ck_versin(1.0, math.pi) == pytest.approx(2.0)


def test_versin_small_kappa_keeps_its_digits():
    # (1 - C_kappa) / kappa cancels here; 2 S_kappa(lam/2)^2 does not
    for kappa in (1e-30, -1e-30, 1e-20, -1e-20, 1e-12, -1e-12, 1e-8, -1e-8, 1e-5, -1e-5):
        for lam in (0.5, 1.0, 2.0, 3.0):
            x = kappa * lam * lam
            if abs(x) > 1e-4:
                continue
            series = 0.5 * lam * lam * (1.0 - x / 12.0 + x * x / 360.0)
            assert abs(ck_versin(kappa, lam) - series) <= 1e-14 * series


def test_tan_blows_up_near_pole():
    # floating point never lands exactly on the pole; the value just explodes
    assert abs(ck_tan(1.0, math.pi / 2)) > 1e15


def test_pythagorean_and_double_angle():
    rng = np.random.default_rng(12)
    for kappa in KAPPAS:
        for lam in rng.uniform(-3, 3, 100):
            c, s = ck_cos(kappa, lam), ck_sin(kappa, lam)
            assert abs(c * c + kappa * s * s - 1.0) <= 1e-12
            assert abs(ck_cos(kappa, 2 * lam) - (c * c - kappa * s * s)) <= 1e-12
            assert abs(ck_sin(kappa, 2 * lam) - 2 * s * c) <= 1e-12


def test_derivative_identities():
    eps = 1e-6
    rng = np.random.default_rng(13)
    for kappa in KAPPAS:
        for lam in rng.uniform(-2, 2, 20):
            dc = (ck_cos(kappa, lam + eps) - ck_cos(kappa, lam - eps)) / (2 * eps)
            ds = (ck_sin(kappa, lam + eps) - ck_sin(kappa, lam - eps)) / (2 * eps)
            assert abs(dc + kappa * ck_sin(kappa, lam)) <= 1e-6
            assert abs(ds - ck_cos(kappa, lam)) <= 1e-6


def test_continuity_in_kappa():
    for lam in (-2.0, 0.3, 1.7):
        for kappa in (1e-8, -1e-8):
            assert abs(ck_cos(kappa, lam) - 1.0) <= 1e-6
            assert abs(ck_sin(kappa, lam) - lam) <= 1e-6


def test_generator_commutators():
    for ck in (CKParams(1.0, 1.0), CKParams(0.8, -0.5)):
        ck_generators(ck)  # structure constants validated on construction


def test_generator_isometry_condition():
    ck = CKParams(0.8, -0.5)
    basis = ck_generators(ck)
    ik = ck_bilinear_form(ck)
    for m in basis.generators:
        assert np.abs(m.T @ ik + ik @ m).max() <= 1e-14


def test_flat_generator_nilpotent():
    ck = CKParams(0.0, 1.0)
    m_p1 = ck_generators(ck).generators[0]
    assert np.allclose(
        ck_exp_closed(ck, 0, 5.0),
        np.array([[1.0, 0.0, 0.0], [-5.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    )
    assert np.allclose(mat_exp(5.0 * m_p1), ck_exp_closed(ck, 0, 5.0), atol=1e-13)


def test_exp_closed_identity_at_zero():
    ck = CKParams(0.8, -0.5)
    for a in range(3):
        assert np.allclose(ck_exp_closed(ck, a, 0.0), np.eye(3))


def test_exp_closed_matches_numerical_exponential():
    rng = np.random.default_rng(14)
    for ck in CK_GRID:
        basis = ck_generators(ck)
        for _ in range(50):
            a = int(rng.integers(0, 3))
            lam = rng.uniform(-2, 2)
            diff = ck_exp_closed(ck, a, lam) - mat_exp(lam * basis.generators[a])
            assert np.linalg.norm(diff) <= 1e-12


def test_flow_matches_matrix_action_and_invariant():
    rng = np.random.default_rng(15)
    ck = CKParams(0.8, -0.5)
    flows = action_for(ck, "flow-composition").flows
    for _ in range(30):
        a = int(rng.integers(0, 3))
        lam = rng.uniform(-2, 2)
        x = rng.uniform(-1, 1, 3)
        flowed = flows[a](lam, x)
        assert np.linalg.norm(flowed - ck_exp_closed(ck, a, lam) @ x) <= 1e-12
        assert ck_invariant(ck, flowed) == pytest.approx(ck_invariant(ck, x), abs=1e-12)


def test_flow_identity_at_zero():
    ck = CKParams(0.8, -0.5)
    flows = action_for(ck, "flow-composition").flows
    x = np.array([0.2, -0.4, 1.1])
    for a in range(3):
        assert np.allclose(flows[a](0.0, x), x)


def test_extract_identity():
    ck = CKParams(0.8, -0.5)
    assert ck_extract_coords(ck, np.eye(3)) == (0.0, 0.0, 0.0)


def test_extract_single_factor():
    ck = CKParams(0.8, -0.5)
    lams = ck_extract_coords(ck, ck_exp_closed(ck, 0, 0.2))
    assert lams[0] == pytest.approx(0.2, abs=1e-12)
    assert abs(lams[1]) <= 1e-12 and abs(lams[2]) <= 1e-12


def test_extract_round_trip():
    rng = np.random.default_rng(16)
    for ck in CK_GRID:
        for _ in range(30):
            lams = rng.uniform(-0.3, 0.3, 3)
            g = (
                ck_exp_closed(ck, 0, lams[0])
                @ ck_exp_closed(ck, 1, lams[1])
                @ ck_exp_closed(ck, 2, lams[2])
            )
            rec = ck_extract_coords(ck, g)
            assert np.allclose(rec, lams, atol=1e-10)


def test_extract_rejects_far_elements():
    # g11 = cos(pi) < 0 fails the sign test.  In the next two, g11 = g33 = 1
    # pass it, but -g21/g11 = 2 is past the pole of the kappa1 = -1 tangent
    # and -g31 = 2 past the range of the kappa1 kappa2 = 1 sine
    g_tan, g_sin = np.eye(3), np.eye(3)
    g_tan[1, 0] = g_sin[2, 0] = -2.0
    cases = [
        (CKParams(1.0, 1.0), ck_exp_closed(CKParams(1.0, 1.0), 0, math.pi),
         "group element outside the extraction chart"),
        (CKParams(-1.0, 1.0), g_tan, "kappa-arctangent argument 2.0 out of (-1, 1)"),
        (CKParams(1.0, 1.0), g_sin, "kappa-arcsine argument 2.0 out of [-1, 1]"),
    ]
    for ck, g, message in cases:
        with pytest.raises(CoordinateChartError) as excinfo:
            ck_extract_coords(ck, g)
        assert str(excinfo.value) == message


def test_extract_rejects_non_finite_entries():
    # an all-nan g gave (nan, nan, nan), and g[1, 0] = inf gave
    # lambda_1 = atan(-inf) / sqrt(kappa1) as if it were a coordinate
    ck = CKParams(0.8, -0.5)
    read = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
    for value in (math.nan, math.inf, -math.inf):
        g = np.full((3, 3), value)
        with pytest.raises(ValueError, match=rf"^group element entry g\[0, 0\] = {value} is not finite$"):
            ck_extract_coords(ck, g)
        for i, j in read:
            g = np.eye(3)
            g[i, j] = value
            with pytest.raises(ValueError) as excinfo:
                ck_extract_coords(ck, g)
            assert type(excinfo.value) is ValueError
            assert str(excinfo.value) == f"group element entry g[{i}, {j}] = {value} is not finite"
    # the four entries the extraction does not read are not checked
    for i, j in ((0, 1), (0, 2), (1, 1), (1, 2)):
        g = np.eye(3)
        g[i, j] = math.nan
        assert ck_extract_coords(ck, g) == (0.0, 0.0, 0.0)
    # finite entries whose sum overflows are read as before
    g = np.eye(3)
    g[2, 0] = g[2, 1] = 1e308
    with pytest.raises(CoordinateChartError, match="^kappa-arctangent argument"):
        ck_extract_coords(ck, g)


def test_action_modes_agree_near_identity():
    rng = np.random.default_rng(17)
    ck = CKParams(0.8, -0.5)
    linear = action_for(ck, "linear")
    composed = action_for(ck, "flow-composition")
    for _ in range(30):
        lams = rng.uniform(-0.2, 0.2, 3)
        g = (
            ck_exp_closed(ck, 0, lams[0])
            @ ck_exp_closed(ck, 1, lams[1])
            @ ck_exp_closed(ck, 2, lams[2])
        )
        x = rng.uniform(-1, 1, 3)
        lin = linear.act(g, x)
        comp = composed.act(g, x)
        assert np.linalg.norm(lin - comp) <= 1e-10


def test_action_preserves_invariant_and_form():
    rng = np.random.default_rng(18)
    ck = CKParams(0.8, -0.5)
    ik = ck_bilinear_form(ck)
    action = action_for(ck)
    for _ in range(20):
        lams = rng.uniform(-1, 1, 3)
        g = (
            ck_exp_closed(ck, 0, lams[0])
            @ ck_exp_closed(ck, 1, lams[1])
            @ ck_exp_closed(ck, 2, lams[2])
        )
        assert np.abs(g.T @ ik @ g - ik).max() <= 1e-10
        x = rng.uniform(-1, 1, 3)
        moved = action.act(g, x)
        assert ck_invariant(ck, moved) == pytest.approx(ck_invariant(ck, x), abs=1e-10)


def test_invariant_values():
    for ck in CK_GRID:
        assert ck_invariant(ck, [1.0, 0.0, 0.0]) == 1.0
    assert ck_invariant(CKParams(0.8, -0.5), [1.0, 1.0, 1.0]) == pytest.approx(1.4)
    ck0 = CKParams(0.0, 1.0)
    assert ck_invariant(ck0, [2.0, 5.0, -7.0]) == pytest.approx(4.0)


def test_system_rhs_zero_and_linear():
    ck = CKParams(0.8, -0.5)
    zero = CoefficientSet(funcs=(lambda t: 0.0,) * 3)
    assert np.abs(ck_system_rhs(ck, zero, 1.0, [1.0, 2.0, 3.0])).max() == 0.0

    rng = np.random.default_rng(19)
    coeffs = ck_benchmark_coefficients()
    basis = ck_generators(ck)
    for _ in range(20):
        t = rng.uniform(0.5, 4.0)
        x = rng.uniform(-1, 1, 3)
        assert np.allclose(
            ck_system_rhs(ck, coeffs, t, x), assemble_A(basis, coeffs, t) @ x, atol=1e-14
        )


def test_rhs_is_tangent_to_invariant_level_sets():
    ck = CKParams(0.8, -0.5)
    coeffs = ck_benchmark_coefficients()
    rng = np.random.default_rng(20)
    ik = ck_bilinear_form(ck)
    for _ in range(20):
        t = rng.uniform(0.5, 4.0)
        x = rng.uniform(-1, 1, 3)
        v = ck_system_rhs(ck, coeffs, t, x)
        assert abs(2.0 * x @ ik @ v) <= 1e-12


def test_lie_system_bundle_consistency():
    ck = CKParams(0.8, -0.5)
    system = ck_lie_system(ck, ck_benchmark_coefficients())
    assert system.dim == 3
    assert system.invariant([1.0, 1.0, 1.0]) == pytest.approx(1.4)
