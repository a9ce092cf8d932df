"""Property-based tests of the coordinate bracket and the coordinate
dexp-inverse, over every coordinate_system basis (CK with kappa < 0, = 0,
> 0 and mixed signs, sl(2) and the abelian diagonal basis), and of the group
laws of the exponential on the CK algebras in all nine sign classes, of the
exponential against the CK closed form and det exp(A) = e^(tr A), of the
group actions' identity and composition laws, and of the kappa-trigonometry
identities for kappa < 0, = 0 and > 0."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from liesolve.algebra import MAX_DEXPINV_ORDER, AlgebraBasis, _dexpinv_series, dexpinv
from liesolve.benchmarks import ck_benchmark_coefficients, limit_cycle_system
from liesolve.ckspaces import (
    CKParams,
    ck_bilinear_form,
    ck_cos,
    ck_generators,
    ck_lie_system,
    ck_sin,
    ck_tan,
    ck_versin,
)
from liesolve.liesystem import GroupAction
from liesolve.matrixcore import commutator, mat_exp

# The coordinate_system fixture only builds immutable bases, so sharing it
# across the examples of one test is safe; fixed examples keep runs
# reproducible.
properties = settings(
    derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Coordinates of magnitude 0 or 1e-6..1e3: no product of three underflows.
_coordinate = st.one_of(
    st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)
)


def _vectors(data, basis, count, elements=_coordinate):
    return [data.draw(st.lists(elements, min_size=basis.r, max_size=basis.r)) for _ in range(count)]


def _norm(x):
    return float(np.linalg.norm(x))


def _c_max(basis):
    return max(1.0, float(np.abs(basis.structure_constants).max()))


@properties
@given(data=st.data())
def test_bracket_is_antisymmetric(coordinate_system, data):
    basis, _ = coordinate_system
    u, v = _vectors(data, basis, 2)
    uv, vu = np.array(basis.bracket(u, v)), np.array(basis.bracket(v, u))
    assert _norm(uv + vu) <= 1e-15 * _c_max(basis) * _norm(u) * _norm(v)


@properties
@given(data=st.data())
def test_bracket_satisfies_jacobi(coordinate_system, data):
    basis, _ = coordinate_system
    u, v, w = _vectors(data, basis, 3)
    br = basis.bracket
    total = np.array(br(u, br(v, w))) + np.array(br(v, br(w, u))) + np.array(br(w, br(u, v)))
    assert _norm(total) <= 1e-14 * _c_max(basis) ** 2 * _norm(u) * _norm(v) * _norm(w)


@properties
@given(data=st.data())
def test_bracket_matches_matrix_commutator(coordinate_system, data):
    # relative to ||U|| ||V||, which bounds ||[U, V]|| / 2
    basis, _ = coordinate_system
    u, v = _vectors(data, basis, 2)
    mu, mv = basis.element(np.array(u)), basis.element(np.array(v))
    got = basis.element(np.array(basis.bracket(u, v)))
    assert _norm(got - commutator(mu, mv)) <= 1e-13 * _norm(mu) * _norm(mv)


@properties
@given(data=st.data(), order=st.integers(0, MAX_DEXPINV_ORDER))
def test_coordinate_dexpinv_matches_matrix_dexpinv(coordinate_system, data, order):
    # the RKMK stage: the series through basis.bracket on coordinate lists
    # is the matrix dexpinv of the elements
    basis, _ = coordinate_system
    (theta,) = _vectors(data, basis, 1, st.floats(-0.5, 0.5))
    (v,) = _vectors(data, basis, 1)
    m_theta, m_v = basis.element(np.array(theta)), basis.element(np.array(v))
    got = basis.element(np.array(_dexpinv_series(lambda x: basis.bracket(theta, x), v, order)))
    expected = dexpinv(m_theta, m_v, order)
    scale = _norm(m_v) * (1.0 + 2.0 * _norm(m_theta)) ** order
    assert _norm(got - expected) <= 1e-13 * scale


def _loop_bracket(basis, u, v):
    """The bracket as the loop over the nonzero structure constants that
    the compiled kernels replace: the reference they must match bit for bit."""
    c = basis.structure_constants
    out = [0.0] * basis.r
    for a, b, g in np.argwhere(c).tolist():
        out[g] += c[a, b, g].item() * u[a] * v[b]
    return out


def _bits(x):
    return np.array(x, dtype=float).tobytes()


# a dense from_generators basis: four random 2 x 2 matrices span gl(2), and
# least squares gives structure constants with no zero off a = b (48 of 64)
_DENSE_BASIS = AlgebraBasis.from_generators(np.random.default_rng(3).normal(size=(4, 2, 2)))

# signed zeros too: the kernels keep the loop's 0.0 + ... start
_signed_coordinate = st.one_of(st.just(-0.0), _coordinate)


def _check_kernels_match_loop(basis, data):
    u, v = _vectors(data, basis, 2, _signed_coordinate)
    (theta,) = _vectors(data, basis, 1, st.one_of(st.just(-0.0), st.floats(-0.5, 0.5)))
    assert _bits(basis.bracket(u, v)) == _bits(_loop_bracket(basis, u, v))
    expected = _dexpinv_series(lambda x: _loop_bracket(basis, theta, x), v, 2)
    assert _bits(basis.dexpinv2(theta, v)) == _bits(expected)


@properties
@given(data=st.data())
def test_compiled_kernels_match_the_loop_to_the_bit(coordinate_system, data):
    _check_kernels_match_loop(coordinate_system[0], data)


@properties
@given(data=st.data())
def test_compiled_kernels_match_the_loop_on_a_dense_basis(data):
    assert np.count_nonzero(_DENSE_BASIS.structure_constants) == 48
    _check_kernels_match_loop(_DENSE_BASIS, data)


def _dexp(basis, theta, x, order=16):
    """dexp_theta(x) = sum_k ad_theta^k (x) / (k + 1)!, summed to order 16
    (the terms past it are below rounding for |theta| <= 1)."""
    acc = ad = x
    scale = 1.0
    for k in range(1, order + 1):
        ad = basis.bracket(theta, ad)
        scale /= k + 1
        acc = [a + scale * b for a, b in zip(acc, ad)]
    return acc


@properties
@given(data=st.data())
def test_rkmk_stage_inverts_dexp_to_fourth_order(coordinate_system, data):
    # the defining property of dexp-inverse: dexp_theta(dexpinv_theta(v)) = v.
    # Truncated at order 2 it holds to O(|theta|^4), as B_3 = 0.  Measured
    # over 4000 random draws per basis (|theta| <= 0.87): the residual is at
    # most 1.4e-3 c^4 |theta|^4 |v| (c the largest structure constant, at
    # least 1) and, for |theta| < 1e-4, 3.1e-16 |v| of rounding
    basis, _ = coordinate_system
    (theta,) = _vectors(data, basis, 1, st.floats(-0.5, 0.5))
    (v,) = _vectors(data, basis, 1)
    residual = _norm(np.array(_dexp(basis, theta, basis.dexpinv2(theta, v))) - v)
    assert residual <= (3e-3 * _c_max(basis) ** 4 * _norm(theta) ** 4 + 1e-15) * _norm(v)


def test_rkmk_stage_residual_falls_sixteenfold_per_halving():
    # the order of the property above, on the benchmark CK algebra from
    # |theta| = 1.19: measured ratios 14.5, 15.3, 15.6, 15.8 (the order-4
    # series falls 58-62x per halving)
    basis = ck_generators(CKParams(0.8, -0.5))
    v = [1.0, -2.0, 0.5]
    residuals = []
    for s in range(5):
        theta = [x / 2**s for x in (0.7, -0.6, 0.75)]
        residuals.append(_norm(np.array(_dexp(basis, theta, basis.dexpinv2(theta, v))) - v))
    assert 2e-6 <= residuals[0] <= 4e-6
    for big, small in zip(residuals, residuals[1:]):
        assert 14.0 <= big / small <= 16.5


# (sign of kappa1, sign of kappa2): the nine CK sign classes
_SIGN_CLASSES = [(s1, s2) for s1 in (-1, 0, 1) for s2 in (-1, 0, 1)]

# |kappa| of a nonzero curvature, and coordinates of an algebra element
_curvature = st.floats(1e-3, 4.0)
_unit_box = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


def _ck_element(signs, mags, w):
    """(CKParams, W): the CK algebra of the sign class and the element of
    the coordinates w, scaled into the unit ball."""
    ck = CKParams(*(s * m for s, m in zip(signs, mags)))
    w = np.array(w) / max(1.0, _norm(w))
    return ck, ck_generators(ck).element(w)


@pytest.mark.parametrize("signs", _SIGN_CLASSES)
@properties
@given(mags=st.tuples(_curvature, _curvature), w=_unit_box)
def test_exp_of_minus_a_inverts_exp_of_a(signs, mags, w):
    _, a = _ck_element(signs, mags, w)
    e, e_inv = mat_exp(a), mat_exp(-a)
    assert _norm(e @ e_inv - np.eye(3)) <= 1e-14 * _norm(e) * _norm(e_inv)


@pytest.mark.parametrize("signs", _SIGN_CLASSES)
@properties
@given(mags=st.tuples(_curvature, _curvature), w=_unit_box)
def test_exp_preserves_the_ck_bilinear_form(signs, mags, w):
    ck, a = _ck_element(signs, mags, w)
    g, ik = mat_exp(a), ck_bilinear_form(ck)
    assert _norm(g.T @ ik @ g - ik) <= 1e-14 * _norm(g) ** 2 * _norm(ik)


# A CK element A = b1 M_P1 + b2 M_P2 + b12 M_J12 satisfies A^3 = -c A with
# c = k1 b1^2 + k1 k2 b2^2 + k2 b12^2, so exp(A) = I + S_c(1) A + V_c(1) A^2.
# Over 20000 random draws (all nine sign classes, |w| from 1e-6 to 1) the
# largest relative difference from mat_exp was 3.7e-15.
def _ck_closed_form_exp(ck, w, a):
    c = ck.kappa1 * w[0] ** 2 + ck.kappa1 * ck.kappa2 * w[1] ** 2 + ck.kappa2 * w[2] ** 2
    return np.eye(3) + ck_sin(c, 1.0) * a + ck_versin(c, 1.0) * (a @ a)


@pytest.mark.parametrize("signs", _SIGN_CLASSES)
@properties
@given(mags=st.tuples(_curvature, _curvature), w=_unit_box,
       scale=st.sampled_from([1e-6, 1e-3, 0.1, 1.0]))
def test_exp_matches_the_ck_closed_form(signs, mags, w, scale):
    ck = CKParams(*(s * m for s, m in zip(signs, mags)))
    w = np.array(w) * (scale / max(1.0, _norm(w)))
    a = ck_generators(ck).element(w)
    ref = _ck_closed_form_exp(ck, w, a)
    assert _norm(mat_exp(a) - ref) <= 1e-14 * _norm(ref)


@pytest.mark.parametrize(
    "kappas, w",
    [
        ((0.0, 0.0), (0.7, -0.4, 0.5)),  # c = 0: A^3 = 0
        ((0.5, 0.0), (1e-5, 0.7, 0.9)),  # c = 5e-11
        ((1.0, -1.0), (0.6, 0.6, 1e-9)),  # k1 b1^2 cancels k1 k2 b2^2: c = -1e-18
        ((2.0, -0.25), (0.5, 1.0, 1e-4)),  # the same: c = -2.5e-9
        ((-4.0, 0.5), (0.5, 0.3, 0.2)),  # c < 0
        ((-3.0, -3.0), (0.4, 0.4, 0.4)),  # c < 0 with k1 k2 > 0
    ],
)
def test_exp_matches_the_ck_closed_form_near_and_below_c_zero(kappas, w):
    ck = CKParams(*kappas)
    a = ck_generators(ck).element(np.array(w))
    ref = _ck_closed_form_exp(ck, w, a)
    assert _norm(mat_exp(a) - ref) <= 1e-14 * _norm(ref)


# det exp(A) = e^(tr A).  np.linalg.det rounds too, so the bound is on the
# scale of Hadamard's bound, the product of the row norms of exp(A); over
# 20000 random 2 x 2 and 3 x 3 draws with ||A||_F <= 3 the ratio was at
# most 4.4e-15.
@properties
@given(n=st.sampled_from([2, 3]), entries=st.lists(st.floats(-1.0, 1.0), min_size=9,
                                                     max_size=9), size=st.floats(0.0, 3.0))
def test_det_exp_is_exp_trace(n, entries, size):
    a = np.array(entries[: n * n]).reshape(n, n)
    a *= size / max(1.0, _norm(a))
    e = mat_exp(a)
    hadamard = float(np.prod(np.linalg.norm(e, axis=1)))
    assert abs(np.linalg.det(e) - math.exp(np.trace(a))) <= 1e-14 * hadamard


# kappa-trigonometry: C = ck_cos, S = ck_sin.  E = C^2 + |kappa| S^2 is
# cosh(2 sqrt(-kappa) lam) for kappa < 0 and 1 otherwise; it bounds C^2,
# |kappa| S^2 and 1 - C, and |lam| E bounds S C and S(2 lam) / 2.
_angle = st.floats(-3.0, 3.0)


def _trig(sign, mag, lam):
    kappa = sign * mag
    c, s = ck_cos(kappa, lam), ck_sin(kappa, lam)
    return kappa, c, s, c * c + abs(kappa) * s * s


@pytest.mark.parametrize("sign", (-1, 0, 1))
@properties
@given(mag=_curvature, lam=_angle)
def test_ck_trig_pythagorean_identity(sign, mag, lam):
    kappa, c, s, e = _trig(sign, mag, lam)
    assert abs(c * c + kappa * s * s - 1.0) <= 4e-15 * e


@pytest.mark.parametrize("sign", (-1, 0, 1))
@properties
@given(mag=_curvature, lam=_angle)
def test_ck_versine_is_one_minus_cosine_over_kappa(sign, mag, lam):
    kappa, c, _, e = _trig(sign, mag, lam)
    assert abs(kappa * ck_versin(kappa, lam) - (1.0 - c)) <= 4e-15 * e


@pytest.mark.parametrize("sign", (-1, 0, 1))
@properties
@given(mag=_curvature, lam=_angle)
def test_ck_sine_double_angle(sign, mag, lam):
    kappa, c, s, e = _trig(sign, mag, lam)
    assert abs(ck_sin(kappa, 2.0 * lam) - 2.0 * s * c) <= 4e-15 * abs(lam) * e


@pytest.mark.parametrize("sign", (-1, 0, 1))
@properties
@given(mag=_curvature, lam=_angle)
def test_ck_tangent_is_sine_over_cosine(sign, mag, lam):
    kappa, c, s, _ = _trig(sign, mag, lam)
    assume(abs(c) >= 1e-3)  # away from the poles C = 0 of kappa > 0
    t = ck_tan(kappa, lam)
    assert abs(t - s / c) <= 4e-15 * abs(t)


# Group actions: phi(I, x) = x and phi(g1 g2, x) = phi(g1, phi(g2, x)).
# Measured over 4000-20000 random draws each, the composition error was at
# most 1.9e-16 |g1| |g2| |x| for the linear action, 5.8e-16 |g1| |g2| |x|
# for the CK flow-composition action (W in the box below, over all nine
# sign classes) and 1.5e-15 |phi(g1 g2, x)| for the limit-cycle action.
_state = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)


@properties
@given(w=st.tuples(_unit_box, _unit_box), x=_state)
def test_linear_action_identity_and_composition(w, x):
    basis = ck_generators(CKParams(0.8, -0.5))
    g1, g2 = (mat_exp(basis.element(np.array(wi))) for wi in w)
    act, x = GroupAction().act, np.array(x)
    assert np.array_equal(act(np.eye(3), x), x)
    err = _norm(act(g1 @ g2, x) - act(g1, act(g2, x)))
    assert err <= 1e-15 * _norm(g1) * _norm(g2) * _norm(x)


# W in [-0.15, 0.15]^3 keeps g1, g2 and g1 g2 inside the second-kind chart
# for |kappa| <= 4 (at 0.25, 14 of 1500 draws in the (-, -) class and 1 in
# the (+, +) class left it)
_chart_box = st.lists(st.floats(-0.15, 0.15), min_size=3, max_size=3)


@pytest.mark.parametrize("signs", _SIGN_CLASSES)
@properties
@given(mags=st.tuples(_curvature, _curvature), w=st.tuples(_chart_box, _chart_box), x=_state)
def test_ck_flow_action_identity_and_composition(signs, mags, w, x):
    ck = CKParams(*(s * m for s, m in zip(signs, mags)))
    act = ck_lie_system(ck, ck_benchmark_coefficients(), "flow-composition").action.act
    basis = ck_generators(ck)
    g1, g2 = (mat_exp(basis.element(np.array(wi))) for wi in w)
    x = np.array(x)
    assert np.array_equal(act(np.eye(3), x), x)
    err = _norm(act(g1 @ g2, x) - act(g1, act(g2, x)))
    assert err <= 4e-15 * _norm(g1) * _norm(g2) * _norm(x)


@properties
@given(
    logs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    r=st.floats(0.0, 1.0, exclude_max=True),
    angle=st.floats(0.0, 2 * math.pi),
)
def test_limit_cycle_action_identity_and_composition(logs, r, angle):
    # positive diagonals diag(e^a, e^b), acting on the open unit disc, where
    # the radial flow is defined for every b; phi(I, x) = x held exactly in
    # 20000 draws, and the bound allows one rounding of the radicand
    act = limit_cycle_system(math.sin, math.cos).action.act
    g1, g2 = np.diag(np.exp(logs[:2])), np.diag(np.exp(logs[2:]))
    x = np.array([r * math.cos(angle), r * math.sin(angle)])
    assert _norm(act(np.eye(2), x) - x) <= 2.3e-16 * _norm(x)
    expected = act(g1 @ g2, x)
    assert _norm(expected - act(g1, act(g2, x))) <= 1e-14 * _norm(expected)
