"""Property-based tests of the coordinate bracket and the coordinate
dexp-inverse, over every coordinate_system basis (CK with kappa < 0, = 0,
> 0 and mixed signs, sl(2) and the abelian diagonal basis), and of the group
laws of the exponential on the CK algebras in all nine sign classes, and
of the kappa-trigonometry identities for kappa < 0, = 0 and > 0."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from liesolve.algebra import MAX_DEXPINV_ORDER, _dexpinv_series, dexpinv
from liesolve.ckspaces import (
    CKParams,
    ck_bilinear_form,
    ck_cos,
    ck_generators,
    ck_sin,
    ck_tan,
    ck_versin,
)
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
