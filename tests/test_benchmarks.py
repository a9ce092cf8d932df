import math

import numpy as np
import pytest

from liesolve.benchmarks import (
    limit_cycle_system,
    riccati_rhs,
    riccati_rho_from_solution,
    riccati_superposition,
)
from liesolve.integrators import (
    StepperConfig,
    _magnus4_from_values,
    rk4_direct_step,
    rkmk_increment,
)
from liesolve.liesystem import ActionDomainError, solve, solve_direct_rk4
from liesolve.matrixcore import mat_exp


def default_system():
    return limit_cycle_system(lambda t: 1.0 + t * t, math.exp)


# --- diagonal group and action -------------------------------------------


def act(a, b, p):
    return default_system().action.act(np.diag((a, b)), p)


def test_diagonal_element_positivity():
    for a, b in ((0.0, 1.0), (1.0, -0.5)):
        with pytest.raises(ActionDomainError):
            act(a, b, np.array([0.3, -0.2]))


def test_action_identity_element():
    p = np.array([0.3, -0.2])
    assert np.allclose(act(1.0, 1.0, p), p)


def test_action_fixes_origin():
    out = act(1.7, 0.4, np.zeros(2))
    assert np.allclose(out, 0.0)


def test_action_preserves_unit_circle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        theta = rng.uniform(0, 2 * math.pi)
        p = np.array([math.cos(theta), math.sin(theta)])
        out = act(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), p)
        assert out @ out == pytest.approx(1.0, abs=1e-12)


def test_action_equals_flow_composition():
    rng = np.random.default_rng(24)
    for _ in range(30):
        a, b = rng.uniform(0.5, 2.0, 2)
        p = rng.uniform(-0.7, 0.7, 2)
        # closed form: rotate clockwise by ln a, scale by 1/sqrt(r^2 - (r^2-1) b^2)
        c, s = math.cos(math.log(a)), math.sin(math.log(a))
        r2 = p @ p
        closed = np.array([c * p[0] + s * p[1], -s * p[0] + c * p[1]])
        closed /= math.sqrt(r2 - (r2 - 1.0) * b * b)
        assert np.linalg.norm(act(a, b, p) - closed) <= 1e-12


def test_action_domain_error_outside():
    # r^2 = 4, b^2 = 2 makes the radicand 4 - 3*2 < 0
    with pytest.raises(ActionDomainError):
        act(1.0, math.sqrt(2.0), np.array([2.0, 0.0]))


# --- the lifted system ----------------------------------------------------


def test_rhs_matches_flows_infinitesimally():
    system = default_system()
    eps = 1e-6
    rng = np.random.default_rng(25)
    for alpha, m in enumerate(system.basis.generators):
        for _ in range(5):
            p = rng.uniform(-0.7, 0.7, 2)
            plus = system.action.act(mat_exp(eps * m), p)
            minus = system.action.act(mat_exp(-eps * m), p)
            tangent = (plus - minus) / (2 * eps)
            x, y = p
            u = x * x + y * y - 1.0
            expected = np.array([y, -x]) if alpha == 0 else u * p
            assert np.linalg.norm(tangent - expected) <= 1e-6


def test_stratification_on_the_circle():
    system = default_system()
    traj = solve(system, [0.0, 1.0], 0.0, 2.0, 20, StepperConfig("rkmk"))
    r2 = (traj.points ** 2).sum(axis=1)
    assert np.abs(r2 - 1.0).max() <= 1e-12


def test_strata_ordering_inside_stays_inside():
    system = default_system()
    traj = solve(system, [0.3, 0.0], 0.0, 1.0, 50, StepperConfig("rkmk"))
    r2 = (traj.points ** 2).sum(axis=1)
    assert np.all(r2 < 1.0)


def test_strata_ordering_outside_stays_outside():
    system = limit_cycle_system(lambda t: 1.0, lambda t: -1.0)
    traj = solve(system, [1.2, 0.0], 0.0, 1.0, 50, StepperConfig("rkmk"))
    r2 = (traj.points ** 2).sum(axis=1)
    assert np.all(r2 > 1.0)


def test_classical_rk4_escapes_the_circle():
    system = default_system()
    traj = solve_direct_rk4(system, [0.0, 1.0], 0.0, 2.0, 100)  # h = 0.02
    r2 = (traj.points ** 2).sum(axis=1)
    assert np.abs(r2 - 1.0).max() > 1e-3


def test_rhs_evaluates_each_coefficient_once():
    calls = {"b1": 0, "b2": 0}

    def counted(name, f):
        def g(t):
            calls[name] += 1
            return f(t)

        return g

    system = limit_cycle_system(counted("b1", lambda t: 1.0 + t * t), counted("b2", math.exp))
    plain = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    for p in ([0.0, 1.0], [0.3, -1.2]):
        out = system.rhs(0.7, np.array(p))
        assert np.array_equal(out, plain.rhs(0.7, np.array(p)))
    assert calls == {"b1": 2, "b2": 2}


def test_abelian_increments_have_no_bracket_terms():
    system = default_system()
    t, h = 0.3, 0.1
    b = system.coeffs.values
    # no analytic derivatives: magnus4 samples b where rkmk does
    nodes = [b(t), b(t + 0.5 * h), b(t + h)]
    w4 = system.basis.element(_magnus4_from_values(system.basis, nodes, h))
    wr = system.basis.element(rkmk_increment(system.basis, nodes, h))
    # diagonal algebra: any commutator contribution would be off-diagonal
    assert np.abs(w4 - np.diag(np.diag(w4))).max() == 0.0
    assert np.abs(wr - np.diag(np.diag(wr))).max() == 0.0


def test_geometric_solution_tracks_fine_rk4():
    system = default_system()
    geo = solve(system, [0.5, 0.0], 0.0, 1.0, 100, StepperConfig("rkmk"))
    ref = solve_direct_rk4(system, [0.5, 0.0], 0.0, 1.0, 10000)
    assert np.linalg.norm(geo.points[-1] - ref.points[100 * 100]) <= 1e-6


# --- Riccati superposition ------------------------------------------------


def test_superposition_special_values():
    assert riccati_superposition(0.0, 1.0, 2.0, 0.0) == 1.0
    assert riccati_superposition(0.0, 1.0, 2.0, 1.0) == pytest.approx(0.0)


def test_superposition_rejects_degenerate():
    with pytest.raises(ValueError):
        riccati_superposition(1.0, 1.0, 2.0, 0.5)
    with pytest.raises(ZeroDivisionError):
        # (x3 - x1) + rho (x1 - x2) = 0 at rho = 2, x = (0, 1, 2)
        riccati_superposition(0.0, 1.0, 2.0, 2.0)


def test_rho_round_trip():
    rng = np.random.default_rng(26)
    for _ in range(30):
        x1, x2, x3, x = rng.uniform(-3, 3, 4)
        if len({x1, x2, x3}) < 3 or x == x3:
            continue
        rho = riccati_rho_from_solution(x1, x2, x3, x)
        assert riccati_superposition(x1, x2, x3, rho) == pytest.approx(x, abs=1e-12)
    assert riccati_rho_from_solution(0.0, 1.0, 2.0, 1.0) == 0.0


def test_riccati_rhs_is_the_array_formula_to_the_bit():
    b1, b2, b12 = (lambda t: 1.0), (lambda t: t), math.sin
    rhs = riccati_rhs(b1, b2, b12)
    rng = np.random.default_rng(27)
    for shape in ((4,), (2, 3)):
        for _ in range(20):
            t, x = rng.uniform(0.0, 2.0), rng.uniform(-3.0, 3.0, shape)
            out = rhs(t, x)
            assert out.shape == shape
            assert np.array_equal(out, b1(t) + b2(t) * x + b12(t) * x ** 2)


def integrate_riccati(x_init, t0, t1, n):
    rhs = riccati_rhs(lambda t: 1.0, lambda t: t, math.sin)
    h = (t1 - t0) / n
    x = np.array([x_init])
    track = [x_init]
    for k in range(n):
        x = rk4_direct_step(rhs, t0 + k * h, h, x)
        track.append(float(x[0]))
    return np.array(track)


def test_superposition_reconstructs_fourth_solution():
    n = 1000
    sols = [integrate_riccati(v, 0.0, 1.0, n) for v in (0.0, 1.0, -1.0, 0.5)]
    rho = riccati_rho_from_solution(sols[0][0], sols[1][0], sols[2][0], sols[3][0])
    rebuilt = np.array(
        [riccati_superposition(sols[0][k], sols[1][k], sols[2][k], rho) for k in range(n + 1)]
    )
    assert np.abs(rebuilt - sols[3]).max() <= 1e-5


def test_rho_constant_along_solutions():
    n = 1000
    sols = [integrate_riccati(v, 0.0, 1.0, n) for v in (0.0, 1.0, -1.0, 0.5)]
    rhos = [
        riccati_rho_from_solution(sols[0][k], sols[1][k], sols[2][k], sols[3][k])
        for k in range(0, n + 1, 100)
    ]
    assert max(abs(r - rhos[0]) for r in rhos) <= 1e-6
