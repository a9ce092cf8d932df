"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the library at its stated
tolerance and prints a single PASS/FAIL line (run pytest with -s or check
captured output to see them)."""

import math

import numpy as np
import pytest

from liesolve.algebra import CoefficientSet, assemble_A, dexpinv
from liesolve.benchmarks import (
    ck_benchmark_coefficients,
    limit_cycle_system,
    riccati_rho_from_solution,
    riccati_superposition,
)
from liesolve.ckspaces import (
    CKParams,
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
from liesolve.integrators import StepperConfig, integrate_group, rk4_direct_step
from liesolve.liesystem import estimate_order, global_error, solve, solve_direct_rk4
from liesolve.matrixcore import commutator, mat_exp

KAPPAS = (-1.0, -0.5, 0.0, 0.4, 0.8, 1.0)
BENCH_CK = CKParams(0.8, -0.5)
BENCH_X0 = np.array([1.0, 1.0, 1.0])
BENCH_I0 = 1.4


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def bench_system(mode="linear"):
    return ck_lie_system(BENCH_CK, ck_benchmark_coefficients(), action_mode=mode)


def test_criterion_01_kappa_trig_identities():
    rng = np.random.default_rng(101)
    worst_exact = 0.0
    worst_deriv = 0.0
    eps = 1e-6
    for kappa in KAPPAS:
        for lam in rng.uniform(-3.0, 3.0, 100):
            c, s = ck_cos(kappa, lam), ck_sin(kappa, lam)
            worst_exact = max(worst_exact, abs(c * c + kappa * s * s - 1.0))
            worst_exact = max(worst_exact, abs(ck_cos(kappa, 2 * lam) - (c * c - kappa * s * s)))
            worst_exact = max(worst_exact, abs(ck_sin(kappa, 2 * lam) - 2.0 * s * c))
            if kappa == 0:
                worst_exact = max(worst_exact, abs(ck_versin(kappa, lam) - 0.5 * lam * lam))
            else:
                worst_exact = max(worst_exact, abs(kappa * ck_versin(kappa, lam) - (1.0 - c)))
            if abs(c) > 1e-3:
                worst_exact = max(worst_exact, abs(ck_tan(kappa, lam) - s / c))
            dc = (ck_cos(kappa, lam + eps) - ck_cos(kappa, lam - eps)) / (2 * eps)
            ds = (ck_sin(kappa, lam + eps) - ck_sin(kappa, lam - eps)) / (2 * eps)
            worst_deriv = max(worst_deriv, abs(dc + kappa * s), abs(ds - c))
    ok = worst_exact <= 1e-12 and worst_deriv <= 1e-6
    report(
        "criterion 1 (kappa-trig identities)",
        ok,
        f"max algebraic residual {worst_exact:.2e} (tol 1e-12), "
        f"max derivative residual {worst_deriv:.2e} (tol 1e-6)",
    )


def test_criterion_02_closed_form_exponentials():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        ck = CKParams(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        basis = ck_generators(ck)
        alpha = int(rng.integers(0, 3))
        lam = rng.uniform(-2.0, 2.0)
        diff = ck_exp_closed(ck, alpha, lam) - mat_exp(lam * basis.generators[alpha])
        worst = max(worst, float(np.abs(diff).max()))
    ok = worst <= 1e-12
    report(
        "criterion 2 (closed-form vs numerical exponential)",
        ok,
        f"max entrywise difference {worst:.2e} over 200 random draws (tol 1e-12)",
    )


def test_criterion_03_invariant_preservation_vs_rk4():
    system = bench_system()
    geo_drifts = {}
    for method in ("magnus2", "magnus4", "rkmk"):
        traj = solve(system, BENCH_X0, 3.0, 4.0, 10, StepperConfig(method))
        geo_drifts[method] = max(
            abs(ck_invariant(BENCH_CK, p) - BENCH_I0) for p in traj.points
        )
    rk4 = solve_direct_rk4(system, BENCH_X0, 3.0, 4.0, 10)
    rk4_drift = max(abs(ck_invariant(BENCH_CK, p) - BENCH_I0) for p in rk4.points)
    worst_geo = max(geo_drifts.values())
    ok = worst_geo <= 1e-9 and rk4_drift >= 100.0 * worst_geo
    report(
        "criterion 3 (invariant preservation at h=0.1)",
        ok,
        f"geometric drift {worst_geo:.2e} (tol 1e-9), rk4 drift {rk4_drift:.2e} "
        f"(required >= 100x geometric)",
    )


def test_criterion_04_group_solution_stays_in_group():
    basis = ck_generators(BENCH_CK)
    ik = ck_bilinear_form(BENCH_CK)
    worst = 0.0
    for method in ("magnus2", "magnus4", "rkmk"):
        traj = integrate_group(
            basis, ck_benchmark_coefficients(), StepperConfig(method), 3.0, 4.0, 10
        )
        for y in traj.points:
            worst = max(worst, float(np.abs(y.T @ ik @ y - ik).max()))
    ok = worst <= 1e-9
    report(
        "criterion 4 (group solution preserves the bilinear form)",
        ok,
        f"max ||Y^T I Y - I|| {worst:.2e} (tol 1e-9)",
    )


def test_criterion_05_convergence_orders(ck_reference):
    system = bench_system()
    slopes = {}
    for method in ("magnus2", "magnus4", "rkmk"):
        hs, errs = [], []
        for n in (10, 20, 40, 80):
            traj = solve(system, BENCH_X0, 3.0, 4.0, n, StepperConfig(method))
            hs.append(1.0 / n)
            errs.append(global_error(traj, ck_reference))
        slopes[method] = estimate_order(hs, errs)
    ok = (
        1.7 <= slopes["magnus2"] <= 2.3
        and 3.6 <= slopes["magnus4"] <= 4.4
        and 3.6 <= slopes["rkmk"] <= 4.4
    )
    report(
        "criterion 5 (convergence orders)",
        ok,
        f"magnus2 {slopes['magnus2']:.2f} (in [1.7, 2.3]), "
        f"magnus4 {slopes['magnus4']:.2f}, rkmk {slopes['rkmk']:.2f} (in [3.6, 4.4])",
    )


def test_criterion_06_dexpinv_truncation():
    rng = np.random.default_rng(106)
    worst_ratio = 0.0
    for _ in range(100):
        omega = rng.normal(size=(3, 3))
        omega *= rng.uniform(0.01, 0.3) / np.linalg.norm(omega)
        h = rng.normal(size=(3, 3))
        diff = np.linalg.norm(dexpinv(omega, h, 2) - dexpinv(omega, h, 8))
        bound = 10.0 * np.linalg.norm(omega) ** 3 * np.linalg.norm(h)
        worst_ratio = max(worst_ratio, diff / bound)
    h = rng.normal(size=(4, 4))
    exact_identity = np.array_equal(dexpinv(np.zeros((4, 4)), h, 6), h)
    ok = worst_ratio <= 1.0 and exact_identity
    report(
        "criterion 6 (dexpinv truncation behavior)",
        ok,
        f"max (j=2 vs j=8 difference)/bound {worst_ratio:.3f} (must be <= 1), "
        f"dexpinv(0, H) == H exactly: {exact_identity}",
    )


def test_criterion_07_action_laws():
    rng = np.random.default_rng(107)
    worst_comp = 0.0
    worst_field = 0.0
    eps = 1e-6

    for mode in ("linear", "flow-composition"):
        system = bench_system(mode)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, 3)
            assert np.allclose(system.action.act(np.eye(3), x), x, atol=1e-14)
            lg = rng.uniform(-0.1, 0.1, 3)
            lh = rng.uniform(-0.1, 0.1, 3)
            g = (
                ck_exp_closed(BENCH_CK, 0, lg[0])
                @ ck_exp_closed(BENCH_CK, 1, lg[1])
                @ ck_exp_closed(BENCH_CK, 2, lg[2])
            )
            hmat = (
                ck_exp_closed(BENCH_CK, 0, lh[0])
                @ ck_exp_closed(BENCH_CK, 1, lh[1])
                @ ck_exp_closed(BENCH_CK, 2, lh[2])
            )
            worst_comp = max(
                worst_comp,
                float(
                    np.linalg.norm(
                        system.action.act(g, system.action.act(hmat, x))
                        - system.action.act(g @ hmat, x)
                    )
                ),
            )
        for alpha in range(3):
            m = system.basis.generators[alpha]
            coeffs = CoefficientSet(
                funcs=tuple(
                    (lambda a: (lambda t: 1.0 if a == alpha else 0.0))(a) for a in range(3)
                )
            )
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, 3)
                tangent = (
                    system.action.act(mat_exp(eps * m), x)
                    - system.action.act(mat_exp(-eps * m), x)
                ) / (2 * eps)
                worst_field = max(
                    worst_field,
                    float(np.linalg.norm(tangent - ck_system_rhs(BENCH_CK, coeffs, 0.0, x))),
                )

    lc = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    for _ in range(10):
        x = rng.uniform(-0.6, 0.6, 2)
        assert np.allclose(lc.action.act(np.eye(2), x), x, atol=1e-14)
        g = np.diag(np.exp(rng.uniform(-0.2, 0.2, 2)))
        hmat = np.diag(np.exp(rng.uniform(-0.2, 0.2, 2)))
        worst_comp = max(
            worst_comp,
            float(
                np.linalg.norm(
                    lc.action.act(g, lc.action.act(hmat, x)) - lc.action.act(g @ hmat, x)
                )
            ),
        )
    for alpha, m in enumerate(lc.basis.generators):
        for _ in range(5):
            x = rng.uniform(-0.6, 0.6, 2)
            tangent = (
                lc.action.act(mat_exp(eps * m), x) - lc.action.act(mat_exp(-eps * m), x)
            ) / (2 * eps)
            u = x @ x - 1.0
            expected = np.array([x[1], -x[0]]) if alpha == 0 else u * x
            worst_field = max(worst_field, float(np.linalg.norm(tangent - expected)))

    ok = worst_comp <= 1e-10 and worst_field <= 1e-6
    report(
        "criterion 7 (action identity/composition/vector-field laws)",
        ok,
        f"max composition defect {worst_comp:.2e} (tol 1e-10), "
        f"max tangent defect {worst_field:.2e} (tol 1e-6)",
    )


def test_criterion_08_coordinate_round_trip():
    rng = np.random.default_rng(108)
    worst = 0.0
    for ck in (CKParams(0.8, -0.5), CKParams(1.0, 1.0), CKParams(0.0, 1.0), CKParams(-1.0, -1.0)):
        for _ in range(50):
            lams = rng.uniform(-0.3, 0.3, 3)
            g = (
                ck_exp_closed(ck, 0, lams[0])
                @ ck_exp_closed(ck, 1, lams[1])
                @ ck_exp_closed(ck, 2, lams[2])
            )
            rec = ck_extract_coords(ck, g)
            worst = max(worst, float(np.abs(np.array(rec) - lams).max()))
    ok = worst <= 1e-10
    report(
        "criterion 8 (second-kind coordinate round trip)",
        ok,
        f"max coordinate error {worst:.2e} over 4 kappa pairs x 50 draws (tol 1e-10)",
    )


def test_criterion_09_limit_cycle_retention():
    system = limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    geo = solve(system, [0.0, 1.0], 0.0, 2.0, 20, StepperConfig("rkmk"))  # h = 0.1
    geo_drift = float(np.abs((geo.points ** 2).sum(axis=1) - 1.0).max())
    rk4 = solve_direct_rk4(system, [0.0, 1.0], 0.0, 2.0, 100)  # h = 0.02
    rk4_drift = float(np.abs((rk4.points ** 2).sum(axis=1) - 1.0).max())
    ok = geo_drift <= 1e-12 and rk4_drift > 1e-3
    report(
        "criterion 9 (limit-cycle circle retention)",
        ok,
        f"rkmk h=0.1 drift {geo_drift:.2e} (tol 1e-12), "
        f"rk4 h=0.02 drift {rk4_drift:.2e} (required > 1e-3)",
    )


def test_criterion_10_riccati_superposition():
    b1 = lambda t: 1.0
    b2 = lambda t: t
    b12 = math.sin

    def rhs(t, x):
        return np.array([b1(t) + b2(t) * x[0] + b12(t) * x[0] ** 2])

    n = 1000
    h = 1.0 / n
    sols = []
    for x_init in (0.0, 1.0, -1.0, 0.5):
        x = np.array([x_init])
        track = [x_init]
        for k in range(n):
            x = rk4_direct_step(rhs, k * h, h, x)
            track.append(float(x[0]))
        sols.append(track)
    rho = riccati_rho_from_solution(sols[0][0], sols[1][0], sols[2][0], sols[3][0])
    worst = max(
        abs(riccati_superposition(sols[0][k], sols[1][k], sols[2][k], rho) - sols[3][k])
        for k in range(n + 1)
    )
    ok = worst <= 1e-5
    report(
        "criterion 10 (Riccati superposition reconstruction)",
        ok,
        f"max reconstruction error {worst:.2e} on [0, 1] (tol 1e-5)",
    )


def test_criterion_11_incremental_equals_cumulative():
    worst = 0.0
    system = bench_system()
    traj = solve(system, BENCH_X0, 3.0, 4.0, 10, StepperConfig("rkmk"))
    group = integrate_group(system.basis, system.coeffs, StepperConfig("rkmk"), 3.0, 4.0, 10)
    for y, x in zip(group.points, traj.points):
        worst = max(worst, float(np.linalg.norm(system.action.act(y, BENCH_X0) - x)))
    ok = worst <= 1e-9
    report(
        "criterion 11 (incremental vs cumulative transport)",
        ok,
        f"max |phi(Y_k, x0) - x_k| {worst:.2e} (tol 1e-9)",
    )
