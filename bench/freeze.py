"""Write the benchmark's input pools and frozen references.

    python3 bench/freeze.py

Run it only at the commit the references are frozen at (recorded in
``references.json`` under ``frozen_at``): the gate accepts a later commit's
output when it is as accurate as that commit's.  It writes
``references.json`` and ``cli_refs/*.csv`` next to this file.

References that do not come from liesolve:
  * CK final points: classical RK4 on x' = A(t) x with 80 000 steps, all
    pool entries at once in numpy; the 40 000-step run bounds its error.
  * Limit-cycle final points: the closed-form solution.
Taken from liesolve at this commit: every solve's own error and invariant
drift, the step at which an escaping limit-cycle start fails, and the CLI's
CSV files.
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from liesolve import benchmarks, ckspaces, cli, integrators, liesystem  # noqa: E402

import gate  # noqa: E402
import pools  # noqa: E402

POOL_SEED = 20230801
CK_T = (3.0, 4.0)
SWEEP_NS = (10, 20, 40, 80)
LONG_N = 2500
LONG_KAPPA = (0.8, -0.5)
LOCAL_N = 40
LC_T = (0.0, 2.0)
REF_STEPS = 80_000
PER_CLASS = {"ck_sweep": 6, "local_ck": 4}
LONG_POOL = 12
LC_PER_KIND = 8


def draw_kappa(rng, cls):
    def one(sign):
        if sign == "0":
            return 0.0
        mag = round(rng.uniform(0.1, 0.8), 3)
        return mag if sign == "+" else -mag

    return (one(cls[0]), one(cls[1]))


def draw_x0(rng, kappa):
    while True:
        x0 = [round(rng.uniform(-1.5, 1.5), 3) for _ in range(3)]
        inv = gate.ck_invariant(kappa, [x0])[0]
        if abs(inv) >= 0.2:
            return x0


def ck_reference(kappas, x0s, n):
    """Classical RK4 for x' = A(t) x, every pool entry at once."""
    k = np.asarray(kappas, dtype=float)
    k1, k2 = k[:, 0], k[:, 1]
    p = len(k)
    m1 = np.zeros((p, 3, 3))
    m2 = np.zeros((p, 3, 3))
    m3 = np.zeros((p, 3, 3))
    m1[:, 0, 1], m1[:, 1, 0] = k1, -1.0
    m2[:, 0, 2], m2[:, 2, 0] = k1 * k2, -1.0
    m3[:, 1, 2], m3[:, 2, 1] = k2, -1.0

    def f(t, x):
        a = t * t * m1 + math.sin(t) * m2 + math.log(t + 1.0) * m3
        return np.einsum("pij,pj->pi", a, x)

    t0, t1 = CK_T
    h = (t1 - t0) / n
    x = np.asarray(x0s, dtype=float)
    for i in range(n):
        t = t0 + i * h
        s1 = f(t, x)
        s2 = f(t + 0.5 * h, x + 0.5 * h * s1)
        s3 = f(t + 0.5 * h, x + 0.5 * h * s2)
        s4 = f(t + h, x + h * s3)
        x = x + h / 6.0 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
    return x


def solve(system, method, x0, t0, t1, n):
    if method == "rk4":
        return liesystem.solve_direct_rk4(system, x0, t0, t1, n)
    return liesystem.solve(system, x0, t0, t1, n, integrators.StepperConfig(method))


def ck_pool(rng, count_per_class=None, kappa=None, count=None):
    if kappa is not None:
        return [{"kappa": list(kappa), "x0": draw_x0(rng, kappa)} for _ in range(count)]
    out = []
    for cls in pools.KAPPA_CLASSES:
        for _ in range(count_per_class):
            kap = draw_kappa(rng, cls)
            out.append({"cls": cls, "kappa": list(kap), "x0": draw_x0(rng, kap)})
    return out


def freeze_ck(entries, ns, action_mode):
    """Fine-grid reference plus the frozen commit's error and drift for every
    (method, N); entries whose flow-composition solve fails are dropped."""
    fine = ck_reference([e["kappa"] for e in entries], [e["x0"] for e in entries], REF_STEPS)
    half = ck_reference([e["kappa"] for e in entries], [e["x0"] for e in entries], REF_STEPS // 2)
    kept = []
    for e, x_ref, x_half in zip(entries, fine, half):
        system = ckspaces.ck_lie_system(
            ckspaces.CKParams(*e["kappa"]), benchmarks.ck_benchmark_coefficients(), action_mode
        )
        e = dict(e, x_ref=x_ref.tolist(), ref_err_bound=float(np.linalg.norm(x_ref - x_half)))
        e["seed_err"] = {m: {} for m in pools.METHODS}
        e["seed_drift"] = {m: {} for m in pools.METHODS}
        try:
            for n in ns:
                for m in pools.METHODS:
                    traj = solve(system, m, e["x0"], *CK_T, n)
                    e["seed_err"][m][str(n)] = gate.final_point_error(traj.points[-1], x_ref)
                    e["seed_drift"][m][str(n)] = gate.relative_drift(e["kappa"], traj.points)
        except liesystem.ActionDomainError:
            continue
        kept.append(e)
    return kept


def lc_exact(x0, t):
    """Closed form: rotate clockwise by t + t^3/3, scale the radius through
    u = u0 / (u0 - (u0 - 1) e^{2(e^t - 1)})."""
    x, y = x0
    u0 = x * x + y * y
    denom = u0 - (u0 - 1.0) * math.exp(2.0 * (math.exp(t) - 1.0))
    if denom <= 0.0:
        return None
    ang = t + t ** 3 / 3.0
    c, s = math.cos(ang), math.sin(ang)
    scale = 1.0 / math.sqrt(denom)
    return [(x * c + y * s) * scale, (-x * s + y * c) * scale]


def lc_condition(x0, t):
    """max(1, du(t)/du0) for u = r^2: how much the closed form amplifies a
    perturbation of the squared radius."""
    u0 = x0[0] ** 2 + x0[1] ** 2
    grow = math.exp(2.0 * (math.exp(t) - 1.0))
    return max(1.0, grow / (u0 - (u0 - 1.0) * grow) ** 2)


def freeze_limit_cycle(rng):
    system = benchmarks.limit_cycle_system(lambda t: 1.0 + t * t, math.exp)
    t0, t1 = LC_T
    h = (t1 - t0) / LOCAL_N
    radii = {"inside": (0.2, 0.9), "on": (1.0, 1.0), "outside": (1.05, 1.6)}
    out = []
    for kind in pools.LIMIT_CYCLE_KINDS:
        for _ in range(LC_PER_KIND):
            r = rng.uniform(*radii[kind])
            th = rng.uniform(0.0, 2.0 * math.pi)
            x0 = [r * math.cos(th), r * math.sin(th)]
            x_ref = lc_exact(x0, t1)
            outcome = {}
            for m in pools.METHODS:
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        traj = solve(system, m, x0, t0, t1, LOCAL_N)
                except (liesystem.ActionDomainError, FloatingPointError) as err:
                    outcome[m] = {"error": type(err).__name__, "step": gate.error_step(err, t0, h)}
                else:
                    outcome[m] = {
                        "x_ref": x_ref,
                        "seed_err": gate.final_point_error(traj.points[-1], x_ref),
                        "cond": lc_condition(x0, t1),
                    }
            escaped = [x_ref is None] + ["error" in o for o in outcome.values()]
            if all(escaped) or not any(escaped):
                out.append({"kind": kind, "x0": x0, "outcome": outcome})
    return out


def freeze_cli():
    shutil.rmtree(pools.CLI_REFS, ignore_errors=True)
    pools.CLI_REFS.mkdir()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command, (argv, files) in pools.CLI_COMMANDS.items():
                if cli.main(argv) != 0:
                    raise SystemExit(f"cli {command} failed at the frozen commit")
                for fname in files:
                    shutil.copyfile(Path(tmp) / fname, pools.CLI_REFS / fname)
        finally:
            os.chdir(here)


def main():
    rng = random.Random(POOL_SEED)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    refs = {
        "frozen_at": {"commit": commit, "src_sha256": pools.source_fingerprint(ROOT)},
        "ck_sweep": {
            "t0": CK_T[0], "t1": CK_T[1], "ns": list(SWEEP_NS),
            "pool": freeze_ck(ck_pool(rng, PER_CLASS["ck_sweep"]), SWEEP_NS, "linear"),
        },
        "ck_long": {
            "t0": CK_T[0], "t1": CK_T[1], "n": LONG_N,
            "pool": freeze_ck(ck_pool(rng, kappa=LONG_KAPPA, count=LONG_POOL), (LONG_N,), "linear"),
        },
        "local_ck": {
            "t0": CK_T[0], "t1": CK_T[1], "n": LOCAL_N,
            "pool": freeze_ck(
                ck_pool(rng, PER_CLASS["local_ck"]), (LOCAL_N,), "flow-composition"
            ),
        },
        "local_lc": {"t0": LC_T[0], "t1": LC_T[1], "n": LOCAL_N, "pool": freeze_limit_cycle(rng)},
    }
    freeze_cli()
    with open(pools.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    for key in ("ck_sweep", "ck_long", "local_ck", "local_lc"):
        print(f"{key}: {len(refs[key]['pool'])} entries")


if __name__ == "__main__":
    main()
