"""Self-tests of the benchmark itself (not of liesolve).

    python3 bench/selftest.py

Smoke passes of every workload at a tiny size, the gate tripping on
perturbed results, the tracer surviving a missing target and repeating its
counts, seeded inputs repeating, the output contract of run.py, and its
refusal to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import pools  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REFS = pools.load_references()
TMP_ROOT = ROOT / ".bench_tmp"


def tiny(part, seed=1, workdir=None):
    inputs = {part: pools.part_inputs(part, seed, REFS, tiny=True)}
    return workloads.Workload(inputs, REFS, workdir)


class SmokeTest(unittest.TestCase):
    """One traced pass of each workload part at a tiny size: no failed operation,
    every trace target present, and the layers the workload uses counted."""

    def traced_pass(self, wl):
        tr = tracing.Tracer()
        tr.install()
        try:
            res = wl.run_pass(tr)
        finally:
            tr.remove()
        self.assertEqual(res.check(), [])
        self.assertEqual(tr.absent, [])
        return res, tr

    def test_ck_sweep(self):
        res, tr = self.traced_pass(tiny("ck-sweep"))
        self.assertEqual(tr.stats["liesystem.solve"].calls, 3 * len(REFS["ck_sweep"]["ns"]))
        self.assertGreater(tr.stats["algebra.dexpinv"].calls, 0)
        self.assertGreater(tr.coeff_evals, 0)

    def test_ck_long(self):
        res, tr = self.traced_pass(tiny("ck-long"))
        n = REFS["ck_long"]["n"]
        self.assertEqual(tr.stats["matrixcore.mat_exp"].calls, 3 * n)
        self.assertEqual(tr.stats["integrators.rk4_direct_step"].calls, n)
        self.assertTrue(all(len(s) == 1 for s in res.us_per_step.values()))

    def test_local_actions(self):
        res, tr = self.traced_pass(tiny("local-actions"))
        self.assertGreater(tr.stats["ckspaces.extract"].calls, 0)
        self.assertGreater(tr.stats["benchmarks.flow"].calls, 0)
        self.assertGreater(tr.stats["matrixcore.central_second_derivatives"].calls, 0)
        # The tiny batch has one escaping start: three geometric methods
        # raise the action's domain error.
        self.assertEqual(tr.stats["liesystem.act"].errors, 3)

    def test_cli_experiments(self):
        TMP_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            wl = tiny("cli-experiments", workdir=Path(tmp))
            res, tr = self.traced_pass(wl)
            self.assertEqual(set(res.cli_s), set(pools.CLI_COMMANDS))
            self.assertGreater(tr.stats["cli.write_csv"].calls, 0)
            self.assertTrue(all(res.us_per_step[m] for m in pools.METHODS))
            # A second invocation must reproduce every file byte for byte.
            self.assertEqual(wl.run_pass().check(), [])
            files = {f for _, fs in pools.CLI_COMMANDS.values() for f in fs}
            self.assertEqual(set(wl.first_bytes), files)


class GateTest(unittest.TestCase):
    """The gate passes the frozen commit's own output and trips on
    perturbed output."""

    def ck_solution(self, method="magnus4", n=10):
        entry = REFS["ck_sweep"]["pool"][0]
        system = workloads.ck_system(entry, "linear")
        traj = workloads.call_method(method, system, entry["x0"], 3.0, 4.0, n)
        return entry, traj.points.copy()

    def test_final_point_perturbed(self):
        entry, points = self.ck_solution()
        self.assertEqual(gate.check_ck_solve(entry, "magnus4", 10, points), [])
        points[-1] += 1e-6 * max(1.0, np.linalg.norm(points[-1]))
        self.assertNotEqual(gate.check_ck_solve(entry, "magnus4", 10, points), [])

    def test_invariant_drift_perturbed(self):
        entry, points = self.ck_solution()
        points[5] *= 1.0 + 1e-6
        self.assertNotEqual(gate.check_drift(entry["kappa"], points, entry["seed_drift"]["magnus4"]["10"]), [])

    def test_rk4_not_drift_gated(self):
        entry, points = self.ck_solution("rk4")
        self.assertEqual(gate.check_ck_solve(entry, "rk4", 10, points), [])

    def test_escape_outcomes(self):
        sec = REFS["local_lc"]
        entry = next(e for e in sec["pool"] if e["kind"] == "outside")
        h = (sec["t1"] - sec["t0"]) / sec["n"]
        out = entry["outcome"]["magnus2"]
        ok = workloads.liesystem.ActionDomainError("x", step=out["step"])
        late = workloads.liesystem.ActionDomainError("x", step=out["step"] + 1)
        self.assertEqual(gate.check_limit_cycle(out, sec["t0"], h, err=ok), [])
        self.assertNotEqual(gate.check_limit_cycle(out, sec["t0"], h, err=late), [])
        self.assertNotEqual(gate.check_limit_cycle(out, sec["t0"], h, err=ValueError("t=0")), [])
        self.assertNotEqual(gate.check_limit_cycle(out, sec["t0"], h, points=np.zeros((2, 2))), [])
        rk4 = entry["outcome"]["rk4"]
        t_fail = sec["t0"] + rk4["step"] * h
        msg = FloatingPointError(f"non-finite RK4 state at t={t_fail}")
        self.assertEqual(gate.check_limit_cycle(rk4, sec["t0"], h, err=msg), [])
        msg = FloatingPointError(f"non-finite RK4 state at t={t_fail + h}")
        self.assertNotEqual(gate.check_limit_cycle(rk4, sec["t0"], h, err=msg), [])

    def test_csv_perturbed(self):
        ref = (pools.CLI_REFS / "ck_trajectory.csv").read_text()
        self.assertEqual(gate.check_csv("ck", ref, ref), [])
        lines = ref.splitlines()
        fields = lines[5].split(";")
        fields[2] = repr(float(fields[2]) * (1.0 + 1e-7))
        bad = "\n".join(lines[:5] + [";".join(fields)] + lines[6:]) + "\n"
        self.assertNotEqual(gate.check_csv("ck", bad, ref), [])
        self.assertNotEqual(gate.check_csv("ck", "\n".join(lines[:-1]) + "\n", ref), [])

    def test_csv_error_column_perturbed(self):
        ref = (pools.CLI_REFS / "convergence.csv").read_text()
        lines = ref.splitlines()
        h, err, method = lines[1].split(";")
        lines[1] = ";".join([h, repr(float(err) * 1.01), method])
        self.assertNotEqual(gate.check_csv("convergence", "\n".join(lines) + "\n", ref), [])
        lines[1] = ";".join([h, repr(float(err) * (1.0 + 1e-6)), method])
        self.assertEqual(gate.check_csv("convergence", "\n".join(lines) + "\n", ref), [])

    def test_cli_bytes_must_repeat(self):
        TMP_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            fname = pools.CLI_COMMANDS["convergence"][1][0]
            shutil.copyfile(pools.CLI_REFS / fname, Path(tmp) / fname)
            first = {fname: b"different bytes"}
            fails = workloads._check_cli("convergence", 0, Path(tmp), "", first)
            self.assertEqual(len(fails), 1)
            self.assertIn("differs", fails[0])


class TracerTest(unittest.TestCase):
    def test_absent_target_is_reported(self):
        targets = tracing.TARGETS + (
            ("gone.function", "liesolve.algebra", "no_such_function"),
            ("gone.module", "liesolve.no_such_module", "f"),
            ("gone.method", "liesolve.liesystem", "NoSuchClass.act"),
        )
        before = workloads.liesystem.mat_exp
        tr = tracing.Tracer(targets)
        tr.install()
        try:
            res = tiny("ck-sweep").run_pass(tr)
        finally:
            tr.remove()
        self.assertEqual(res.check(), [])
        self.assertEqual(len(tr.absent), 3)
        self.assertEqual(tr.stats["gone.function"].calls, 0)
        self.assertGreater(tr.stats["matrixcore.mat_exp"].calls, 0)
        self.assertIs(workloads.liesystem.mat_exp, before)
        self.assertFalse(hasattr(workloads.liesystem.GroupAction.act, "__wrapped__"))

    def test_counts_repeat(self):
        wl = tiny("local-actions", seed=7)
        tr = tracing.Tracer()
        tr.install()
        try:
            counts = []
            for _ in range(2):
                tr.reset()
                wl.run_pass(tr)
                counts.append({k: (s.calls, s.errors) for k, s in tr.stats.items()}
                              | {"coeff": tr.coeff_evals})
        finally:
            tr.remove()
        self.assertEqual(counts[0], counts[1])


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in pools.WORKLOADS:
            self.assertEqual(pools.make_inputs(w, 3, REFS), pools.make_inputs(w, 3, REFS))

    def test_seeds_vary_inputs(self):
        a = pools.make_inputs("short-mixed", 1, REFS)
        b = pools.make_inputs("short-mixed", 2, REFS)
        self.assertNotEqual(a, b)
        self.assertEqual(len(a["ck-sweep"]["systems"]), len(pools.KAPPA_CLASSES))


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.END_TO_END_UNITS))
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(run.PER_LAYER_UNITS))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(pools.WORKLOADS))
        for m in spec["end_to_end"] + spec["per_layer"]:
            units = {**run.END_TO_END_UNITS, **run.PER_LAYER_UNITS}
            self.assertEqual(m["unit"], units[m["name"]])
        for w in spec["workloads"]:
            self.assertEqual(w["why"], pools.WHY[w["name"]])

    def test_result_line(self):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "short-mixed", "--seed", "5",
             "--seconds", "0.5", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        ctx = json.loads(proc.stdout.strip().splitlines()[-2])["context"]
        self.assertEqual(set(ctx["samples"]), set(run.END_TO_END_UNITS))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), set(run.END_TO_END_UNITS))

    def test_refuses_without_sources(self):
        TMP_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            shutil.copyfile(ROOT / "BENCHMARK.json", Path(tmp) / "BENCHMARK.json")
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "short-mixed", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()
