"""liesolve benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload short-mixed --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
caller in one process and one thread runs passes over the workload's batch
back to back until ``--seconds`` have gone, with BLAS pinned to one thread.
Every output is checked against the frozen references (see gate.py).

--trace 0 prints the end-to-end metrics (set-up time from fresh
interpreters, pass time, peak memory, per-method µs/step).  --trace 1 spends
half the time untraced and half with the tracer installed, and prints the
per-layer metrics and the tracing overhead.

The last line of standard output is the result as one JSON object; the line
before it records the run's context, per-metric sample counts and the
metrics that exist on some workloads only (tails, per-command CLI times).
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import pools  # noqa: E402

# Set-up probes run in two halves, before and after the timed passes, so
# that one slow stretch of the machine does not set the median.
SETUP_REPS = 6
TAIL_QUANTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# (metric, unit, span, field): per-layer metrics read from the tracer, per
# pass.  coeff_evals, per_step and overhead_frac are computed separately.
SPAN_METRICS = (
    ("matrixcore.mat_exp.calls", "count", "matrixcore.mat_exp", "calls"),
    ("matrixcore.mat_exp.self_s", "s", "matrixcore.mat_exp", "self_s"),
    ("matrixcore.commutator.calls", "count", "matrixcore.commutator", "calls"),
    ("matrixcore.commutator.self_s", "s", "matrixcore.commutator", "self_s"),
    ("matrixcore.central_second_derivatives.calls", "count",
     "matrixcore.central_second_derivatives", "calls"),
    ("matrixcore.central_second_derivatives.self_s", "s",
     "matrixcore.central_second_derivatives", "self_s"),
    ("algebra.dexpinv.calls", "count", "algebra.dexpinv", "calls"),
    ("algebra.dexpinv.self_s", "s", "algebra.dexpinv", "self_s"),
    ("algebra.assemble_A.calls", "count", "algebra.assemble_A", "calls"),
    ("algebra.assemble_A.self_s", "s", "algebra.assemble_A", "self_s"),
    ("algebra.assemble_A_derivatives.calls", "count", "algebra.assemble_A_derivatives", "calls"),
    ("algebra.assemble_A_derivatives.self_s", "s", "algebra.assemble_A_derivatives", "self_s"),
    ("algebra.AlgebraBasis.build_s", "s", "algebra.AlgebraBasis", "total_s"),
    ("ckspaces.ck_lie_system.build_s", "s", "ckspaces.ck_lie_system", "total_s"),
    ("integrators.increment.calls", "count", "integrators.increment", "calls"),
    ("integrators.increment.self_s", "s", "integrators.increment", "self_s"),
    ("integrators.rk4_direct_step.calls", "count", "integrators.rk4_direct_step", "calls"),
    ("integrators.rk4_direct_step.self_s", "s", "integrators.rk4_direct_step", "self_s"),
    ("liesystem.solve.calls", "count", "liesystem.solve", "calls"),
    ("liesystem.solve.self_s", "s", "liesystem.solve", "self_s"),
    ("liesystem.act.calls", "count", "liesystem.act", "calls"),
    ("liesystem.act.self_s", "s", "liesystem.act", "self_s"),
    ("liesystem.act.domain_errors", "count", "liesystem.act", "errors"),
    ("ckspaces.extract.calls", "count", "ckspaces.extract", "calls"),
    ("ckspaces.extract.self_s", "s", "ckspaces.extract", "self_s"),
    ("ckspaces.flow.calls", "count", "ckspaces.flow", "calls"),
    ("ckspaces.flow.self_s", "s", "ckspaces.flow", "self_s"),
    ("benchmarks.flow.calls", "count", "benchmarks.flow", "calls"),
    ("benchmarks.flow.self_s", "s", "benchmarks.flow", "self_s"),
    ("cli.write_csv.self_s", "s", "cli.write_csv", "self_s"),
)
PER_LAYER_UNITS = {
    **{name: unit for name, unit, _, _ in SPAN_METRICS},
    "algebra.coeff_evals": "count",
    "algebra.coeff_evals.per_step": "count",
    "trace.overhead_frac": "ratio",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "study_s": "s",
    "peak_rss_mb": "MB",
    **{f"{m}.us_per_step": "us" for m in pools.METHODS},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import liesolve from this checkout's src/, or exit non-zero."""
    if not (SRC / "liesolve" / "__init__.py").is_file():
        sys.exit(f"error: no liesolve package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import liesolve

    if SRC.resolve() not in Path(liesolve.__file__).resolve().parents:
        sys.exit(f"error: imported liesolve from {liesolve.__file__}, not from {SRC}")


def measure(wl, seconds, tracer=None):
    """Passes back to back for about ``seconds`` (at least one), each
    followed by its checks; the last pass starts only if half a typical
    pass still fits.  Returns the passes, the per-pass layer figures when
    traced, and the failures."""
    passes, layers, fails = [], [], []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() + 0.5 * statistics.median(
        p.elapsed for p in passes
    ) < deadline:
        if tracer is not None:
            tracer.reset()
        res = wl.run_pass(tracer)
        if tracer is not None:
            layers.append(layer_figures(tracer, res))
        fails += res.check()
        passes.append(res)
    return passes, layers, fails


def layer_figures(tracer, res):
    out = {name: getattr(tracer.stats[span], field) for name, _, span, field in SPAN_METRICS}
    out["algebra.coeff_evals"] = tracer.coeff_evals
    out["algebra.coeff_evals.per_step"] = tracer.coeff_evals / res.steps if res.steps else 0.0
    return out


def setup_times(workload, seed, reps):
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def tail(samples):
    """(q, value): the highest of TAIL_QUANTILES with at least ten samples
    beyond it, by nearest rank; None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_QUANTILES:
        rank = math.ceil(q / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup):
    """The metrics, their sample counts and the supplementary figures."""
    samples = {m: [s for p in passes for s in p.us_per_step[m]] for m in pools.METHODS}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup),
        "study_s": statistics.median(p.elapsed for p in passes),
        "peak_rss_mb": rss_mb,
    }
    counts = {"setup_s": len(setup), "study_s": len(passes), "peak_rss_mb": 1}
    extra = {}
    for m in pools.METHODS:
        key = f"{m}.us_per_step"
        counts[key] = len(samples[m])
        if samples[m]:
            values[key] = statistics.median(samples[m])
        t = tail(samples[m])
        if t is not None:
            extra[f"{key}.tail"] = {"value": t[1], "unit": "us", "quantile": t[0],
                                    "samples": len(samples[m])}
    cli_s = {}
    for p in passes:
        for command, s in p.cli_s.items():
            cli_s.setdefault(command, []).append(s)
    for command, times in cli_s.items():
        extra[f"cli.{command}_s"] = {"value": statistics.median(times), "unit": "s",
                                     "samples": len(times)}
    metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return metrics, counts, extra


def per_layer(untraced, traced, layers):
    metrics = {}
    for name in layers[0]:
        # median_low keeps a count a whole number of calls.
        pick = statistics.median_low if PER_LAYER_UNITS[name] == "count" else statistics.median
        metrics[name] = metric(pick(f[name] for f in layers), PER_LAYER_UNITS[name])
    base = statistics.median(p.elapsed for p in untraced)
    with_trace = statistics.median(p.elapsed for p in traced)
    metrics["trace.overhead_frac"] = metric(with_trace / base - 1.0, "ratio")
    counts = {name: len(layers) for name in metrics}
    counts["trace.overhead_frac"] = [len(untraced), len(traced)]
    repeat = all(
        f[name] == layers[0][name]
        for f in layers
        for name, unit in PER_LAYER_UNITS.items()
        if unit == "count" and name in f and not name.endswith("per_step")
    )
    return metrics, counts, repeat


def context(args, refs, counts, extra, absent=None, counts_repeat=None):
    ctx = {
        "workload": args.workload,
        "why": pools.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": pools.source_fingerprint(ROOT),
        "references_frozen_at": refs["frozen_at"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "samples": counts,
        "supplementary": extra,
    }
    if absent is not None:
        ctx["trace_absent"] = absent
        ctx["trace_counts_repeat"] = counts_repeat
    return ctx


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import tracer as tracing
    import workloads

    refs = pools.load_references()
    inputs = pools.make_inputs(args.workload, args.seed, refs)
    attempted, fails = 1, []
    if pools.make_inputs(args.workload, args.seed, refs) != inputs:
        fails.append("the same seed gave different inputs")

    workdir = None
    if "cli-experiments" in inputs:
        workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
    try:
        wl = workloads.Workload(inputs, refs, workdir)
        workloads.warm_up(wl.build_systems())
        if args.trace == 0:
            setup = setup_times(args.workload, args.seed, SETUP_REPS // 2)
            passes, _, pass_fails = measure(wl, args.seconds)
            setup += setup_times(args.workload, args.seed, SETUP_REPS - SETUP_REPS // 2)
            fails += pass_fails
            attempted += sum(len(p.checks) for p in passes)
            metrics, counts, extra = end_to_end(passes, setup)
            missing = set(END_TO_END_UNITS) - set(metrics)
            fails += [f"no timed solve for {name}" for name in sorted(missing)]
            ctx = context(args, refs, counts, extra)
        else:
            untraced, _, pass_fails = measure(wl, args.seconds / 2.0)
            fails += pass_fails
            tr = tracing.Tracer()
            tr.install()
            try:
                traced, layers, pass_fails = measure(wl, args.seconds / 2.0, tr)
            finally:
                tr.remove()
            fails += pass_fails
            attempted += sum(len(p.checks) for p in untraced + traced)
            metrics, counts, repeat = per_layer(untraced, traced, layers)
            ctx = context(args, refs, counts, {}, tr.absent, repeat)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass

    for msg in fails[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    if tr_absent := ctx.get("trace_absent"):
        print(f"note: trace targets absent: {', '.join(tr_absent)}", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
