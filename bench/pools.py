"""Frozen input pools and the seeded choice of one workload's inputs.

Standard library only: the set-up probe loads its inputs with this module
before it starts the clock and imports numpy or liesolve.

Every input the benchmark can run sits in ``references.json`` together with
its reference answer, written once by ``freeze.py`` at the commit the
references are frozen at.  A seed only chooses among frozen entries, so any
seed is checked against references, and the same seed always gives the same
inputs.
"""

import hashlib
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
CLI_REFS = BENCH_DIR / "cli_refs"

METHODS = ("magnus2", "magnus4", "rkmk", "rk4")

# The nine sign classes of (kappa1, kappa2): every ck-sweep and local-actions
# batch holds one system of each, so batches from different seeds do the same
# mix of elliptic, parabolic and hyperbolic work.
KAPPA_CLASSES = tuple(a + b for a in "-0+" for b in "-0+")

LIMIT_CYCLE_KINDS = ("inside", "on", "outside")

# The CLI subcommands, their arguments and the files each one writes into
# the current directory.  All run at their defaults except the size of the
# fine reference solve of ck and convergence (10^4 steps by default, which
# made one pass 3.5 s long; at six passes per run the figures spread 15-22 %
# between seeds on a 2-core VM).  The code paths are the same.
CLI_COMMANDS = {
    "ck": (["ck", "--ref-steps", "100"], ("ck_trajectory.csv", "ck_trajectory_invariant.csv")),
    "convergence": (["convergence", "--ref-steps", "800"], ("convergence.csv",)),
    "limit-cycle": (
        ["limit-cycle"],
        ("limit_cycle_rkmk_h0.1.csv", "limit_cycle_rk4_h0.02.csv", "limit_cycle_rk4_h0.01.csv"),
    ),
    "riccati-check": (["riccati-check"], ("riccati_check.csv",)),
}

# Each workload runs its parts one after another in every pass.  The
# machine's speed drifts over tens of seconds, so two workloads with long
# runs measure more steadily than four with short ones.
WORKLOADS = {
    "short-mixed": ("ck-sweep", "local-actions", "cli-experiments"),
    "ck-long": ("ck-long",),
}

# One sentence per workload on why it is in the benchmark (also in
# BENCHMARK.json).
WHY = {
    "short-mixed": "short solves (CK at N=10..80 in all kappa sign classes, "
    "flow-composition CK, limit cycle with domain errors) and the CLI "
    "subcommands: per-call overhead, transport and the cli layer dominate",
    "ck-long": "N=2500 solves of the CLI's CK system, one per method: per-step "
    "kernels (mat_exp, dexpinv, assemble_A and derivatives) dominate",
}


def source_fingerprint(root: Path) -> str:
    """sha256 over the package sources, to tie a run to the code it ran."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "liesolve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _pick(rng: random.Random, entries, count: int):
    """count distinct entries in a seeded order."""
    return [entries[i] for i in rng.sample(range(len(entries)), count)]


def make_inputs(workload: str, seed: int, refs: dict) -> dict:
    """The inputs of one workload for one seed, by part."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return {part: part_inputs(part, seed, refs) for part in WORKLOADS[workload]}


def part_inputs(part: str, seed: int, refs: dict, tiny: bool = False) -> dict:
    """The inputs of one part for one seed.

    tiny keeps one input of each kind, for the self-tests' smoke runs.
    """
    rng = random.Random(f"{part}:{seed}")
    if part == "ck-sweep":
        sec = refs["ck_sweep"]
        classes = KAPPA_CLASSES[:1] if tiny else KAPPA_CLASSES
        systems = [
            _pick(rng, [e for e in sec["pool"] if e["cls"] == c], 1)[0] for c in classes
        ]
        return {"systems": systems}
    if part == "ck-long":
        return {"systems": _pick(rng, refs["ck_long"]["pool"], 1)}
    if part == "local-actions":
        ck_pool = refs["local_ck"]["pool"]
        lc_pool = refs["local_lc"]["pool"]
        classes = KAPPA_CLASSES[:1] if tiny else KAPPA_CLASSES
        per_kind = 1 if tiny else 2
        systems = [
            _pick(rng, [e for e in ck_pool if e["cls"] == c], 1)[0] for c in classes
        ]
        starts = []
        for kind in LIMIT_CYCLE_KINDS:
            starts += _pick(rng, [e for e in lc_pool if e["kind"] == kind], per_kind)
        return {"systems": systems, "starts": starts}
    # cli-experiments runs fixed subcommands: the seed has nothing to choose.
    return {"commands": list(CLI_COMMANDS)}
