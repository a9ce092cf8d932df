import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
GROUPS = (
    "ck-linear",
    "ck-flow-composition",
    "ck-derivative-free",
    "integrate-group",
    "limit-cycle",
    "errors",
    "mat-exp-n3",
    "mat-exp-n2-n4-diag",
    "cli",
)


def test_output_digest_runs_and_repeats(tmp_path):
    # the digest tool is only useful if it runs and if one commit digests
    # to the same lines twice; it is run from outside the repository, which
    # its docstring allows
    runs = [
        subprocess.run([sys.executable, str(DIGEST)], cwd=tmp_path, capture_output=True,
                       text=True, timeout=300)
        for _ in range(2)
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr
    first, second = (run.stdout for run in runs)
    assert first == second
    names = [line.split()[0] for line in first.splitlines()]
    assert names == list(GROUPS) + ["total"]
