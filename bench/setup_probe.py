"""Set-up time of one workload, from a fresh interpreter.

    python3 bench/setup_probe.py --workload short-mixed --seed 1

Loads the workload's inputs first (standard library only), then times
importing liesolve, building the workload's fixed systems and one warm-up
solve per method, and prints the seconds as the last line.
"""

import argparse
import sys
from time import perf_counter

import pools


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    inputs = pools.make_inputs(args.workload, args.seed, pools.load_references())
    sys.path.insert(0, str(pools.BENCH_DIR.parent / "src"))

    start = perf_counter()
    import workloads

    wl = workloads.Workload(inputs, refs=None)
    workloads.warm_up(wl.build_systems())
    print(repr(perf_counter() - start))


if __name__ == "__main__":
    main()
