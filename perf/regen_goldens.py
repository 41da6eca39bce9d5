"""Regenerate the committed output digests under ``perf/golden/``.

    python3 perf/regen_goldens.py [--seeds 0,1,2,3,4] [--workload NAME ...]

Runs each workload's first timed operations (untimed, at the benchmark's
sizes) for every seed, checks their invariants, and rewrites those seeds'
entries.  Only regenerate after a change that is meant to alter the
simulated results; a performance change must leave the digests as they are.
"""

import argparse
import sys

from benchkit.env import pin_environment, source_present

# Operations recorded per seed: more than one run of ``run_seconds``
# reaches on the reference machine, so later ops are rarely unverified.
GOLDEN_OPS = {
    "compile_sweep": 12,
    "serve_light": 32,
    "serve_saturated": 48,
    "cluster_diurnal": 10,
}


def main(argv=None) -> int:
    if not source_present():
        print("error: src/repro is missing", file=sys.stderr)
        return 2
    pin_environment()
    from benchkit.golden import load_all, save_goldens
    from benchkit.workloads import make_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--workload", action="append", choices=sorted(GOLDEN_OPS))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for name in args.workload or list(GOLDEN_OPS):
        by_seed = load_all(name)
        for seed in seeds:
            workload = make_workload(name, seed)
            workload.setup()
            digests = []
            for index in range(GOLDEN_OPS[name]):
                inputs = workload.inputs(index)
                output = workload.run(inputs)
                errors = workload.check(inputs, output)
                if errors:
                    print(f"{name} seed {seed} op {index}: {errors}", file=sys.stderr)
                    return 1
                digests.append(workload.digest(output))
            by_seed[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
        print(f"wrote {save_goldens(name, by_seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
