#!/usr/bin/env python3
"""Re-records the committed simulated-output references: fingerprints.json
for every experiment workload and the figure drivers' --quick stdout under
goldens/, for the default seed and the held-out seed.

    python3 simbench/record.py

Run it from the repository root, and only for a change that is meant to
alter simulated output; the diff of the recorded files is that change's
evidence.
"""
import json
import os
import sys

import run

SEEDS = (1, 11)  # default seed, held-out seed


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    run.build(build_dir)
    exe = os.path.join(build_dir, "simbench")
    fingerprints = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            code, out, *_ = run.run_child(
                [exe, "run", workload, str(seed)])
            if code != 0:
                sys.exit(f"{workload} seed {seed}: exit {code}")
            rep = json.loads(out.strip().splitlines()[-1])
            fingerprints.setdefault(workload, {})[str(seed)] = \
                rep["fingerprint"]
    with open(os.path.join(run.HERE, "fingerprints.json"), "w") as f:
        json.dump(fingerprints, f, indent=1, sort_keys=True)
        f.write("\n")
    os.makedirs(os.path.join(run.HERE, "goldens"), exist_ok=True)
    for driver in run.DRIVERS:
        for seed in SEEDS:
            code, out, *_ = run.run_child(
                [os.path.join(build_dir, "surgeguard", "bench", driver),
                 "--quick", "--seed", str(seed)])
            if code != 0:
                sys.exit(f"{driver} seed {seed}: exit {code}")
            path = os.path.join(run.HERE, "goldens",
                                f"{driver}.seed{seed}.txt")
            with open(path, "w") as f:
                f.write(out)


if __name__ == "__main__":
    main()
