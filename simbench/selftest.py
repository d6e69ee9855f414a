#!/usr/bin/env python3
"""Self-test of the simulator benchmark (takes about two minutes).

    python3 simbench/selftest.py

Run it from the repository root. It checks that
  * a corrupted committed fingerprint is reported as a failed run;
  * every metric a run prints is declared in BENCHMARK.json, in the right
    section and with the same unit, and every declared metric is printed;
  * the per-layer counts match the workloads' design: FirstResponder sees
    no packet and the application retries RPCs only on chain-2n-chaos, and
    request tracing records spans only on read-1n-reqtrace.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace}: exit "
                             f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    run.build(build_dir)

    fingerprints = run.load_fingerprints(
        os.path.join(run.HERE, "fingerprints.json"))
    fingerprints["read-1n-reqtrace"]["1"]["model.vv_ms_s"] = "-1"
    corrupted = os.path.join(build_dir, "corrupted-fingerprints.json")
    with open(corrupted, "w") as f:
        json.dump(fingerprints, f)
    result = bench("read-1n-reqtrace", 0, "--fingerprints", corrupted)
    expect(result["failed"] >= 1 and not result["correct"],
           "corrupted fingerprint is a failed run")

    with open(BENCHMARK) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{tag}: correct, 0 failed")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared[trace],
                   f"{tag}: metric names and units match BENCHMARK.json")
            if trace == 0:
                continue
            m = {k: v["value"] for k, v in result["metrics"].items()}
            chaos = workload == "chain-2n-chaos"
            expect((m["fr.packets"] == 0) == chaos,
                   f"{tag}: fr.packets == 0 only on chain-2n-chaos")
            expect((m["app.rpc_retries"] > 0) == chaos,
                   f"{tag}: app.rpc_retries > 0 only on chain-2n-chaos")
            expect((m["trace.spans"] > 0) == (workload == "read-1n-reqtrace"),
                   f"{tag}: trace.spans > 0 only on read-1n-reqtrace")
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
