#!/usr/bin/env python3
"""A/B benchmark: a base revision against a change, in alternating pairs.

    python3 tools/ab.py --base HEAD~1 --workload chain-8n-surge --pairs 10

Each side is a scratch copy under --workdir, outside this checkout: the
base holds the files of --base (git archive), the change those of
--change or, without it, of this working tree (tracked and untracked
files, ignored ones left out). Each copy keeps its own simbench build, and
a rerun rewrites only files whose content changed, so it rebuilds only
those. A copy carries a marker file, and a non-empty directory without it
is refused, never cleaned. Every workload first runs once on each side to
build and warm up, then --pairs times on each, at one --seed and the
run_seconds of BENCHMARK.json, with the side that runs first alternating
from pair to pair.

For each end-to-end metric of BENCHMARK.json the report gives the base's
median and interquartile range, the change's median, its difference, and
in how many pairs the change was better, plus the incorrect and failed
runs of each side. Standard library only.
"""
import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
MARKER = ".ab-copy"  # marks a directory this tool made and may clean


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def snapshot(rev):
    """{path: (bytes, mode)} of revision `rev`, or of this working tree
    (tracked and untracked files, ignored ones left out) when rev is None,
    and a label for it."""
    files = {}
    if rev is None:
        listed = git("ls-files", "-z", "--cached", "--others",
                     "--exclude-standard").split("\0")
        for rel in filter(None, listed):
            src = os.path.join(ROOT, rel)
            if os.path.isfile(src):  # else deleted in the working tree
                with open(src, "rb") as f:
                    files[rel] = (f.read(), os.stat(src).st_mode & 0o777)
        return files, "working tree of " + git("rev-parse", "--short", "HEAD")
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if member.isfile():
                files[member.name] = (archive.extractfile(member).read(),
                                      member.mode & 0o777)
    return files, f"{rev} ({sha[:10]})"


def prepare(name, rev, workdir):
    """Makes <workdir>/<name> hold exactly the files of `rev` (see
    snapshot) and returns its path and label. Only files whose content
    differs are written, so they alone look new to the build, and the copy's
    simbench build (.bench_build) is kept. The caller has checked that
    the directory is empty, absent or marked as made here."""
    files, label = snapshot(rev)
    path = os.path.join(workdir, name)
    for top, dirs, names in os.walk(path):
        if top == path and ".bench_build" in dirs:
            dirs.remove(".bench_build")
        for n in names:
            full = os.path.join(top, n)
            rel = os.path.relpath(full, path)
            if rel != MARKER and rel not in files:
                os.remove(full)
    os.makedirs(path, exist_ok=True)
    open(os.path.join(path, MARKER), "a").close()
    for rel, (data, mode) in files.items():
        dst = os.path.join(path, rel)
        if os.path.isfile(dst):
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
        os.chmod(dst, mode)
    return path, label


def run(path, workload, seed, seconds):
    """One simbench run in `path`; its JSON record, or None if it failed."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        pass
    log(f"ab: {path}: run.py exited {proc.returncode}: "
        + " | ".join(proc.stderr.strip().splitlines()[-3:]))
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, args, seconds, labels, records, metrics):
    print(f"\n{workload}: {args.pairs} pairs, seed {args.seed}, "
          f"{seconds:g} s runs")
    print(f"  base   {labels['base']}\n  change {labels['change']}")
    print(f"  {'metric':<13}{'base median':>13}{'base IQR':>23}"
          f"{'change median':>15}{'delta':>9}{'change wins':>13}")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(records["base"], records["change"])
                 if b and c and name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            print(f"  {name:<13}  no pair with both sides measured")
            continue
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        bm, cm = statistics.median(base), statistics.median(change)
        q1, q3 = quartiles(base)
        wins = sum((c > b) if higher else (c < b) for b, c in pairs)
        delta = f"{(cm / bm - 1) * 100:+.1f} %" if bm else "-"
        iqr = f"{q1:.4g} - {q3:.4g}"
        print(f"  {name:<13}{bm:>13.4g}{iqr:>23}{cm:>15.4g}{delta:>9}"
              f"{f'{wins}/{len(pairs)}':>13}")
    for side in SIDES:
        recs = records[side]
        lost = sum(r is None for r in recs)
        incorrect = sum(1 for r in recs if r and not r["correct"])
        failed = sum(r["failed"] for r in recs if r)
        attempted = sum(r["attempted"] for r in recs if r)
        print(f"  {side:<7}runs {len(recs)}: {lost} failed to run, "
              f"{incorrect} incorrect; operations {failed} failed "
              f"of {attempted}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument("--change", default=None,
                        help="change git revision (default: working tree)")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", default=os.path.join(
        os.path.dirname(ROOT), os.path.basename(ROOT) + "-ab"),
        help="scratch directory outside the checkout (default: a sibling "
             "of it named <checkout>-ab)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workdir = os.path.realpath(args.workdir)
    if os.path.commonpath([workdir, os.path.realpath(ROOT)]) == \
            os.path.realpath(ROOT):
        parser.error("--workdir must lie outside the checkout")
    for side in SIDES:
        path = os.path.join(workdir, side)
        if os.path.exists(path) and not os.path.isfile(
                os.path.join(path, MARKER)) and (
                    not os.path.isdir(path) or os.listdir(path)):
            parser.error(f"{path} exists and was not made by ab.py; "
                         "choose another --workdir")

    paths, labels = {}, {}
    paths["base"], labels["base"] = prepare("base", args.base, workdir)
    paths["change"], labels["change"] = prepare("change", args.change, workdir)
    for workload in args.workload or workloads:
        for side in SIDES:
            log(f"ab: {workload}: building and warming up {side}")
            if run(paths[side], workload, args.seed, 0) is None:
                log(f"ab: {workload}: {side} failed to build or run")
        records = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                records[side].append(
                    run(paths[side], workload, args.seed,
                        bench["run_seconds"]))
            log(f"ab: {workload}: pair {i + 1}/{args.pairs} done "
                f"({order[0]} first)")
        report(workload, args, bench["run_seconds"], labels, records,
               bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
