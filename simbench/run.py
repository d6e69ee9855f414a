#!/usr/bin/env python3
"""Simulator benchmark: builds the simulator, runs one workload for a fixed
host-time budget, checks the simulated output, and prints one JSON line.

    python3 simbench/run.py --workload chain-8n-surge --seed 1 --seconds 22 --trace 0

Run it from the repository root. --trace 0 reports the end-to-end metrics
of BENCHMARK.json from untraced runs; --trace 1 reports the per-layer
metrics from a traced run plus the layer microbenchmarks. README.md in this
directory explains the workloads and metrics.
"""
import argparse
import bisect
import fcntl
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read-1n-reqtrace", "chain-8n-surge", "chain-2n-chaos",
             "figs-quick")
DRIVERS = ("bench_fig10_short_surges", "bench_fig12_duration_sweep",
           "bench_fig15_breakdown")
# Every workload measures at least this many repetitions, even past
# --seconds, so each reported time is a median of two or more.
MIN_REPS = 2
# figs-quick runs its base cell this many times before each repetition of
# the drivers, so the cells sample the whole run.
CELLS_PER_REP = 4
# Host times are rescaled to a host on which one `simbench probe-loop`
# chunk takes this long (README.md "Host-speed normalisation"). Never
# change it: it defines the unit of every time metric.
NOMINAL_PROBE_S = 0.0006
MICROBENCHES = (
    "sim.schedule_step_ns", "sim.cancel_ns", "sim.periodic_tick_ns",
    "cluster.submit_complete_ns.b8", "cluster.submit_complete_ns.b64",
    "cluster.submit_complete_ns.b512", "net.send_deliver_ns",
    "net.send_deliver_fault_ns", "fr.slack_check_ns", "fr.violation_ns",
    "ctrl.escalator_tick_ns", "ctrl.parties_tick_ns", "trace.span_ns")
RUN_COUNTS = (
    "sim.events", "net.dropped", "app.requests", "app.rpc_retries",
    "app.rpc_failures", "app.stray_responses", "loadgen.issued",
    "loadgen.completed", "loadgen.retries", "loadgen.dropped",
    "loadgen.outstanding", "fr.packets", "fr.violations", "fr.boosts",
    "ctrl.ticks_stalled", "trace.spans", "trace.kept", "trace.evicted")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then brings the harness and drivers up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("simulator sources not found in " + ROOT)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".simbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "simbench", *DRIVERS],
                       check=True, stdout=sys.stderr)


class SpeedMonitor:
    """Host-speed samples from one `simbench probe-loop` pinned to each CPU
    this process may use, running for the whole measurement. The speed a
    child process saw is read off the probes of the CPUs its threads were
    sampled on while it ran (README.md "Host-speed normalisation")."""

    def __init__(self, exe):
        self.samples = {}
        self.procs = []
        self.readers = []
        for cpu in sorted(os.sched_getaffinity(0)):
            self.samples[cpu] = []
            proc = subprocess.Popen(
                [exe, "probe-loop"], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True,
                preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
            reader = threading.Thread(target=self._read, args=(cpu, proc))
            reader.start()
            self.procs.append(proc)
            self.readers.append(reader)

    def _read(self, cpu, proc):
        for line in proc.stdout:
            at, chunk = line.split()
            self.samples[cpu].append((float(at), float(chunk)))

    def stop(self):
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            proc.wait()
        for reader in self.readers:
            reader.join()

    def chunk_near(self, cpu, at):
        samples = self.samples[cpu]
        i = bisect.bisect_left(samples, (at,))
        near = samples[max(0, i - 1):i + 1]
        return min(near, key=lambda s: abs(s[0] - at))[1] if near else None

    def speed(self, seen, begin, end):
        """Nominal probe time over the mean probe time the child saw (10 %
        trimmed at each end); `seen` holds (time, cpu) samples of its
        running threads."""
        chunks = [c for c in (self.chunk_near(cpu, at) for at, cpu in seen)
                  if c is not None]
        if not chunks:
            chunks = [c for s in self.samples.values() for at, c in s
                      if begin <= at <= end]
        if not chunks:
            raise BenchError("no host-speed samples")
        chunks.sort()
        cut = len(chunks) // 10
        return NOMINAL_PROBE_S / statistics.mean(
            chunks[cut:len(chunks) - cut])


def running_cpus(pid):
    """CPUs of pid's running threads, from /proc."""
    cpus = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return cpus
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] == "R":
            cpus.append(int(fields[36]))
    return cpus


def cpu_ticks():
    """{cpu: (steal ticks, all ticks)} from /proc/stat."""
    ticks = {}
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith("cpu") and line[3].isdigit():
                name, *fields = line.split()
                values = [int(v) for v in fields[:8]]
                steal = values[7] if len(values) == 8 else 0
                ticks[int(name[3:])] = (steal, sum(values))
    return ticks


def run_child(argv, monitor=None):
    """Runs argv; returns (exit code, stdout, wall s, cpu s, peak RSS MB,
    host speed). Host speed is 1.0 without a monitor; with one, it is the
    probes' speed factor times the share of time the hypervisor did not
    steal from the CPUs the child ran on."""
    t0 = time.perf_counter()
    begin = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    seen = []
    stolen = total = 0
    ticks = cpu_ticks() if monitor is not None else {}
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            break
        if monitor is not None:
            at = time.monotonic()
            cpus = running_cpus(proc.pid)
            seen.extend((at, cpu) for cpu in cpus)
            now = cpu_ticks()
            for cpu in cpus:
                if cpu in now and cpu in ticks:
                    stolen += now[cpu][0] - ticks[cpu][0]
                    total += now[cpu][1] - ticks[cpu][1]
            ticks = now
        time.sleep(0.01)
    wall = time.perf_counter() - t0
    reader.join()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    speed = 1.0
    if monitor is not None:
        time.sleep(0.05)  # let the probes report the child's last moments
        speed = monitor.speed(seen, begin, time.monotonic())
        if total > 0:
            speed *= 1.0 - stolen / total
    return (proc.returncode, chunks[0].decode(errors="replace"), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, speed)


def load_fingerprints(path):
    with open(path) as f:
        return json.load(f)


class Checker:
    """Counts failed operations: aborts, fingerprint or golden mismatches
    (against the committed value for this seed, else against the first
    repetition of this run), and requests stranded after drain."""

    def __init__(self, fingerprints):
        self.fingerprints = fingerprints
        self.first = {}
        self.attempted = 0
        self.failed = 0

    def check(self, what, ok, key=None, value=None, committed=None):
        self.attempted += 1
        if ok and key is not None:
            expected = committed if committed is not None else \
                self.first.setdefault(key, value)
            if value != expected:
                log(f"simbench: {what}: output differs from "
                    f"{'committed' if committed is not None else 'first run'}")
                ok = False
        elif not ok:
            log(f"simbench: {what}: failed")
        if not ok:
            self.failed += 1
        return ok


def experiment_rep(exe, workload, seed, checker, spans, monitor):
    argv = [exe, "run", workload, str(seed)] + (["--spans"] if spans else [])
    code, out, _, _, rss, speed = run_child(argv, monitor)
    rep = None
    if code == 0:
        try:
            rep = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            rep = None
    what = f"{workload} seed {seed}"
    if rep is None:
        checker.check(what, False)
        return None
    # A wrong result is a failed operation, but its host time still counts.
    committed = checker.fingerprints.get(workload, {}).get(str(seed))
    checker.check(what, rep["counts"]["loadgen.outstanding"] == 0,
                  "fingerprint", rep["fingerprint"], committed)
    rep["rss_mb"] = rss
    rep["speed"] = speed
    return rep


def figs_rep(build_dir, seed, checker, monitor):
    rep = {"wall_s": 0.0, "norm_wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0,
           "drivers": {}, "spans": []}
    for driver in DRIVERS:
        exe = os.path.join(build_dir, "surgeguard", "bench", driver)
        begin = time.monotonic()
        code, out, wall, cpu, rss, speed = run_child(
            [exe, "--quick", "--seed", str(seed)], monitor)
        rep["spans"].append({"name": driver, "begin_s": begin,
                             "end_s": begin + wall, "parent": -1})
        golden = os.path.join(HERE, "goldens", f"{driver}.seed{seed}.txt")
        committed = None
        if os.path.isfile(golden):
            with open(golden) as f:
                committed = f.read()
        if code != 0 or not out:
            checker.check(f"{driver} seed {seed}", False)
            return None
        checker.check(f"{driver} seed {seed}", True, driver, out, committed)
        rep["wall_s"] += wall
        rep["norm_wall_s"] += wall * speed
        rep["cpu_s"] += cpu
        rep["rss_mb"] = max(rep["rss_mb"], rss)
        rep["drivers"][driver] = wall
    return rep


def repeat(args, exe, checker, monitor):
    """Runs repetitions until --seconds is used up (at least MIN_REPS);
    returns (figs-quick base cell runs, successful repetitions)."""
    figs = args.workload == "figs-quick"
    traced = args.trace == 1
    start = time.perf_counter()
    cells, reps = [], []
    attempts, last = 0, 0.0
    while attempts < MIN_REPS or \
            time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        # Traced runs alternate spans on and off, for bench.trace_overhead.
        spans = traced and attempts % 2 == 0
        attempts += 1
        if figs:
            # figs-quick's base cell: set-up time and simulation rate.
            cells += [experiment_rep(exe, args.workload, args.seed, checker,
                                     traced, monitor)
                      for _ in range(CELLS_PER_REP)]
            rep = figs_rep(args.build_dir, args.seed, checker, monitor)
        else:
            rep = experiment_rep(exe, args.workload, args.seed, checker,
                                 spans, monitor)
        last = time.perf_counter() - t0
        if rep is not None:
            rep["spans_on"] = spans
            reps.append(rep)
    cells = [c for c in cells if c is not None]
    if not reps or (figs and not cells):
        raise BenchError("no repetition completed")
    return cells, reps


def measure(args, fingerprints):
    exe = os.path.join(args.build_dir, "simbench")
    checker = Checker(fingerprints)
    monitor = SpeedMonitor(exe)
    try:
        cells, reps = repeat(args, exe, checker, monitor)
    finally:
        monitor.stop()
    probe_ms = statistics.median(
        c for s in monitor.samples.values() for _, c in s) * 1e3
    if args.trace == 1:
        layers = layer_metrics(exe, args, reps, cells, probe_ms, checker)
        return checker, {k: {"value": v, "unit": u}
                         for k, (v, u) in layers.items()}
    # Times are medians over repetitions of host times rescaled to the
    # nominal host speed; figs-quick takes set-up time and simulation rate
    # from its base cell.
    figs = bool(cells)
    runs = cells if figs else reps
    med = statistics.median
    metrics = {
        "wall_s": (med(r["norm_wall_s"] if figs else r["wall_s"] * r["speed"]
                       for r in reps), "s"),
        "setup_s": (med(r["setup_s"] * r["speed"] for r in runs), "s"),
        "sim_s_per_s": (med(r["sim_s"] / r["run_s"] / r["speed"]
                            for r in runs), "1/s"),
        "peak_rss_mb": (med(r["rss_mb"] for r in reps), "MB"),
    }
    return checker, {k: {"value": v, "unit": u}
                     for k, (v, u) in metrics.items()}


def layer_metrics(exe, args, reps, cells, probe_ms, checker):
    figs = args.workload == "figs-quick"
    run = cells[0] if figs else next((r for r in reps if r["spans_on"]), None)
    if run is None:
        raise BenchError("no traced repetition completed")
    spans = {s["name"]: s["end_s"] - s["begin_s"] for s in run["spans"]}
    out = {}
    counts = run["counts"]
    for name in RUN_COUNTS:
        out[name] = (counts[name], "count")
    out["sim.events_per_s"] = (counts["sim.events"] / run["run_s"], "1/s")
    out["app.request_ns"] = (run["run_s"] * 1e9 / counts["app.requests"],
                             "ns")
    out["trace.export_s"] = (spans["chrome_trace_json"], "s")
    out["trace.json_mb"] = (counts["trace.json_bytes"] / 1e6, "MB")
    out["phase.profile_s"] = (spans["profile_workload"], "s")
    out["phase.run_s"] = (spans["run_experiment"], "s")
    out["phase.export_s"] = (spans["chrome_trace_json"], "s")
    for driver, key in zip(DRIVERS, ("fig10_s", "fig12_s", "fig15_s")):
        out["figs." + key] = (statistics.median(
            r["drivers"][driver] for r in reps) if figs else 0.0, "s")
    out["figs.cpu_per_wall"] = (statistics.median(
        r["cpu_s"] / r["wall_s"] for r in reps) if figs else 0.0, "ratio")

    t0 = time.perf_counter()
    code, text, _, _, _, _ = run_child([exe, "layers", args.workload])
    layer_wall = time.perf_counter() - t0
    micro = {}
    if code == 0:
        try:
            micro = json.loads(text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            micro = {}
    ok = all(name in micro for name in MICROBENCHES + ("shape", "spans"))
    if not checker.check(f"{args.workload} layer microbenchmarks", ok):
        raise BenchError("layer microbenchmarks failed")
    out["sim.queue_depth"] = (micro["shape"]["queue_depth"], "count")
    for name in MICROBENCHES:
        p50, p99, n = micro[name]
        out[name] = (p50, "ns")
        out[name + ".p99"] = (p99, "ns")
        out[name + ".n"] = (n, "count")

    out["host.probe_ms"] = (probe_ms, "ms")
    # Figure drivers take the same path traced or not (their spans are the
    # child processes), so only experiment workloads alternate the two.
    walls = {True: [], False: []}
    for r in reps:
        if not figs:
            walls[r["spans_on"]].append(r["wall_s"] * r["speed"])
    out["bench.trace_overhead"] = (
        statistics.median(walls[True]) / statistics.median(walls[False])
        if walls[True] and walls[False] else 1.0, "ratio")
    write_spans(args, run["spans"],
                [s for r in reps if figs for s in r["spans"]],
                micro["spans"], layer_wall)
    return out


def write_spans(args, experiment, drivers, micro, layer_wall):
    """Writes the traced run's spans next to the build, for inspection:
    the public calls of one experiment run (seconds from its process
    start), the figure driver processes (monotonic seconds) and the layer
    microbenchmarks (seconds from the `layers` process start)."""
    record = {"workload": args.workload, "seed": args.seed,
              "experiment": experiment, "drivers": drivers,
              "layers": micro, "layers_s": layer_wall}
    path = os.path.join(args.build_dir,
                        f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprints", default=None,
                        help="alternative fingerprint file (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    args.build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(args.build_dir)
        fingerprints = load_fingerprints(
            args.fingerprints or os.path.join(HERE, "fingerprints.json"))
        checker, metrics = measure(args, fingerprints)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError) as e:
        log(f"simbench: {e}")
        return 2
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
