#!/usr/bin/env python3
"""Two-clock workload benchmark for DSM-PM2.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload coloring_pf --seed 1 --seconds 35 --trace 0

It builds perfbench/main.exe with dune, then starts one fresh process per
timed run of the workload (so every run starts on a clean heap and reports
its own peak) until --seconds have passed and at least MIN_SAMPLES runs
succeeded.  Before each run it times a fixed calibration unit in a process
of its own; host_s and setup_s are the runs' median processor time scaled
by REF_CALIB_S over the unit's median, so a change in the shared host's
speed cancels out.  Each run's outputs are checked: the app's oracle, the
values pinned for the seed in perfbench/pins.ml (a seed without a pin is
named on the output), and equality with the run's first sample (a seed
fixes the inputs and the schedule).  A run that fails any check counts in "failed"
and its timings are not reported.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, from untraced runs, traced runs and the isolated layer loops.
The last line of standard output is one JSON object; the spans the runs
recorded are written to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("coloring_pf", "jacobi_wide", "sort_quorum")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "out")

# Fewest good runs a result rests on; the table's tail is the run with ten
# runs beyond it.
MIN_SAMPLES = 20
TAIL_BEYOND = 10
# Whatever the sample count, stop sampling here so the run ends in time.
HARD_CAP_S = 150.0
# Processor seconds the calibration unit took on a quiet 2-vCPU Xeon VM:
# host_s and setup_s read as seconds on such a host.
REF_CALIB_S = 0.25

# Printed beside the bounded end-to-end metrics, not bounded: the raw clocks
# the bounded host_s and setup_s are made from (see README.md).
HOST_UNBOUNDED = ("host_wall_s", "host_wall_tail_s", "host_cpu_s", "setup_wall_s", "calib_s")

# Outputs that a seed fixes exactly: every sample of a run must repeat the
# first one's.
EXACT_E2E = ("sim_ms", "alloc_mwords", "peak_heap_mb")
EXACT_COUNTERS = ("net.messages", "core.read_faults", "core.write_faults", "sim.events")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def metric_units(key):
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in the order
    BENCHMARK.json lists them; that file is the one list of the metrics."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json (run from the root of a checkout): %s" % e)
    return {m["name"]: m["unit"] for m in spec[key]}


def build():
    # Keep the build's files inside the checkout: no shared dune cache, and
    # temporary files under _build.
    tmp = os.path.join("_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(tmp))
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    except FileNotFoundError:
        fail("dune is not on PATH")
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout)
        fail("build failed (run from the root of a source checkout)")


class Runner:
    """Starts child processes and keeps their spans and the failure tally."""

    def __init__(self, start, workload, seed):
        self.start = start
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.spans = []
        self.reference = None
        self.pinned = True

    def left(self):
        return HARD_CAP_S - (time.monotonic() - self.start)

    def child(self, args):
        """Runs one child; returns its JSON result or None on any failure."""
        self.attempted += 1
        try:
            p = subprocess.run(
                [EXE] + args,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(5.0, self.left() + 20.0),
            )
        except subprocess.TimeoutExpired:
            return self.reject(" ".join(args) + ": timed out")
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            return self.reject(" ".join(args) + ": exit %d %s" % (p.returncode, p.stderr.strip()))
        try:
            r = json.loads(lines[-1])
        except ValueError:
            return self.reject(" ".join(args) + ": no result line")
        pid = self.attempted
        for s in r.get("spans", []):
            if s["start"] is not None and s["end"] is not None:  # a failed run's may be missing
                self.spans.append(dict(s, pid=pid, proc=" ".join(args[:1] + args[3:])))
        if not r["ok"]:
            return self.reject(r.get("failure", "failed"))
        self.pinned = self.pinned and r.get("pinned", True)
        return r

    def calibrate(self):
        """Processor seconds of one calibration unit, in a process of its own.
        It is not a run of the program, so it is not counted in attempted."""
        try:
            p = subprocess.run(
                [EXE, "calib"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60
            )
            return json.loads(p.stdout.strip().splitlines()[-1])["calib_s"]
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as e:
            fail("calibration failed: %s" % e)

    def reject(self, why):
        self.failed += 1
        print("failed: " + why, file=sys.stderr)
        return None

    def run(self, traced=False):
        args = ["run", self.workload, str(self.seed)] + (["--traced"] if traced else [])
        r = self.child(args)
        if r is None:
            return None
        key = {k: r["e2e"][k] for k in EXACT_E2E}
        key.update({k: r["counters"][k] for k in EXACT_COUNTERS})
        if traced:
            # Tracing must leave the schedule alone, not the allocation.
            key = {k: key[k] for k in ("sim_ms", "net.messages")}
        if self.reference is None and not traced:
            self.reference = key
        ref = self.reference or {}
        drift = [k for k in key if k in ref and key[k] != ref[k]]
        if drift:
            return self.reject("run differs from the first run of this seed in " + ", ".join(drift))
        return r


def sample(runner, until, at_least, modes=(False,), calibrate=False):
    """Runs the modes (traced or not) in turn until [until] and until each
    has [at_least] good runs, each run after a calibration unit if
    [calibrate].  Alternating traced and untraced runs exposes both to the
    same load on the host, so their difference is the tracing cost and not
    a change of load between two phases; the calibration units likewise
    see the load the runs see."""
    out = {m: [] for m in modes}
    calibs = []
    while (time.monotonic() < until or min(map(len, out.values())) < at_least) and runner.left() > 0:
        for m in modes:
            if calibrate:
                calibs.append(runner.calibrate())
            r = runner.run(m)
            if r is not None:
                out[m].append(r)
    return [out[m] for m in modes], calibs


def med(rs, field, key):
    return statistics.median(r[field][key] for r in rs)


def end_to_end(runs, calibs):
    calib = statistics.median(calibs)
    walls = sorted(r["e2e"]["host_s"] for r in runs)
    m = {
        "host_s": med(runs, "e2e", "host_cpu_s") * REF_CALIB_S / calib,
        "setup_s": med(runs, "e2e", "setup_cpu_s") * REF_CALIB_S / calib,
        "host_wall_s": statistics.median(walls),
        "host_wall_tail_s": walls[max(0, len(walls) - 1 - TAIL_BEYOND)],
        "host_cpu_s": med(runs, "e2e", "host_cpu_s"),
        "setup_wall_s": med(runs, "e2e", "setup_s"),
        "calib_s": calib,
    }
    for k in ("alloc_mwords", "peak_heap_mb", "sim_ms"):
        m[k] = med(runs, "e2e", k)
    return m


def per_layer(untraced, traced, layers):
    m = {k: med(untraced, "counters", k) for k in untraced[0]["counters"]}
    host = med(untraced, "e2e", "host_cpu_s")
    m["sim.ns_per_event"] = host * 1e9 / m["sim.events"]
    t = traced[0]["counters"]
    for k in ("obs.trace_events", "core.fault_path_p50_us", "core.fault_path_p99_us"):
        m[k] = t[k]
    traced_host = med(traced, "e2e", "host_cpu_s")
    m["obs.monitor_overhead_pct"] = (traced_host - host) / host * 100.0
    m.update(layers)
    return m


def write_spans(runner, name):
    """Chrome trace-event JSON of every span the runs recorded."""
    os.makedirs(OUT_DIR, exist_ok=True)
    t0 = min((s["start"] for s in runner.spans), default=0.0)
    events = [
        {
            "name": s["name"],
            "cat": s["proc"],
            "ph": "X",
            "pid": s["pid"],
            "tid": 1 if s["parent"] else 0,
            "ts": (s["start"] - t0) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "args": {"parent": s["parent"]},
        }
        for s in runner.spans
    ]
    path = os.path.join(OUT_DIR, name + ".json")
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be positive")

    units = metric_units("end_to_end" if a.trace == 0 else "per_layer")
    build()
    start = time.monotonic()
    runner = Runner(start, a.workload, a.seed)
    if a.trace == 0:
        (runs,), calibs = sample(runner, start + a.seconds, MIN_SAMPLES, calibrate=True)
        if not runs:
            fail("no run succeeded")
        metrics = end_to_end(runs, calibs)
        print("%s seed %d: %d runs, %d calibration units" % (a.workload, a.seed, len(runs), len(calibs)))
        for k in HOST_UNBOUNDED:
            print("  %-28s %18.6f s (not bounded)" % (k, metrics[k]))
    else:
        (untraced, traced), _ = sample(runner, start + 0.75 * a.seconds, 3, modes=(False, True))
        lr = runner.child(["layers", a.workload, str(a.seed)])
        if not untraced or not traced or lr is None:
            fail("no run succeeded")
        metrics = per_layer(untraced, traced, lr["layers"])
        print("%s seed %d: %d untraced, %d traced runs" % (a.workload, a.seed, len(untraced), len(traced)))
    missing = [k for k in units if k not in metrics]
    if missing:
        fail("BENCHMARK.json names metrics this benchmark does not measure: " + ", ".join(missing))
    path = write_spans(runner, "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace))
    for k in units:
        print("  %-28s %18.6f %s" % (k, metrics[k], units[k]))
    print("  attempted %d, failed %d; spans in %s" % (runner.attempted, runner.failed, path))
    if not runner.pinned:
        note = (
            "seed %d has no row in perfbench/pins.ml: sim_ms, messages and faults were only "
            "checked against this invocation's first run (add a row with main.exe pin)" % a.seed
        )
        print("  " + note)
        print("perfbench: " + note, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )


if __name__ == "__main__":
    main()
