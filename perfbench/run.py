#!/usr/bin/env python3
"""End-to-end, per-layer benchmark of the virtualization framework.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  Builds perfbench/rep.exe with
dune, then runs repetitions of the workload, each in a fresh process
(see rep.ml), and prints one JSON result as its last line of output:

  --trace 0  repetitions for about S seconds (at least one, and at
             least MIN_SETUPS registry builds); setup_s is the median
             build, host_tasks_per_s that of the fastest repetition,
             the rest medians (see README.md).
  --trace 1  one untraced and one traced repetition; the per-layer
             metrics, an attribution of the traced wall time and a
             Chrome trace under perfbench/out/.

Every output check of every repetition must pass, and repetitions of
one seed, traced or not, must agree on every simulated result and on
the registry.  A failed check fails the command (exit 1) and counts
the repetition's tasks as failed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REP = os.path.join("_build", "default", "perfbench", "rep.exe")

WORKLOADS = ("paper-fig12", "serve-scale", "frontdoor")

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "host_tasks_per_s": "1/s",
    "alloc_words_per_task": "words",
    "peak_heap_mb": "MB",
    "goodput_per_s": "1/s",
    "p50_sojourn_ms": "ms",
    "tail_sojourn_ms": "ms",
    "completed_ratio": "ratio",
}

# Simulated, so every repetition of a seed must report the same value.
SIMULATED = ("goodput_per_s", "p50_sojourn_ms", "tail_sojourn_ms", "completed_ratio")

PER_LAYER = {
    "accel.rtl_gen_ms": "ms",
    "core.decompose_ms": "ms",
    "core.decompose.leaf_blocks": "count",
    "core.mapping_ms": "ms",
    "core.registry.register_ms": "ms",
    "core.setup_alloc_mwords": "Mwords",
    "sysim.service_model_s": "s",
    "sysim.service_shapes": "count",
    "isa.codegen_ms": "ms",
    "core.scale_out.generate_ms": "ms",
    "core.scale_out.reorder_ms": "ms",
    "core.scale_out.instrs": "count",
    "accel.perf_ms": "ms",
    "workload.gen_ms": "ms",
    "sysim.run_s": "s",
    "sysim.loop_s": "s",
    "sysim.events": "count",
    "sysim.host_ns_per_event": "ns",
    "sysim.alloc_words_per_event": "words",
    "runtime.deploys_ok": "count",
    "runtime.deploys_failed": "count",
    "runtime.deploy_success_ratio": "ratio",
    "runtime.undeploys": "count",
    "core.defrag_moves": "count",
    "vital.bitstream_hit_ratio": "ratio",
    "sched.batches": "count",
    "sched.mean_batch_size": "count",
    "sched.shed": "count",
    "sched.scale_ups": "count",
    "sched.scale_downs": "count",
    "sched.preemptions": "count",
    "sysim.mean_wait_ms": "ms",
    "sysim.peak_queue": "count",
    "serve.sticky_hit_ratio": "ratio",
    "serve.held_results": "count",
    "serve.mapcache_hit_ratio": "ratio",
    "obs.scrapes": "count",
    "obs.alert_transitions": "count",
    "obs.telemetry_overhead_ratio": "ratio",
    "unattributed_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}

MIN_SETUPS = 3  # registry builds per untraced run, for the setup_s median
RUN_LIMIT_S = 170  # every repetition of a run ends this long after the build
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# ---------------- arithmetic (pinned by test_run.py) ----------------


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def best_rate(counts, seconds):
    """Tasks per second of the fastest repetition (best of N)."""
    return max([c / s for c, s in zip(counts, seconds) if s > 0] + [0.0])


def result_line(correct, attempted, failed, values, units):
    """The final JSON line: every metric in [units], with its unit."""
    missing = [k for k in units if k not in values]
    if missing:
        raise ValueError("metrics missing: " + ", ".join(missing))
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
        }
    )


def parse_result_line(line):
    d = json.loads(line)
    if set(d) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys: %s" % sorted(d))
    return d


# ---------------- processes ----------------

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def spawn(args, timeout):
    """Runs a child to completion; returns (exit code, stdout)."""
    global _child
    _child = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        out, _ = _child.communicate()
        print("perfbench: repetition killed after %.0f s" % timeout, file=sys.stderr)
        return (-1, out)
    finally:
        code = _child.returncode
        _child = None
    return (code, out)


def build():
    for path in ("dune-project", "lib", os.path.join("perfbench", "rep.ml")):
        if not os.path.exists(path):
            raise BenchError("run from the repository root: %s is missing" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/rep.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not os.path.exists(REP):
        raise BenchError("dune build failed (exit %d)" % proc.returncode)


class Rep:
    """One repetition's report (see rep.ml's print_report)."""

    def __init__(self, mode, code, out, elapsed_s):
        self.mode = mode
        self.elapsed_s = elapsed_s
        self.tasks = 0
        self.metrics, self.strings, self.attribution = {}, {}, []
        self.failures = []
        lines = [l for l in out.splitlines() if l.strip()]
        try:
            d = json.loads(lines[-1])
            self.tasks = d["tasks"]
            self.metrics = d["metrics"]
            self.strings = d["strings"]
            self.attribution = d["attribution"]
            self.failures = list(d["failures"])
        except (IndexError, ValueError, KeyError):
            self.failures.append("%s repetition printed no report" % mode)
        if code != 0:
            self.failures.append("%s repetition exited with %d" % (mode, code))


_deadline = None  # monotonic time by which every repetition must end


def repetition(workload, seed, mode):
    args = [REP, "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = time.monotonic()
    code, out = spawn(args, max(1.0, _deadline - t0))
    return Rep(mode, code, out, time.monotonic() - t0)


# ---------------- checks across repetitions ----------------


def cross_checks(reps):
    """Digests and simulated metrics must agree across repetitions."""
    failures = []
    for key in ("registry_digest", "result_digest"):
        seen = {r.strings[key] for r in reps if key in r.strings}
        if len(seen) > 1:
            failures.append("%s differs across repetitions: %s" % (key, sorted(seen)))
    played = [r for r in reps if r.mode != "setup"]
    for key in SIMULATED:
        seen = {r.metrics.get(key) for r in played}
        if len(seen) > 1:
            failures.append("%s differs across repetitions: %s" % (key, sorted(map(str, seen))))
    return failures


def tally(reps, failures):
    """(attempted, failed): tasks played, and those of repetitions whose
    checks failed; cross-repetition failures fail them all."""
    played = [r for r in reps if r.mode != "setup"]
    per_rep = max([r.tasks for r in played] + [1])
    attempted = sum(r.tasks or per_rep for r in played)
    if failures:
        return attempted, attempted
    return attempted, sum(r.tasks or per_rep for r in played if r.failures)


# ---------------- modes ----------------


def untraced(workload, seed, seconds):
    """Repetitions while one more would end within half a repetition of
    [seconds]; then registry builds up to MIN_SETUPS."""
    reps = []
    t0 = time.monotonic()
    while True:
        reps.append(repetition(workload, seed, "run"))
        elapsed = time.monotonic() - t0
        if elapsed + reps[-1].elapsed_s / 2 >= seconds or reps[-1].failures:
            break
    while len(reps) < MIN_SETUPS:
        reps.append(repetition(workload, seed, "setup"))
    played = [r for r in reps if r.mode == "run"]
    values = {k: median([r.metrics[k] for r in played if k in r.metrics]) for k in END_TO_END if k in played[0].metrics}
    setups = [r.metrics["setup_s"] for r in reps if "setup_s" in r.metrics]
    hosts = [r.metrics["host_s"] for r in played if "host_s" in r.metrics]
    if setups:
        values["setup_s"] = median(setups)
    if hosts:
        values["host_tasks_per_s"] = best_rate([r.tasks for r in played], hosts)
    print("untraced: %d repetitions, %d registry builds" % (len(played), len(setups)))
    print("  setup_s  median %.6g of %s" % (values.get("setup_s", 0.0), " ".join("%.4g" % v for v in setups)))
    print("  host_s   %s for %d tasks each" % (" ".join("%.4g" % v for v in hosts), played[0].tasks))
    return reps, values, END_TO_END


def traced(workload, seed):
    plain = repetition(workload, seed, "run")
    tr = repetition(workload, seed, "traced")
    reps = [plain, tr]
    values = {k: v for k, v in tr.metrics.items() if k in PER_LAYER}
    busy = lambda r: r.metrics.get("setup_s", 0.0) + r.metrics.get("host_s", 0.0)
    values["bench.trace_overhead_ratio"] = busy(tr) / busy(plain) if busy(plain) > 0 else 0.0
    wall = tr.metrics.get("traced_wall_s", 0.0)
    rows = sorted(tr.attribution, key=lambda r: -r[1]) + [["unattributed", tr.metrics.get("unattributed_s", 0.0)]]
    total = sum(v for _, v in rows)
    print("attribution of the traced wall time (self seconds, largest first)")
    for name, v in rows:
        print("  %-32s %10.4f  %5.1f%%" % (name, v, 100.0 * v / wall if wall else 0.0))
    print("  %-32s %10.4f  (traced wall %.4f)" % ("sum", total, wall))
    if tr.attribution and abs(total - wall) > 1e-3:
        tr.failures.append("attribution sums to %.6f s, traced wall is %.6f s" % (total, wall))
    if "trace_file" in tr.strings:
        print("chrome trace: %s" % tr.strings["trace_file"])
    return reps, values, PER_LAYER


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _stop_child)
    try:
        build()
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    global _deadline
    _deadline = time.monotonic() + RUN_LIMIT_S
    if a.trace:
        reps, values, units = traced(a.workload, a.seed)
    else:
        reps, values, units = untraced(a.workload, a.seed, a.seconds)
    cross = cross_checks(reps)
    failures = cross + [f for r in reps for f in r.failures]
    if a.workload == "paper-fig12" and reps[0].metrics.get("fig12.greedy_vs_baseline"):
        print("greedy vs baseline, pooled throughput: %.3fx (paper: 2.54x)" % reps[0].metrics["fig12.greedy_vs_baseline"])
    for f in failures:
        print("CHECK FAILED: %s" % f)
    attempted, failed = tally(reps, cross)
    missing = [k for k in units if k not in values]
    if missing:
        failures.append("metrics missing: " + ", ".join(missing))
        values.update({k: 0.0 for k in missing})
    print(result_line(not failures, attempted, failed, values, units))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
