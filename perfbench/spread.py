#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--out FILE]

Runs `perfbench/run.py --trace 0` once per seed (run_seconds from
BENCHMARK.json), then prints, per end-to-end metric, the median, the
quartiles and the quartile spread (q3 - q1) / median beside the
metric's bound.  --out keeps every run's result line as JSON.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

import run


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    a = p.parse_args(argv)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    results = []
    for seed in seeds_of(a.seeds):
        cmd = spec["command"] + ["--workload", a.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not line:
            print("seed %d failed (exit %d)" % (seed, out.returncode))
            return 1
        results.append({"seed": seed, "result": run.parse_result_line(line)})
        print("seed %d done" % seed, file=sys.stderr)
    print("%s, %d seeds" % (a.workload, len(results)))
    print("%-22s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = run.statistics.quantiles(vals, n=4)
        print(
            "%-22s %14.6g %14.6g %14.6g %8.4f %6.2f"
            % (m["name"], med, q1, q3, run.quartile_spread(vals), m["bound"])
        )
    if a.out:
        os.makedirs(os.path.dirname(a.out) or ".", exist_ok=True)
        with open(a.out, "w") as f:
            json.dump({"workload": a.workload, "runs": results}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
