#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each named
workload and prints, per metric, the median and the interquartile range as
a share of the median (Python's statistics.quantiles(values, n=4)), next to
the metric's bound. Run from the repository root:

    python3 perfbench/spread.py --workloads svc-compute hom-scan --seeds 1 2 3 4 5
    python3 perfbench/spread.py --trace 1 --seeds 1 2   # per-layer values

Exits non-zero if a run fails or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--values", action="store_true", help="print every run's value")
    opts = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in opts.workloads:
        values = {}
        for seed in opts.seeds:
            result = run_once(bench["command"], w, seed, opts.seconds, opts.trace)
            if not result["correct"] or result["failed"]:
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({len(opts.seeds)} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            shown = "" if bound is None else f" bound {bound}"
            print(f"{name:40s} median {med:<14.6g} spread {spread:.4f}{shown}{flag}")
            if opts.values:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
