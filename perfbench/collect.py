"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--json OUT]

Runs run.py once per workload and seed, one run at a time, for the
run_seconds in BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread (q3 - q1) /
median and the metric's bound. With --json it also makes one traced run per
workload at the first seed, and writes every run's metrics, the quartile
summary and the per-layer metrics to OUT.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    """(detail record, result) of one run.py call, or None if it failed."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        print(f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--json", help="write runs and summary to this file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary, failed = {}, {}, False
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in _seed_range(args.seeds):
            t0 = time.monotonic()
            got = _run(w, seed, spec["run_seconds"], 0)
            if got is None:
                failed = True
                continue
            record, result = got
            runs[w].append({"seed": seed, "wall_s": time.monotonic() - t0,
                            "loadavg": [record["loadavg_start"], record["loadavg_end"]],
                            **{k: v["value"] for k, v in result["metrics"].items()},
                            "detail": {k: v for k, v in record.items()
                                       if not k.startswith("loadavg")}})
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary[w] = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs[w]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[w][metric] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": bound}
            print(f"  {w:15s} {metric:14s} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:7.4f}  bound {bound}"
                  + ("" if metric == "setup_s" or spread <= bound / 3 else "  WIDE"))
    if args.json:
        traced = {}
        for w in runs:
            got = _run(w, _seed_range(args.seeds)[0], spec["run_seconds"], 1)
            if got is None:
                failed = True
                continue
            record, result = got
            traced[w] = {"absent": record["absent"], "spans": record["spans"],
                         **{k: v["value"] for k, v in result["metrics"].items()}}
        with open(args.json, "w") as f:
            json.dump({"run_seconds": spec["run_seconds"], "summary": summary,
                       "runs": runs, "traced": traced}, f, indent=1)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
