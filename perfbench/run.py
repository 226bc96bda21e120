"""flattrack benchmark: one workload per call, timed end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; flattrack is imported from its
``src`` directory, nothing is installed or built. The workload runs in a
fresh child process (workloads.py) with BLAS pinned to one thread, so memory
and thread settings belong to that workload alone. Workloads, metric names,
units and bounds are listed in BENCHMARK.json at the checkout root.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). The line
before it records the environment and per-workload detail. The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
# cli-chain fans simulate/reconstruct out over two threads, one per core of
# the reference machine; the other workloads do not use the pool.
FLATTRACK_THREADS = {"cli-chain": "2"}


def _loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().split()[:3]
    except OSError:
        return None


def _source_identity():
    """git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "flattrack")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "flattrack", "__init__.py")):
        print(f"no flattrack sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               FLATTRACK_THREADS=FLATTRACK_THREADS.get(args.workload, "1"),
               PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **_source_identity(),
              "env": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "FLATTRACK_THREADS")},
              "loadavg_start": _loadavg()}
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    record["loadavg_end"] = _loadavg()
    try:
        out = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"{args.workload} exited {child.returncode} without a result",
              file=sys.stderr)
        return 1

    metrics = dict(out["metrics"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        # ru_maxrss is in KiB on Linux. It is the largest process waited for:
        # git, the workload, or the workload's short import probes.
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    differ = {m["name"] for m in wanted} ^ set(metrics)
    if differ:
        print(f"metric names differ from BENCHMARK.json: {sorted(differ)}", file=sys.stderr)
        return 1
    record.update(out["detail"])
    print(json.dumps(record))
    correct = out["failed"] == 0 and child.returncode == 0
    print(json.dumps({
        "correct": correct, "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
