"""One benchmark workload, run in its own process by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

run.py starts this file with BLAS threads pinned to 1 and only the
checkout's ``src`` on PYTHONPATH. It prints one JSON object as its last line
of standard output: attempted and failed operations, the metrics and a
detail record. It exits 1 when an output check failed.

Untraced (``--trace 0``): set up SETUP_REPS times, then run operations in
a closed loop with one caller and no think time for ``--seconds``.
Traced (``--trace 1``): set up once, traced, then run a few untraced warm-up
operations and a fixed number of traced ones, so that per-layer counts
repeat exactly at a fixed seed; ``--seconds`` is not used.

flattrack is driven only through public entry points: ``cli.main``,
``wiener_deconvolve``, ``downsample_image``, ``forward``, and the renderer,
optics and ``model_init`` calls that build the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# setup_s is the median import time over IMPORT_REPS fresh interpreters plus
# the median of SETUP_REPS set-ups; a short noise phase of the host slows a
# few repetitions, not their median.
IMPORT_REPS, SETUP_REPS = 11, 7
# The camera (PSF) and the training recipe (model init, split, shuffling,
# augmentation) stay fixed; the workload seed varies the eyes and the noise.
# Seed-dependent masks or initialisations move held-out error and PSNR far
# more from run to run than any code change should be allowed to.
PSF_SEED = 12345
TRAIN_SEED = 12345
# Output checks: a frame's gaze must be unit length to this tolerance and its
# reconstruction must reach this PSNR against the clean scene. The seed code
# gives 12-14 dB per frame at the default PSF, noise and gamma.
UNIT_TOL = 1e-9
PSNR_FLOOR_DB = 10.0


def _angle_deg(a, b) -> float:
    c = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def _psnr_db(x, ref) -> float:
    mse = float(np.mean((np.asarray(x, dtype=float) - ref) ** 2))
    return 10.0 * math.log10(1.0 / mse) if mse > 0 else float("inf")


class Flattrack:
    """The flattrack modules, imported by name (the package's ``reconstruct``
    attribute is a function, not the module)."""

    def __init__(self):
        for name in ("cli", "config", "eyesim", "manifest", "optics",
                     "reconstruct", "regressor"):
            setattr(self, name, importlib.import_module("flattrack." + name))

    def config_for(self, seed: int, overrides=None):
        cfg = self.config.ExperimentConfig.default()
        cfg.set("seed", seed)
        for key, value in (overrides or {}).items():
            cfg.set(key, value)
        return cfg

    def psf_for(self, cfg):
        return self.optics.generate_contour_psf(
            cfg["optics.psf_h"], cfg["optics.psf_w"], cfg.psf_params(), PSF_SEED)


class Op:
    """Outcome of one timed operation; ``steps`` splits its seconds by step."""

    def __init__(self, steps, attempted, failed):
        self.steps = steps
        self.seconds = sum(steps.values())
        self.attempted, self.failed = attempted, failed


class Workload:
    """setup() builds the inputs, op(k) runs and checks operation k."""

    min_ops = 1  # operations a run makes at least, so quality covers every input
    traced_ops = 1
    block = 1  # operations per timing block, see _quietest
    span = None  # span(name) context manager while traced

    def __init__(self, ft, seed):
        self.ft, self.seed = ft, seed

    def cleanup(self):
        """Remove whatever setup() left on disk."""


class LiveFrames(Workload):
    """Real-time path: wiener_deconvolve -> downsample_image -> forward on a
    pool of pre-simulated 255x255 measurements, one per default grid point."""

    traced_ops = 450  # two passes over the pool
    block = 25  # about 60 ms, shorter than the quiet phases of a shared host

    def setup(self):
        ft = self.ft
        cfg = ft.config_for(self.seed)
        psf = ft.psf_for(cfg)
        samples = ft.eyesim.render_round(cfg.grid(), cfg.screen(),
                                         cfg.render_params(), 0, 0, 1, self.seed)
        noise = cfg.noise_model()
        noise_seeds = np.random.SeedSequence(self.seed).generate_state(len(samples), np.uint64)
        self.pool = [(ft.optics.simulate_measurement(s.image, psf, noise, int(ns)),
                      s.image, s.gaze)
                     for s, ns in zip(samples, noise_seeds)]
        self.psf, self.wcfg = psf, cfg.wiener_config()
        self.model = ft.regressor.model_init(TRAIN_SEED)
        self.first = [None] * len(self.pool)
        self.min_ops = len(self.pool)
        self.psnr, self.err = [], []

    def op(self, k):
        rc, rg = self.ft.reconstruct, self.ft.regressor
        i = k % len(self.pool)
        y, scene, gaze = self.pool[i]
        t0 = time.perf_counter()
        rec = rc.wiener_deconvolve(y, self.psf, self.wcfg)
        v = rg.forward(self.model, rg.downsample_image(rec))
        dt = time.perf_counter() - t0
        v = np.asarray(v, dtype=float)
        ok = (v.shape == (3,) and bool(np.all(np.isfinite(v)))
              and abs(float(np.linalg.norm(v)) - 1.0) <= UNIT_TOL)
        if self.first[i] is None:
            self.first[i] = v.copy()
            p = _psnr_db(rec, scene)
            self.psnr.append(p)
            self.err.append(_angle_deg(v, gaze) if ok else float("nan"))
            ok = ok and p >= PSNR_FLOOR_DB
        else:
            ok = ok and np.array_equal(v, self.first[i])  # same frame, same answer
        return Op({"frame": dt}, 1, 0 if ok else 1)

    def quality(self):
        return {"recon_psnr_db": statistics.fmean(self.psnr),
                "gaze_err_deg": statistics.fmean(self.err)}

    def detail(self, ops):
        return {"frames": len(ops), "pool": len(self.pool)}


class CliChain(Workload):
    """The README chain through cli.main, in a fresh directory per chain:
    gen-psf -> render-dataset -> simulate -> reconstruct -> train ->
    eval --psf -> grid-report. Chains cycle over DATASETS datasets."""

    SUBJECTS, ROUNDS, GRID = 2, 3, 6
    # Enough optimiser steps that held-out error falls well below the
    # constant-(0,0,1) predictor's, which _check requires.
    EPOCHS, LR = 5, 1e-3
    # Held-out error on one small dataset varies by about 10% between seeds;
    # the quality metrics average over this many datasets drawn from the seed.
    DATASETS = 8
    min_ops = DATASETS
    traced_ops = 3
    TIMING_FILES = ("latency.csv",)  # left out of the artifact digest

    def __init__(self, ft, seed):
        super().__init__(ft, seed)
        self.base = None
        # per dataset, from its first chain
        self.digest, self.report, self.psnr, self.constant = {}, {}, {}, {}

    def setup(self):
        tmp_root = os.path.join(ROOT, ".perfbench-tmp")
        os.makedirs(tmp_root, exist_ok=True)
        self.base = tempfile.mkdtemp(prefix="chain-", dir=tmp_root)
        default = self.ft.config.ExperimentConfig.default()
        self.cfg_paths = []
        for i, data_seed in enumerate(
                np.random.SeedSequence(self.seed).generate_state(self.DATASETS)):
            # The coarse grid spans the default grid's extent (its origin
            # stays), so the targets cover the whole screen.
            cfg = self.ft.config_for(int(data_seed), {
                "dataset.subjects": self.SUBJECTS, "dataset.rounds": self.ROUNDS,
                "grid.rows": self.GRID, "grid.cols": self.GRID,
                "grid.spacing_x_px": default["grid.spacing_x_px"]
                * (default["grid.cols"] - 1) / (self.GRID - 1),
                "grid.spacing_y_px": default["grid.spacing_y_px"]
                * (default["grid.rows"] - 1) / (self.GRID - 1),
                "train.epochs": self.EPOCHS, "train.lr": self.LR})
            self.cfg_paths.append(os.path.join(self.base, f"exp{i}.cfg"))
            cfg.save(self.cfg_paths[-1])
        self.n_samples = self.SUBJECTS * self.ROUNDS * self.GRID * self.GRID

    def cleanup(self):
        if self.base is not None:
            shutil.rmtree(self.base, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(self.base))  # only if now empty
            self.base = None

    def op(self, k):
        data = k % self.DATASETS
        cfg = self.cfg_paths[data]
        d = os.path.join(self.base, f"run{k}")
        p = {n: os.path.join(d, n) for n in ("scenes", "meas", "recon", "models", "eval")}
        psf = os.path.join(d, "psf.fltimg")
        steps = [
            ("gen-psf", ["--config", cfg, "--seed", str(PSF_SEED), "--out", psf]),
            ("render-dataset", ["--config", cfg, "--out", p["scenes"]]),
            ("simulate", ["--in", p["scenes"], "--psf", psf, "--out", p["meas"]]),
            ("reconstruct", ["--in", p["meas"], "--psf", psf, "--out", p["recon"]]),
            ("train", ["--in", p["recon"], "--seed", str(TRAIN_SEED), "--out", p["models"]]),
            ("eval", ["--in", p["recon"], "--models", p["models"], "--seed", str(TRAIN_SEED),
                      "--out", p["eval"], "--psf", psf]),
            ("grid-report", ["--in", os.path.join(p["eval"], "per_point.csv"),
                             "--out", os.path.join(p["eval"], "map.svg")]),
        ]
        os.makedirs(d)
        times = {}
        try:
            for i, (cmd, argv) in enumerate(steps):
                code, times[cmd], log = self._run(cmd, argv)
                if code != 0:
                    print(f"{cmd} exited {code}:\n{log}", file=sys.stderr)
                    return Op(times, len(steps), len(steps) - i)
            failed = 0 if self._check(data, d, p) else 1
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return Op(times, len(steps), failed)

    def _run(self, cmd, argv):
        buf = io.StringIO()
        span = self.span(f"cli.{cmd}") if self.span else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            with span:
                try:
                    code = self.ft.cli.main([cmd] + argv)
                except Exception:
                    traceback.print_exc()
                    code = -1
            dt = time.perf_counter() - t0
        return code, dt, buf.getvalue()

    def _check(self, data, d, p) -> bool:
        """report.csv parses; every subject's held-out error is finite and below
        the constant-(0,0,1) predictor's; artifacts match the dataset's first
        chain."""
        try:
            report = _read_report(os.path.join(p["eval"], "report.csv"))
        except (OSError, ValueError, KeyError) as e:
            print(f"report.csv: {e}", file=sys.stderr)
            return False
        digest = _digest(d, self.TIMING_FILES)
        if data not in self.digest:
            self.digest[data], self.report[data] = digest, report
            self.psnr[data] = self._recon_psnr(p)
            self.constant[data] = self._constant_err(p)
        constant = self.constant[data]
        learned = report["subjects"].keys() == constant.keys() and all(
            math.isfinite(v) and v < constant[sid] for sid, v in report["subjects"].items())
        if not learned:
            print(f"held-out error {report['subjects']} not below the constant "
                  f"predictor's {constant}", file=sys.stderr)
        return learned and digest == self.digest[data] and report == self.report[data]

    def _constant_err(self, p):
        """Per subject, the mean error of a constant (0,0,1) prediction on the
        held-out round (the last, at the default train.holdout_round)."""
        rows = self.ft.manifest.read_manifest(p["recon"], validate=False).rows
        out = {}
        for sid in sorted({r.subject_id for r in rows}):
            last = max(r.round_id for r in rows if r.subject_id == sid)
            out[sid] = statistics.fmean(
                _angle_deg(np.array([0.0, 0.0, 1.0]), r.gaze) for r in rows
                if r.subject_id == sid and r.round_id == last)
        return out

    def _recon_psnr(self, p):
        ft = self.ft
        scenes = ft.manifest.read_manifest(p["scenes"], validate=False)
        recon = ft.manifest.read_manifest(p["recon"], validate=False)
        scene_path = {r.sample_id: r.image_path for r in scenes.rows}
        return statistics.fmean(
            _psnr_db(ft.optics.load_image(os.path.join(p["recon"], r.image_path)),
                     ft.optics.load_image(os.path.join(p["scenes"], scene_path[r.sample_id])))
            for r in recon.rows)

    def quality(self):
        return {"recon_psnr_db": statistics.fmean(self.psnr.values()),
                "gaze_err_deg": statistics.fmean(r["average_deg"] for r in self.report.values())}

    def detail(self, ops):
        return {"chains": len(ops), "datasets": self.DATASETS, "samples": self.n_samples,
                "grid": self.GRID, "subjects_x_rounds": [self.SUBJECTS, self.ROUNDS],
                "epochs": self.EPOCHS, "lr": self.LR,
                "artifact_sha256": [self.digest.get(i) for i in range(self.DATASETS)],
                "heldout_err_deg": [self.report[i]["subjects"] if i in self.report else None
                                    for i in range(self.DATASETS)],
                "constant_err_deg": [self.constant.get(i) for i in range(self.DATASETS)]}


def _read_report(path):
    """Per-subject mean errors and the average from eval's report.csv."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    col = rows[0].index("mean_err_deg")
    subjects = {int(r[0]): float(r[col]) for r in rows[1:] if r and r[0].isdigit()}
    summary = {r[0]: float(r[1]) for r in rows[1:] if r and not r[0].isdigit()}
    if not subjects:
        raise ValueError("no subject rows")
    return {"subjects": subjects, "average_deg": summary["average_deg"]}


def _digest(root, skip_names) -> str:
    """sha256 over every file's relative path and content, timing files excluded."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            if name in skip_names:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                h.update(os.path.relpath(path, root).encode() + b"\0"
                         + hashlib.sha256(f.read()).digest())
    return h.hexdigest()


WORKLOADS = {"live-frames": LiveFrames, "cli-chain": CliChain}


def _environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def _quietest(ops, size):
    """Operation latency on a quiet machine, and its split by step.

    For each step, the lowest median over blocks of ``size`` consecutive
    operations; the operation's latency is the sum over its steps.
    Neighbouring load on a shared machine slows all code by up to half, in
    phases from about a second to longer than a run. The quietest block
    measures the code; the others mostly measure the neighbours.
    """
    blocks = [ops[i:i + size] for i in range(0, len(ops) - size + 1, size)] or [ops]
    steps = {}
    for name in ops[0].steps:
        steps[name] = min(statistics.median(o.steps[name] for o in b if name in o.steps)
                          for b in blocks if any(name in o.steps for o in b))
    return sum(steps.values()), steps


def _import_seconds(reps):
    """Import time of numpy and flattrack in ``reps`` fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import numpy, flattrack.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, check=True, timeout=60).stdout)
            for _ in range(reps)]


def _measure(w, seconds):
    """Run operations until ``seconds`` have passed (at least ``w.min_ops``)."""
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < w.min_ops or time.perf_counter() < deadline:
        ops.append(w.op(len(ops)))
    return ops


def _traced_ops(w, tracer):
    """Untraced warm-up operations, then ``w.traced_ops`` traced operations,
    each following an untraced one, so that noise phases of the host hit both
    sides of trace_overhead alike. Returns (all operations, traced, untraced)."""
    ops = [w.op(k) for k in range(w.min_ops)]
    traced, untraced = [], []
    for _ in range(w.traced_ops):
        untraced.append(w.op(len(ops)))
        ops.append(untraced[-1])
        tracer.op = len(ops)
        w.span = tracer.span
        tracer.start()
        try:
            traced.append(w.op(len(ops)))
        finally:
            tracer.stop()
            w.span = None
        ops.append(traced[-1])
    return ops, traced, untraced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    import flattrack
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(flattrack.__file__).startswith(src):
        print(f"flattrack imported from {flattrack.__file__}, not {src}", file=sys.stderr)
        return 2
    ft = Flattrack()

    make = WORKLOADS[args.workload]
    w = None
    setup_times = []
    try:
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.op = "setup"
            w = make(ft, args.seed)
            tracer.start()
            try:
                w.setup()
            finally:
                tracer.stop()
            ops, traced, untraced = _traced_ops(w, tracer)
        else:
            import_times = _import_seconds(IMPORT_REPS)
            for _ in range(SETUP_REPS):
                if w is not None:  # free the previous inputs first
                    w.cleanup()
                    w = None
                    gc.collect()
                w = make(ft, args.seed)
                t = time.perf_counter()
                w.setup()
                setup_times.append(time.perf_counter() - t)
            ops = _measure(w, args.seconds)
    finally:
        if w is not None:
            w.cleanup()

    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    detail = {"environment": _environment(), "error_rate": failed / attempted, **w.detail(ops)}
    if args.trace:
        traced_lat = [o.seconds for o in traced]
        overhead = statistics.median(traced_lat) / statistics.median(o.seconds for o in untraced)
        metrics, absent = tracer.metrics(sum(traced_lat), overhead)
        detail.update(traced_ops=len(traced), spans=tracer.summary(), absent=absent)
    else:
        lat = np.array([o.seconds for o in ops])
        quiet_s, quiet_steps = _quietest(ops, w.block)
        metrics = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "op_ms_p50": quiet_s * 1e3,
            **w.quality(),
        }
        p99 = float(np.percentile(lat, 99))
        detail.update(
            import_reps_s=import_times, setup_reps_s=setup_times, ops=len(ops), block_ops=w.block,
            quiet_step_ms={k: v * 1e3 for k, v in quiet_steps.items()},
            all_ops_ms_p50=float(np.median(lat) * 1e3),
            all_ops_ms_p99=p99 * 1e3, ops_beyond_p99=int(np.sum(lat > p99)))
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics, "detail": detail}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
