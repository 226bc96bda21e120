"""Command-line orchestration: datasets, experiments, reports, benchmarks.

Subcommands compose into the full pipeline:

    gen-psf -> render-dataset -> simulate -> reconstruct -> train -> eval

plus grid-stats / grid-report for geometry and error-map emission,
compare-lensed for the lensed-vs-lensless controlled comparison, and bench
for single-frame latency. Every command is reproducible: identical config
and seed give hash-identical artifacts (timing tables excepted).

Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import run_pipeline_bench, time_stages
from .config import ExperimentConfig
from .errors import ConfigError, DataError, FlatTrackError, NumericalError
from .eyesim import GazeSample, iter_round
from .geometry import grid_angular_stats, make_grid
from .manifest import (DatasetManifest, read_manifest, remove_dataset,
                       save_sample, write_rows)
from .optics import (Psf, as_float32, generate_contour_psf, load_psf, save_psf,
                     simulate_measurement, spectral_flatness_ratio)
from .pipeline import (TAG_SIMULATE, aggregate_per_point, load_pool,
                       partition_samples, read, run_protocol, seed_for_sample,
                       train_protocol)
from .reconstruct import wiener_deconvolve
# Regressor functions are looked up on the module when called, so that a
# wrapper set on flattrack.regressor (perfbench's tracer) sees eval's calls.
from . import regressor
from .report import (write_grid_error_svg, write_per_point_csv,
                     read_per_point_csv, write_subject_table_csv, write_table)
from .seeds import mix_seed
from .workers import parallel_map

TAG_GENPSF = 0x9F5


def _resolve_config(args, manifest: DatasetManifest | None = None) -> ExperimentConfig:
    """Config precedence: --config file, else input sidecar, else defaults; flags win."""
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    elif manifest is not None:
        cfg = manifest.config
    else:
        cfg = ExperimentConfig.default()
    for kv in args.set or []:
        if "=" not in kv:
            raise ConfigError(f"--set expects KEY=VALUE, got {kv!r}")
        key, raw = kv.split("=", 1)
        cfg.set(key.strip(), raw.strip())
    if args.seed is not None:
        cfg.set("seed", args.seed)
    if args.gamma is not None:
        cfg.set("recon.gamma", args.gamma)
    return cfg


# The files `train` and `eval` write; their --force removes these alone.
TRAIN_OUTPUTS = ("model_*.ftkmdl", "history_*.csv", "splits.csv")
EVAL_OUTPUTS = ("report.csv", "per_point.csv", "latency.csv")


def _prepare_out_dir(path: str, force: bool, in_dir: str | None = None,
                     outputs: tuple[str, ...] | None = None) -> None:
    """Create the output dir; a non-empty one needs --force, which first
    removes what the command wrote there before, so no stale output
    outlives it: the files matching the ``outputs`` patterns, or an earlier
    dataset when ``outputs`` is None. Other files are left alone."""
    if os.path.isdir(path) and os.listdir(path):
        if not force:
            raise DataError(f"output dir {path} exists and is not empty "
                            f"(use --force to overwrite)")
        if in_dir is not None and os.path.samefile(path, in_dir):
            raise DataError(f"output dir {path} is the input dir")
        if outputs is None:
            remove_dataset(path)
        else:
            for name in os.listdir(path):
                full = os.path.join(path, name)
                if (any(fnmatch.fnmatchcase(name, pat) for pat in outputs)
                        and os.path.isfile(full)):
                    os.remove(full)
    os.makedirs(path, exist_ok=True)


def _prepare_out_file(path: str, force: bool) -> None:
    """Check that a command may write its one output file at ``path``: its
    directory exists, it is no directory itself, and an existing file is
    replaced only with --force."""
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        raise DataError(f"no directory {out_dir} for --out {path}")
    if os.path.isdir(path):
        raise DataError(f"--out {path} is a directory")
    if os.path.lexists(path) and not force:
        raise DataError(f"output file {path} exists (use --force to overwrite)")


def lensless(cfg: ExperimentConfig, psf: Psf):
    """The camera of ``cfg`` and ``psf`` as two sample maps, (measure,
    reconstruct): a scene sample to its measurement, with noise seeded by
    the sample's id alone, and a measurement sample to its Wiener
    reconstruction. Both images are float32, as their files store them, so
    the camera in memory is the camera of the files. The noise model and
    the Wiener settings are built here, so a bad setting raises ConfigError
    before any sample is read."""
    noise = cfg.noise_model()
    wcfg = cfg.wiener_config()
    master = cfg["seed"]

    def measure(s: GazeSample) -> GazeSample:
        y = simulate_measurement(s.image, psf, noise,
                                 seed_for_sample(master, TAG_SIMULATE, s.sample_id))
        return replace(s, image=y, stage="measurement")

    def reconstruct(s: GazeSample) -> GazeSample:
        x = as_float32(wiener_deconvolve(s.image, psf, wcfg), "reconstruction")
        return replace(s, image=x, stage="reconstruction")

    return measure, reconstruct


def cmd_gen_psf(args) -> int:
    cfg = _resolve_config(args)
    _prepare_out_file(args.out, args.force)
    psf = generate_contour_psf(cfg["optics.psf_h"], cfg["optics.psf_w"],
                               cfg.psf_params(), mix_seed(cfg["seed"], TAG_GENPSF))
    save_psf(psf, args.out)
    print(f"psf {psf.shape[0]}x{psf.shape[1]} sum={psf.data.sum():.9f} "
          f"fill={float(np.mean(psf.data > 0)):.4f} "
          f"spectral_flatness_ratio={spectral_flatness_ratio(psf):.2f}")
    return 0


def cmd_render_dataset(args) -> int:
    cfg = _resolve_config(args)
    grid = cfg.grid()
    screen = cfg.screen()
    params = cfg.render_params()
    # Checked before --force removes an earlier dataset.
    make_grid(grid, screen.monitor)
    regressor.frame_factors((params.image_h, params.image_w))
    for key in ("dataset.subjects", "dataset.rounds", "dataset.n_per_point"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    _prepare_out_dir(args.out, args.force)

    def one_round(ids):
        # Each frame is saved as it is rendered, so a worker holds one.
        sid, rid = ids
        return [save_sample(args.out, s) for s in iter_round(
            grid, screen, params, sid, rid, cfg["dataset.n_per_point"], cfg["seed"])]

    rounds = [(sid, rid) for sid in range(cfg["dataset.subjects"])
              for rid in range(cfg["dataset.rounds"])]
    rows = [row for chunk in parallel_map(one_round, rounds) for row in chunk]
    m = write_rows(args.out, rows, cfg)
    print(f"rendered {len(m)} samples "
          f"({cfg['dataset.subjects']} subjects x {cfg['dataset.rounds']} rounds) "
          f"-> {args.out}")
    return 0


def _transform_dataset(args, stage_in: str, stage_out: str) -> int:
    """Shared walk for simulate/reconstruct: take each ``stage_in`` sample
    one step along the camera (scene -> measurement -> reconstruction)."""
    m = read_manifest(args.in_dir)
    cfg = _resolve_config(args, m)
    rows = [r for r in m.rows if r.stage == stage_in]
    if not rows:
        raise DataError(f"no {stage_in!r}-stage rows in {args.in_dir}")
    # Raises on a bad config before --force removes anything.
    measure, reconstruct = lensless(cfg, load_psf(args.psf))
    step = measure if stage_in == "scene" else reconstruct
    _prepare_out_dir(args.out, args.force, m.root)
    out_rows = parallel_map(
        lambda row: save_sample(args.out, step(m.load_sample(row))), rows)
    write_rows(args.out, out_rows, cfg)
    print(f"{stage_out}: {len(out_rows)} samples -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    return _transform_dataset(args, "scene", "measurement")


def cmd_reconstruct(args) -> int:
    return _transform_dataset(args, "measurement", "reconstruction")


def cmd_train(args) -> int:
    m = read_manifest(args.in_dir)
    cfg = _resolve_config(args, m)
    # Checked before --force removes the earlier models.
    cfg.train_config()
    cfg.train_config(finetune=True)
    # Partition the rows first, so that only the pooled rounds are loaded;
    # loading reduces each frame to its training plane and checks its size.
    split = partition_samples(m.rows, cfg)
    pool = load_pool(split, m.load_sample)
    _prepare_out_dir(args.out, args.force, m.root, TRAIN_OUTPUTS)
    result = train_protocol(split, pool, cfg)
    regressor.save_model(result.base.model, os.path.join(args.out, "model_base.ftkmdl"))
    result.base.write_history_csv(os.path.join(args.out, "history_base.csv"))
    for sid, tr in sorted(result.per_subject.items()):
        regressor.save_model(tr.model, os.path.join(args.out, f"model_s{sid:02d}.ftkmdl"))
        tr.write_history_csv(os.path.join(args.out, f"history_s{sid:02d}.csv"))
    _write_split_audit(result.split, os.path.join(args.out, "splits.csv"))
    cfg.save(os.path.join(args.out, "config.cfg"))
    print(f"trained base + {len(result.per_subject)} subject models -> {args.out}")
    return 0


def _write_split_audit(split, path) -> None:
    write_table(path, ["sample_id", "role"],
                [(s.sample_id, "pretrain_train") for s in split.train_pool]
                + [(s.sample_id, "pretrain_val") for s in split.val_pool]
                + [(s.sample_id, "heldout")
                   for sid in sorted(split.heldout) for s in split.heldout[sid]])


def cmd_eval(args) -> int:
    m = read_manifest(args.in_dir)
    cfg = _resolve_config(args, m)
    split = partition_samples(m.rows, cfg)
    # Every model is loaded, so a missing or corrupt one is found, before
    # --force removes the earlier report.
    models = {}
    for sid in sorted(split.heldout):
        path = os.path.join(args.models, f"model_s{sid:02d}.ftkmdl")
        if not os.path.isfile(path):
            raise DataError(f"missing model for subject {sid}: {path}")
        models[sid] = regressor.load_model(path)
    _prepare_out_dir(args.out, args.force, m.root, EVAL_OUTPUTS)
    screen = cfg.screen()
    subject_rows = []
    reports = {}
    for sid, model in models.items():
        heldout = split.heldout[sid]
        if not reports:
            timed = model, m.load_sample(heldout[0])
        rep = regressor.evaluate(model, read(heldout, m.load_sample), screen)
        reports[sid] = rep
        subject_rows.append({
            "subject": sid,
            "n": len(heldout),
            "mean_err_deg": rep.mean_err_deg,
            "min_err_deg": rep.min_err_deg,
        })
    means = [r["mean_err_deg"] for r in subject_rows]
    summary = {
        "average_deg": float(np.mean(means)),
        "best_case_deg": float(np.min(means)),
    }
    write_subject_table_csv(subject_rows, summary,
                            os.path.join(args.out, "report.csv"))
    write_per_point_csv(aggregate_per_point(reports),
                        os.path.join(args.out, "per_point.csv"))
    _write_eval_latency(*timed, cfg, args)
    print(f"eval: average {summary['average_deg']:.3f} deg, "
          f"best-case {summary['best_case_deg']:.3f} deg -> {args.out}")
    return 0


def _write_eval_latency(model, sample, cfg, args) -> None:
    """latency.csv: the first subject's first held-out frame through
    reconstruct (with --psf), downsample and regress, 100 timed frames
    after 10 warm-up frames."""
    # A float64 frame, as reconstruction gives it to the live loop.
    frame = np.asarray(sample.image, dtype=float)
    stages = [("downsample", regressor.downsample_image),
              ("regress", lambda x: regressor.forward(model, x))]
    if args.psf:
        psf = load_psf(args.psf)
        wcfg = cfg.wiener_config(output_h=frame.shape[0], output_w=frame.shape[1])
        frame = simulate_measurement(sample.image, psf, cfg.noise_model(), cfg["seed"])
        stages.insert(0, ("reconstruct", lambda y: wiener_deconvolve(y, psf, wcfg)))
    result = time_stages(stages, lambda k: frame, frames=100, warmup=10)
    result.write_csv(os.path.join(args.out, "latency.csv"))


def cmd_grid_stats(args) -> int:
    cfg = _resolve_config(args)
    _prepare_out_file(args.out, args.force)
    stats = grid_angular_stats(cfg.grid(), cfg.screen())
    stats.write_csv(args.out)
    print(f"grid stats: min dx {stats.min_spacing_x_deg:.3f} deg, "
          f"min dy {stats.min_spacing_y_deg:.3f} deg -> {args.out}")
    return 0


def cmd_grid_report(args) -> int:
    _prepare_out_file(args.out, args.force)
    per_point = read_per_point_csv(args.in_path)
    write_grid_error_svg(per_point, args.out)
    print(f"grid report: {len(per_point)} points -> {args.out}")
    return 0


def cmd_compare_lensed(args) -> int:
    m = read_manifest(args.in_dir)
    cfg = _resolve_config(args, m)
    psf = load_psf(args.psf)
    scene_rows = [r for r in m.rows if r.stage == "scene"]
    if not scene_rows:
        raise DataError("compare-lensed needs a scene-stage manifest")
    # Checked before any frame is loaded.
    cfg.train_config()
    cfg.train_config(finetune=True)
    _prepare_out_file(args.out, args.force)
    measure, reconstruct = lensless(cfg, psf)
    # Identical seeds in both arms: only the image pathway differs. Each arm
    # reads every row once, as it trains or scores it; the two arms are
    # independent, so they fan out.
    lensed_reports, lensless_reports = parallel_map(
        lambda load: run_protocol(scene_rows, cfg, load).reports,
        [m.load_sample, lambda row: reconstruct(measure(m.load_sample(row)))])
    rows = []
    for sid in sorted(lensed_reports):
        rows.append({
            "subject": sid,
            "lensed_deg": lensed_reports[sid].mean_err_deg,
            "lensless_deg": lensless_reports[sid].mean_err_deg,
        })
    gaps = [abs(r["lensed_deg"] - r["lensless_deg"]) for r in rows]
    summary = {"max_abs_gap_deg": float(np.max(gaps))}
    write_subject_table_csv(rows, summary, args.out)
    for r in rows:
        print(f"subject {r['subject']}: lensed {r['lensed_deg']:.3f} deg, "
              f"lensless {r['lensless_deg']:.3f} deg")
    print(f"max |gap| = {summary['max_abs_gap_deg']:.3f} deg -> {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = _resolve_config(args)
    _prepare_out_file(args.out, args.force)
    model = regressor.load_model(args.model)
    psf = load_psf(args.psf)
    result = run_pipeline_bench(model, psf, cfg)
    result.write_csv(args.out)
    for name, st in result.stages.items():
        print(f"{name}: median {st['median_ms']:.3f} ms, p95 {st['p95_ms']:.3f} ms")
    print(f"total: median {result.total_median_ms:.3f} ms "
          f"({result.fps:.1f} fps) over {result.frames} frames -> {args.out}")
    return 0


def _arg(*flags: str, **kwargs):
    return flags, kwargs


_IN = _arg("--in", dest="in_dir", required=True)
_PSF = _arg("--psf", required=True)
_OUT = _arg("--out", required=True)

# name, handler, help, the command's own arguments
COMMANDS = [
    ("gen-psf", cmd_gen_psf, "generate the synthetic contour PSF", [_OUT]),
    ("render-dataset", cmd_render_dataset, "render scene-stage eye images", [_OUT]),
    ("simulate", cmd_simulate, "apply the lensless forward model", [_IN, _PSF, _OUT]),
    ("reconstruct", cmd_reconstruct, "deconvolve measurements back to scenes",
     [_IN, _PSF, _OUT]),
    ("train", cmd_train, "pretrain + per-subject fine-tune", [_IN, _OUT]),
    ("eval", cmd_eval, "evaluate per-subject held-out rounds",
     [_IN, _arg("--models", required=True), _OUT,
      _arg("--psf", help="also time the reconstruction stage")]),
    ("grid-stats", cmd_grid_stats, "angular layout of the stimulus grid", [_OUT]),
    ("grid-report", cmd_grid_report, "per-grid-point error map (SVG)",
     [_arg("--in", dest="in_path", required=True, help="per-point CSV from eval"),
      _OUT]),
    ("compare-lensed", cmd_compare_lensed,
     "train twice: clean scenes vs simulated+reconstructed",
     [_arg("--in", dest="in_dir", required=True, help="scene-stage dataset dir"),
      _PSF, _arg("--out", required=True, help="report CSV path")]),
    ("bench", cmd_bench, "single-frame latency over warm frames",
     [_arg("--model", required=True), _PSF,
      _arg("--out", required=True, help="latency CSV path")]),
]

# Every command takes these after its own arguments.
COMMON = [
    _arg("--config", help="experiment config file (key = value)"),
    _arg("--seed", type=int, help="override the master seed"),
    _arg("--gamma", type=float, help="override recon.gamma"),
    _arg("--set", action="append", metavar="KEY=VALUE",
         help="override any config key (repeatable)"),
    _arg("--force", action="store_true",
         help="overwrite non-empty output directories and existing "
              "output files"),
]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flattrack",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, handler, help_text, own in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in own + COMMON:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=handler)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except FlatTrackError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
