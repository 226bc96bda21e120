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

import numpy as np

from .bench import run_pipeline_bench, time_stages
from .config import ExperimentConfig
from .errors import ConfigError, DataError, FlatTrackError, NumericalError
from .eyesim import GazeSample, iter_round
from .geometry import grid_angular_stats, make_grid
from .manifest import (DatasetManifest, read_manifest, remove_dataset,
                       save_sample, write_rows)
from .optics import (generate_contour_psf, load_psf, save_psf,
                     simulate_measurement, spectral_flatness_ratio)
from .pipeline import (TAG_SIMULATE, aggregate_per_point, load_pool,
                       partition_samples, run_protocol, seed_for_sample,
                       train_protocol)
from .reconstruct import wiener_deconvolve
from .regressor import frame_factors, load_model, save_model
from .report import (write_grid_error_svg, write_per_point_csv,
                     read_per_point_csv, write_subject_table_csv)
from .seeds import mix_seed
from .workers import parallel_map

TAG_GENPSF = 0x9F5


def _resolve_config(args, manifest: DatasetManifest | None = None) -> ExperimentConfig:
    """Config precedence: --config file, else input sidecar, else defaults; flags win."""
    if getattr(args, "config", None):
        cfg = ExperimentConfig.load(args.config)
    elif manifest is not None:
        cfg = manifest.config
    else:
        cfg = ExperimentConfig.default()
    for kv in getattr(args, "set", None) or []:
        if "=" not in kv:
            raise ConfigError(f"--set expects KEY=VALUE, got {kv!r}")
        key, raw = kv.split("=", 1)
        cfg.set(key.strip(), raw.strip())
    if getattr(args, "seed", None) is not None:
        cfg.set("seed", args.seed)
    if getattr(args, "gamma", None) is not None:
        cfg.set("recon.gamma", args.gamma)
    return cfg


# The files `train` writes; --force removes them before training.
TRAIN_OUTPUTS = ("model_*.ftkmdl", "history_*.csv", "splits.csv")


def _remove_training_outputs(path: str) -> None:
    """Delete the files an earlier `train` wrote under ``path``, so that no
    model of that run outlives a new one. Other files are left alone."""
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if (any(fnmatch.fnmatchcase(name, pat) for pat in TRAIN_OUTPUTS)
                and os.path.isfile(full)):
            os.remove(full)


def _prepare_out_dir(path: str, force: bool, in_dir: str | None = None,
                     remove=remove_dataset) -> None:
    """Create the output dir; a non-empty one needs --force, which first
    removes what the command wrote there before (``remove``: an earlier
    dataset by default), so no stale output outlives it."""
    if os.path.isdir(path) and os.listdir(path):
        if not force:
            raise DataError(f"output dir {path} exists and is not empty "
                            f"(use --force to overwrite)")
        if in_dir is not None and os.path.samefile(path, in_dir):
            raise DataError(f"output dir {path} is the input dir")
        remove(path)
    os.makedirs(path, exist_ok=True)


def cmd_gen_psf(args) -> int:
    cfg = _resolve_config(args)
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
    frame_factors((params.image_h, params.image_w))
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


def _transform_dataset(args, stage_in: str, stage_out: str, make_fn) -> int:
    """Shared walk for simulate/reconstruct: map each image, keep labels."""
    m = read_manifest(getattr(args, "in_dir"))
    cfg = _resolve_config(args, m)
    rows = [r for r in m.rows if r.stage == stage_in]
    if not rows:
        raise DataError(f"no {stage_in!r}-stage rows in {getattr(args, 'in_dir')}")
    fn = make_fn(m, cfg)  # raises on a bad config before --force removes anything
    _prepare_out_dir(args.out, args.force, m.root)

    def one(row):
        s = m.load_sample(row)
        s.image = fn(s)
        s.stage = stage_out
        return save_sample(args.out, s)

    out_rows = parallel_map(one, rows)
    write_rows(args.out, out_rows, cfg)
    print(f"{stage_out}: {len(out_rows)} samples -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    psf = load_psf(args.psf)

    def make_fn(m, cfg):
        noise = cfg.noise_model()
        master = cfg["seed"]

        def fn(s):
            return simulate_measurement(
                s.image, psf, noise,
                seed_for_sample(master, TAG_SIMULATE, s.sample_id))

        return fn

    return _transform_dataset(args, "scene", "measurement", make_fn)


def cmd_reconstruct(args) -> int:
    psf = load_psf(args.psf)

    def make_fn(m, cfg):
        wcfg = cfg.wiener_config()

        def fn(s):
            return wiener_deconvolve(s.image, psf, wcfg)

        return fn

    return _transform_dataset(args, "measurement", "reconstruction", make_fn)


def cmd_train(args) -> int:
    m = read_manifest(getattr(args, "in_dir"))
    cfg = _resolve_config(args, m)
    # Checked before --force removes the earlier models.
    cfg.train_config()
    cfg.train_config(finetune=True)
    # Partition the rows first, so that only the pooled rounds are loaded;
    # loading reduces each frame to its training plane and checks its size.
    split = partition_samples(m.rows, cfg)
    pool = load_pool(split, m.load_sample)
    _prepare_out_dir(args.out, args.force, m.root, _remove_training_outputs)
    result = train_protocol(split, pool, cfg)
    save_model(result.base.model, os.path.join(args.out, "model_base.ftkmdl"))
    result.base.write_history_csv(os.path.join(args.out, "history_base.csv"))
    for sid, tr in sorted(result.per_subject.items()):
        save_model(tr.model, os.path.join(args.out, f"model_s{sid:02d}.ftkmdl"))
        tr.write_history_csv(os.path.join(args.out, f"history_s{sid:02d}.csv"))
    _write_split_audit(result.split, os.path.join(args.out, "splits.csv"))
    cfg.save(os.path.join(args.out, "config.cfg"))
    print(f"trained base + {len(result.per_subject)} subject models -> {args.out}")
    return 0


def _write_split_audit(split, path) -> None:
    import csv
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sample_id", "role"])
        for s in split.train_pool:
            w.writerow([s.sample_id, "pretrain_train"])
        for s in split.val_pool:
            w.writerow([s.sample_id, "pretrain_val"])
        for sid in sorted(split.heldout):
            for s in split.heldout[sid]:
                w.writerow([s.sample_id, "heldout"])


def cmd_eval(args) -> int:
    m = read_manifest(getattr(args, "in_dir"))
    cfg = _resolve_config(args, m)
    _prepare_out_dir(args.out, args.force, m.root)
    split = partition_samples(m.rows, cfg)
    screen = cfg.screen()
    from .regressor import evaluate as eval_model
    subject_rows = []
    reports = {}
    for sid in sorted(split.heldout):
        model_path = os.path.join(args.models, f"model_s{sid:02d}.ftkmdl")
        if not os.path.isfile(model_path):
            raise DataError(f"missing model for subject {sid}: {model_path}")
        model = load_model(model_path)
        heldout = m.load_samples(split.heldout[sid])
        if not reports:
            timed = model, heldout[0]
        rep = eval_model(model, heldout, screen)
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
    from .regressor import downsample_image, forward
    # A float64 frame, as reconstruction gives it to the live loop.
    frame = np.asarray(sample.image, dtype=float)
    stages = [("downsample", downsample_image),
              ("regress", lambda x: forward(model, x))]
    if getattr(args, "psf", None):
        psf = load_psf(args.psf)
        wcfg = cfg.wiener_config(output_h=frame.shape[0], output_w=frame.shape[1])
        frame = simulate_measurement(sample.image, psf, cfg.noise_model(), cfg["seed"])
        stages.insert(0, ("reconstruct", lambda y: wiener_deconvolve(y, psf, wcfg)))
    result = time_stages(stages, lambda k: frame, frames=100, warmup=10)
    result.write_csv(os.path.join(args.out, "latency.csv"))


def cmd_grid_stats(args) -> int:
    cfg = _resolve_config(args)
    stats = grid_angular_stats(cfg.grid(), cfg.screen())
    stats.write_csv(args.out)
    print(f"grid stats: min dx {stats.min_spacing_x_deg:.3f} deg, "
          f"min dy {stats.min_spacing_y_deg:.3f} deg -> {args.out}")
    return 0


def cmd_grid_report(args) -> int:
    per_point = read_per_point_csv(getattr(args, "in_path"))
    write_grid_error_svg(per_point, args.out)
    print(f"grid report: {len(per_point)} points -> {args.out}")
    return 0


def cmd_compare_lensed(args) -> int:
    m = read_manifest(getattr(args, "in_dir"))
    cfg = _resolve_config(args, m)
    psf = load_psf(args.psf)
    scene_rows = [r for r in m.rows if r.stage == "scene"]
    if not scene_rows:
        raise DataError("compare-lensed needs a scene-stage manifest")
    scenes = m.load_samples(scene_rows)
    noise = cfg.noise_model()
    master = cfg["seed"]
    wcfg = cfg.wiener_config()

    def to_lensless(s):
        y = simulate_measurement(s.image, psf, noise,
                                 seed_for_sample(master, TAG_SIMULATE, s.sample_id))
        x_hat = wiener_deconvolve(y, psf, wcfg)
        return GazeSample(image=x_hat, gaze=s.gaze, screen_pt=s.screen_pt,
                          subject_id=s.subject_id, round_id=s.round_id,
                          grid_i=s.grid_i, grid_j=s.grid_j,
                          stage="reconstruction", sample_id=s.sample_id)

    lensless = parallel_map(to_lensless, scenes)
    # Identical seeds in both arms: only the image pathway differs.
    res_lensed = run_protocol(scenes, cfg)
    res_lensless = run_protocol(lensless, cfg)
    rows = []
    for sid in sorted(res_lensed.reports):
        rows.append({
            "subject": sid,
            "lensed_deg": res_lensed.reports[sid].mean_err_deg,
            "lensless_deg": res_lensless.reports[sid].mean_err_deg,
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
    model = load_model(args.model)
    psf = load_psf(args.psf)
    result = run_pipeline_bench(model, psf, cfg)
    result.write_csv(args.out)
    for name, st in result.stages.items():
        print(f"{name}: median {st['median_ms']:.3f} ms, p95 {st['p95_ms']:.3f} ms")
    print(f"total: median {result.total_median_ms:.3f} ms "
          f"({result.fps:.1f} fps) over {result.frames} frames -> {args.out}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment config file (key = value)")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--gamma", type=float, help="override recon.gamma")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--force", action="store_true",
                   help="overwrite non-empty output directories")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flattrack",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-psf", help="generate the synthetic contour PSF")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_gen_psf)

    p = sub.add_parser("render-dataset", help="render scene-stage eye images")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_render_dataset)

    p = sub.add_parser("simulate", help="apply the lensless forward model")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--psf", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("reconstruct", help="deconvolve measurements back to scenes")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--psf", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("train", help="pretrain + per-subject fine-tune")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate per-subject held-out rounds")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--psf", help="also time the reconstruction stage")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("grid-stats", help="angular layout of the stimulus grid")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_grid_stats)

    p = sub.add_parser("grid-report", help="per-grid-point error map (SVG)")
    p.add_argument("--in", dest="in_path", required=True,
                   help="per-point CSV from eval")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_grid_report)

    p = sub.add_parser("compare-lensed",
                       help="train twice: clean scenes vs simulated+reconstructed")
    p.add_argument("--in", dest="in_dir", required=True,
                   help="scene-stage dataset dir")
    p.add_argument("--psf", required=True)
    p.add_argument("--out", required=True, help="report CSV path")
    _add_common(p)
    p.set_defaults(fn=cmd_compare_lensed)

    p = sub.add_parser("bench", help="single-frame latency over warm frames")
    p.add_argument("--model", required=True)
    p.add_argument("--psf", required=True)
    p.add_argument("--out", required=True, help="latency CSV path")
    _add_common(p)
    p.set_defaults(fn=cmd_bench)

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
