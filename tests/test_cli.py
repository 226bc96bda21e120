import collections
import csv
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from flattrack.cli import lensless, main
from flattrack.config import ExperimentConfig
from flattrack.errors import ConfigError, DataError, FormatError
from flattrack.manifest import read_manifest
from flattrack.optics import load_image, load_psf, save_image
from flattrack.pipeline import run_protocol
from flattrack.regressor import load_model, save_model
import fuzz
from oracles import psnr


@pytest.fixture(scope="module")
def small_cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    cfg = ExperimentConfig.default()
    for k, v in {
        "seed": 2024,
        "grid.rows": 3, "grid.cols": 3,
        "grid.spacing_x_px": 200.0, "grid.spacing_y_px": 150.0,
        "grid.origin_x_px": 760.0, "grid.origin_y_px": 390.0,
        "render.image_h": 32, "render.image_w": 32,
        "render.camera_scale_px_per_mm": 1.0,
        "render.light_x_px": 15.5, "render.light_y_px": 15.5,
        "render.light_falloff_r0_px": 24.0,
        "dataset.subjects": 2, "dataset.rounds": 2,
        "optics.psf_h": 16, "optics.psf_w": 16,
        "train.epochs": 2, "train.batch_size": 8,
        "bench.frames": 12, "bench.warmup": 2,
    }.items():
        cfg.set(k, v)
    cfg.save(path)
    return str(path)


@pytest.fixture
def counted_loads(monkeypatch, tmp_path_factory):
    """counted_loads(): the paths of the dataset images read through the
    manifest, by this process or by its workers."""
    import flattrack.manifest
    log = tmp_path_factory.mktemp("loads") / "loads.txt"
    log.touch()

    def counting_load_image(path):
        with open(log, "a") as f:  # one appending write per line
            f.write(f"{path}\n")
        return load_image(path)

    monkeypatch.setattr(flattrack.manifest, "load_image", counting_load_image)
    return lambda: log.read_text().splitlines()


def run(args):
    return main(args)


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_gen_psf_deterministic(tmp_path, small_cfg_file, capsys):
    p1 = tmp_path / "a.fltimg"
    p2 = tmp_path / "b.fltimg"
    assert run(["gen-psf", "--config", small_cfg_file, "--out", str(p1)]) == 0
    assert run(["gen-psf", "--config", small_cfg_file, "--out", str(p2)]) == 0
    assert sha(p1) == sha(p2)
    out = capsys.readouterr().out
    assert "spectral_flatness_ratio" in out
    # float32 storage quantizes unit sum to ~1e-7; the in-memory psf is exact
    psf = load_psf(p1)
    assert abs(psf.data.sum() - 1.0) < 1e-6
    from flattrack.optics import generate_contour_psf
    from flattrack.seeds import mix_seed
    from flattrack.cli import TAG_GENPSF
    cfg = ExperimentConfig.load(small_cfg_file)
    regen = generate_contour_psf(16, 16, cfg.psf_params(),
                                 mix_seed(cfg["seed"], TAG_GENPSF))
    assert abs(regen.data.sum() - 1.0) < 1e-9


def test_gen_psf_rejects_small_dims(tmp_path, small_cfg_file):
    rc = run(["gen-psf", "--config", small_cfg_file,
              "--set", "optics.psf_h=8", "--out", str(tmp_path / "x.fltimg")])
    assert rc == 2


def test_unknown_config_key_exit_code(tmp_path, small_cfg_file):
    rc = run(["gen-psf", "--config", small_cfg_file,
              "--set", "optics.bogus=1", "--out", str(tmp_path / "x.fltimg")])
    assert rc == 2


def test_missing_manifest_exit_code(tmp_path):
    rc = run(["simulate", "--in", str(tmp_path / "void"),
              "--psf", str(tmp_path / "nothing.fltimg"),
              "--out", str(tmp_path / "out")])
    assert rc == 3


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory, small_cfg_file):
    """Full pipeline at toy scale: render -> simulate -> reconstruct -> train -> eval."""
    root = tmp_path_factory.mktemp("pipe")
    d = {k: str(root / k) for k in
         ("scenes", "meas", "recon", "models", "eval")}
    psf = str(root / "psf.fltimg")
    assert run(["gen-psf", "--config", small_cfg_file, "--out", psf]) == 0
    assert run(["render-dataset", "--config", small_cfg_file, "--out", d["scenes"]]) == 0
    assert run(["simulate", "--in", d["scenes"], "--psf", psf, "--out", d["meas"]]) == 0
    assert run(["reconstruct", "--in", d["meas"], "--psf", psf, "--out", d["recon"]]) == 0
    assert run(["train", "--in", d["recon"], "--out", d["models"]]) == 0
    assert run(["eval", "--in", d["recon"], "--models", d["models"],
                "--out", d["eval"], "--psf", psf]) == 0
    d["psf"] = psf
    return d


def test_render_counts_and_force(pipeline_dirs, small_cfg_file):
    m = read_manifest(pipeline_dirs["scenes"])
    assert len(m) == 2 * 2 * 9
    assert {r.stage for r in m.rows} == {"scene"}
    rc = run(["render-dataset", "--config", small_cfg_file,
              "--out", pipeline_dirs["scenes"]])
    assert rc == 3  # refuses without --force


def test_force_clears_the_earlier_dataset(tmp_path, small_cfg_file):
    out = str(tmp_path / "scenes")
    assert run(["render-dataset", "--config", small_cfg_file, "--out", out]) == 0
    assert run(["render-dataset", "--config", small_cfg_file, "--out", out,
                "--set", "dataset.subjects=1", "--force"]) == 0
    m = read_manifest(out)
    assert len(m) == 1 * 2 * 9
    assert sorted(os.listdir(os.path.join(out, "images"))) == sorted(
        os.path.basename(r.image_path) for r in m.rows)
    # --force never clears the dataset the command reads.
    psf = str(tmp_path / "psf.fltimg")
    assert run(["gen-psf", "--config", small_cfg_file, "--out", psf]) == 0
    before = sorted(os.listdir(os.path.join(out, "images")))
    assert run(["simulate", "--in", out, "--psf", psf, "--out", out, "--force"]) == 3
    assert sorted(os.listdir(os.path.join(out, "images"))) == before
    assert len(read_manifest(out)) == len(m)


@pytest.mark.parametrize("setting", ["dataset.subjects=0", "dataset.rounds=0",
                                     "dataset.n_per_point=0",
                                     "grid.origin_x_px=1900",
                                     "render.image_h=100", "render.image_w=256"])
def test_render_dataset_config_error_keeps_the_earlier_dataset(
        tmp_path, small_cfg_file, setting):
    out = str(tmp_path / "scenes")
    assert run(["render-dataset", "--config", small_cfg_file, "--out", out]) == 0
    before = sorted(os.listdir(os.path.join(out, "images")))
    assert run(["render-dataset", "--config", small_cfg_file, "--out", out,
                "--set", setting, "--force"]) == 2
    # The check comes before --force removes the earlier dataset.
    assert sorted(os.listdir(os.path.join(out, "images"))) == before
    assert len(read_manifest(out)) == len(before)
    fresh = str(tmp_path / "fresh")
    assert run(["render-dataset", "--config", small_cfg_file, "--out", fresh,
                "--set", setting]) == 2
    assert not os.path.exists(fresh)


@pytest.mark.parametrize("step, src, extra, code", [
    ("simulate", "scenes", ["--set", "optics.noise_sigma_rel=-1"], 2),
    ("reconstruct", "meas", ["--gamma", "-1"], 2),
    ("reconstruct", "scenes", [], 3),  # no measurement-stage rows
])
def test_transform_error_keeps_the_earlier_output(tmp_path, pipeline_dirs, step,
                                                  src, extra, code):
    out = tmp_path / "out"
    shutil.copytree(pipeline_dirs["recon"], out)
    before = sorted(os.listdir(out / "images"))
    assert run([step, "--in", pipeline_dirs[src], "--psf", pipeline_dirs["psf"],
                "--out", str(out), "--force"] + extra) == code
    assert sorted(os.listdir(out / "images")) == before
    assert len(read_manifest(str(out))) == len(before)


def test_render_dataset_same_at_any_thread_count(tmp_path, small_cfg_file, monkeypatch):
    written = []
    for workers in ("1", "2"):
        monkeypatch.setenv("FLATTRACK_THREADS", workers)
        out = tmp_path / f"scenes_{workers}"
        assert run(["render-dataset", "--config", small_cfg_file, "--out", str(out)]) == 0
        written.append({str(p.relative_to(out)): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert "manifest.csv" in written[0]
    assert sum(name.endswith(".fltimg") for name in written[0]) == 2 * 2 * 9
    assert written[0] == written[1]


def test_render_dataset_saves_each_frame_before_the_next(tmp_path, small_cfg_file,
                                                         monkeypatch):
    import flattrack.cli
    import flattrack.eyesim
    events = []
    render_eye, save_sample = flattrack.eyesim.render_eye, flattrack.cli.save_sample

    def recording_render(*args, **kwargs):
        events.append("render")
        return render_eye(*args, **kwargs)

    def recording_save(root, s):
        events.append("save")
        return save_sample(root, s)

    monkeypatch.setattr(flattrack.eyesim, "render_eye", recording_render)
    monkeypatch.setattr(flattrack.cli, "save_sample", recording_save)
    monkeypatch.setenv("FLATTRACK_THREADS", "1")
    out = tmp_path / "scenes"
    assert run(["render-dataset", "--config", small_cfg_file, "--out", str(out)]) == 0
    assert events == ["render", "save"] * (2 * 2 * 9)


def test_simulate_dims_and_rows(pipeline_dirs):
    scenes = read_manifest(pipeline_dirs["scenes"])
    meas = read_manifest(pipeline_dirs["meas"])
    assert len(meas) == len(scenes)
    assert {r.stage for r in meas.rows} == {"measurement"}
    img = meas.load_sample(meas.rows[0]).image
    assert img.shape == (32 + 16 - 1, 32 + 16 - 1)


def test_reconstruct_restores_dims(pipeline_dirs):
    recon = read_manifest(pipeline_dirs["recon"])
    img = recon.load_sample(recon.rows[0]).image
    assert img.shape == (32, 32)
    assert {r.stage for r in recon.rows} == {"reconstruction"}


def test_reconstruction_beats_raw_measurement(tmp_path, small_cfg_file, pipeline_dirs):
    # Noiseless arm: the deconvolution recovers the scene far better than
    # reading the raw multiplexed measurement ever could.
    meas_dir = str(tmp_path / "meas0")
    recon_dir = str(tmp_path / "recon0")
    assert run(["simulate", "--in", pipeline_dirs["scenes"],
                "--psf", pipeline_dirs["psf"], "--out", meas_dir,
                "--set", "optics.noise_sigma_rel=0"]) == 0
    assert run(["reconstruct", "--in", meas_dir, "--psf", pipeline_dirs["psf"],
                "--out", recon_dir]) == 0
    scenes = read_manifest(pipeline_dirs["scenes"])
    meas = read_manifest(meas_dir)
    recon = read_manifest(recon_dir)
    x = scenes.load_sample(scenes.rows[0]).image
    y = meas.load_sample(meas.rows[0]).image
    xh = recon.load_sample(recon.rows[0]).image
    r0, c0 = (y.shape[0] - 32) // 2, (y.shape[1] - 32) // 2
    y_scaled = y[r0:r0 + 32, c0:c0 + 32]
    assert psnr(xh, x) > psnr(y_scaled / max(y_scaled.max(), 1e-9), x)


def test_psf_whose_header_claims_more_than_the_file_exit_code(tmp_path, pipeline_dirs):
    psf = tmp_path / "big.fltimg"
    psf.write_bytes(b"FLTIMG1 65536 65536\n" + b"\x00" * 4)
    assert run(["reconstruct", "--in", pipeline_dirs["meas"], "--psf", str(psf),
                "--out", str(tmp_path / "recon")]) == 3


def test_gamma_override_recorded(tmp_path, pipeline_dirs):
    out = str(tmp_path / "recon_g")
    assert run(["reconstruct", "--in", pipeline_dirs["meas"],
                "--psf", pipeline_dirs["psf"], "--out", out,
                "--gamma", "0.0003"]) == 0
    m = read_manifest(out)
    assert m.config["recon.gamma"] == 0.0003


def test_train_outputs_and_split_audit(pipeline_dirs):
    files = os.listdir(pipeline_dirs["models"])
    assert "model_base.ftkmdl" in files
    assert "model_s00.ftkmdl" in files and "model_s01.ftkmdl" in files
    assert "history_base.csv" in files
    with open(os.path.join(pipeline_dirs["models"], "splits.csv")) as f:
        rows = list(csv.DictReader(f))
    roles = {}
    for r in rows:
        roles.setdefault(r["role"], set()).add(r["sample_id"])
    assert roles["heldout"].isdisjoint(roles["pretrain_train"])
    assert roles["heldout"].isdisjoint(roles["pretrain_val"])
    # held-out = round 1 for both subjects at toy scale
    m = read_manifest(pipeline_dirs["recon"])
    heldout_expected = {r.sample_id for r in m.rows if r.round_id == 1}
    assert roles["heldout"] == heldout_expected


def test_train_opens_only_the_pooled_rounds(tmp_path, pipeline_dirs, counted_loads):
    out = str(tmp_path / "models")
    assert run(["train", "--in", pipeline_dirs["recon"], "--out", out]) == 0
    m = read_manifest(pipeline_dirs["recon"])
    pooled = sorted(r.image_path for r in m.rows if r.round_id != 1)
    read = sorted(os.path.relpath(p, m.root) for p in counted_loads())
    assert read == pooled  # each pooled image once, no held-out one
    for name in os.listdir(out):
        if name.endswith(".ftkmdl"):
            assert sha(os.path.join(out, name)) == \
                sha(os.path.join(pipeline_dirs["models"], name))


def test_train_force_removes_the_earlier_models(tmp_path, pipeline_dirs):
    out = tmp_path / "models"
    shutil.copytree(pipeline_dirs["models"], out)
    # A run on a dataset with a third subject would have left these behind.
    shutil.copy(out / "model_s01.ftkmdl", out / "model_s02.ftkmdl")
    shutil.copy(out / "history_s01.csv", out / "history_s02.csv")
    (out / "notes.txt").write_text("kept")
    assert run(["train", "--in", pipeline_dirs["recon"], "--out", str(out)]) == 3
    assert run(["train", "--in", pipeline_dirs["recon"], "--out", str(out),
                "--force"]) == 0
    assert sorted(os.listdir(out)) == sorted(
        os.listdir(pipeline_dirs["models"]) + ["notes.txt"])
    for name in os.listdir(pipeline_dirs["models"]):
        assert sha(out / name) == sha(os.path.join(pipeline_dirs["models"], name))


def test_train_config_error_keeps_the_earlier_models(tmp_path, pipeline_dirs):
    out = tmp_path / "models"
    shutil.copytree(pipeline_dirs["models"], out)
    assert run(["train", "--in", pipeline_dirs["recon"], "--out", str(out),
                "--force", "--set", "train.lr=-1"]) == 2
    # The check comes before --force removes the earlier models.
    assert sorted(os.listdir(out)) == sorted(os.listdir(pipeline_dirs["models"]))
    for name in os.listdir(pipeline_dirs["models"]):
        assert sha(out / name) == sha(os.path.join(pipeline_dirs["models"], name))


def test_train_rejects_frames_off_the_size_rule(tmp_path, pipeline_dirs, capsys):
    ds = tmp_path / "recon"
    shutil.copytree(pipeline_dirs["recon"], ds)
    for path in (ds / "images").iterdir():
        save_image(np.full((100, 100), 0.5), str(path))
    capsys.readouterr()
    assert run(["train", "--in", str(ds), "--out", str(tmp_path / "models")]) == 2
    err = capsys.readouterr().err
    assert "100x100" in err and "Traceback" not in err


def test_train_force_on_frames_off_the_rule_keeps_the_earlier_models(tmp_path,
                                                                     pipeline_dirs):
    ds = tmp_path / "recon"
    shutil.copytree(pipeline_dirs["recon"], ds)
    for path in (ds / "images").iterdir():
        save_image(np.full((100, 100), 0.5), str(path))
    out = tmp_path / "models"
    shutil.copytree(pipeline_dirs["models"], out)
    assert run(["train", "--in", str(ds), "--out", str(out), "--force"]) == 2
    # The pool is read, and its frame size checked, before --force removes
    # the earlier models.
    assert sorted(os.listdir(out)) == sorted(os.listdir(pipeline_dirs["models"]))
    for name in os.listdir(pipeline_dirs["models"]):
        assert sha(out / name) == sha(os.path.join(pipeline_dirs["models"], name))


@pytest.mark.parametrize("escape", ["absolute", "parent"])
def test_manifest_image_outside_the_dataset_exit_code(tmp_path, pipeline_dirs, escape):
    ds = tmp_path / "recon"
    shutil.copytree(pipeline_dirs["recon"], ds)
    with open(ds / "manifest.csv", newline="") as f:
        rows = list(csv.reader(f))
    col = rows[0].index("image_path")
    # Point a reconstruction row at a measurement of the same sample.
    meas = os.path.join(pipeline_dirs["meas"], rows[3][col].replace(
        "_reconstruction.fltimg", "_measurement.fltimg"))
    assert os.path.isfile(meas)
    rows[3][col] = meas if escape == "absolute" else os.path.relpath(meas, ds)
    with open(ds / "manifest.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert run(["train", "--in", str(ds), "--out", str(tmp_path / "models")]) == 3
    assert run(["eval", "--in", str(ds), "--models", pipeline_dirs["models"],
                "--out", str(tmp_path / "eval")]) == 3


def _latency_rows(path):
    with open(path) as f:
        rows = {r[0]: r[1:] for r in csv.reader(f)}
    assert float(rows["fps"][0]) == pytest.approx(
        1000.0 / float(rows["total"][0]), rel=1e-9)
    return list(rows)


def test_eval_report_structure(tmp_path, pipeline_dirs):
    with open(os.path.join(pipeline_dirs["eval"], "report.csv")) as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "subject,n,mean_err_deg,min_err_deg"
    assert any(l.startswith("average_deg") for l in lines)
    assert any(l.startswith("best_case_deg") for l in lines)
    means = [float(l.split(",")[2]) for l in lines[1:3]]
    best = [float(l.split(",")[1]) for l in lines if l.startswith("best_case_deg")][0]
    avg = [float(l.split(",")[1]) for l in lines if l.startswith("average_deg")][0]
    assert best == pytest.approx(min(means))
    assert avg == pytest.approx(np.mean(means))
    assert best <= avg
    # The stages timed with --psf and without it.
    assert _latency_rows(os.path.join(pipeline_dirs["eval"], "latency.csv")) == [
        "stage", "reconstruct", "downsample", "regress", "total", "fps"]
    out = tmp_path / "eval_no_psf"
    assert run(["eval", "--in", pipeline_dirs["recon"], "--models",
                pipeline_dirs["models"], "--out", str(out)]) == 0
    assert _latency_rows(out / "latency.csv") == [
        "stage", "downsample", "regress", "total", "fps"]
    for name in ("report.csv", "per_point.csv"):
        assert sha(out / name) == sha(os.path.join(pipeline_dirs["eval"], name))


def test_grid_report_svg(tmp_path, pipeline_dirs):
    svg = str(tmp_path / "map.svg")
    assert run(["grid-report", "--in",
                os.path.join(pipeline_dirs["eval"], "per_point.csv"),
                "--out", svg]) == 0
    assert open(svg).read().count("<circle") == 9


def test_non_finite_manifest_label_exit_code(tmp_path, pipeline_dirs):
    src = pipeline_dirs["scenes"]
    ds = tmp_path / "ds"
    shutil.copytree(src, ds)
    with open(ds / "manifest.csv", newline="") as f:
        rows = list(csv.reader(f))
    rows[3][rows[0].index("screen_x_px")] = "nan"
    with open(ds / "manifest.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert run(["simulate", "--in", str(ds), "--psf", pipeline_dirs["psf"],
                "--out", str(tmp_path / "meas")]) == 3


def test_non_finite_model_weights_exit_code(tmp_path, pipeline_dirs):
    models = tmp_path / "models"
    shutil.copytree(pipeline_dirs["models"], models)
    path = models / "model_s00.ftkmdl"
    data = bytearray(path.read_bytes())
    # The first weight follows the header line and the first dims line.
    start = data.index(b"\n", data.index(b"\n") + 1) + 1
    data[start:start + 4] = np.float32(np.inf).tobytes()
    path.write_bytes(bytes(data))
    assert run(["eval", "--in", pipeline_dirs["recon"], "--models", str(models),
                "--out", str(tmp_path / "eval"), "--psf", pipeline_dirs["psf"]]) == 3


@pytest.mark.parametrize("dims", [(1024, 8, 2), (16, 8, 3)])
def test_model_with_wrong_endpoint_dims_exit_code(tmp_path, pipeline_dirs, dims):
    models = tmp_path / "models"
    shutil.copytree(pipeline_dirs["models"], models)
    data = f"FTKMDL1 {len(dims) - 1}\n".encode()
    for rows, cols in zip(dims[:-1], dims[1:]):
        data += f"{rows} {cols}\n".encode() + np.zeros(rows * cols + cols, "<f4").tobytes()
    (models / "model_s00.ftkmdl").write_bytes(data)
    assert run(["eval", "--in", pipeline_dirs["recon"], "--models", str(models),
                "--out", str(tmp_path / "eval")]) == 3


# Each input that its parser rejects is rejected through the CLI with the
# parser's exit code, before the command writes its output.
@settings(max_examples=100, deadline=None)
@given(data=fuzz.FLTIMG)
def test_corrupt_psf_exit_code(pipeline_dirs, data):
    with tempfile.TemporaryDirectory() as tmp:
        psf, out = os.path.join(tmp, "psf.fltimg"), os.path.join(tmp, "meas")
        with open(psf, "wb") as f:
            f.write(data)
        try:
            load_psf(psf)
        except FormatError:
            assert run(["simulate", "--in", pipeline_dirs["scenes"], "--psf", psf,
                        "--out", out]) == 3
            assert not os.path.exists(out)


@settings(max_examples=100, deadline=None)
@given(data=fuzz.FTKMDL)
def test_corrupt_model_exit_code(pipeline_dirs, data):
    with tempfile.TemporaryDirectory() as tmp:
        models = os.path.join(tmp, "models")
        shutil.copytree(pipeline_dirs["models"], models)
        path = os.path.join(models, "model_s00.ftkmdl")
        with open(path, "wb") as f:
            f.write(data)
        try:
            load_model(path)
        except FormatError:
            assert run(["eval", "--in", pipeline_dirs["recon"], "--models", models,
                        "--out", os.path.join(tmp, "eval")]) == 3


@settings(max_examples=100, deadline=None)
@given(data=fuzz.CONFIG)
def test_corrupt_config_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "exp.cfg"), os.path.join(tmp, "grid.csv")
        with open(path, "wb") as f:
            f.write(data)
        try:
            ExperimentConfig.load(path)
        except ConfigError:
            assert run(["grid-stats", "--config", path, "--out", out]) == 2
            assert not os.path.exists(out)


def _single_file_command(name, d, cfg):
    """The arguments, without --out, of a command that writes one file."""
    return {
        "gen-psf": ["gen-psf", "--config", cfg],
        "grid-stats": ["grid-stats", "--config", cfg],
        "grid-report": ["grid-report", "--in", os.path.join(d["eval"], "per_point.csv")],
        "compare-lensed": ["compare-lensed", "--in", d["scenes"], "--psf", d["psf"]],
        "bench": ["bench", "--model", os.path.join(d["models"], "model_s00.ftkmdl"),
                  "--psf", d["psf"], "--config", cfg],
    }[name]


@pytest.mark.parametrize("name", ["gen-psf", "grid-stats", "grid-report",
                                  "compare-lensed", "bench"])
def test_single_file_output_is_replaced_only_with_force(
        tmp_path, pipeline_dirs, small_cfg_file, counted_loads, name):
    out = tmp_path / "out"
    out.write_bytes(b"earlier")
    argv = _single_file_command(name, pipeline_dirs, small_cfg_file) + ["--out", str(out)]
    assert run(argv) == 3
    assert out.read_bytes() == b"earlier"
    assert counted_loads() == []  # refused before any frame is read
    assert run(argv + ["--force"]) == 0
    assert out.read_bytes() != b"earlier"


def test_grid_stats_cmd(tmp_path, small_cfg_file):
    out = str(tmp_path / "grid.csv")
    assert run(["grid-stats", "--config", small_cfg_file, "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 1 + 9


def test_config_key_set_twice_exit_code(tmp_path, small_cfg_file, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text(open(small_cfg_file).read() + "seed = 2\n")
    out = tmp_path / "grid.csv"
    assert run(["grid-stats", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'seed'" in err and "line 1" in err
    assert not out.exists()


def test_config_not_utf8_exit_code(tmp_path, small_cfg_file, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(open(small_cfg_file, "rb").read() + b"# \xff\n")
    out = tmp_path / "grid.csv"
    assert run(["grid-stats", "--config", str(path), "--out", str(out)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_not_utf8_exit_code(tmp_path, pipeline_dirs, capsys):
    ds = tmp_path / "recon"
    shutil.copytree(pipeline_dirs["recon"], ds)
    with open(ds / "manifest.csv", "ab") as f:
        f.write(b"\xff\xfe")
    assert run(["train", "--in", str(ds), "--out", str(tmp_path / "models")]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_per_point_csv_not_utf8_exit_code(tmp_path, pipeline_dirs, capsys):
    path = tmp_path / "per_point.csv"
    path.write_bytes(open(os.path.join(pipeline_dirs["eval"], "per_point.csv"), "rb").read()
                     + b"0,\xff,1.0,1\n")
    svg = tmp_path / "map.svg"
    assert run(["grid-report", "--in", str(path), "--out", str(svg)]) == 3
    assert "not UTF-8" in capsys.readouterr().err
    assert not svg.exists()


def test_manifest_with_an_oversized_field_exit_code(tmp_path, pipeline_dirs, capsys):
    ds = tmp_path / "recon"
    shutil.copytree(pipeline_dirs["recon"], ds)
    with open(ds / "manifest.csv", "a") as f:
        f.write("x" * 200_000 + "\n")
    assert run(["train", "--in", str(ds), "--out", str(tmp_path / "models")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_per_point_csv_with_an_oversized_field_exit_code(tmp_path, pipeline_dirs,
                                                         capsys):
    path = tmp_path / "per_point.csv"
    path.write_bytes(open(os.path.join(pipeline_dirs["eval"], "per_point.csv"), "rb").read()
                     + b"0," + b"1" * 200_000 + b",1.0,1\n")
    svg = tmp_path / "map.svg"
    assert run(["grid-report", "--in", str(path), "--out", str(svg)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not svg.exists()


def test_eval_force_keeps_a_dataset_in_its_out_dir(tmp_path, pipeline_dirs):
    out = tmp_path / "meas"
    shutil.copytree(pipeline_dirs["meas"], out)
    before = {name: sha(out / name) for name in ("manifest.csv", "config.cfg")}
    images = {name: sha(out / "images" / name) for name in os.listdir(out / "images")}
    assert run(["eval", "--in", pipeline_dirs["recon"], "--models",
                pipeline_dirs["models"], "--out", str(out), "--force"]) == 0
    assert {name: sha(out / name) for name in before} == before
    assert {name: sha(out / "images" / name)
            for name in os.listdir(out / "images")} == images
    assert read_manifest(str(out)).rows
    for name in ("report.csv", "per_point.csv"):
        assert sha(out / name) == sha(os.path.join(pipeline_dirs["eval"], name))


def test_eval_missing_model_exit_code(tmp_path, pipeline_dirs, counted_loads):
    models = tmp_path / "models"
    shutil.copytree(pipeline_dirs["models"], models)
    os.remove(models / "model_s01.ftkmdl")
    out = tmp_path / "eval"
    shutil.copytree(pipeline_dirs["eval"], out)
    before = {name: sha(out / name) for name in os.listdir(out)}
    assert run(["eval", "--in", pipeline_dirs["recon"], "--models", str(models),
                "--out", str(out), "--force"]) == 3
    # Every model is checked before --force removes the earlier report and
    # before any frame is read.
    assert counted_loads() == []
    assert {name: sha(out / name) for name in os.listdir(out)} == before


def test_eval_force_keeps_the_report_when_a_model_is_corrupt(tmp_path, pipeline_dirs,
                                                             counted_loads):
    models = tmp_path / "models"
    shutil.copytree(pipeline_dirs["models"], models)
    # A well-formed header over a NaN payload: only loading the model finds it.
    data = bytearray((models / "model_s01.ftkmdl").read_bytes())
    data[-4:] = np.float32(np.nan).tobytes()
    (models / "model_s01.ftkmdl").write_bytes(bytes(data))
    out = tmp_path / "eval"
    shutil.copytree(pipeline_dirs["eval"], out)
    before = {name: sha(out / name) for name in os.listdir(out)}
    assert {"report.csv", "per_point.csv", "latency.csv"} <= before.keys()
    assert run(["eval", "--in", pipeline_dirs["recon"], "--models", str(models),
                "--out", str(out), "--force"]) == 3
    assert counted_loads() == []
    assert {name: sha(out / name) for name in os.listdir(out)} == before


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_data_error_in_a_worker_exits_3(tmp_path, pipeline_dirs,
                                                 monkeypatch, threads):
    monkeypatch.setenv("FLATTRACK_THREADS", threads)
    scenes = tmp_path / "scenes"
    shutil.copytree(pipeline_dirs["scenes"], scenes)
    rows = read_manifest(str(scenes)).rows
    middle = scenes / rows[len(rows) // 2].image_path
    middle.write_bytes(middle.read_bytes()[:-7])
    out = tmp_path / "meas"
    assert run(["simulate", "--in", str(scenes), "--psf", pipeline_dirs["psf"],
                "--out", str(out)]) == 3
    assert not (out / "manifest.csv").exists()


def test_repeated_set_flags_override_in_order(tmp_path, small_cfg_file):
    out = tmp_path / "grid.csv"
    assert run(["grid-stats", "--config", small_cfg_file, "--set", "grid.rows=5",
                "--set", "grid.rows=4", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 4 * 3


def test_bench_cmd(tmp_path, small_cfg_file, pipeline_dirs):
    out = str(tmp_path / "bench.csv")
    assert run(["bench", "--model",
                os.path.join(pipeline_dirs["models"], "model_s00.ftkmdl"),
                "--psf", pipeline_dirs["psf"],
                "--config", small_cfg_file, "--out", out]) == 0
    with open(out) as f:
        rows = {r[0]: r[1:] for r in csv.reader(f)}
    assert set(rows) >= {"stage", "reconstruct", "downsample", "regress",
                         "total", "fps"}
    assert float(rows["fps"][0]) == pytest.approx(
        1000.0 / float(rows["total"][0]), rel=1e-9)


def test_bench_rejects_negative_warmup(tmp_path, small_cfg_file, pipeline_dirs):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--model",
                os.path.join(pipeline_dirs["models"], "model_s00.ftkmdl"),
                "--psf", pipeline_dirs["psf"], "--config", small_cfg_file,
                "--set", "bench.warmup=-1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["optics.noise_sigma_rel", "recon.gamma"])
def test_lensless_rejects_a_bad_setting_when_built(pipeline_dirs, key):
    cfg = read_manifest(pipeline_dirs["scenes"]).config
    cfg.set(key, -1.0)
    # Raised by building the camera, before it is given any sample.
    with pytest.raises(ConfigError):
        lensless(cfg, load_psf(pipeline_dirs["psf"]))


def test_lensless_is_the_camera_of_simulate_and_reconstruct(pipeline_dirs):
    scenes = read_manifest(pipeline_dirs["scenes"])
    meas = read_manifest(pipeline_dirs["meas"])
    recon = read_manifest(pipeline_dirs["recon"])
    # The commands ran without --config, so they used the scenes' config.
    measure, reconstruct = lensless(scenes.config, load_psf(pipeline_dirs["psf"]))
    written = {r.sample_id: load_image(os.path.join(meas.root, r.image_path))
               for r in meas.rows}
    for row in scenes.rows:
        s = scenes.load_sample(row)
        y = measure(s)
        assert y.stage == "measurement" and s.stage == "scene"
        assert (y.sample_id, y.subject_id, y.round_id, y.grid_i, y.grid_j) == (
            s.sample_id, s.subject_id, s.round_id, s.grid_i, s.grid_j)
        assert np.array_equal(y.gaze, s.gaze) and np.array_equal(y.screen_pt, s.screen_pt)
        assert y.image.dtype == np.float32
        assert np.array_equal(y.image, written[row.sample_id])
    written = {r.sample_id: load_image(os.path.join(recon.root, r.image_path))
               for r in recon.rows}
    for row in meas.rows:
        x = reconstruct(meas.load_sample(row))
        assert x.stage == "reconstruction"
        assert x.image.dtype == np.float32
        assert np.array_equal(x.image, written[row.sample_id])


def test_lensless_in_memory_is_the_cli_chain(pipeline_dirs):
    # Scene to reconstruction in memory gives the `reconstruct` command's
    # files, because each step hands on float32 as its file stores it.
    scenes = read_manifest(pipeline_dirs["scenes"])
    recon = read_manifest(pipeline_dirs["recon"])
    measure, reconstruct = lensless(scenes.config, load_psf(pipeline_dirs["psf"]))
    written = {r.sample_id: load_image(os.path.join(recon.root, r.image_path))
               for r in recon.rows}
    assert len(written) == len(scenes.rows)
    for row in scenes.rows:
        x = reconstruct(measure(scenes.load_sample(row))).image
        assert x.dtype == np.float32
        assert np.array_equal(x, written[row.sample_id])


def test_lensless_measurement_depends_on_the_sample_alone(pipeline_dirs):
    scenes = read_manifest(pipeline_dirs["scenes"])
    assert scenes.config["optics.noise_sigma_rel"] > 0  # the draws are checked
    measure, _ = lensless(scenes.config, load_psf(pipeline_dirs["psf"]))

    def measured(rows):
        return {r.sample_id: measure(scenes.load_sample(r)).image for r in rows}

    forward = measured(scenes.rows)
    backward = measured(reversed(scenes.rows))
    alone = measured(scenes.rows[::5])
    for sid, y in forward.items():
        assert np.array_equal(y, backward[sid])
    for sid, y in alone.items():
        assert np.array_equal(y, forward[sid])


def scene_arms(pipeline_dirs):
    """The scene rows, the config, and compare-lensed's two loads."""
    m = read_manifest(pipeline_dirs["scenes"])
    measure, reconstruct = lensless(m.config, load_psf(pipeline_dirs["psf"]))
    return m.rows, m.config, {
        "lensed": m.load_sample,
        "lensless": lambda row: reconstruct(measure(m.load_sample(row))),
    }


def protocol_bytes(result, prefix):
    """Every model's FTKMDL bytes and every held-out report of a protocol run;
    the models are saved at ``prefix``_<key>.ftkmdl."""
    models = {"base": result.base.model}
    models.update((sid, tr.model) for sid, tr in result.per_subject.items())
    out = {}
    for key, model in models.items():
        path = f"{prefix}_{key}.ftkmdl"
        save_model(model, path)
        with open(path, "rb") as f:
            out[key] = f.read()
    for sid, rep in result.reports.items():
        out[f"report_{sid}"] = (rep.errors_deg.tobytes(), rep.per_point,
                                rep.mean_err_deg, rep.n_unprojectable)
    return out


@pytest.mark.parametrize("arm", ["lensed", "lensless"])
def test_protocol_reads_each_row_once(pipeline_dirs, arm):
    rows, cfg, loads = scene_arms(pipeline_dirs)
    read = []

    def load(row):
        read.append(row.sample_id)
        return loads[arm](row)

    run_protocol(rows, cfg, load)
    # The pooled rows into the training planes, the held-out ones as scored.
    assert sorted(read) == sorted(r.sample_id for r in rows)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_protocol_over_rows_is_the_protocol_over_samples(tmp_path, pipeline_dirs,
                                                         monkeypatch, threads):
    monkeypatch.setenv("FLATTRACK_THREADS", threads)
    rows, cfg, loads = scene_arms(pipeline_dirs)
    for arm, load in loads.items():
        in_memory = run_protocol([load(r) for r in rows], cfg)
        streamed = run_protocol(rows, cfg, load)
        assert protocol_bytes(streamed, tmp_path / f"{arm}_rows") == \
            protocol_bytes(in_memory, tmp_path / arm)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_protocol_holds_at_most_the_frames_in_flight(pipeline_dirs, monkeypatch,
                                                     threads):
    # The loads run on the calling process at any worker count, each frame
    # reduced to its training plane or scored as it is read.
    monkeypatch.setenv("FLATTRACK_THREADS", threads)
    rows, cfg, loads = scene_arms(pipeline_dirs)
    assert len(rows) > 4
    caller = os.getpid()
    frames = []
    most_alive = 0

    def load(row):
        nonlocal most_alive
        assert os.getpid() == caller
        s = loads["lensless"](row)
        frames.append(weakref.ref(s.image))
        most_alive = max(most_alive, sum(f() is not None for f in frames))
        return s

    run_protocol(rows, cfg, load)
    assert len(frames) == len(rows)
    assert most_alive <= 2


def test_protocol_load_error_propagates_and_leaves_no_worker(pipeline_dirs,
                                                             monkeypatch):
    monkeypatch.setenv("FLATTRACK_THREADS", "2")
    rows, cfg, loads = scene_arms(pipeline_dirs)
    before = set(threading.enumerate())

    def load(row):
        if row is rows[4]:
            raise DataError("unreadable frame")
        return loads["lensed"](row)

    with pytest.raises(DataError, match="unreadable frame"):
        run_protocol(rows, cfg, load)
    assert set(threading.enumerate()) <= before


def test_compare_lensed_reads_each_scene_once_per_arm(tmp_path, pipeline_dirs,
                                                      counted_loads):
    assert run(["compare-lensed", "--in", pipeline_dirs["scenes"],
                "--psf", pipeline_dirs["psf"], "--out", str(tmp_path / "c.csv")]) == 0
    m = read_manifest(pipeline_dirs["scenes"])
    assert collections.Counter(counted_loads()) == collections.Counter(
        {os.path.join(m.root, r.image_path): 2 for r in m.rows})


@pytest.mark.parametrize("setting", ["train.batch_size=0", "train.lr=-1"])
def test_compare_lensed_checks_its_training_config_before_loading(
        tmp_path, pipeline_dirs, counted_loads, setting):
    assert run(["compare-lensed", "--in", pipeline_dirs["scenes"],
                "--psf", pipeline_dirs["psf"], "--out", str(tmp_path / "c.csv"),
                "--set", setting]) == 2
    assert counted_loads() == []


@pytest.mark.parametrize("out", ["nodir/c.csv", "."])
def test_compare_lensed_checks_out_before_loading(tmp_path, pipeline_dirs,
                                                  counted_loads, out):
    assert run(["compare-lensed", "--in", pipeline_dirs["scenes"],
                "--psf", pipeline_dirs["psf"], "--out", str(tmp_path / out)]) == 3
    assert counted_loads() == []
    assert os.listdir(tmp_path) == []


def test_compare_lensed_schema(tmp_path, small_cfg_file, pipeline_dirs):
    out = str(tmp_path / "lensed.csv")
    assert run(["compare-lensed", "--in", pipeline_dirs["scenes"],
                "--psf", pipeline_dirs["psf"], "--out", out,
                "--set", "optics.noise_sigma_rel=0"]) == 0
    with open(out) as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "subject,lensed_deg,lensless_deg"
    assert len([l for l in lines if l[0].isdigit()]) == 2


def test_pipeline_determinism(tmp_path, small_cfg_file):
    """Identical config+seed twice: hash-identical datasets, models, reports."""
    def one(tag):
        base = tmp_path / tag
        base.mkdir()
        d = {k: str(base / k) for k in ("scenes", "meas", "recon", "models", "eval")}
        psf = str(base / "psf.fltimg")
        assert run(["gen-psf", "--config", small_cfg_file, "--out", psf]) == 0
        assert run(["render-dataset", "--config", small_cfg_file,
                    "--out", d["scenes"]]) == 0
        assert run(["simulate", "--in", d["scenes"], "--psf", psf,
                    "--out", d["meas"]]) == 0
        assert run(["reconstruct", "--in", d["meas"], "--psf", psf,
                    "--out", d["recon"]]) == 0
        assert run(["train", "--in", d["recon"], "--out", d["models"]]) == 0
        assert run(["eval", "--in", d["recon"], "--models", d["models"],
                    "--out", d["eval"]]) == 0
        hashes = {}
        for sub in d.values():
            for dirpath, _, files in os.walk(sub):
                for fname in files:
                    if fname == "latency.csv":  # timing tables excluded
                        continue
                    full = os.path.join(dirpath, fname)
                    rel = os.path.relpath(full, base)
                    hashes[rel] = sha(full)
        hashes["psf.fltimg"] = sha(psf)
        return hashes

    h1 = one("run1")
    h2 = one("run2")
    assert h1 == h2
    assert len(h1) > 100  # images + manifests + models + reports


def test_no_command_loads_numpy_ma(small_cfg_file, tmp_path):
    # np.median, np.quantile and np.percentile load numpy.ma, which then
    # stays resident (1.25 MB after import flattrack.cli). In its own
    # interpreter, with a timeout, so this process's imports do not count.
    d = {k: str(tmp_path / k) for k in ("psf", "scenes", "meas", "recon",
                                         "models", "eval", "latency.csv")}
    commands = [
        ["gen-psf", "--config", small_cfg_file, "--out", d["psf"]],
        ["render-dataset", "--config", small_cfg_file, "--out", d["scenes"]],
        ["simulate", "--in", d["scenes"], "--psf", d["psf"], "--out", d["meas"]],
        ["reconstruct", "--in", d["meas"], "--psf", d["psf"], "--out", d["recon"]],
        ["train", "--in", d["recon"], "--out", d["models"]],
        ["eval", "--in", d["recon"], "--models", d["models"], "--out", d["eval"],
         "--psf", d["psf"]],
        ["bench", "--config", small_cfg_file, "--psf", d["psf"], "--out",
         d["latency.csv"], "--model", os.path.join(d["models"], "model_s00.ftkmdl")],
    ]
    code = ("import sys\n"
            "from flattrack.cli import main\n"
            f"for args in {commands!r}:\n"
            "    assert main(args) == 0, args\n"
            "    assert 'numpy.ma' not in sys.modules, args[0]\n"
            "print('numpy.ma never loaded')\n")
    import flattrack
    src = os.path.dirname(os.path.dirname(os.path.abspath(flattrack.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert "numpy.ma never loaded" in proc.stdout


def test_console_entry_point(small_cfg_file, tmp_path):
    import flattrack
    out = str(tmp_path / "g.csv")
    # The child imports flattrack from where this process did.
    src = os.path.dirname(os.path.dirname(os.path.abspath(flattrack.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "flattrack.cli", "grid-stats",
         "--config", small_cfg_file, "--out", out],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert os.path.isfile(out)


def test_threads_env_gives_identical_results(tmp_path, small_cfg_file, pipeline_dirs):
    out = str(tmp_path / "meas_mt")
    env_before = os.environ.get("FLATTRACK_THREADS")
    os.environ["FLATTRACK_THREADS"] = "2"
    try:
        assert run(["simulate", "--in", pipeline_dirs["scenes"],
                    "--psf", pipeline_dirs["psf"], "--out", out]) == 0
    finally:
        if env_before is None:
            os.environ.pop("FLATTRACK_THREADS", None)
        else:
            os.environ["FLATTRACK_THREADS"] = env_before
    a = read_manifest(out)
    b = read_manifest(pipeline_dirs["meas"])
    for ra, rb in zip(a.rows, b.rows):
        assert ra.sample_id == rb.sample_id
        assert sha(os.path.join(a.root, ra.image_path)) == \
            sha(os.path.join(b.root, rb.image_path))
