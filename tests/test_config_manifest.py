import contextlib
import hashlib
import math
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flattrack.config import SCHEMA, ExperimentConfig
from flattrack.errors import ConfigError, DataError, FlatTrackError
from flattrack.eyesim import EyeRenderParams, render_round
from flattrack.geometry import CalibratedScreen, GridSpec
from flattrack.manifest import read_manifest, save_sample, write_rows
from flattrack.optics import ContourPsfParams, NoiseModel
from flattrack.pipeline import (aggregate_per_point, partition_samples, read,
                                seed_for_sample, split_train_val)
from flattrack.reconstruct import WienerConfig
from flattrack.regressor import TrainConfig
from flattrack.report import (read_per_point_csv, read_table, write_grid_error_svg,
                              write_per_point_csv, write_table)
from flattrack.seeds import make_rng
from flattrack.workers import parallel_map, worker_count
import fuzz


def small_config():
    cfg = ExperimentConfig.default()
    cfg.set("grid.rows", 3)
    cfg.set("grid.cols", 3)
    cfg.set("grid.spacing_x_px", 200.0)
    cfg.set("grid.spacing_y_px", 150.0)
    cfg.set("grid.origin_x_px", 760.0)
    cfg.set("grid.origin_y_px", 390.0)
    cfg.set("render.image_h", 32)
    cfg.set("render.image_w", 32)
    cfg.set("render.camera_scale_px_per_mm", 1.0)
    cfg.set("render.light_x_px", 15.5)
    cfg.set("render.light_y_px", 15.5)
    cfg.set("dataset.subjects", 2)
    cfg.set("dataset.rounds", 2)
    return cfg


def small_samples(cfg, subjects=2, rounds=2):
    out = []
    for sid in range(subjects):
        for rid in range(rounds):
            out.extend(render_round(cfg.grid(), cfg.screen(), cfg.render_params(),
                                    sid, rid, 1, cfg["seed"]))
    return out


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_defaults_round_trip(tmp_path):
    cfg = ExperimentConfig.default()
    path = tmp_path / "exp.cfg"
    cfg.save(path)
    # Pins every key, its order and its default.
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e33c4ac2b85ce5887052a6bdc067681454bd58a89de56e39cf66e64ba44dd6e0")
    back = ExperimentConfig.load(path)
    assert back.values == cfg.values


def test_config_parse_comments_and_types(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "seed = 7   # trailing comment\n"
        "recon.clip01 = false\n"
        "train.lr = 2e-3\n"
        "\n")
    cfg = ExperimentConfig.load(path)
    assert cfg["seed"] == 7
    assert cfg["recon.clip01"] is False
    assert cfg["train.lr"] == 2e-3
    assert cfg["grid.rows"] == 15  # untouched default


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("no.such.key = 5\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(path)
    cfg = ExperimentConfig.default()
    with pytest.raises(ConfigError):
        cfg.set("whatever", 1)
    with pytest.raises(ConfigError):
        cfg["nope"]


def test_config_rejects_bad_values(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = notanumber\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(path)
    path.write_text("seed 7\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(path)
    # Non-finite floats: NaN would pass every range check and, as gamma,
    # never hit the Psf's Wiener cache.
    for text in ("recon.gamma = nan\n", "train.lr = inf\n", "recon.gamma = -inf\n"):
        path.write_text(text)
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)
    cfg = ExperimentConfig.default()
    for key, value in (("recon.gamma", "nan"), ("recon.gamma", float("inf")),
                       ("train.lr", float("nan"))):
        with pytest.raises(ConfigError):
            cfg.set(key, value)
    assert cfg.values == ExperimentConfig.default().values


def test_config_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 1\n# comment\ntrain.lr = 2e-3\nseed = 2\n")
    with pytest.raises(ConfigError, match=r"exp\.cfg:4: key 'seed' .* line 1"):
        ExperimentConfig.load(path)
    # The same value twice is still a second setting of the key.
    path.write_text("grid.rows = 3\ngrid.rows = 3\n")
    with pytest.raises(ConfigError, match="grid.rows"):
        ExperimentConfig.load(path)


def test_config_builders_cover_schema():
    cfg = ExperimentConfig.default()
    # Given only the fields a builder fills itself, each stage dataclass's
    # own defaults must equal the default config's.
    assert cfg.screen() == CalibratedScreen()
    assert cfg.grid() == GridSpec()
    assert cfg.render_params() == EyeRenderParams()
    assert cfg.psf_params() == ContourPsfParams()
    assert cfg.noise_model() == NoiseModel()
    assert cfg.wiener_config() == WienerConfig(output_h=128, output_w=128)
    assert cfg.train_config() == TrainConfig(seed=12345)
    assert cfg.train_config(finetune=True) == TrainConfig(seed=12345)
    assert cfg.wiener_config().gamma == 1e-5
    tc = cfg.train_config()
    assert tc.epochs == 50 and tc.weight_decay == 5e-4 and tc.lr == 1e-4
    assert tc.lr_decay == 0.5 and tc.lr_step_epochs == 5


def test_every_schema_key_has_matching_default_type():
    for key, (typ, default) in SCHEMA.items():
        assert isinstance(default, typ), key


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    cfg = small_config()
    samples = small_samples(cfg)
    root = str(tmp_path / "ds")
    write_rows(root, [save_sample(root, s) for s in samples], cfg)
    back = read_manifest(root)
    assert len(back) == len(samples) == 36
    loaded = back.load_sample(back.rows[5])
    assert np.array_equal(loaded.image.astype(np.float32),
                          samples[5].image.astype(np.float32))
    assert np.max(np.abs(loaded.gaze - samples[5].gaze)) < 1e-15


def test_sidecar_with_the_removed_recon_method_key_fails_to_load(tmp_path):
    cfg = small_config()
    root = str(tmp_path / "ds")
    samples = small_samples(cfg, subjects=1, rounds=1)
    write_rows(root, [save_sample(root, s) for s in samples], cfg)
    with open(tmp_path / "ds" / "config.cfg", "a") as f:
        f.write("recon.method = wiener\n")
    with pytest.raises(ConfigError, match="recon.method"):
        read_manifest(root)


def test_manifest_detects_broken_path(tmp_path):
    cfg = small_config()
    samples = small_samples(cfg, subjects=1, rounds=1)
    root = str(tmp_path / "ds")
    write_rows(root, [save_sample(root, s) for s in samples], cfg)
    victim = tmp_path / "ds" / "images" / f"{samples[3].sample_id}_scene.fltimg"
    victim.unlink()
    with pytest.raises(DataError):
        read_manifest(root)


def test_manifest_detects_label_mismatch(tmp_path):
    cfg = small_config()
    samples = small_samples(cfg, subjects=1, rounds=1)
    samples[0].gaze = np.array([0.0, 0.0, 1.0])  # no longer matches screen_pt
    root = str(tmp_path / "ds")
    write_rows(root, [save_sample(root, s) for s in samples], cfg)
    with pytest.raises(DataError):
        read_manifest(root)


def test_manifest_detects_duplicate_ids(tmp_path):
    cfg = small_config()
    samples = small_samples(cfg, subjects=1, rounds=1)
    samples[1].sample_id = samples[0].sample_id
    samples[1].grid_i = samples[0].grid_i
    samples[1].grid_j = samples[0].grid_j
    samples[1].screen_pt = samples[0].screen_pt
    samples[1].gaze = samples[0].gaze
    root = str(tmp_path / "ds")
    write_rows(root, [save_sample(root, s) for s in samples], cfg)
    with pytest.raises(DataError):
        read_manifest(root)


@pytest.mark.parametrize("bad_path", [
    "ABS",  # an absolute path to an image of another dataset
    "../other/images/{name}",
    "images/../../other/images/{name}",
    "images/sub/{name}",
    "{name}",
    "images/{stem}.png",
    "images/.fltimg",
])
def test_manifest_rejects_image_paths_outside_images(tmp_path, bad_path):
    cfg = small_config()
    samples = small_samples(cfg, subjects=1, rounds=1)
    other = str(tmp_path / "other")
    write_rows(other, [save_sample(other, s) for s in samples], cfg)
    root = str(tmp_path / "ds")
    rows = [save_sample(root, s) for s in samples]
    name = rows[4].image_path.split("/")[-1]
    rows[4].image_path = (os.path.join(other, rows[4].image_path) if bad_path == "ABS"
                          else bad_path.format(name=name, stem=name.split(".")[0]))
    write_rows(root, rows, cfg)
    with pytest.raises(DataError, match="image path"):
        read_manifest(root)
    with pytest.raises(DataError, match="image path"):
        read_manifest(root, validate=False)


@pytest.mark.parametrize("field, k", [("gaze", 0), ("gaze", 2),
                                      ("screen_pt", 0), ("screen_pt", 1)])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_manifest_rejects_non_finite_labels(tmp_path, field, k, bad):
    cfg = small_config()
    samples = small_samples(cfg, subjects=1, rounds=1)
    label = getattr(samples[2], field).copy()
    label[k] = bad
    setattr(samples[2], field, label)
    root = str(tmp_path / "ds")
    write_rows(root, [save_sample(root, s) for s in samples], cfg)
    with pytest.raises(DataError, match="non-finite"):
        read_manifest(root)


def test_manifest_missing_files(tmp_path):
    with pytest.raises(DataError):
        read_manifest(str(tmp_path / "nothere"))


# ---------------------------------------------------------------------------
# protocol partition
# ---------------------------------------------------------------------------

def test_partition_holds_out_last_round_disjointly():
    cfg = small_config()
    cfg.set("dataset.rounds", 3)
    samples = small_samples(cfg, subjects=2, rounds=3)
    split = partition_samples(samples, cfg)
    held_ids = {s.sample_id for ss in split.heldout.values() for s in ss}
    train_ids = {s.sample_id for s in split.train_pool}
    val_ids = {s.sample_id for s in split.val_pool}
    assert held_ids.isdisjoint(train_ids)
    assert held_ids.isdisjoint(val_ids)
    assert train_ids.isdisjoint(val_ids)
    for sid, ss in split.heldout.items():
        assert {s.round_id for s in ss} == {2}
        assert len(ss) == 9
    n_rest = len(samples) - len(held_ids)
    assert abs(len(train_ids) - round(0.8 * n_rest)) <= 1
    # per-subject fine-tune splits stay inside the subject and off the held-out round
    for sid, (tr, va) in split.per_subject.items():
        assert all(s.subject_id == sid for s in tr + va)
        assert all(s.round_id != 2 for s in tr + va)


def test_partition_deterministic():
    cfg = small_config()
    samples = small_samples(cfg)
    a = partition_samples(samples, cfg)
    b = partition_samples(samples, cfg)
    assert [s.sample_id for s in a.train_pool] == [s.sample_id for s in b.train_pool]


def test_partition_respects_configured_round():
    cfg = small_config()
    cfg.set("train.holdout_round", 0)
    samples = small_samples(cfg)
    split = partition_samples(samples, cfg)
    for ss in split.heldout.values():
        assert {s.round_id for s in ss} == {0}
    cfg.set("train.holdout_round", 9)
    with pytest.raises(DataError):
        partition_samples(samples, cfg)


def test_partition_needs_two_rounds():
    cfg = small_config()
    samples = small_samples(cfg, subjects=1, rounds=1)
    with pytest.raises(DataError):
        partition_samples(samples, cfg)


def test_split_sizes():
    rng = make_rng(0)
    items = list(range(100))
    tr, va = split_train_val(items, 0.8, rng)
    assert len(tr) == 80 and len(va) == 20
    assert sorted(tr + va) == items
    tr, va = split_train_val(list(range(3)), 0.9, rng)
    assert len(va) >= 1


def test_seed_for_sample_stable():
    assert seed_for_sample(1, 2, "abc") == seed_for_sample(1, 2, "abc")
    assert seed_for_sample(1, 2, "abc") != seed_for_sample(1, 2, "abd")
    assert seed_for_sample(2, 2, "abc") != seed_for_sample(1, 2, "abc")


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("FLATTRACK_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("FLATTRACK_THREADS", "4")
    assert worker_count() == 4
    for bad in ("zebra", "0", "-4"):
        monkeypatch.setenv("FLATTRACK_THREADS", bad)
        with pytest.raises(ConfigError):
            worker_count()


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_imap_keeps_order_and_bounds_the_results_alive(monkeypatch, threads):
    monkeypatch.setenv("FLATTRACK_THREADS", threads)
    # The first items are the slowest, so later chunks finish first.
    got = parallel_map(lambda i: (time.sleep(0.002 * (i < 4)), i * i)[1], range(40))
    assert got == [i * i for i in range(40)]
    assert no_child_left()
    # read runs each load on the calling process as its result is consumed,
    # at any worker count: the consumer's frame and the next one at most.
    made = []
    most_alive = 0

    def load(i):
        nonlocal most_alive
        assert os.getpid() == caller
        frame = np.full(4, float(i))
        made.append(weakref.ref(frame))
        most_alive = max(most_alive, sum(r() is not None for r in made))
        return frame

    caller = os.getpid()
    assert [float(frame[0]) for frame in read(range(40), load)] == list(range(40))
    assert most_alive <= 2


def test_imap_error_propagates_and_stops_the_pool(monkeypatch):
    monkeypatch.setenv("FLATTRACK_THREADS", "2")

    def load(i):
        if i == 5:
            raise DataError("load failed")
        return i

    # A worker's error reaches the caller with its type, so the CLI gives
    # it the same exit code as at one worker, and every worker is gone.
    with pytest.raises(DataError, match="load failed"):
        parallel_map(load, range(100))
    assert no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked through os.fork."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def test_parallel_map_forks_at_most_one_worker_per_item(monkeypatch, forks):
    monkeypatch.setenv("FLATTRACK_THREADS", "10000")
    assert parallel_map(lambda i: i + 1, range(3)) == [1, 2, 3]
    assert len(forks) == 3
    assert no_child_left()


def test_parallel_map_refuses_to_fork_beside_a_thread(monkeypatch, forks):
    monkeypatch.setenv("FLATTRACK_THREADS", "2")
    stop = threading.Event()
    t = threading.Thread(target=stop.wait, args=(10,))
    t.start()
    try:
        with pytest.raises(FlatTrackError, match="other threads"):
            parallel_map(abs, range(4))
    finally:
        stop.set()
        t.join(timeout=10)
    assert not t.is_alive()
    assert forks == []
    assert parallel_map(abs, range(-2, 2)) == [2, 1, 0, 1]  # once it has stopped
    assert len(forks) == 2


def test_parallel_map_worker_killed_by_a_signal_fails_the_call():
    # In its own interpreter, with a timeout, so a hang fails the test.
    code = (
        "import os, signal\n"
        "from flattrack.errors import FlatTrackError\n"
        "from flattrack.workers import parallel_map\n"
        "def fn(i):\n"
        "    if i == 2:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return i\n"
        "try:\n"
        "    parallel_map(fn, range(8))\n"
        "except FlatTrackError as e:\n"
        "    print('raised:', e)\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n")
    # The child imports flattrack from where this process did.
    import flattrack
    src = os.path.dirname(os.path.dirname(os.path.abspath(flattrack.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, FLATTRACK_THREADS="2", PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert "raised: worker process" in proc.stdout
    assert "killed by SIGKILL" in proc.stdout
    assert "no child left" in proc.stdout


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072e-308, math.inf, -math.inf, math.nan]))


def _same_float(a: float, b: float) -> bool:
    """Equal bit for bit; any NaN matches any NaN, as ``repr`` writes
    every NaN as ``nan``."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(), _TEXT, _FLOATS, _FLOATS)), st.booleans())
def test_table_round_trip(rows, numpy_cells):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        # A numpy float64 cell is a float, and is written as one.
        write_table(path, ["n", "s", "x", "y"],
                    [(n, s, x, np.float64(y) if numpy_cells else y)
                     for n, s, x, y in rows])
        back = read_table(path, ["n", "s", "x", "y"])
    assert len(back) == len(rows)
    for rec, (n, s, x, y) in zip(back, rows):
        assert int(rec[0]) == n and rec[1] == s
        assert _same_float(float(rec[2]), x) and _same_float(float(rec[3]), y)


@pytest.mark.parametrize("text, match", [
    (b"a,c\r\n1,2\r\n", "unexpected columns"),
    (b"", "unexpected columns"),
    (b"a,b\r\n1,2,3\r\n", "bad row"),
    (b"a,b\r\n1\r\n", "bad row"),
    (b"a,b\r\n\r\n", "bad row"),
    (b"a,b\r\n1,\xff\r\n", "not UTF-8"),
    (b"a,b\r\n1,\"2\r\n", "not a CSV table"),
    (b"a,b\r\n1,\"2\"x\r\n", "not a CSV table"),
    (b"a,b\r\n1,2" + b"0" * 200_000 + b"\r\n", "not a CSV table"),
])
def test_read_table_rejects_malformed_tables(tmp_path, text, match):
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    with pytest.raises(DataError, match=match):
        read_table(path, ["a", "b"])


_MANIFEST_HEADER = (b"sample_id,subject_id,round_id,grid_i,grid_j,image_path,stage,"
                    b"gaze_x,gaze_y,gaze_z,screen_x_px,screen_y_px\r\n")
_PER_POINT_HEADER = b"i,j,mean_err_deg,count\r\n"


def _csv_bytes(header: bytes):
    """Any bytes, any bytes after a table's header, and rows of the
    characters a table is made of."""
    rows = st.text(st.sampled_from('0123456789.,-+"einfa_/sgm \r\n\x00'))
    return st.one_of(st.binary(), st.binary().map(lambda b: header + b),
                     rows.map(lambda t: header + t.encode()))


@settings(max_examples=300, deadline=None)
@given(_csv_bytes(_MANIFEST_HEADER))
def test_manifest_parser_fails_closed(data):
    with tempfile.TemporaryDirectory() as root:
        small_config().save(os.path.join(root, "config.cfg"))
        with open(os.path.join(root, "manifest.csv"), "wb") as f:
            f.write(data)
        with contextlib.suppress(DataError):
            read_manifest(root)


@settings(max_examples=300, deadline=None)
@given(_csv_bytes(_PER_POINT_HEADER))
def test_per_point_parser_fails_closed(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "per_point.csv")
        with open(path, "wb") as f:
            f.write(data)
        with contextlib.suppress(DataError):
            read_per_point_csv(path)


@settings(max_examples=300, deadline=None)
@given(fuzz.CONFIG)
def test_config_parser_fails_closed(data):
    # A ConfigError, or a config whose every value has its key's type and
    # every float is finite.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "wb") as f:
            f.write(data)
        try:
            cfg = ExperimentConfig.load(path)
        except ConfigError:
            return
    for key, (typ, _) in SCHEMA.items():
        assert isinstance(cfg[key], typ)
        assert typ is not float or math.isfinite(cfg[key])


def test_per_point_csv_round_trip(tmp_path):
    table = {(0, 0): (1.5, 3), (0, 1): (0.5, 3), (1, 0): (2.25, 2), (1, 1): (0.0, 4)}
    path = tmp_path / "pp.csv"
    write_per_point_csv(table, path)
    assert read_per_point_csv(path) == table


@pytest.mark.parametrize("row", ["1,0,nan,3", "1,0,inf,3", "1,0,-0.5,3",
                                 "1,0,1.5,0", "1,0,1.5,-2", "-1,0,1.5,3",
                                 "1,-2,1.5,3", "0,1,1.5,3", "1,0,1.0,1,extra"])
def test_per_point_csv_rejects_bad_rows(tmp_path, row):
    path = tmp_path / "pp.csv"
    write_per_point_csv({(0, 0): (1.0, 3), (0, 1): (2.0, 3)}, path)
    with open(path, "a") as f:
        f.write(row + "\n")
    with pytest.raises(DataError):
        read_per_point_csv(path)


def test_grid_error_svg(tmp_path):
    table = {(i, j): (float(i + j), 2) for i in range(15) for j in range(15)}
    path = tmp_path / "map.svg"
    write_grid_error_svg(table, path)
    text = path.read_text()
    assert text.count("<circle") == 225
    # equal errors draw equal radii
    eq = {(i, j): (2.0, 1) for i in range(2) for j in range(2)}
    write_grid_error_svg(eq, path)
    radii = {line.split('r="')[1].split('"')[0]
             for line in path.read_text().splitlines() if "<circle" in line}
    assert len(radii) == 1
    # zero error keeps the documented minimum radius
    zero = {(0, 0): (0.0, 1), (0, 1): (0.0, 1)}
    write_grid_error_svg(zero, path)
    assert 'r="2.000"' in path.read_text()


def test_aggregate_per_point_weighting():
    from flattrack.regressor import EvalReport

    def rep(err, n):
        return EvalReport(errors_deg=np.full(n, err), mean_err_deg=err,
                          min_err_deg=err, per_point={(0, 0): (err, n)},
                          n_unprojectable=0)

    agg = aggregate_per_point({0: rep(1.0, 1), 1: rep(4.0, 3)})
    assert agg[(0, 0)] == (pytest.approx(3.25), 4)
