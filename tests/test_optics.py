import gc
import hashlib
import os
import sys
import tempfile
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flattrack.errors import ConfigError, FormatError, NumericalError
from flattrack.optics import (ContourPsfParams, NoiseModel, Psf,
                              _fft_workspace, fft_conv_shape, full_convolve,
                              generate_contour_psf, load_image, load_psf,
                              next_fast_len, save_image, save_psf,
                              simulate_measurement, spectral_flatness_ratio)
from flattrack.reconstruct import WienerConfig, wiener_deconvolve
from flattrack.workers import parallel_map
from flattrack.seeds import make_rng, mix_seed, splitmix64
import fuzz
from oracles import convolve_direct, fltimg_bytes


def rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_splitmix_is_deterministic_and_spread():
    assert splitmix64(0) == splitmix64(0)
    vals = {splitmix64(i) for i in range(1000)}
    assert len(vals) == 1000
    assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_full_convolve_known_instance():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    expect = np.array([[1, 2, 0], [3, 5, 2], [0, 3, 4]], dtype=float)
    got = full_convolve(x, p)
    assert got.shape == (3, 3)
    assert rel_err(got, expect) < 1e-9
    assert rel_err(convolve_direct(x, p), expect) == 0.0


def test_identity_psf_is_identity():
    rng = np.random.default_rng(0)
    x = rng.random((9, 13))
    assert rel_err(full_convolve(x, np.array([[1.0]])), x) < 1e-12


def test_convolution_commutes():
    rng = np.random.default_rng(1)
    x = rng.random((6, 7))
    p = rng.random((3, 5))
    assert rel_err(full_convolve(x, p), full_convolve(p, x)) < 1e-9


def test_fft_matches_direct_summation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        hx, wx = rng.integers(1, 33, size=2)
        hp, wp = rng.integers(1, 33, size=2)
        x = rng.standard_normal((hx, wx))
        p = rng.standard_normal((hp, wp))
        assert rel_err(full_convolve(x, p), convolve_direct(x, p)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
       st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_fft_matches_direct_summation_property(hx, wx, hp, wp, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((hx, wx))
    p = rng.standard_normal((hp, wp))
    assert rel_err(full_convolve(x, p), convolve_direct(x, p)) < 1e-9
    # A nonnegative PSF as a Psf: the first call fills its spectrum cache,
    # the second reads it.
    psf = Psf(np.abs(p))
    first = full_convolve(x, psf)
    assert np.array_equal(full_convolve(x, psf), first)
    assert rel_err(first, convolve_direct(x, np.abs(p))) < 1e-9


def test_linearity():
    rng = np.random.default_rng(3)
    x1 = rng.random((8, 8))
    x2 = rng.random((8, 8))
    p = rng.random((5, 5))
    a, b = 2.5, -1.25
    lhs = full_convolve(a * x1 + b * x2, p)
    rhs = a * full_convolve(x1, p) + b * full_convolve(x2, p)
    assert rel_err(lhs, rhs) < 1e-9


def test_energy_conservation_with_normalized_psf():
    rng = np.random.default_rng(4)
    x = rng.random((20, 20))
    d = rng.random((7, 7))
    p = Psf(d / d.sum())
    y = full_convolve(x, p)
    assert abs(y.sum() - x.sum()) / x.sum() < 1e-6


def test_next_fast_len():
    assert [next_fast_len(n) for n in (1, 2, 7, 11, 17, 97, 255)] == \
        [1, 2, 8, 12, 18, 100, 256]


def test_convolve_rejects_bad_input():
    with pytest.raises(ConfigError):
        full_convolve(np.zeros((0, 3)), np.ones((2, 2)))
    with pytest.raises(NumericalError):
        full_convolve(np.array([[np.nan]]), np.ones((2, 2)))


def test_results_do_not_share_the_fft_workspace():
    # The transforms run through one reused buffer pair per Psf and thread;
    # each result must still be a fresh array that a later call leaves alone.
    rng = np.random.default_rng(8)
    p = Psf(rng.random((9, 7)))
    x1, x2 = rng.random((24, 30)), rng.random((24, 30))
    for run in (lambda x: full_convolve(x, p),
                lambda x: simulate_measurement(x, p, NoiseModel(), 4)):
        first = run(x1)
        kept = first.copy()
        second = run(x2)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert np.array_equal(run(x1), kept)


def test_fft_workspace_is_per_thread_and_per_psf():
    grid = (30, 40)
    rng = np.random.default_rng(3)
    p, q = Psf(rng.random((5, 5))), Psf(rng.random((5, 5)))
    a, b = _fft_workspace(p, grid)
    assert a.shape == b.shape == (30, 21)
    assert _fft_workspace(p, grid)[0] is a
    got = {}
    # Both threads stay alive until both have grabbed: a finished thread's
    # id, and so its buffers, may go to the next thread.
    both = threading.Barrier(2)

    def grab(k):
        got[k] = _fft_workspace(p, grid)
        both.wait(timeout=10)

    threads = [threading.Thread(target=grab, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    buffers = [a, b, *_fft_workspace(q, grid), *got[0], *got[1]]
    for i, x in enumerate(buffers):
        for y in buffers[i + 1:]:
            assert not np.shares_memory(x, y)
    # A thread keeps the pair of its last grid only, and the next new pair
    # frees the pairs of threads that have ended.
    kept = [weakref.ref(x) for x in (a, *got[0], *got[1])]
    del a, b, got, buffers, x, y
    assert _fft_workspace(p, (32, 32))[0].shape == (32, 17)
    gc.collect()
    assert all(ref() is None for ref in kept)


def test_fft_workspace_dies_with_its_psf():
    rng = np.random.default_rng(12)
    x, data = rng.random((24, 30)), rng.random((9, 7))
    grid = fft_conv_shape(32, 36)
    p = Psf(data)
    full_convolve(x, p)
    kept = weakref.ref(_fft_workspace(p, grid)[0])
    gc.collect()
    assert kept() is not None
    del p
    gc.collect()
    assert kept() is None
    # A raw-array PSF caches nothing: each call gets fresh buffers, which
    # nothing keeps.
    full_convolve(x, data)
    fresh = _fft_workspace(data, grid)[0]
    assert _fft_workspace(data, grid)[0] is not fresh
    kept = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert kept() is None


def test_threads_sharing_one_psf_match_the_serial_outputs():
    # Four threads on two cores, switching often, run both per-frame
    # kernels on one Psf; a buffer shared between them would corrupt them.
    rng = np.random.default_rng(13)
    p = Psf(rng.random((16, 16)))
    scenes = [rng.random((48, 48)) for _ in range(8)]
    noise = NoiseModel("gaussian", 1e-2)
    cfg = WienerConfig(1e-3, 48, 48)

    def frame(k):
        y = simulate_measurement(scenes[k], p, noise, k)
        return y, wiener_deconvolve(y, p, cfg)

    serial = [frame(k) for k in range(len(scenes))]
    got = {}

    def work(t):
        got[t] = [frame(k) for _ in range(3) for k in range(len(scenes))]

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for t in range(4):
        for (y, x), (want_y, want_x) in zip(got[t], serial * 3):
            assert np.array_equal(y, want_y) and np.array_equal(x, want_x)


# ---------------------------------------------------------------------------
# measurement simulation
# ---------------------------------------------------------------------------

def test_simulate_same_under_parallel_map(monkeypatch):
    rng = np.random.default_rng(9)
    p = Psf(rng.random((32, 32)))
    scenes = [rng.random((96, 96)) for _ in range(16)]
    noise = NoiseModel("gaussian", 1e-2)
    serial = [simulate_measurement(x, p, noise, k) for k, x in enumerate(scenes)]
    for workers in ("2", "4"):
        monkeypatch.setenv("FLATTRACK_THREADS", workers)
        parallel = parallel_map(
            lambda k: simulate_measurement(scenes[k], p, noise, k),
            range(len(scenes)))
        for a, b in zip(parallel, serial):
            assert np.array_equal(a, b)


def test_simulate_noise_off_matches_convolution():
    rng = np.random.default_rng(5)
    x = rng.random((12, 12))
    d = rng.random((5, 5))
    p = Psf(d / d.sum())
    y0 = full_convolve(x, p).astype(np.float32)
    assert np.array_equal(simulate_measurement(x, p, NoiseModel("none", 0.0), 1), y0)
    assert np.array_equal(
        simulate_measurement(x, p, NoiseModel("gaussian", 0.0), 1), y0)


def test_simulate_rejects_a_measurement_beyond_float32():
    p = Psf(np.ones((3, 3)) / 9)
    with pytest.raises(NumericalError):
        simulate_measurement(np.full((8, 8), 1e300), p, NoiseModel(), 1)


def test_float32_frames_convolve_as_float64():
    rng = np.random.default_rng(31)
    for scene, kernel in [((128, 128), (128, 128)), ((64, 96), (65, 33)),
                          ((12, 12), (5, 5))]:
        x = rng.random(scene).astype(np.float32)
        p = Psf(rng.random(kernel))
        y = full_convolve(x, p)
        assert y.dtype == np.float64
        assert np.array_equal(y, full_convolve(x.astype(float), p))
        assert np.array_equal(full_convolve(x, p.data.astype(np.float32)),
                              full_convolve(x, p.data.astype(np.float32).astype(float)))


def test_simulate_deterministic_per_seed():
    rng = np.random.default_rng(6)
    x = rng.random((16, 16))
    d = rng.random((5, 5))
    p = Psf(d / d.sum())
    n = NoiseModel("gaussian", 1e-2)
    y1 = simulate_measurement(x, p, n, 99)
    y2 = simulate_measurement(x, p, n, 99)
    y3 = simulate_measurement(x, p, n, 100)
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)


def test_simulate_equals_the_plain_formula():
    # The noise is drawn in place into the FFT workspace; the measurement
    # stays the convolution plus rng.normal(0, sigma), bit for bit.
    rng = np.random.default_rng(13)
    noise = NoiseModel("gaussian", 5e-3)
    for scene, kernel in [((128, 128), (128, 128)), ((64, 96), (65, 33)),
                          ((12, 12), (5, 5))]:
        x = rng.random(scene).astype(np.float32)
        p = Psf(rng.random(kernel))
        y0 = full_convolve(x, p)
        sigma = noise.sigma_rel * float(np.max(y0))
        expected = (y0 + make_rng(7).normal(0.0, sigma, size=y0.shape)).astype(np.float32)
        assert np.array_equal(simulate_measurement(x, p, noise, 7), expected)


def test_simulate_noise_level():
    # Empirical std of the injected noise within 2% of sigma_rel * max(Y).
    rng = np.random.default_rng(7)
    x = rng.random((320, 320))
    d = rng.random((9, 9))
    p = Psf(d / d.sum())
    y0 = full_convolve(x, p)
    y = simulate_measurement(x, p, NoiseModel("gaussian", 1e-2), 12345)
    noise = y - y0
    assert noise.size >= 10**5
    target = 1e-2 * y0.max()
    assert abs(noise.std() - target) / target < 0.02


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel("poisson", 0.1)
    with pytest.raises(ConfigError):
        NoiseModel("gaussian", 1.5)


# ---------------------------------------------------------------------------
# contour psf
# ---------------------------------------------------------------------------

def test_contour_psf_contract():
    p = generate_contour_psf(64, 64, ContourPsfParams(), seed=7)
    assert abs(p.data.sum() - 1.0) < 1e-9
    assert p.data.min() >= 0.0
    fill = float(np.mean(p.data > 0))
    assert 0.8 * 0.15 <= fill <= 1.2 * 0.15


def test_contour_psf_deterministic():
    a = generate_contour_psf(32, 32, ContourPsfParams(), seed=5)
    b = generate_contour_psf(32, 32, ContourPsfParams(), seed=5)
    c = generate_contour_psf(32, 32, ContourPsfParams(), seed=6)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_contour_psf_spectral_conditioning():
    # Oracle-recorded conditioning for the default parameters on 128x128:
    # the ratio sits near its sparsity-limited floor 1/sqrt(sum p^2) ~ 50
    # (measured 74 at build time), far below a defocus-style blur kernel.
    p = generate_contour_psf(128, 128, ContourPsfParams(), seed=7)
    ratio = spectral_flatness_ratio(p)
    assert ratio < 90.0
    yy, xx = np.meshgrid(np.arange(128) - 63.5, np.arange(128) - 63.5, indexing="ij")
    blur = np.exp(-(xx**2 + yy**2) / (2 * 8.0**2))
    blur_ratio = spectral_flatness_ratio(Psf(blur / blur.sum()))
    assert blur_ratio > 4 * ratio


def test_contour_psf_rejects_small_dims():
    with pytest.raises(ConfigError):
        generate_contour_psf(8, 64, ContourPsfParams(), seed=0)


def test_psf_validation():
    with pytest.raises(ConfigError):
        Psf(np.array([[0.5, -0.1], [0.2, 0.4]]))


def test_psf_data_is_float64():
    data = np.random.default_rng(33).random((5, 7)).astype(np.float32)
    p = Psf(data)
    assert p.data.dtype == np.float64
    assert np.array_equal(p.data, data)


def test_psf_holds_a_read_only_copy():
    # A cached spectrum cannot go stale: the Psf's data cannot be written,
    # and writing the caller's array does not reach it.
    a = np.array([[0.25, 0.5], [0.0, 0.25]])
    p = Psf(a)
    with pytest.raises(ValueError):
        p.data[0, 0] = 1.0
    a[0, 0] = 1.0
    assert p.data[0, 0] == 0.25


# ---------------------------------------------------------------------------
# FLTIMG
# ---------------------------------------------------------------------------

def test_fltimg_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((17, 23)).astype(np.float32).astype(float)
    path = tmp_path / "img.fltimg"
    save_image(x, path)
    first = path.read_bytes()
    assert first == fltimg_bytes(x)
    back = load_image(path)
    assert np.array_equal(back, x)
    save_image(back, path)
    assert path.read_bytes() == first
    assert hashlib.sha256(first).hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_fltimg_header_and_truncation_errors(tmp_path):
    path = tmp_path / "bad.fltimg"
    path.write_bytes(b"NOTMAGIC 2 2\n" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_image(path)
    path.write_bytes(b"FLTIMG1 4 4\n" + b"\x00" * 10)
    with pytest.raises(FormatError):
        load_image(path)
    path.write_bytes(b"FLTIMG2 2 2\n" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_image(path)


def test_load_image_returns_writable_float32(tmp_path):
    x = np.random.default_rng(10).standard_normal((6, 9))
    path = tmp_path / "img.fltimg"
    save_image(x, path)
    back = load_image(path)
    assert back.dtype == np.float32 and back.shape == (6, 9)
    assert back.flags.writeable and back.flags.c_contiguous
    assert np.array_equal(back, x.astype(np.float32))
    data = path.read_bytes()
    for bad in (data[:-1], data + b"\x00", data + data[-4:]):
        path.write_bytes(bad)
        with pytest.raises(FormatError, match="truncated or oversized"):
            load_image(path)


def test_load_image_checks_the_payload_size_before_allocating(tmp_path):
    # 20 header bytes and one sample, for a header that claims 16 GiB.
    path = tmp_path / "big.fltimg"
    path.write_bytes(b"FLTIMG1 65536 65536\n" + b"\x00" * 4)
    assert path.stat().st_size == 24
    with pytest.raises(FormatError, match="truncated or oversized"):
        load_image(path)


def test_save_image_bytes_do_not_depend_on_the_input_layout(tmp_path):
    x = np.random.default_rng(12).standard_normal((8, 10))
    x32 = x.astype(np.float32)
    path = tmp_path / "img.fltimg"
    save_image(x, path)
    want = path.read_bytes()
    wide = np.zeros((8, 20), dtype=np.float32)
    wide[:, ::2] = x32
    for given in (x32, x32.astype(float), x32.astype(">f4"), np.asfortranarray(x32),
                  wide[:, ::2]):
        save_image(given, path)
        assert path.read_bytes() == want
    with pytest.raises(NumericalError):
        save_image(np.array([[0.0, np.nan]], dtype=np.float32), path)
    with pytest.raises(ConfigError):
        save_image(np.zeros(4, dtype=np.float32), path)
    with pytest.raises(ConfigError):
        save_image(np.zeros((0, 3)), path)


def test_save_image_rejects_values_beyond_float32(tmp_path):
    # Finite in float64, infinite once cast: load_image would reject the file.
    path = tmp_path / "big.fltimg"
    for x in (np.array([[1e39]]), np.array([[0.5, -1e39], [0.0, 1.0]])):
        with pytest.raises(NumericalError):
            save_image(x, path)
        assert not path.exists()


@settings(max_examples=300, deadline=None)
@given(fuzz.FLTIMG)
def test_fltimg_parsers_fail_closed(data):
    # A FormatError, or a finite image that the payload after its header
    # line holds exactly (and a PSF only from a nonnegative one).
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.fltimg")
        with open(path, "wb") as f:
            f.write(data)
        try:
            image = load_image(path)
        except FormatError:
            image = None
        else:
            assert np.all(np.isfinite(image))
            assert data[data.index(b"\n") + 1:] == image.tobytes()
        try:
            psf = load_psf(path)
        except FormatError:
            assert image is None or np.any(image < 0)
        else:
            assert image is not None and np.array_equal(psf.data, image)


def test_load_psf_rejects_negative_values(tmp_path):
    path = tmp_path / "neg.fltimg"
    save_image(np.array([[0.5, -0.25], [0.5, 0.25]]), path)
    with pytest.raises(FormatError):
        load_psf(path)


def test_psf_save_load_round_trip(tmp_path):
    p = generate_contour_psf(32, 32, ContourPsfParams(), seed=3)
    path = tmp_path / "psf.fltimg"
    save_psf(p, path)
    q = load_psf(path)
    assert np.array_equal(q.data.astype(np.float32), p.data.astype(np.float32))
