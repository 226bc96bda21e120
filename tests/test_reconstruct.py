import tracemalloc

import numpy as np
import pytest

from flattrack.errors import ConfigError
from flattrack.optics import (ContourPsfParams, NoiseModel, Psf,
                              fft_conv_shape, full_convolve,
                              generate_contour_psf, simulate_measurement)
from flattrack.workers import parallel_map
from flattrack.reconstruct import WienerConfig, wiener_deconvolve
from oracles import (_wiener_padded, gradient_descent_tikhonov, psnr,
                     tikhonov_objective)


def spiked_band_psf(alpha: float = 2.0) -> Psf:
    """5x5 contour band plus a center spike: well-conditioned test mask."""
    band = np.array([
        [0, 1, 1, 1, 0],
        [1, 0, 0, 0, 1],
        [1, 0, 0, 0, 1],
        [1, 0, 0, 0, 1],
        [0, 1, 1, 1, 0]], dtype=float)
    band[2, 2] = alpha * band.sum()
    return Psf(band / band.sum())


def cfg_for(x, p, gamma=1e-5, clip01=False):
    return WienerConfig(gamma=gamma, output_h=x.shape[0], output_w=x.shape[1],
                        clip01=clip01)


def test_delta_psf_identity():
    rng = np.random.default_rng(0)
    x = rng.random((10, 12))
    p = Psf(np.array([[1.0]]))
    y = full_convolve(x, p)
    xh = wiener_deconvolve(y, p, cfg_for(x, p, gamma=1e-12))
    assert np.max(np.abs(xh - x)) < 1e-6


def test_shifted_delta_self_registers():
    # A delta anywhere in the psf support shifts Y; deconvolution undoes it.
    rng = np.random.default_rng(1)
    x = rng.random((9, 9))
    pd = np.zeros((3, 3))
    pd[1, 2] = 1.0
    p = Psf(pd)
    y = full_convolve(x, p)
    xh = wiener_deconvolve(y, p, cfg_for(x, p, gamma=1e-12))
    assert np.max(np.abs(xh - x)) < 1e-6


def test_near_exact_inversion_small_gamma():
    rng = np.random.default_rng(2)
    x = rng.random((8, 8))
    p = spiked_band_psf()
    y = full_convolve(x, p)
    xh = wiener_deconvolve(y, p, cfg_for(x, p, gamma=1e-5))
    assert np.max(np.abs(xh - x)) < 1e-3


def test_shrinkage_monotone_in_gamma():
    rng = np.random.default_rng(3)
    x = rng.random((12, 12))
    p = spiked_band_psf()
    y = full_convolve(x, p)
    norms = []
    for gamma in 10.0 ** np.arange(-6, 3):
        xh = wiener_deconvolve(y, p, cfg_for(x, p, gamma=gamma))
        norms.append(np.linalg.norm(xh))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_wiener_linear_in_measurement():
    rng = np.random.default_rng(4)
    x1 = rng.random((8, 8))
    x2 = rng.random((8, 8))
    p = spiked_band_psf()
    y1 = full_convolve(x1, p)
    y2 = full_convolve(x2, p)
    a, b = 1.7, -0.6
    cfg = cfg_for(x1, p)
    lhs = wiener_deconvolve(a * y1 + b * y2, p, cfg)
    rhs = a * wiener_deconvolve(y1, p, cfg) + b * wiener_deconvolve(y2, p, cfg)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-9


def test_wiener_deterministic():
    rng = np.random.default_rng(5)
    x = rng.random((8, 8))
    p = spiked_band_psf()
    y = full_convolve(x, p)
    cfg = cfg_for(x, p)
    assert np.array_equal(wiener_deconvolve(y, p, cfg), wiener_deconvolve(y, p, cfg))


def test_wiener_config_validation():
    for gamma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            WienerConfig(gamma=gamma)
    p = spiked_band_psf()
    y = np.ones((8, 8))
    with pytest.raises(ConfigError):
        wiener_deconvolve(y, p, WienerConfig(gamma=1e-5, output_h=8, output_w=8))
    with pytest.raises(ConfigError):
        wiener_deconvolve(np.ones((3, 3)), p, WienerConfig(gamma=1e-5, output_h=1, output_w=1))


def test_clip01_only_affects_range():
    rng = np.random.default_rng(6)
    x = rng.random((8, 8))
    p = spiked_band_psf()
    y = simulate_measurement(x, p, NoiseModel("gaussian", 5e-2), 3)
    raw = wiener_deconvolve(y, p, cfg_for(x, p, gamma=1e-6))
    clipped = wiener_deconvolve(y, p, cfg_for(x, p, gamma=1e-6, clip01=True))
    assert np.array_equal(clipped, np.clip(raw, 0.0, 1.0))


# ---------------------------------------------------------------------------
# the Psf's cached operator against the uncached reference, bit for bit
# ---------------------------------------------------------------------------

def reference_wiener(y, p: Psf, cfg: WienerConfig) -> np.ndarray:
    out = _wiener_padded(y, p.data, cfg.gamma)[:cfg.output_h, :cfg.output_w]
    return np.clip(out, 0.0, 1.0) if cfg.clip01 else out


def noisy_frames(rng, scene_shape, p: Psf, n: int = 3) -> list:
    return [simulate_measurement(rng.random(scene_shape), p,
                                 NoiseModel("gaussian", 1e-2), k) for k in range(n)]


@pytest.mark.parametrize("scene_shape, psf_shape, grid", [
    ((20, 33), (7, 4), (27, 36)),    # non-square scene and PSF
    ((40, 66), (6, 10), (45, 75)),   # odd 5-smooth grid: irfft with odd n
    # The live frame: a 128x128 scene through the 128x128 contour PSF.
    pytest.param((128, 128), (128, 128), (256, 256), id="live-geometry"),
])
@pytest.mark.parametrize("clip01", [False, True])
def test_cached_wiener_equals_reference(scene_shape, psf_shape, grid, clip01):
    rng = np.random.default_rng(20)
    if grid == (256, 256):
        p = generate_contour_psf(*psf_shape, ContourPsfParams(), 5)
    else:
        p = Psf(rng.random(psf_shape))
    frames = noisy_frames(rng, scene_shape, p)
    assert fft_conv_shape(*frames[0].shape) == grid
    # Two gammas on one Psf, then the first again: a cache hit for the
    # wrong gamma would differ from the reference.
    for gamma in (1e-4, 1e-2, 1e-4):
        cfg = WienerConfig(gamma, *scene_shape, clip01)
        for y in frames:
            assert np.array_equal(wiener_deconvolve(y, p, cfg),
                                  reference_wiener(y, p, cfg))


def test_fft_pad_rows_do_not_go_stale():
    # Both operand pairs give a 14x24 output on the same 15x24 grid, so they
    # share this thread's FFT workspace, and the scene heights (10, 6) and
    # measurement heights (14) leave pad rows that the previous call's
    # inverse pass filled.
    rng = np.random.default_rng(23)
    pairs = [(rng.random((10, 20)), Psf(rng.random((5, 5)))),
             (rng.random((6, 20)), Psf(rng.random((9, 5))))]
    for _ in range(3):
        for x, p in pairs:
            grid = fft_conv_shape(14, 24)
            assert grid == (15, 24)
            y = full_convolve(x, p)
            ref = np.fft.irfft2(np.fft.rfft2(x, s=grid) * np.fft.rfft2(p.data, s=grid),
                                s=grid)[:14, :24]
            assert np.array_equal(y, ref)
            cfg = cfg_for(x, p, gamma=1e-3)
            assert np.array_equal(wiener_deconvolve(y, p, cfg),
                                  reference_wiener(y, p, cfg))


def test_wiener_reads_float32_as_float64():
    rng = np.random.default_rng(24)
    p = Psf(rng.random((9, 9)))
    for y in noisy_frames(rng, (32, 40), p, n=3):
        assert y.dtype == np.float32
        for clip01 in (True, False):
            cfg = WienerConfig(1e-3, 32, 40, clip01)
            assert np.array_equal(wiener_deconvolve(y, p, cfg),
                                  wiener_deconvolve(y.astype(float), p, cfg))


def test_wiener_makes_no_float64_copy_of_a_float32_frame():
    rng = np.random.default_rng(25)
    p = Psf(rng.random((128, 128)))
    y = rng.random((255, 255)).astype(np.float32)
    cfg = WienerConfig(1e-3, 128, 128)
    # The first call builds the Psf's terms and this thread's workspace.
    wiener_deconvolve(y, p, cfg)
    tracemalloc.start()
    try:
        wiener_deconvolve(y, p, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < y.size * 8


def test_wiener_results_do_not_share_the_fft_workspace():
    rng = np.random.default_rng(22)
    p = Psf(rng.random((9, 9)))
    y1, y2 = noisy_frames(rng, (32, 32), p, n=2)
    # Unclipped, so the result is the last inverse pass's own array.
    cfg = WienerConfig(1e-3, 32, 32, clip01=False)
    first = wiener_deconvolve(y1, p, cfg)
    kept = first.copy()
    second = wiener_deconvolve(y2, p, cfg)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(first, reference_wiener(y1, p, cfg))


def test_cached_wiener_same_under_parallel_map(monkeypatch):
    rng = np.random.default_rng(21)
    data = rng.random((9, 9))
    frames = noisy_frames(rng, (32, 32), Psf(data), n=8)
    cfg = WienerConfig(1e-3, 32, 32)
    serial_psf, shared_psf = Psf(data), Psf(data)
    serial = [wiener_deconvolve(y, serial_psf, cfg) for y in frames]
    # Two workers fill one fresh Psf's cache concurrently.
    monkeypatch.setenv("FLATTRACK_THREADS", "2")
    parallel = parallel_map(lambda y: wiener_deconvolve(y, shared_psf, cfg), frames)
    for a, b, y in zip(parallel, serial, frames):
        assert np.array_equal(a, b)
        assert np.array_equal(a, reference_wiener(y, serial_psf, cfg))


# ---------------------------------------------------------------------------
# Tikhonov objective as optimization oracle
# ---------------------------------------------------------------------------

def test_objective_at_zero_equals_measurement_energy():
    rng = np.random.default_rng(7)
    x = rng.random((6, 6))
    p = spiked_band_psf()
    y = full_convolve(x, p)
    j = tikhonov_objective(np.zeros_like(x), y, p, gamma=0.5)
    assert j == pytest.approx(np.sum(y**2), rel=1e-12)


def test_objective_at_truth_is_pure_regularizer():
    rng = np.random.default_rng(8)
    x = rng.random((6, 6))
    p = spiked_band_psf()
    y = full_convolve(x, p)
    gamma = 2.5e-3
    j = tikhonov_objective(x, y, p, gamma)
    assert j == pytest.approx(gamma * np.sum(x**2), rel=1e-9)


def test_wiener_output_is_local_minimum():
    rng = np.random.default_rng(9)
    x = rng.random((8, 8))
    p = spiked_band_psf()
    y = full_convolve(x, p)
    gamma = 1e-5
    xh = wiener_deconvolve(y, p, cfg_for(x, p, gamma=gamma))
    j0 = tikhonov_objective(xh, y, p, gamma)
    for k in range(50):
        u = np.random.default_rng(1000 + k).standard_normal(xh.shape)
        u /= np.linalg.norm(u)
        assert tikhonov_objective(xh + 1e-2 * u, y, p, gamma) > j0


def test_closed_form_matches_gradient_descent():
    # Closed form vs long-run steepest descent on the padded circular model.
    rng = np.random.default_rng(10)
    for trial in range(5):
        h, w = rng.integers(6, 17, size=2)
        x = rng.random((h, w))
        p = rng.uniform(0.1, 1.0, (4, 4))
        p /= p.sum()
        psf = Psf(p)
        y = full_convolve(x, psf)
        gamma = 1e-3
        xg = gradient_descent_tikhonov(y, psf, gamma, max_iter=30000, tol=1e-22)
        xw = _wiener_padded(y, p, gamma)
        jg = tikhonov_objective(xg, y, psf, gamma)
        jw = tikhonov_objective(xw, y, psf, gamma)
        assert abs(jg - jw) / jw < 1e-6
        assert np.max(np.abs(xg - xw)) < 1e-3


def test_noise_monotonicity():
    rng = np.random.default_rng(11)
    x = rng.random((32, 32))
    p = spiked_band_psf()
    cfg = cfg_for(x, p)
    psnrs = []
    for sigma in (0.0, 1e-3, 1e-2):
        y = simulate_measurement(x, p, NoiseModel("gaussian", sigma), 77)
        psnrs.append(psnr(wiener_deconvolve(y, p, cfg), x))
    assert psnrs[0] >= psnrs[1] >= psnrs[2]


def test_psnr_helper():
    a = np.zeros((4, 4))
    assert psnr(a, a) == float("inf")
    b = a.copy()
    b[0, 0] = 0.4
    # mse = 0.01 -> 20 dB at unit peak
    assert psnr(b, a) == pytest.approx(20.0, abs=1e-9)
    with pytest.raises(ConfigError):
        psnr(np.zeros((2, 2)), np.zeros((3, 3)))
