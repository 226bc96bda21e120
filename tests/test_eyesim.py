import math

import numpy as np
import pytest

from flattrack.errors import ConfigError, NumericalError
from flattrack.eyesim import (EyeRenderParams, render_eye, render_round,
                              subject_params)
from flattrack.geometry import (CalibratedScreen, GridSpec, make_grid,
                                screen_to_gaze)

SCREEN = CalibratedScreen()
# Noise-free, flat-light params for geometric checks.
CLEAN = EyeRenderParams(texture_noise_rel=0.0, light_falloff_r0_px=1e6)


def pupil_centroid(img, params, subject_seed):
    """Intensity-weighted centroid of pixels darker than the iris level."""
    sp = subject_params(params, subject_seed)
    thr = 0.5 * (sp.pupil_level + sp.iris_level)
    ys, xs = np.nonzero(img < thr)
    w = thr - img[ys, xs]
    return float((xs * w).sum() / w.sum()), float((ys * w).sum() / w.sum())


def test_center_gaze_centers_pupil():
    img = render_eye([0, 0, 1], CLEAN, subject_seed=5, jitter_seed=0)
    cx, cy = pupil_centroid(img, CLEAN, 5)
    assert abs(cx - 63.5) < 0.5
    assert abs(cy - 63.5) < 0.5


def test_mirror_symmetry_in_x():
    a = math.radians(10)
    g1 = np.array([math.sin(a), 0.0, math.cos(a)])
    g2 = np.array([-math.sin(a), 0.0, math.cos(a)])
    c1 = pupil_centroid(render_eye(g1, CLEAN, 5, 0), CLEAN, 5)
    c2 = pupil_centroid(render_eye(g2, CLEAN, 5, 0), CLEAN, 5)
    assert abs((c1[0] + c2[0]) - 127.0) < 0.5
    assert abs(c1[1] - c2[1]) < 0.5


def test_centroid_monotone_in_gaze_x():
    xs = []
    for gx in np.linspace(-0.4, 0.4, 9):
        g = np.array([gx, 0.1, math.sqrt(1 - gx**2 - 0.01)])
        xs.append(pupil_centroid(render_eye(g, CLEAN, 5, 0), CLEAN, 5)[0])
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_render_deterministic_and_jitter_sensitive():
    g = np.array([0.1, -0.05, math.sqrt(1 - 0.0125)])
    p = EyeRenderParams()
    a = render_eye(g, p, 3, 17)
    b = render_eye(g, p, 3, 17)
    c = render_eye(g, p, 3, 18)
    d = render_eye(g, p, 4, 17)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_pixel_range():
    g = np.array([0.2, 0.2, math.sqrt(1 - 0.08)])
    img = render_eye(g, EyeRenderParams(texture_noise_rel=0.1), 1, 2)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_frames_are_float32():
    g = np.array([0.2, -0.1, math.sqrt(1 - 0.05)])
    assert render_eye(g, EyeRenderParams(), 1, 2).dtype == np.float32
    grid = GridSpec(rows=2, cols=2, spacing_x_px=200.0, spacing_y_px=150.0,
                    origin_x_px=760.0, origin_y_px=390.0)
    for s in render_round(grid, SCREEN, CLEAN, 0, 0, 1, base_seed=3):
        assert s.image.dtype == np.float32


def test_unrenderable_gaze_rejected():
    big = EyeRenderParams(eyeball_radius_mm=40.0, iris_radius_mm=6.0,
                          pupil_radius_mm=2.0, camera_scale_px_per_mm=4.0)
    g = np.array([0.9, 0.0, math.sqrt(1 - 0.81)])
    with pytest.raises(NumericalError):
        render_eye(g, big, 0, 0)
    with pytest.raises(ConfigError):
        render_eye([0.0, 0.0, -1.0], EyeRenderParams(), 0, 0)


def test_params_validation():
    with pytest.raises(ConfigError):
        EyeRenderParams(pupil_radius_mm=7.0, iris_radius_mm=6.0)
    with pytest.raises(ConfigError):
        EyeRenderParams(pupil_level=0.5, iris_level=0.4)
    with pytest.raises(ConfigError):
        EyeRenderParams(eyelid_openness=1.5)


def test_corner_gaze_darker_than_center():
    # Fixed light at the calibration axis: eccentric gazes rotate the bright
    # spot off-frame, so corner stimuli render darker than the center one.
    params = EyeRenderParams()
    grid = GridSpec()
    pts = make_grid(grid)
    center = np.mean(render_eye(screen_to_gaze(pts[7 * 15 + 7], SCREEN), params, 5, 0))
    for i in (0, 14):
        for j in (0, 14):
            g = screen_to_gaze(pts[i * 15 + j], SCREEN)
            assert np.mean(render_eye(g, params, 5, 0)) < center


def test_render_round_counts_and_labels():
    grid = GridSpec()
    params = EyeRenderParams(image_h=32, image_w=32, camera_scale_px_per_mm=1.0)
    samples = render_round(grid, SCREEN, params, subject_id=2, round_id=1,
                           n_per_point=1, base_seed=99)
    assert len(samples) == 225
    for s in samples[::31]:
        expect = screen_to_gaze(s.screen_pt, SCREEN)
        assert np.max(np.abs(s.gaze - expect)) < 1e-6
        assert abs(np.linalg.norm(s.gaze) - 1.0) < 1e-9
    triple = render_round(grid, SCREEN, params, subject_id=2, round_id=1,
                          n_per_point=3, base_seed=99)
    assert len(triple) == 675


def test_render_round_deterministic():
    grid = GridSpec(rows=3, cols=3, spacing_x_px=100, spacing_y_px=100,
                    origin_x_px=860, origin_y_px=440)
    params = EyeRenderParams(image_h=32, image_w=32, camera_scale_px_per_mm=1.0)
    a = render_round(grid, SCREEN, params, 0, 0, 2, base_seed=5)
    b = render_round(grid, SCREEN, params, 0, 0, 2, base_seed=5)
    assert len(a) == len(b) == 18
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert sa.sample_id == sb.sample_id
    # multiple measurements of one point differ by jitter only
    assert not np.array_equal(a[0].image, a[1].image)
    assert np.array_equal(a[0].gaze, a[1].gaze)


def test_subject_anatomy_stable_across_rounds():
    grid = GridSpec(rows=2, cols=2, spacing_x_px=100, spacing_y_px=100,
                    origin_x_px=910, origin_y_px=490)
    params = EyeRenderParams(image_h=32, image_w=32, camera_scale_px_per_mm=1.0,
                             texture_noise_rel=0.0)
    r0 = render_round(grid, SCREEN, params, subject_id=1, round_id=0,
                      n_per_point=1, base_seed=7)
    r1 = render_round(grid, SCREEN, params, subject_id=1, round_id=1,
                      n_per_point=1, base_seed=7)
    other = render_round(grid, SCREEN, params, subject_id=2, round_id=0,
                         n_per_point=1, base_seed=7)
    # noise-free frames of the same subject are identical across rounds,
    # while another subject's anatomy differs
    assert np.array_equal(r0[0].image, r1[0].image)
    assert not np.array_equal(r0[0].image, other[0].image)


def test_subject_params_preserve_ordering():
    for seed in range(25):
        sp = subject_params(EyeRenderParams(), seed)
        assert 0 < sp.pupil_radius_mm < sp.iris_radius_mm < sp.eyeball_radius_mm
        assert 0 <= sp.pupil_level < sp.iris_level < sp.sclera_level <= 1
