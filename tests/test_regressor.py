import csv
import dataclasses
import math
import os
import tempfile
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flattrack.errors import ConfigError, DataError, FormatError, NumericalError
from flattrack.eyesim import EyeRenderParams, GazeSample, render_round
from flattrack.geometry import (CalibratedScreen, GridSpec, angular_error,
                                gaze_to_screen, gaze_to_screen_jacobian,
                                make_grid, screen_to_gaze)
from flattrack.regressor import (ARCH, AdamState, AffineRanges, EpochStats,
                                 RegressorModel, TrainConfig,
                                 batch_loss_and_grads, downsample_image,
                                 evaluate, fine_tune, forward, forward_batch,
                                 load_model, model_init, save_model,
                                 train, backward_batch, plane_factor,
                                 training_set, weight_grad, _STACK, _area_mean,
                                 _draw_affine, _prepare_inputs, _warp_scratch,
                                 _warp_stack)
from flattrack.seeds import mix_seed
import fuzz
from oracles import batch_loss, ftkmdl_bytes, loss_l1

SCREEN = CalibratedScreen()
GRID_9 = GridSpec(rows=3, cols=3, spacing_x_px=300, spacing_y_px=200,
                  origin_x_px=960 - 300, origin_y_px=540 - 200)
RENDER_32 = EyeRenderParams(image_h=32, image_w=32, camera_scale_px_per_mm=1.0,
                            light_x_px=15.5, light_y_px=15.5,
                            light_falloff_r0_px=20.0)


def tiny_round(round_id=0, subject_id=0, seed=11):
    return render_round(GRID_9, SCREEN, RENDER_32, subject_id, round_id,
                        n_per_point=1, base_seed=seed)


def batch_of(samples, n=5):
    X = np.stack([downsample_image(s.image).reshape(-1) for s in samples[:n]])
    gts = np.stack([s.screen_pt for s in samples[:n]])
    return X, gts


# ---------------------------------------------------------------------------
# init / forward
# ---------------------------------------------------------------------------

def test_init_deterministic_and_scaled():
    a = model_init(4)
    b = model_init(4)
    c = model_init(5)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])
    for w, fan_in in zip(a.weights, ARCH[:-1]):
        assert w.std() == pytest.approx(math.sqrt(2.0 / fan_in), rel=0.10)
    for bias in a.biases:
        assert np.all(bias == 0.0)


def test_forward_unit_norm():
    m = model_init(1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = forward(m, rng.random((32, 32)))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9


def test_zero_vector_falls_back_to_straight_ahead():
    m = model_init(2)
    m.weights[2][:] = 0.0
    m.biases[2][:] = 0.0
    v = forward(m, np.zeros((32, 32)))
    assert np.array_equal(v, [0.0, 0.0, 1.0])


def test_final_layer_scale_invariance():
    m = model_init(3)
    img = np.random.default_rng(1).random((32, 32))
    v1 = forward(m, img)
    m2 = m.copy()
    m2.weights[2] *= 2.0
    m2.biases[2] *= 2.0
    assert np.max(np.abs(forward(m2, img) - v1)) < 1e-12


def test_forward_rejects_non_finite():
    m = model_init(4)
    bad = np.zeros((32, 32))
    bad[3, 3] = np.nan
    with pytest.raises(NumericalError):
        forward(m, bad)


def test_model_shape_validation():
    with pytest.raises(ConfigError):
        RegressorModel([np.zeros((4, 3))], [np.zeros(2)])
    with pytest.raises(ConfigError):
        RegressorModel([np.zeros((4, 3)), np.zeros((5, 2))],
                       [np.zeros(3), np.zeros(2)])


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------

def test_loss_l1_values():
    assert loss_l1([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert loss_l1([0.0, 0.0], [3.0, 4.0]) == 7.0
    assert loss_l1([3.0, 4.0], [0.0, 0.0]) == 7.0


def _fd_check(m, X, gts, eps=1e-4, atol=1e-6):
    _, fw, gb, n_used, _ = batch_loss_and_grads(m, X, gts, SCREEN)
    gw = [weight_grad(f) for f in fw]
    assert n_used == X.shape[0]
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(m.n_layers):
        w = m.weights[k]
        n_probe = w.size if w.size <= 256 else 256
        flat = rng.choice(w.size, size=n_probe, replace=False)
        for f in flat:
            i, j = divmod(int(f), w.shape[1])
            orig = w[i, j]
            w[i, j] = orig + eps
            up = batch_loss(m, X, gts, SCREEN)
            w[i, j] = orig - eps
            dn = batch_loss(m, X, gts, SCREEN)
            w[i, j] = orig
            num = (up - dn) / (2 * eps)
            ana = gw[k][i, j]
            if max(abs(num), abs(ana)) > atol:
                worst = max(worst, abs(num - ana) / max(abs(num), abs(ana)))
        for j in range(m.biases[k].size):
            orig = m.biases[k][j]
            m.biases[k][j] = orig + eps
            up = batch_loss(m, X, gts, SCREEN)
            m.biases[k][j] = orig - eps
            dn = batch_loss(m, X, gts, SCREEN)
            m.biases[k][j] = orig
            num = (up - dn) / (2 * eps)
            ana = gb[k][j]
            if max(abs(num), abs(ana)) > atol:
                worst = max(worst, abs(num - ana) / max(abs(num), abs(ana)))
    return worst


def test_gradients_match_finite_differences_at_init():
    samples = tiny_round()
    X, gts = batch_of(samples, 5)
    m = model_init(7)
    assert _fd_check(m, X, gts) < 1e-4


def test_gradients_match_finite_differences_after_training_steps():
    samples = tiny_round()
    X, gts = batch_of(samples, 5)
    m = model_init(7)
    from flattrack.regressor import AdamState
    cfg = TrainConfig(seed=1)
    opt = AdamState(m)
    for _ in range(10):
        _, gw, gb, _, _ = batch_loss_and_grads(m, X, gts, SCREEN)
        opt.step(m, gw, gb, cfg.lr, cfg, set(range(m.n_layers)))
    assert _fd_check(m, X, gts) < 1e-4


def test_gradient_is_descent_direction():
    # Sign-definite residuals: stepping against the gradient lowers the loss.
    samples = tiny_round()
    X, gts = batch_of(samples, 4)
    m = model_init(8)
    loss0, fw, gb, _, _ = batch_loss_and_grads(m, X, gts, SCREEN)
    step = 1e-6
    for k in range(m.n_layers):
        m.weights[k] -= step * weight_grad(fw[k])
        m.biases[k] -= step * gb[k]
    assert batch_loss(m, X, gts, SCREEN) < loss0


def test_unprojectable_predictions_skipped_and_counted():
    m = model_init(9)
    for k in range(3):
        m.weights[k][:] = 0.0
        m.biases[k][:] = 0.0
    m.biases[2][:] = [0.0, 0.0, -1.0]  # constant backward-facing prediction
    samples = tiny_round()
    X, gts = batch_of(samples, 6)
    loss, fw, gb, n_used, n_skip = batch_loss_and_grads(m, X, gts, SCREEN)
    assert n_used == 0 and n_skip == 6
    assert all(np.all(weight_grad(f) == 0) for f in fw)


def _loop_loss_and_grads(m, X, gts):
    """The projection loss one sample at a time: a running total of
    |dx| + |dy| and dV_i = J_i^T sign(resid_i) for each projectable row."""
    v, cache = forward_batch(m, X)
    dV = np.zeros((len(X), 3))
    total, n_used = 0.0, 0
    for i in range(len(X)):
        if v[i, 2] <= 1e-6:
            continue
        resid = gaze_to_screen(v[i], SCREEN) - gts[i]
        total += float(np.abs(resid).sum())
        dV[i] = gaze_to_screen_jacobian(v[i], SCREEN).T @ np.sign(resid)
        n_used += 1
    if n_used == 0:
        return 0.0, None, 0
    dV /= n_used
    fw, gb = backward_batch(m, cache, dV)
    return total / n_used, ([weight_grad(f) for f in fw], gb), n_used


def test_batched_projection_equals_the_per_sample_loop():
    samples = tiny_round(0) + tiny_round(1) + tiny_round(2) + tiny_round(3)
    X, gts = batch_of(samples, 36)
    # With this model, summing 13 or 24 losses pairwise rounds differently
    # from the running total, so the test sees the order of the sum.
    m = model_init(45)
    v, cache = forward_batch(m, X)
    # Shift the z output so that about a third of the rows face away.
    m.biases[2][2] -= np.percentile(cache["u"][:, 2], 33)
    # 36 rows keep more than 8 terms, which a pairwise sum would regroup.
    assert int((forward_batch(m, X)[0][:, 2] > 1e-6).sum()) >= 9
    for n in (9, 20, 36):
        loss, fw, gb, n_used, n_skip = batch_loss_and_grads(m, X[:n], gts[:n], SCREEN)
        want_loss, (want_w, want_b), want_used = _loop_loss_and_grads(m, X[:n], gts[:n])
        assert n_used == want_used and 0 < n_used < n and n_skip == n - n_used
        assert loss == want_loss
        assert batch_loss(m, X[:n], gts[:n], SCREEN) == want_loss
        for got, want in zip([weight_grad(f) for f in fw] + gb, want_w + want_b):
            assert np.array_equal(got, want)
    # Every row skipped: zero loss and zero gradients.
    m.biases[2][2] -= 1e3
    loss, fw, gb, n_used, n_skip = batch_loss_and_grads(m, X, gts, SCREEN)
    assert (loss, n_used, n_skip) == (0.0, 0, 36)
    assert _loop_loss_and_grads(m, X, gts)[2] == 0
    assert all(not g.any() for g in [weight_grad(f) for f in fw] + gb)
    assert batch_loss(m, X, gts, SCREEN) == 0.0


# ---------------------------------------------------------------------------
# augmentation / downsample
# ---------------------------------------------------------------------------

def warp(img, affine):
    """One image warped by one (rotation_deg, (tx, ty), scale)."""
    planes = np.asarray(img)[None]
    out = np.empty(planes.shape)
    _warp_stack(planes, [0], [affine], out, _warp_scratch(planes))
    return out[0]


def test_warp_zero_is_identity():
    img = np.random.default_rng(2).random((20, 24))
    out = warp(img, (0.0, (0.0, 0.0), 1.0))
    assert np.max(np.abs(out - img)) < 1e-6


def test_warp_translation_inverse_pair():
    img = np.random.default_rng(3).random((24, 24))
    fwd = warp(img, (0.0, (5.0, 0.0), 1.0))
    back = warp(fwd, (0.0, (-5.0, 0.0), 1.0))
    inner = (slice(6, -6), slice(6, -6))
    assert np.max(np.abs(back[inner] - img[inner])) < 1e-3


def unblocked_warp(img, rotation_deg, translate, scale):
    """The warp of the whole plane at once with 2-D fancy indexing: the
    formula the row-blocked version must reproduce bit for bit."""
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    th = math.radians(rotation_deg)
    c, s = math.cos(th), math.sin(th)
    inv = 1.0 / scale
    ys, xs = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    px = xs - cx - translate[0]
    py = ys - cy - translate[1]
    Xq = inv * (c * px + s * py) + cx
    Yq = inv * (-s * px + c * py) + cy
    edge = np.concatenate([img[0, :], img[-1, :], img[1:-1, 0], img[1:-1, -1]])
    inside = (Xq >= 0) & (Xq <= w - 1) & (Yq >= 0) & (Yq <= h - 1)
    x0 = np.clip(np.floor(Xq), 0, w - 2).astype(int)
    y0 = np.clip(np.floor(Yq), 0, h - 2).astype(int)
    wx = np.clip(Xq - x0, 0.0, 1.0)
    wy = np.clip(Yq - y0, 0.0, 1.0)
    top = img[y0, x0] * (1 - wx) + img[y0, x0 + 1] * wx
    bot = img[y0 + 1, x0] * (1 - wx) + img[y0 + 1, x0 + 1] * wx
    return np.where(inside, top * (1 - wy) + bot * wy, float(edge.mean()))


# Heights below 32, not a multiple of 32, and one of several blocks; a
# 1-pixel axis, where the 2-D formula indexes column or row -1.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(128, 128), (45, 75), (33, 7), (2, 2), (1, 5), (6, 1), (1, 1)]),
       st.floats(-30.0, 30.0), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
       st.floats(0.5, 2.0), st.integers(0, 2**32 - 1))
def test_warp_blocks_equal_unblocked_formula(shape, rot, tx, ty, scale, seed):
    img = np.random.default_rng(seed).random(shape)
    out = warp(img, (rot, (tx, ty), scale))
    assert np.array_equal(out, unblocked_warp(img, rot, (tx, ty), scale))
    # The same pixels in Fortran order warp the same.
    view = np.asfortranarray(img)
    assert np.array_equal(warp(view, (rot, (tx, ty), scale)), out)


def test_augment_seeded_reproducible():
    img = np.random.default_rng(4).random((16, 16))
    r = AffineRanges()
    a = warp(img, _draw_affine(r, 5))
    b = warp(img, _draw_affine(r, 5))
    c = warp(img, _draw_affine(r, 6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_augment_zero_ranges_identity():
    img = np.random.default_rng(5).random((16, 16))
    r = AffineRanges(rotation_deg=0.0, translate_px=0.0, scale_min=1.0, scale_max=1.0)
    assert np.max(np.abs(warp(img, _draw_affine(r, 1)) - img)) < 1e-6


def test_downsample_block_mean():
    img = np.arange(64 * 64, dtype=float).reshape(64, 64)
    out = downsample_image(img)
    assert out.shape == (32, 32)
    assert out[0, 0] == (0 + 1 + 64 + 65) / 4
    assert out[31, 31] == img[62:, 62:].mean()
    # A 32x32 frame is its own area mean, in a new array.
    small = np.random.default_rng(6).random((32, 32)).astype(np.float32)
    same = downsample_image(small)
    assert same.dtype == np.float64 and np.array_equal(same, small)


# Factor 8 (numpy's reshape mean regroups 8 or more terms), sides off the
# 32 grid, a zero side and shapes that are not 2-D.
@pytest.mark.parametrize("shape", [(256, 256), (32, 256), (100, 100), (30, 30),
                                   (0, 32), (1024,), (2, 32, 32)])
def test_downsample_rejects_frames_off_the_rule(shape):
    with pytest.raises(ConfigError):
        downsample_image(np.zeros(shape))


def reshape_mean(x, out_h, out_w):
    """The area mean as numpy computes it over each cell: the formula the
    fast downsample must reproduce bit for bit."""
    h, w = x.shape
    return x.reshape(out_h, h // out_h, out_w, w // out_w).mean(axis=(1, 3))


# Every factor the frame rule accepts, on each axis.
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.floats(-8.0, 8.0), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_downsample_equals_reshape_mean(fy, fx, exponent, signed, seed):
    scale = 10.0 ** exponent
    x = np.random.default_rng(seed).random((32 * fy, 32 * fx)) * scale
    if signed:
        x -= 0.5 * scale
    assert np.array_equal(downsample_image(x), reshape_mean(x, 32, 32))


def frames_set(images):
    """The training set of bare frames, with placeholder labels."""
    return training_set([SimpleNamespace(image=im, screen_pt=(0.0, 0.0),
                                         gaze=(0.0, 0.0, 1.0)) for im in images])


def prepare(ts, augment, ranges, seed, epoch, ids=None):
    """_prepare_inputs of samples ids (default all) with the warp scratch
    that train allocates, into a fresh array."""
    ids = np.arange(len(ts)) if ids is None else ids
    return _prepare_inputs(ts, augment, ranges, seed, epoch, _warp_scratch(ts.planes),
                           ids, np.empty((len(ids), 32 * 32)))


@pytest.mark.parametrize("shape, r", [((32, 32), 1), ((64, 64), 1), ((96, 96), 1),
                                      ((128, 128), 2), ((128, 192), 2),
                                      ((192, 192), 3), ((224, 224), 1)])
def test_plane_factor(shape, r):
    assert plane_factor(shape) == r
    ts = frames_set([np.zeros(shape, dtype=np.float32)])
    assert ts.r == r and ts.planes.dtype == np.float32
    assert ts.planes.shape == (1, shape[0] // r, shape[1] // r)


def plane_of(image, r):
    """The frame's r x r area mean, as a float32 plane."""
    x = np.asarray(image, dtype=float)
    h, w = x.shape
    plane = np.empty((h // r, w // r))
    _area_mean(x, r, r, plane, np.empty((h, w // r)))
    return plane.astype(np.float32)


def plane_reference(image, r, ranges, seed, epoch, i):
    """Sample i's augmented input composed by hand: its plane warped with
    the translation divided by r, then averaged down to 32x32."""
    rot, (tx, ty), scale = _draw_affine(ranges, mix_seed(seed, 0xA46, epoch, i))
    warped = warp(plane_of(image, r), (rot, (tx / r, ty / r), scale))
    h, w = warped.shape
    out = np.empty((32, 32))
    _area_mean(warped, h // 32, w // 32, out, np.empty((h, 32)))
    return out.reshape(-1)


# Square and non-square 32*k frames, one as wide as the rule allows, and
# frames that train on planes (r = 2, 3); 2 stacks and a remainder. A
# shuffled subset of the samples, as train makes one batch, ending in a
# partial stack, gives the same rows as the whole set.
@pytest.mark.parametrize("shape", [(128, 128), (64, 96), (32, 224), (128, 192),
                                   (192, 192)])
def test_stacked_augmentation_equals_per_sample(shape):
    rng = np.random.default_rng(21)
    images = [rng.random(shape) for _ in range(2 * _STACK + 3)]
    ranges = AffineRanges(rotation_deg=20.0, translate_px=8.0,
                          scale_min=0.8, scale_max=1.2)
    seed, epoch = 5, 3
    r = plane_factor(shape)
    expected = np.stack([plane_reference(im, r, ranges, seed, epoch, i)
                         for i, im in enumerate(images)])
    ts = frames_set(images)
    everything = prepare(ts, True, ranges, seed, epoch)
    assert np.array_equal(everything, expected)
    # Validation inputs are the area mean of the unwarped plane.
    unwarped = prepare(ts, False, ranges, seed, epoch)
    assert np.array_equal(unwarped, np.stack(
        [downsample_image(plane_of(im, r)).reshape(-1) for im in images]))
    ids = rng.permutation(len(images))[:_STACK + 5]
    assert np.array_equal(prepare(ts, True, ranges, seed, epoch, ids), everything[ids])
    assert np.array_equal(prepare(ts, False, ranges, seed, epoch, ids), unwarped[ids])


# Frames that train on themselves (r = 1): the inputs are the full-frame
# warp's, which the unblocked formula states, so they did not change when
# training moved to planes.
@pytest.mark.parametrize("shape", [(32, 32), (64, 96), (96, 96)])
def test_prepare_inputs_of_frames_with_r_1_are_the_full_frame_warp(shape):
    rng = np.random.default_rng(22)
    images = [rng.random(shape).astype(np.float32) for _ in range(_STACK + 3)]
    ranges = AffineRanges(rotation_deg=20.0, translate_px=8.0,
                          scale_min=0.8, scale_max=1.2)
    seed, epoch = 5, 3
    ts = frames_set(images)
    assert ts.r == 1
    expected = np.stack([downsample_image(unblocked_warp(
        im.astype(float), *_draw_affine(ranges, mix_seed(seed, 0xA46, epoch, i)))).reshape(-1)
        for i, im in enumerate(images)])
    assert np.array_equal(prepare(ts, True, ranges, seed, epoch), expected)
    assert np.array_equal(prepare(ts, False, ranges, seed, epoch),
                          np.stack([downsample_image(im).reshape(-1) for im in images]))


def test_train_warps_float32_planes(monkeypatch):
    import flattrack.regressor as regressor
    seen = []

    def spy(planes, rows, affines, out, ws, fy=1, fx=1):
        seen.append((planes.dtype, planes.shape[1:], fy, fx))
        return warp_stack(planes, rows, affines, out, ws, fy, fx)

    warp_stack = regressor._warp_stack
    monkeypatch.setattr(regressor, "_warp_stack", spy)
    params = EyeRenderParams()  # the default 128x128 scenes
    tr = render_round(GRID_9, SCREEN, params, 0, 0, 1, 11)
    va = render_round(GRID_9, SCREEN, params, 0, 1, 1, 11)
    train(model_init(3), training_set(tr), training_set(va),
          TrainConfig(epochs=1, batch_size=8, seed=7), SCREEN)
    assert seen and set(seen) == {(np.dtype(np.float32), (64, 64), 2, 2)}


def test_train_warps_on_the_calling_thread(monkeypatch):
    import flattrack.regressor as regressor
    idents = []

    def spy(*args):
        idents.append((os.getpid(), threading.get_ident()))
        return warp_stack(*args)

    warp_stack = regressor._warp_stack
    monkeypatch.setattr(regressor, "_warp_stack", spy)
    monkeypatch.setenv("FLATTRACK_THREADS", "4")
    # 9 samples: two stacks per epoch.
    train(model_init(3), training_set(tiny_round(0)), training_set(tiny_round(1)),
          TrainConfig(epochs=2, batch_size=8, seed=7), SCREEN)
    assert idents and set(idents) == {(os.getpid(), threading.get_ident())}


def test_train_holds_no_epoch_sized_input():
    # Inputs are made per batch: the traced peak of a run must not grow by
    # an (N, 1024) float64 array (8 KB per sample) when N quadruples.
    rng = np.random.default_rng(25)
    val = frames_set(rng.random((8, 32, 32)))
    cfg = TrainConfig(epochs=1, lr=1e-3, batch_size=32, seed=7)

    def traced_peak(n):
        ts = frames_set(rng.random((n, 32, 32)))
        tracemalloc.start()
        try:
            train(model_init(3), ts, val, cfg, SCREEN)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 128
    assert traced_peak(4 * n) - traced_peak(n) < 2 * n * 8 * 1024


def test_train_keeps_two_copies_of_the_weights():
    # One pretraining call, its model made inside the trace as
    # train_protocol makes it: the model it trains in place, the best
    # weights and Adam's two moments are four model sizes. A model-sized
    # gradient (5.95 with one), a third copy of the weights or a
    # model-sized Adam scratch array would take the peak past 5.5.
    rng = np.random.default_rng(26)
    ts, val = frames_set(rng.random((64, 32, 32))), frames_set(rng.random((16, 32, 32)))
    cfg = TrainConfig(epochs=2, lr=1e-3, batch_size=32, augment=False, seed=7)
    model_bytes = sum((a + 1) * b for a, b in zip(ARCH[:-1], ARCH[1:])) * 8
    tracemalloc.start()
    try:
        train(model_init(3), ts, val, cfg, SCREEN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * model_bytes


def test_training_identical_at_any_thread_count(tmp_path, monkeypatch):
    params = EyeRenderParams()  # the default 128x128 scenes
    tr = [s for r in (0, 1) for s in render_round(GRID_9, SCREEN, params, 0, r, 1, 11)]
    va = render_round(GRID_9, SCREEN, params, 0, 2, 1, 11)
    cfg = TrainConfig(epochs=2, lr=1e-3, batch_size=8, seed=7)
    models = []
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("FLATTRACK_THREADS", workers)
        path = tmp_path / f"model_{workers}.ftkmdl"
        save_model(train(model_init(3), training_set(tr), training_set(va), cfg, SCREEN).model, path)
        models.append(path.read_bytes())
    assert models[0] == models[1] == models[2]
    save_model(model_init(3), tmp_path / "init.ftkmdl")
    assert models[0] != (tmp_path / "init.ftkmdl").read_bytes()  # it trained


# Images are stored as float32 and converted to float64 inside the kernels:
# float32 images and their float64 copies must give the same bits.
def as_dtype(samples, dtype):
    return [dataclasses.replace(s, image=s.image.astype(np.float32).astype(dtype))
            for s in samples]


@pytest.mark.parametrize("shape", [(128, 128), (64, 96)])
def test_float32_images_prepare_like_float64(shape):
    rng = np.random.default_rng(23)
    images = [rng.random(shape).astype(np.float32) for _ in range(_STACK + 3)]
    ranges = AffineRanges(rotation_deg=20.0, translate_px=8.0,
                          scale_min=0.8, scale_max=1.2)
    for augment in (True, False):
        x32 = prepare(frames_set(images), augment, ranges, 5, 3)
        x64 = prepare(frames_set([im.astype(float) for im in images]),
                      augment, ranges, 5, 3)
        assert np.array_equal(x32, x64)


def test_prepare_inputs_checks_the_frame_shape():
    rng = np.random.default_rng(24)
    ranges = AffineRanges()
    mixed = [rng.random(shape) for shape in [(64, 64)] * _STACK + [(96, 96)]]
    off_rule = [rng.random((100, 100)) for _ in range(3)]
    for augment in (True, False):
        with pytest.raises(DataError):
            prepare(frames_set(mixed), augment, ranges, 5, 3)
        with pytest.raises(ConfigError):
            prepare(frames_set(off_rule), augment, ranges, 5, 3)


def test_float32_images_train_and_evaluate_like_float64(tmp_path, monkeypatch):
    params = EyeRenderParams()  # the default 128x128 scenes
    rounds = [render_round(GRID_9, SCREEN, params, 0, r, 1, 13) for r in range(4)]
    tr, va, te = rounds[0] + rounds[1], rounds[2], rounds[3]
    cfg = TrainConfig(epochs=2, lr=1e-3, batch_size=8, seed=7)
    for workers in ("1", "2"):
        monkeypatch.setenv("FLATTRACK_THREADS", workers)
        models = []
        for dtype in (np.float32, np.float64):
            path = tmp_path / f"model_{workers}_{np.dtype(dtype).name}.ftkmdl"
            save_model(train(model_init(3), training_set(as_dtype(tr, dtype)),
                             training_set(as_dtype(va, dtype)),
                             cfg, SCREEN).model, path)
            models.append(path.read_bytes())
        assert models[0] == models[1]
    m = load_model(tmp_path / "model_1_float32.ftkmdl")
    r32 = evaluate(m, as_dtype(te, np.float32), SCREEN)
    r64 = evaluate(m, as_dtype(te, np.float64), SCREEN)
    assert np.array_equal(r32.errors_deg, r64.errors_deg)
    assert r32.per_point == r64.per_point


def test_adam_step_equals_the_plain_formula():
    # Layer 0 frozen, as in fine-tuning; and every layer trainable, where
    # W0 (1024x128) spans 16 of the step's blocks. The step gets each
    # weight gradient as factors (acts, delta) of 1 to 32 rows and forms it
    # a block of rows at a time; the plain formula takes the whole product.
    # The last step is a batch with every sample skipped.
    X, gts = batch_of(tiny_round(), 6)
    away = model_init(9)
    away.biases[2][:] = [0.0, 0.0, -1e3]  # every prediction faces away
    for trainable in ({1, 2}, {0, 1, 2}):
        m = model_init(5)
        ref = m.copy()
        cfg = TrainConfig(weight_decay=5e-3, seed=1)
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        moments = {k: [(np.zeros_like(p), np.zeros_like(p))
                       for p in (ref.weights[k], ref.biases[k])] for k in trainable}
        opt = AdamState(m)
        rng = np.random.default_rng(4)
        for t in range(1, 6):
            if t < 5:
                n = int(rng.integers(1, 33))
                fw = [(rng.standard_normal((n, w.shape[0])),
                       rng.standard_normal((n, w.shape[1]))) for w in m.weights]
                gb = [rng.standard_normal(b.shape) for b in m.biases]
            else:
                _, fw, gb, n_used, _ = batch_loss_and_grads(away, X, gts, SCREEN)
                assert n_used == 0
            gw = [a.T @ d for a, d in fw]
            lr = 1e-3 * 0.5 ** (t // 2)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k in trainable:
                for theta, g, (mom, vel) in zip((ref.weights[k], ref.biases[k]),
                                                (gw[k], gb[k]), moments[k]):
                    g = g + cfg.weight_decay * theta
                    mom *= b1
                    mom += (1 - b1) * g
                    vel *= b2
                    vel += (1 - b2) * g * g
                    theta -= lr * (mom / c1) / (np.sqrt(vel / c2) + cfg.adam_eps)
            opt.step(m, fw, [g.copy() for g in gb], lr, cfg, trainable)
            for a, b in zip(m.weights + m.biases, ref.weights + ref.biases):
                assert np.array_equal(a, b)
        assert not any(g.any() for g in gw)  # the skipped batch's
        # Two moments per trainable parameter, none for a frozen layer, and
        # two bounded scratch arrays for the whole state.
        for k, w in enumerate(m.weights):
            if k in trainable:
                assert not np.array_equal(w, model_init(5).weights[k])
                assert [len(pair) for pair in opt.slots[k]] == [2, 2]
            else:
                assert np.array_equal(w, model_init(5).weights[k])
                assert opt.slots[k] is None
        assert opt.scratch.nbytes <= 64 * 1024 and opt.grad.nbytes <= 64 * 1024


def test_adam_step_trains_layers_wider_than_a_block():
    # A hidden layer of 9,000 units: W0's rows and b0 are longer than one
    # 8,192-value block, so the step updates them in pieces of a row; W1
    # (9000x3) takes blocks of whole rows. It matches the plain formula to
    # rounding: BLAS may round a one-row product differently.
    rng = np.random.default_rng(6)
    m = RegressorModel([rng.standard_normal((4, 9000)), rng.standard_normal((9000, 3))],
                       [rng.standard_normal(9000), rng.standard_normal(3)])
    ref = m.copy()
    cfg = TrainConfig(weight_decay=5e-3, seed=1)
    opt = AdamState(m)
    fw = [(rng.standard_normal((5, w.shape[0])), rng.standard_normal((5, w.shape[1])))
          for w in m.weights]
    gb = [rng.standard_normal(b.shape) for b in m.biases]
    opt.step(m, fw, [g.copy() for g in gb], 1e-3, cfg, {0, 1})
    for theta, g in zip(ref.weights + ref.biases, [a.T @ d for a, d in fw] + gb):
        g = g + cfg.weight_decay * theta
        mom, vel = (1 - cfg.adam_beta1) * g, (1 - cfg.adam_beta2) * g * g
        c1, c2 = 1.0 - cfg.adam_beta1, 1.0 - cfg.adam_beta2
        theta -= 1e-3 * (mom / c1) / (np.sqrt(vel / c2) + cfg.adam_eps)
    for a, b in zip(m.weights + m.biases, ref.weights + ref.biases):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
    assert opt.grad.nbytes <= 64 * 1024


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def split_tiny(seed=11):
    tr = tiny_round(0, seed=seed) + tiny_round(1, seed=seed)
    va = tiny_round(2, seed=seed)
    return tr, va


def test_zero_lr_keeps_weights():
    tr, va = split_tiny()
    m = model_init(10)
    trained = m.copy()  # train updates its argument in place
    cfg = TrainConfig(epochs=1, lr=0.0, weight_decay=0.0, augment=False, seed=2)
    res = train(trained, training_set(tr), training_set(va), cfg, SCREEN)
    for w0, w1, w2 in zip(m.weights, trained.weights, res.model.weights):
        assert np.array_equal(w0, w1)
        assert np.array_equal(w0, w2)


def test_reported_loss_matches_independent_recomputation():
    # With lr = 0 the weights never move, so the epoch's reported training
    # loss must equal the mean per-sample |dx|+|dy| at the initial weights.
    tr, va = split_tiny()
    m = model_init(11)
    cfg = TrainConfig(epochs=1, lr=0.0, weight_decay=0.0, augment=False,
                      batch_size=7, seed=3)
    res = train(m.copy(), training_set(tr), training_set(va), cfg, SCREEN)
    manual = []
    for s in tr:
        # Training reads each 32x32 frame as its float32 plane (r = 1).
        v = forward(m, downsample_image(s.image.astype(np.float32)))
        manual.append(loss_l1(gaze_to_screen(v, SCREEN), s.screen_pt))
    assert res.history[0].train_loss == pytest.approx(np.mean(manual), abs=1e-9)


def test_training_deterministic():
    tr, va = split_tiny()
    cfg = TrainConfig(epochs=3, seed=4)
    r1 = train(model_init(12), training_set(tr), training_set(va), cfg, SCREEN)
    r2 = train(model_init(12), training_set(tr), training_set(va), cfg, SCREEN)
    for w1, w2 in zip(r1.model.weights, r2.model.weights):
        assert np.array_equal(w1, w2)
    assert [h.val_err_deg for h in r1.history] == [h.val_err_deg for h in r2.history]


def test_single_sample_overfit():
    s = tiny_round()[4]
    cfg = TrainConfig(epochs=500, lr=1e-3, weight_decay=0.0, augment=False,
                      batch_size=1, lr_step_epochs=10**6, seed=5)
    res = train(model_init(13), training_set([s]), training_set([s]), cfg, SCREEN)
    v = forward(res.model, downsample_image(s.image))
    assert loss_l1(gaze_to_screen(v, SCREEN), s.screen_pt) < 1.0


def test_training_improves_over_init():
    tr, va = split_tiny()
    m = model_init(14)
    cfg = TrainConfig(epochs=8, augment=False, seed=6)
    res = train(m, training_set(tr), training_set(va), cfg, SCREEN)
    first = res.history[0].val_err_deg
    assert res.best_val_err_deg < first


def test_empty_sets_rejected():
    tr, va = split_tiny()
    from flattrack.errors import DataError
    tr, va = training_set(tr), training_set(va)
    with pytest.raises(DataError):
        train(model_init(1), tr.subset([]), va, TrainConfig(), SCREEN)
    with pytest.raises(DataError):
        train(model_init(1), tr, va.subset([]), TrainConfig(), SCREEN)
    with pytest.raises(DataError):
        training_set([])


def test_finetune_freezes_first_layer():
    tr, va = split_tiny()
    base = train(model_init(15), training_set(tr), training_set(va),
                 TrainConfig(epochs=2, augment=False, seed=7), SCREEN)
    res = fine_tune(base.model, training_set(tr), training_set(va),
                    TrainConfig(epochs=3, augment=False, seed=8), SCREEN)
    assert np.array_equal(res.model.weights[0], base.model.weights[0])
    assert np.array_equal(res.model.biases[0], base.model.biases[0])
    assert not np.array_equal(res.model.weights[1], base.model.weights[1])
    assert not np.array_equal(res.model.weights[2], base.model.weights[2])


def test_finetune_leaves_its_base_unchanged(tmp_path, monkeypatch):
    # Serial fine-tunes, as train_protocol runs them at one worker: each
    # trains a copy, so the base's bytes stay and a second fine-tune with
    # the same config gives the same weights.
    monkeypatch.setenv("FLATTRACK_THREADS", "1")
    tr, va = split_tiny()
    base = train(model_init(15), training_set(tr), training_set(va),
                 TrainConfig(epochs=2, augment=False, seed=7), SCREEN)
    save_model(base.model, tmp_path / "base.ftkmdl")
    before = [p.tobytes() for p in base.model.weights + base.model.biases]
    cfg = TrainConfig(epochs=3, augment=False, seed=8)
    paths = []
    for i in range(2):
        res = fine_tune(base.model, training_set(tr), training_set(va), cfg, SCREEN)
        assert [p.tobytes() for p in base.model.weights + base.model.biases] == before
        paths.append(tmp_path / f"ft_{i}.ftkmdl")
        save_model(res.model, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != (tmp_path / "base.ftkmdl").read_bytes()


def test_backward_stops_at_the_first_trainable_layer():
    X, gts = batch_of(tiny_round(), n=9)
    m = model_init(15)
    _, gw, gb, _, _ = batch_loss_and_grads(m, X, gts, SCREEN)
    _, fw, fb, _, _ = batch_loss_and_grads(m, X, gts, SCREEN, first=1)
    assert fw[0] is None and fb[0] is None  # the frozen layer gets none
    for k in (1, 2):
        assert np.array_equal(weight_grad(fw[k]), weight_grad(gw[k]))
        assert np.array_equal(fb[k], gb[k])


def test_finetune_never_worse_on_val():
    tr, va = split_tiny()
    base = train(model_init(16), training_set(tr), training_set(va),
                 TrainConfig(epochs=4, augment=False, seed=9), SCREEN)
    # The validation inputs as training reads them: float32 planes (r = 1).
    X_val = np.stack([downsample_image(s.image.astype(np.float32)).reshape(-1)
                      for s in va])
    pre_errs = []
    v, _ = forward_batch(base.model, X_val)
    for i, s in enumerate(va):
        pre_errs.append(angular_error(v[i], s.gaze))
    res = fine_tune(base.model, training_set(tr), training_set(va),
                    TrainConfig(epochs=3, augment=False, seed=10), SCREEN)
    assert res.best_val_err_deg <= np.mean(pre_errs) + 1e-12


def test_mask_all_layers_is_noop():
    tr, va = split_tiny()
    m = model_init(17)
    trained = m.copy()  # train updates its argument in place
    res = train(trained, training_set(tr), training_set(va),
                TrainConfig(epochs=2, augment=False, seed=11), SCREEN, trainable=set())
    for w0, w1, w2 in zip(m.weights, trained.weights, res.model.weights):
        assert np.array_equal(w0, w1)
        assert np.array_equal(w0, w2)


def test_history_csv(tmp_path):
    tr, va = split_tiny()
    res = train(model_init(18), training_set(tr), training_set(va),
                TrainConfig(epochs=2, augment=False, seed=12), SCREEN)
    path = tmp_path / "hist.csv"
    res.write_history_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("epoch,train_loss,val_loss,val_err_deg,lr,"
                        "skipped_train,skipped_val")
    assert len(lines) == 3
    # One column per EpochStats field, in order, each row its epoch's values.
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == [fd.name for fd in dataclasses.fields(EpochStats)]
    for row, stats in zip(rows[1:], res.history):
        assert row == [repr(v) for v in dataclasses.astuple(stats)]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_perfect_predictor_stub():
    m = model_init(19)
    samples = tiny_round()
    for s in samples:
        s.gaze = forward(m, downsample_image(s.image))
    rep = evaluate(m, samples, SCREEN)
    # arccos resolution near zero angle is ~sqrt(eps) radians
    assert rep.mean_err_deg < 1e-5
    assert rep.min_err_deg < 1e-5


def test_evaluate_constant_predictor_matches_grid_eccentricity():
    m = model_init(20)
    for k in range(3):
        m.weights[k][:] = 0.0
        m.biases[k][:] = 0.0  # constant (0,0,1) via the zero-vector fallback
    samples = tiny_round()
    rep = evaluate(m, samples, SCREEN)
    # Each point's eccentricity: its angle from the head-on axis (0, 0, 1).
    ecc = np.array([angular_error(screen_to_gaze(p, SCREEN), [0.0, 0.0, 1.0])
                    for p in make_grid(GRID_9)])
    assert rep.mean_err_deg == pytest.approx(float(ecc.mean()), abs=1e-9)


def test_evaluate_report_structure():
    m = model_init(21)
    samples = tiny_round()
    rep = evaluate(m, samples, SCREEN)
    assert len(rep.per_point) == 9
    assert rep.mean_err_deg == pytest.approx(float(rep.errors_deg.mean()), abs=1e-9)


# ---------------------------------------------------------------------------
# FTKMDL io
# ---------------------------------------------------------------------------

def test_model_round_trip_bit_exact(tmp_path):
    m = model_init(22)
    path = tmp_path / "model.ftkmdl"
    save_model(m, path)
    first = path.read_bytes()
    assert first == ftkmdl_bytes(m.weights, m.biases)
    back = load_model(path)
    save_model(back, path)
    assert path.read_bytes() == first
    for w0, w1 in zip(m.weights, back.weights):
        assert np.array_equal(w0.astype(np.float32), w1.astype(np.float32))


def test_model_load_errors(tmp_path):
    path = tmp_path / "bad.ftkmdl"
    path.write_bytes(b"WRONG 3\n")
    with pytest.raises(FormatError):
        load_model(path)
    path.write_bytes(b"FTKMDL2 3\n")
    with pytest.raises(FormatError):
        load_model(path)
    m = model_init(23)
    good = tmp_path / "good.ftkmdl"
    save_model(m, good)
    truncated = good.read_bytes()[:-7]
    path.write_bytes(truncated)
    with pytest.raises(FormatError):
        load_model(path)
    # Well-formed layers whose dims do not chain (4x3, then 5x3).
    def layer(rows):
        return f"{rows} 3\n".encode() + np.zeros(3 * rows + 3, "<f4").tobytes()

    path.write_bytes(b"FTKMDL1 2\n" + layer(4) + layer(5))
    with pytest.raises(FormatError):
        load_model(path)


def _chained_model_bytes(dims):
    """FTKMDL bytes of a well-formed zero model with the given layer dims."""
    return ftkmdl_bytes([np.zeros(s) for s in zip(dims[:-1], dims[1:])],
                        [np.zeros(cols) for cols in dims[1:]])


# Well-formed files whose input is not 32*32 values or whose output is not
# a 3-vector: the file is at fault, not the config.
@pytest.mark.parametrize("dims", [(1024, 8, 2), (16, 8, 3)])
def test_model_load_rejects_wrong_endpoint_dims(tmp_path, dims):
    path = tmp_path / "ends.ftkmdl"
    path.write_bytes(_chained_model_bytes(dims))
    with pytest.raises(FormatError, match="model maps"):
        load_model(path)
    path.write_bytes(_chained_model_bytes((1024, 8, 3)))
    assert load_model(path).dims == (1024, 8, 3)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("layer", [0, 2])
def test_model_load_rejects_non_finite_weights(tmp_path, bad, layer):
    m = model_init(24)
    m.weights[layer][0, 1] = bad  # after validation, as a corrupt file would
    path = tmp_path / "bad.ftkmdl"
    # save_model refuses such a model, so the file is written by hand.
    path.write_bytes(ftkmdl_bytes(m.weights, m.biases))
    with pytest.raises(FormatError, match="non-finite"):
        load_model(path)


def test_load_model_checks_the_payload_size_before_allocating(tmp_path):
    # A layer header that claims 256 MiB, in a file of 20 bytes.
    path = tmp_path / "big.ftkmdl"
    path.write_bytes(b"FTKMDL1 1\n8192 8192\n")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated or oversized"):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_save_model_rejects_values_beyond_float32(tmp_path):
    # Finite in float64, infinite once cast: load_model would reject the file.
    m = model_init(1)
    m.weights[2][0, 0] = 1e39
    path = tmp_path / "big.ftkmdl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from the cast
        with pytest.raises(NumericalError, match="layer 2"):
            save_model(m, path)
    assert not path.exists()


@settings(max_examples=300, deadline=None)
@given(fuzz.FTKMDL)
def test_model_parser_fails_closed(data):
    # A FormatError, or a finite model of ARCH's end dims that saves back
    # to a file of the same size.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ftkmdl")
        with open(path, "wb") as f:
            f.write(data)
        try:
            m = load_model(path)
        except FormatError:
            return
        assert (m.dims[0], m.dims[-1]) == (ARCH[0], ARCH[-1])
        save_model(m, path)
        assert os.path.getsize(path) == len(data)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(split_ratio=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ConfigError):
        AffineRanges(scale_min=0.0)
    # NaN fails no plain `x < 0` check; inf is no usable range either.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            TrainConfig(lr=bad)
        with pytest.raises(ConfigError):
            AffineRanges(rotation_deg=bad)
    with pytest.raises(ConfigError):
        AffineRanges(scale_max=float("inf"))
