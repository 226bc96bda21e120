"""Trainable gaze regressor: 32x32 image -> unit gaze vector.

Architecture: flatten(32x32) -> dense 128 + ReLU -> dense 64 + ReLU ->
dense 3 -> unit normalization. Training goes through the gaze->screen
projection and takes an L1 loss in screen pixels, so gradients chain
through the projection Jacobian and the normalization Jacobian
(I - vv^T)/||u||. All gradients are analytic; Adam with a coupled L2
weight-decay term and a step-decayed learning rate drive the updates.

Model files (FTKMDL, bit-exact): ASCII line ``FTKMDL1 <n_layers>\\n``,
then per layer an ASCII line ``<rows> <cols>\\n`` followed by rows*cols
little-endian float32 weights and cols float32 biases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericalError
from .geometry import (CalibratedScreen, angular_error, gaze_to_screen,
                       gaze_to_screen_jacobian, MIN_PROJECTABLE_Z)
from .seeds import make_rng, mix_seed

INPUT_SIDE = 32
ARCH = (INPUT_SIDE * INPUT_SIDE, 128, 64, 3)
# Pre-normalization vectors shorter than this fall back to straight-ahead.
_NORM_FLOOR = 1e-12
_FALLBACK = np.array([0.0, 0.0, 1.0])

_FTKMDL_MAGIC = "FTKMDL"
_FTKMDL_VERSION = 1


@dataclass
class RegressorModel:
    """Dense layers as (fan_in, fan_out) weight matrices plus bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ConfigError("weights/biases must be non-empty and parallel")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ConfigError(f"layer {k} shape mismatch: {w.shape} / {b.shape}")
            if k > 0 and self.weights[k - 1].shape[1] != w.shape[0]:
                raise ConfigError(f"layer {k} input dim breaks the chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericalError(f"layer {k} has non-finite parameters")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def copy(self) -> "RegressorModel":
        return RegressorModel([w.copy() for w in self.weights],
                              [b.copy() for b in self.biases])


@dataclass(frozen=True)
class AffineRanges:
    """Augmentation ranges: rotation +/-deg, translation +/-px, scale interval."""

    rotation_deg: float = 5.0
    translate_px: float = 3.0
    scale_min: float = 0.95
    scale_max: float = 1.05

    def __post_init__(self):
        # Chained comparisons, so that NaN (which compares False) fails them.
        if not (0 <= self.rotation_deg < math.inf and 0 <= self.translate_px < math.inf):
            raise ConfigError("augmentation ranges must be nonnegative and finite")
        if not (0 < self.scale_min <= self.scale_max < math.inf):
            raise ConfigError("scale range must satisfy 0 < min <= max < inf")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr: float = 1e-4
    weight_decay: float = 5e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    lr_step_epochs: int = 5
    lr_decay: float = 0.5
    batch_size: int = 32
    split_ratio: float = 0.8
    augment: bool = True
    aug: AffineRanges = field(default_factory=AffineRanges)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.lr_step_epochs < 1:
            raise ConfigError("epochs/batch_size/lr_step_epochs out of range")
        # Chained comparisons, so that NaN (which compares False) fails them.
        if not (0 <= self.lr < math.inf and 0 <= self.weight_decay < math.inf
                and 0 < self.adam_eps < math.inf):
            raise ConfigError("lr/weight_decay/adam_eps out of range")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1
                and 0 < self.lr_decay <= 1):
            raise ConfigError("beta/decay factors must be in (0, 1]")
        if not (0.0 < self.split_ratio < 1.0):
            raise ConfigError("split_ratio must be in (0, 1)")


def model_init(seed: int) -> RegressorModel:
    """Scaled-Gaussian fan-in initialization (std sqrt(2/fan_in)), zero biases.

    The final layer's z-output column is folded to its absolute value: the
    penultimate activations are nonnegative (ReLU), so every initial
    prediction faces the screen. With a sign-symmetric draw, half of all
    seeds start with every prediction unprojectable, and the skip-guard then
    leaves training without any gradient to recover on.
    """
    rng = make_rng(seed, 0x31417)
    weights, biases = [], []
    for fan_in, fan_out in zip(ARCH[:-1], ARCH[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    weights[-1][:, 2] = np.abs(weights[-1][:, 2])
    return RegressorModel(weights, biases)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _flatten_input(image: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(image, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite input image")
    if x.ndim == 2:
        x = x.reshape(-1)
    if x.shape != (dim,):
        raise ConfigError(f"input must flatten to {dim} values, got {x.shape}")
    return x


def forward_batch(m: RegressorModel, X: np.ndarray):
    """Batched forward pass. Returns (unit vectors (N,3), cache for backward)."""
    acts = [X]
    z = X
    n_layers = m.n_layers
    pre = []
    for k in range(n_layers):
        z = acts[-1] @ m.weights[k] + m.biases[k]
        pre.append(z)
        if k < n_layers - 1:
            z = np.maximum(z, 0.0)
        acts.append(z)
    u = acts[-1]
    norms = np.linalg.norm(u, axis=1)
    ok = norms > _NORM_FLOOR
    v = np.where(ok[:, None], u / np.where(ok, norms, 1.0)[:, None], _FALLBACK)
    cache = {"acts": acts, "pre": pre, "u": u, "norms": norms, "ok": ok}
    return v, cache


def forward(m: RegressorModel, image) -> np.ndarray:
    """Unit gaze vector for one pre-downsampled image with values in [0, 1]."""
    x = _flatten_input(image, m.dims[0])
    v, _ = forward_batch(m, x[None, :])
    return v[0]


def backward_batch(m: RegressorModel, cache, dV: np.ndarray):
    """Gradients of sum_i dV_i . v_i w.r.t. every weight and bias.

    dV is (N, 3): upstream gradient at the unit-normalized output. Samples
    flagged degenerate in the cache (zero pre-normalization vector)
    contribute nothing.
    """
    u, norms, ok = cache["u"], cache["norms"], cache["ok"]
    safe = np.where(ok, norms, 1.0)
    v = u / safe[:, None]
    # Normalization Jacobian (I - vv^T)/||u||, applied row-wise; it is
    # symmetric so transpose-application is the same map.
    dU = (dV - v * np.sum(v * dV, axis=1, keepdims=True)) / safe[:, None]
    dU = np.where(ok[:, None], dU, 0.0)

    grads_w = [None] * m.n_layers
    grads_b = [None] * m.n_layers
    delta = dU
    for k in range(m.n_layers - 1, -1, -1):
        if k < m.n_layers - 1:
            delta = delta * (cache["pre"][k] > 0)
        grads_w[k] = cache["acts"][k].T @ delta
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = delta @ m.weights[k].T
    return grads_w, grads_b


def loss_l1(pred_pt, gt_pt) -> float:
    """Screen-space L1: |dx| + |dy| in pixels."""
    p = np.asarray(pred_pt, dtype=float)
    g = np.asarray(gt_pt, dtype=float)
    return float(np.abs(p - g).sum())


def batch_loss_and_grads(m: RegressorModel, X: np.ndarray, gt_pts: np.ndarray,
                         screen: CalibratedScreen):
    """Mean screen-space L1 loss and its analytic parameter gradients.

    Samples whose predicted gaze is unprojectable (v_z <= 1e-6) are skipped
    and counted instead of clamped, so they add no biased gradient.
    Returns (mean_loss, grads_w, grads_b, n_used, n_skipped).
    """
    v, cache = forward_batch(m, X)
    n = X.shape[0]
    keep = v[:, 2] > MIN_PROJECTABLE_Z
    n_used = int(keep.sum())
    dV = np.zeros((n, 3))
    total = 0.0
    for i in np.nonzero(keep)[0]:
        pred = gaze_to_screen(v[i], screen)
        resid = pred - gt_pts[i]
        total += float(np.abs(resid).sum())
        jac = gaze_to_screen_jacobian(v[i], screen)
        dV[i] = jac.T @ np.sign(resid)
    if n_used == 0:
        zero_w = [np.zeros_like(w) for w in m.weights]
        zero_b = [np.zeros_like(b) for b in m.biases]
        return 0.0, zero_w, zero_b, 0, n - n_used
    dV /= n_used
    grads_w, grads_b = backward_batch(m, cache, dV)
    return total / n_used, grads_w, grads_b, n_used, n - n_used


def batch_loss(m: RegressorModel, X: np.ndarray, gt_pts: np.ndarray,
               screen: CalibratedScreen) -> float:
    """Loss only (used by finite-difference checks); same skip rule."""
    v, _ = forward_batch(m, X)
    keep = v[:, 2] > MIN_PROJECTABLE_Z
    if not keep.any():
        return 0.0
    total = 0.0
    for i in np.nonzero(keep)[0]:
        pred = gaze_to_screen(v[i], screen)
        total += float(np.abs(pred - gt_pts[i]).sum())
    return total / int(keep.sum())


# ---------------------------------------------------------------------------
# image plumbing: downsample and affine augmentation
# ---------------------------------------------------------------------------

def downsample_image(image, out_h: int = INPUT_SIDE, out_w: int = INPUT_SIDE) -> np.ndarray:
    """Area-average downsample when dims divide evenly, else bilinear resize."""
    x = np.asarray(image, dtype=float)
    if x.ndim != 2:
        raise ConfigError("downsample needs a 2D image")
    h, w = x.shape
    if h == out_h and w == out_w:
        return x.copy()
    if h % out_h == 0 and w % out_w == 0:
        return x.reshape(out_h, h // out_h, out_w, w // out_w).mean(axis=(1, 3))
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    Yq, Xq = np.meshgrid(ys, xs, indexing="ij")
    return _bilinear_sample(x, Xq, Yq, fill=float(x.mean()))


def _bilinear_sample(img: np.ndarray, Xq: np.ndarray, Yq: np.ndarray,
                     fill: float) -> np.ndarray:
    h, w = img.shape
    inside = (Xq >= 0) & (Xq <= w - 1) & (Yq >= 0) & (Yq <= h - 1)
    x0 = np.clip(np.floor(Xq), 0, max(w - 2, 0)).astype(int)
    y0 = np.clip(np.floor(Yq), 0, max(h - 2, 0)).astype(int)
    wx = np.clip(Xq - x0, 0.0, 1.0)
    wy = np.clip(Yq - y0, 0.0, 1.0)
    # Gather from the flattened image: one take per corner is several times
    # faster than 2-D fancy indexing. A 1-pixel axis has no second neighbour.
    flat = img.reshape(-1)
    i = y0 * w + x0
    dx, dy = min(w - 1, 1), min(h - 1, 1) * w
    top = flat.take(i) * (1 - wx) + flat.take(i + dx) * wx
    bot = flat.take(i + dy) * (1 - wx) + flat.take(i + dy + dx) * wx
    return np.where(inside, top * (1 - wy) + bot * wy, fill)


# Rows per block in warp_affine: a 32x128 float64 temporary (32 KiB) stays in
# the malloc heap and in cache; a whole 128x128 plane would be mmapped and
# page-faulted in again on every call.
_WARP_ROWS = 32


def warp_affine(image, rotation_deg: float, translate: tuple[float, float],
                scale: float) -> np.ndarray:
    """Rotate/scale about the image center, then translate; bilinear resampling.

    Out-of-frame samples take the mean of the input's border pixels. The
    output is computed in blocks of rows, each pixel exactly as for the
    whole image at once.
    """
    img = np.ascontiguousarray(image, dtype=float)
    if img.ndim != 2:
        raise ConfigError("warp needs a 2D image")
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    th = math.radians(rotation_deg)
    c, s = math.cos(th), math.sin(th)
    inv = 1.0 / scale
    edge = np.concatenate([img[0, :], img[-1, :], img[1:-1, 0], img[1:-1, -1]])
    fill = float(edge.mean())
    px = np.arange(w, dtype=float) - cx - translate[0]
    out = np.empty((h, w))
    for r in range(0, h, _WARP_ROWS):
        ys = np.arange(r, min(r + _WARP_ROWS, h), dtype=float)
        py = (ys - cy - translate[1])[:, None]
        Xq = inv * (c * px + s * py) + cx
        Yq = inv * (-s * px + c * py) + cy
        out[r:r + _WARP_ROWS] = _bilinear_sample(img, Xq, Yq, fill)
    return out


def augment_affine(image, ranges: AffineRanges, seed: int) -> np.ndarray:
    """Seeded random affine: rotation, translation, scale within the ranges."""
    rng = make_rng(seed)
    rot = rng.uniform(-ranges.rotation_deg, ranges.rotation_deg)
    tx = rng.uniform(-ranges.translate_px, ranges.translate_px)
    ty = rng.uniform(-ranges.translate_px, ranges.translate_px)
    sc = rng.uniform(ranges.scale_min, ranges.scale_max)
    return warp_affine(image, rot, (tx, ty), sc)


# ---------------------------------------------------------------------------
# Adam + training loop
# ---------------------------------------------------------------------------

class AdamState:
    """Per-parameter first/second moment accumulators."""

    def __init__(self, m: RegressorModel):
        self.mw = [np.zeros_like(w) for w in m.weights]
        self.vw = [np.zeros_like(w) for w in m.weights]
        self.mb = [np.zeros_like(b) for b in m.biases]
        self.vb = [np.zeros_like(b) for b in m.biases]
        self.t = 0

    def step(self, model: RegressorModel, grads_w, grads_b, lr: float,
             cfg: TrainConfig, trainable: set[int]):
        self.t += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k in range(model.n_layers):
            if k not in trainable:
                continue
            for theta, g, mom, vel in (
                (model.weights[k], grads_w[k], self.mw[k], self.vw[k]),
                (model.biases[k], grads_b[k], self.mb[k], self.vb[k]),
            ):
                g = g + cfg.weight_decay * theta
                mom *= b1
                mom += (1 - b1) * g
                vel *= b2
                vel += (1 - b2) * g * g
                theta -= lr * (mom / c1) / (np.sqrt(vel / c2) + cfg.adam_eps)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_err_deg: float
    lr: float
    skipped_train: int
    skipped_val: int


@dataclass
class TrainResult:
    model: RegressorModel
    history: list[EpochStats]
    best_epoch: int
    best_val_err_deg: float

    def write_history_csv(self, path) -> None:
        import csv
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "train_loss", "val_loss", "val_err_deg", "lr"])
            for row in self.history:
                w.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss),
                            repr(row.val_err_deg), repr(row.lr)])


def _prepare_inputs(samples, augment: bool, ranges: AffineRanges,
                    seed: int, epoch: int) -> np.ndarray:
    dim = INPUT_SIDE * INPUT_SIDE
    X = np.empty((len(samples), dim))
    for i, s in enumerate(samples):
        img = s.image
        if augment:
            img = augment_affine(img, ranges, mix_seed(seed, 0xA46, epoch, i))
        X[i] = downsample_image(img).reshape(-1)
    return X


def _val_metrics(m: RegressorModel, X: np.ndarray, gt_pts: np.ndarray,
                 gazes: np.ndarray, screen: CalibratedScreen):
    v, _ = forward_batch(m, X)
    keep = v[:, 2] > MIN_PROJECTABLE_Z
    losses = []
    for i in np.nonzero(keep)[0]:
        losses.append(loss_l1(gaze_to_screen(v[i], screen), gt_pts[i]))
    errs = [angular_error(v[i], gazes[i]) for i in range(len(gazes))]
    val_loss = float(np.mean(losses)) if losses else float("nan")
    return val_loss, float(np.mean(errs)), int((~keep).sum())


def train(m: RegressorModel, train_set, val_set, cfg: TrainConfig,
          screen: CalibratedScreen, trainable: set[int] | None = None) -> TrainResult:
    """Run the full regimen and return the weights with best validation error.

    Seeded shuffling, Adam with coupled L2 weight decay, learning rate
    decayed every lr_step_epochs. ``trainable`` restricts updates to a layer
    subset (fine-tuning); default is all layers.
    """
    if not train_set or not val_set:
        raise DataError("train and validation sets must be non-empty")
    model = m.copy()
    if trainable is None:
        trainable = set(range(model.n_layers))
    opt = AdamState(model)
    gt_train = np.array([s.screen_pt for s in train_set])
    gt_val = np.array([s.screen_pt for s in val_set])
    gaze_val = np.array([s.gaze for s in val_set])
    X_val = _prepare_inputs(val_set, False, cfg.aug, cfg.seed, 0)
    X_train_static = None
    if not cfg.augment:
        X_train_static = _prepare_inputs(train_set, False, cfg.aug, cfg.seed, 0)

    history: list[EpochStats] = []
    # The starting weights are a selection candidate too, so a run that never
    # improves validation (or fine-tuning on a hard subject) cannot regress.
    best = model.copy()
    _, best_err, _ = _val_metrics(model, X_val, gt_val, gaze_val, screen)
    best_epoch = -1
    n = len(train_set)
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay ** (epoch // cfg.lr_step_epochs)
        order = make_rng(cfg.seed, 0x54F, epoch).permutation(n)
        if cfg.augment:
            X_epoch = _prepare_inputs(train_set, True, cfg.aug, cfg.seed, epoch)
        else:
            X_epoch = X_train_static
        loss_sum = 0.0
        used_sum = 0
        skipped = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            loss, gw, gb, n_used, n_skip = batch_loss_and_grads(
                model, X_epoch[idx], gt_train[idx], screen)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {lo // cfg.batch_size}")
            skipped += n_skip
            loss_sum += loss * n_used
            used_sum += n_used
            opt.step(model, gw, gb, lr, cfg, trainable)
        train_loss = loss_sum / used_sum if used_sum else float("nan")
        val_loss, val_err, skip_val = _val_metrics(model, X_val, gt_val,
                                                   gaze_val, screen)
        history.append(EpochStats(epoch, train_loss, val_loss, val_err, lr,
                                  skipped, skip_val))
        if val_err < best_err:
            best_err = val_err
            best = model.copy()
            best_epoch = epoch
    return TrainResult(best, history, best_epoch, best_err)


# Fine-tuning updates only the last two dense layers; earlier layers stay
# frozen (untouched by gradients and weight decay alike).
FINETUNE_LAYERS = frozenset({1, 2})


def fine_tune(m: RegressorModel, train_set, val_set, cfg: TrainConfig,
              screen: CalibratedScreen) -> TrainResult:
    return train(m, train_set, val_set, cfg, screen,
                 trainable=set(FINETUNE_LAYERS))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    errors_deg: np.ndarray
    mean_err_deg: float
    min_err_deg: float
    per_point: dict[tuple[int, int], tuple[float, int]]
    latency: dict[str, dict[str, float]]
    total_ms: float
    fps: float
    n_unprojectable: int


def evaluate(m: RegressorModel, test_set, screen: CalibratedScreen,
             latency_iters: int = 100) -> EvalReport:
    """Angular error per sample and per grid point, plus stage latency.

    Latency is wall-clock over >= latency_iters warm iterations of the
    regression stage (downsample + forward) on a representative frame.
    """
    if not test_set:
        raise DataError("evaluation set must be non-empty")
    errs = np.empty(len(test_set))
    n_unproj = 0
    buckets: dict[tuple[int, int], list[float]] = {}
    for i, s in enumerate(test_set):
        v = forward(m, downsample_image(s.image))
        if v[2] <= MIN_PROJECTABLE_Z:
            n_unproj += 1
        errs[i] = angular_error(v, s.gaze)
        buckets.setdefault((s.grid_i, s.grid_j), []).append(errs[i])
    per_point = {k: (float(np.mean(v)), len(v)) for k, v in sorted(buckets.items())}

    img = test_set[0].image
    lat_down = _time_stage(lambda: downsample_image(img), latency_iters)
    small = downsample_image(img)
    lat_fwd = _time_stage(lambda: forward(m, small), latency_iters)
    latency = {"downsample": lat_down, "regress": lat_fwd}
    total_ms = sum(v["median_ms"] for v in latency.values())
    return EvalReport(
        errors_deg=errs,
        mean_err_deg=float(errs.mean()),
        min_err_deg=float(errs.min()),
        per_point=per_point,
        latency=latency,
        total_ms=total_ms,
        fps=1000.0 / total_ms,
        n_unprojectable=n_unproj,
    )


def _time_stage(fn, iters: int, warmup: int = 10) -> dict[str, float]:
    for _ in range(warmup):
        fn()
    times = np.empty(iters)
    for i in range(iters):
        t0 = time.perf_counter()
        fn()
        times[i] = time.perf_counter() - t0
    ms = times * 1e3
    return {
        "median_ms": float(np.median(ms)),
        "p95_ms": float(np.percentile(ms, 95)),
        "mean_ms": float(ms.mean()),
        "iters": float(iters),
    }


# ---------------------------------------------------------------------------
# FTKMDL io
# ---------------------------------------------------------------------------

def save_model(m: RegressorModel, path) -> None:
    with open(path, "wb") as f:
        f.write(f"{_FTKMDL_MAGIC}{_FTKMDL_VERSION} {m.n_layers}\n".encode("ascii"))
        for w, b in zip(m.weights, m.biases):
            f.write(f"{w.shape[0]} {w.shape[1]}\n".encode("ascii"))
            f.write(w.astype("<f4").tobytes())
            f.write(b.astype("<f4").tobytes())


def load_model(path) -> RegressorModel:
    with open(path, "rb") as f:
        header = f.readline(64)
        parts = header.decode("ascii", errors="replace").split()
        if len(parts) != 2 or not parts[0].startswith(_FTKMDL_MAGIC):
            raise FormatError(f"{path}: bad FTKMDL header {header!r}")
        version = parts[0][len(_FTKMDL_MAGIC):]
        if version != str(_FTKMDL_VERSION):
            raise FormatError(f"{path}: unsupported FTKMDL version {version!r}")
        try:
            n_layers = int(parts[1])
        except ValueError as e:
            raise FormatError(f"{path}: bad layer count") from e
        if not (1 <= n_layers <= 64):
            raise FormatError(f"{path}: implausible layer count {n_layers}")
        weights, biases = [], []
        for k in range(n_layers):
            dims = f.readline(64).decode("ascii", errors="replace").split()
            if len(dims) != 2:
                raise FormatError(f"{path}: bad dims line for layer {k}")
            try:
                rows, cols = int(dims[0]), int(dims[1])
            except ValueError as e:
                raise FormatError(f"{path}: non-integer dims for layer {k}") from e
            if rows <= 0 or cols <= 0 or rows * cols > (1 << 26):
                raise FormatError(f"{path}: implausible dims {rows}x{cols}")
            wraw = f.read(4 * rows * cols)
            braw = f.read(4 * cols)
            if len(wraw) != 4 * rows * cols or len(braw) != 4 * cols:
                raise FormatError(f"{path}: truncated layer {k}")
            weights.append(np.frombuffer(wraw, dtype="<f4").reshape(rows, cols).astype(float))
            biases.append(np.frombuffer(braw, dtype="<f4").astype(float))
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after last layer")
    return RegressorModel(weights, biases)
