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
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericalError
from .geometry import (CalibratedScreen, angular_error, gaze_to_screen,
                       gaze_to_screen_jacobian, MIN_PROJECTABLE_Z)
from .optics import _VERSION, _read_f32, _read_header, as_float32
from .report import write_table
from .seeds import make_rng, mix_seed

INPUT_SIDE = 32
ARCH = (INPUT_SIDE * INPUT_SIDE, 128, 64, 3)
# Pre-normalization vectors shorter than this fall back to straight-ahead.
_NORM_FLOOR = 1e-12
_FALLBACK = np.array([0.0, 0.0, 1.0])

_FTKMDL_MAGIC = "FTKMDL"


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


def backward_batch(m: RegressorModel, cache, dV: np.ndarray, first: int = 0):
    """Gradients of sum_i dV_i . v_i w.r.t. the parameters of layers first..
    as (factors_w, grads_b), None below first (a frozen layer needs none):
    layer k's bias gradient, and the factors (acts[k], delta_k) of its
    weight gradient acts[k].T @ delta_k, which weight_grad forms.

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

    factors_w = [None] * m.n_layers
    grads_b = [None] * m.n_layers
    delta = dU
    for k in range(m.n_layers - 1, first - 1, -1):
        if k < m.n_layers - 1:
            delta = delta * (cache["pre"][k] > 0)
        factors_w[k] = (cache["acts"][k], delta)
        grads_b[k] = delta.sum(axis=0)
        if k > first:
            delta = delta @ m.weights[k].T
    return factors_w, grads_b


def weight_grad(factors, rows: slice = slice(None), cols: slice = slice(None),
                out: np.ndarray | None = None) -> np.ndarray:
    """The block [rows, cols] (default: all) of the weight gradient
    acts.T @ delta of backward_batch's factors, into ``out`` if given. A
    block of whole rows is bit for bit those rows of the whole product."""
    acts, delta = factors
    return np.matmul(acts[:, rows].T, delta[:, cols], out=out)


def _screen_l1(v: np.ndarray, gt_pts, screen: CalibratedScreen):
    """Screen-space L1 of the projectable rows of ``v`` (N, 3).

    Returns (keep, losses, resid): keep marks the rows with v_z > 1e-6,
    losses is |dx| + |dy| of each kept row and resid its (dx, dy).
    """
    keep = v[:, 2] > MIN_PROJECTABLE_Z
    resid = gaze_to_screen(v[keep], screen) - gt_pts[keep]
    return keep, np.abs(resid).sum(axis=1), resid


def _mean_in_order(losses: np.ndarray) -> float:
    """Mean of the values summed left to right, as a running total does
    (``sum`` regroups 8 or more values pairwise)."""
    return float(np.add.accumulate(losses)[-1]) / len(losses)


def batch_loss_and_grads(m: RegressorModel, X: np.ndarray, gt_pts: np.ndarray,
                         screen: CalibratedScreen, first: int = 0):
    """Mean screen-space L1 loss and its analytic parameter gradients for
    layers first.. (see backward_batch).

    Samples whose predicted gaze is unprojectable (v_z <= 1e-6) are skipped
    and counted instead of clamped, so they add no biased gradient.
    Returns (mean_loss, factors_w, grads_b, n_used, n_skipped); with every
    sample skipped, each gradient is zero (factors of one zero row).
    """
    v, cache = forward_batch(m, X)
    n = X.shape[0]
    keep, losses, resid = _screen_l1(v, gt_pts, screen)
    n_used = len(losses)
    if n_used == 0:
        zero_w = [(np.zeros((1, len(w))), np.zeros((1, w.shape[1]))) for w in m.weights]
        zero_b = [np.zeros_like(b) for b in m.biases]
        return 0.0, zero_w, zero_b, 0, n
    jac = gaze_to_screen_jacobian(v[keep], screen)
    sign = np.sign(resid)
    dV = np.zeros((n, 3))
    # jac.T @ sign per row: two exact products (sign is -1, 0 or 1), one sum.
    dV[keep] = jac[:, 0] * sign[:, :1] + jac[:, 1] * sign[:, 1:]
    dV /= n_used
    factors_w, grads_b = backward_batch(m, cache, dV, first)
    return _mean_in_order(losses), factors_w, grads_b, n_used, n - n_used


# ---------------------------------------------------------------------------
# image plumbing: downsample and affine augmentation
# ---------------------------------------------------------------------------

# A frame is 32*fy x 32*fx with 1 <= fy, fx <= _MAX_FACTOR: the regressor
# reads its fy x fx area mean. At most 7 because _area_mean adds a cell's
# values one by one, which is numpy's reshape mean only while that mean has
# fewer than 8 terms per row to add (from 8 on, its pairwise sum regroups).
_MAX_FACTOR = 7


def frame_factors(shape) -> tuple[int, int]:
    """(fy, fx) of a frame of ``shape``, which must be 32*fy x 32*fx with
    1 <= fy, fx <= 7; any other shape raises ConfigError."""
    if len(shape) != 2:
        raise ConfigError(f"a frame must be 2D, got shape {tuple(shape)}")
    factors = tuple(side // INPUT_SIDE for side in shape)
    if any(side % INPUT_SIDE or not 1 <= f <= _MAX_FACTOR
           for side, f in zip(shape, factors)):
        raise ConfigError(
            f"frame {shape[0]}x{shape[1]} is not {INPUT_SIDE}*k per side "
            f"with 1 <= k <= {_MAX_FACTOR}")
    return factors


def plane_factor(shape) -> int:
    """r of a frame of ``shape`` (see frame_factors): training reads the
    frame's r x r area mean, its training plane. r is the largest common
    divisor of (fy, fx) that leaves fy/r and fx/r at least 2, and 1 when
    none does, so a 128x128 frame trains on a 64x64 plane."""
    fy, fx = frame_factors(shape)
    return max((r for r in range(2, min(fy, fx) // 2 + 1) if fy % r == fx % r == 0),
               default=1)


def downsample_image(image) -> np.ndarray:
    """The 32x32 area mean of a frame (see frame_factors)."""
    x = np.asarray(image, dtype=float)
    fy, fx = frame_factors(x.shape)
    out = np.empty((INPUT_SIDE, INPUT_SIDE))
    _area_mean(x, fy, fx, out, np.empty((x.shape[0], INPUT_SIDE)))
    return out


def _area_mean(x: np.ndarray, fy: int, fx: int, out: np.ndarray,
               rows: np.ndarray) -> None:
    """Mean of each fy x fx cell of x (..., R, W) into out (..., R//fy, W//fx),
    summed as ``reshape(R//fy, fy, W//fx, fx).mean(axis=(1, 3))`` sums it for
    fx < 8: each row's fx values left to right, then the fy row sums in
    order. ``rows`` is scratch space of shape (..., R, W//fx)."""
    if fx == 1:
        rows = x
    else:
        np.add(x[..., 0::fx], x[..., 1::fx], out=rows)
        for j in range(2, fx):
            rows += x[..., j::fx]
    if fy == 1:
        np.copyto(out, rows)
    else:
        np.add(rows[..., 0::fy, :], rows[..., 1::fy, :], out=out)
        for j in range(2, fy):
            out += rows[..., j::fy, :]
    if fy * fx > 1:
        out /= fy * fx


# The stacked warp works on _STACK images x _WARP_ROWS rows at a time: at a
# 64-pixel plane width each of a block's ~40 numpy calls covers 16k values,
# so their fixed per-call cost is small against the arithmetic (stacks of
# one image ran slower), while the block's scratch (_warp_scratch, 0.84 MiB
# at 64x64 planes) stays small enough to be reused from cache.
_STACK = 8
_WARP_ROWS = 32

def _warp_scratch(planes: np.ndarray) -> dict[str, np.ndarray]:
    """Flat scratch arrays for _warp_stack on up to _STACK images of the
    (N, h, w) stack ``planes``, by name: those of one bilinear sampling
    pass, "gather" in the dtype of ``planes``. A training run allocates
    them once, because fresh arrays this size would be mmapped and
    page-faulted in again on every block. They are views of one buffer:
    as nine separate arrays they left the cli-chain benchmark's peak RSS
    about 1 MB higher."""
    h, w = planes.shape[1:]
    n = _STACK * min(h, _WARP_ROWS) * w
    # Widest first, so that each view is aligned to its item size.
    dtypes = {"p": float, "q": float, "r": float, "xq": float, "yq": float,
              "idx": np.intp, "gather": planes.dtype, "inside": bool, "test": bool}
    buf = np.empty(n * sum(np.dtype(t).itemsize for t in dtypes.values()), np.uint8)
    ws, at = {}, 0
    for b, t in dtypes.items():
        ws[b] = buf[at:at + n * np.dtype(t).itemsize].view(t)
        at += ws[b].nbytes
    return ws


def _bilinear_into(flat: np.ndarray, h: int, w: int, xq: np.ndarray,
                   yq: np.ndarray, fill, bufs: dict[str, np.ndarray],
                   offset=0.0) -> np.ndarray:
    """Bilinear samples of the h x w image(s) in ``flat`` at (xq, yq), with
    ``fill`` outside the frame; the image of each sample starts at ``offset``
    in ``flat``. Works in place: xq and yq are overwritten, and the result
    is ``bufs["p"]``. Every array has the shape of xq, or broadcasts to it.
    The pixels are gathered in the dtype of ``flat`` and weighted in
    float64, which promotes a float32 pixel exactly.
    """
    p, q, r, idx, g = bufs["p"], bufs["q"], bufs["r"], bufs["idx"], bufs["gather"]
    inside, test = bufs["inside"], bufs["test"]
    np.greater_equal(xq, 0, out=inside)
    inside &= np.less_equal(xq, w - 1, out=test)
    inside &= np.greater_equal(yq, 0, out=test)
    inside &= np.less_equal(yq, h - 1, out=test)
    # Corner (x0, y0), clipped so that its neighbours exist, and the weights
    # wx, wy, left in xq, yq. A 1-pixel axis has no second neighbour.
    np.floor(xq, out=p)
    np.clip(p, 0, max(w - 2, 0), out=p)
    np.floor(yq, out=q)
    np.clip(q, 0, max(h - 2, 0), out=q)
    xq -= p
    np.clip(xq, 0.0, 1.0, out=xq)
    yq -= q
    np.clip(yq, 0.0, 1.0, out=yq)
    q *= w
    q += p
    q += offset
    np.copyto(idx, q, casting="unsafe")
    dx, dy = min(w - 1, 1), min(h - 1, 1) * w
    # Gather with take on the flat image(s), several times faster than 2-D
    # fancy indexing: top = a*(1-wx) + b*wx in p, bot = c*(1-wx) + d*wx in r.
    np.subtract(1, xq, out=q)
    np.take(flat, idx, out=g, mode="clip")
    np.multiply(g, q, out=p)
    idx += dx
    np.take(flat, idx, out=g, mode="clip")
    np.multiply(g, xq, out=r)
    p += r
    idx += dy - dx
    np.take(flat, idx, out=g, mode="clip")
    np.multiply(g, q, out=r)
    idx += dx
    np.take(flat, idx, out=g, mode="clip")
    np.multiply(g, xq, out=q)
    r += q
    # top*(1-wy) + bot*wy, then the fill outside the frame.
    np.subtract(1, yq, out=xq)
    p *= xq
    r *= yq
    p += r
    np.logical_not(inside, out=inside)
    np.copyto(p, fill, where=inside)
    return p


def _warp_stack(planes: np.ndarray, rows, affines, out: np.ndarray,
                ws: dict[str, np.ndarray], fy: int = 1, fx: int = 1) -> None:
    """Warp each image planes[rows[i]] of the (N, h, w) stack by affines[i],
    a (rotation_deg, (tx, ty), scale): rotate and scale about the image
    center, then translate, with bilinear resampling; out-of-frame samples
    take the mean of the image's border pixels. Writes the fy x fx area mean
    of each warped image into out (k, h//fy, w//fx); fy = fx = 1 writes the
    warped images themselves. ``ws`` is _warp_scratch(planes).

    A C-contiguous stack is read in place, in its own dtype. Rows are warped
    in blocks and each block is averaged straight into out, so the warped
    image is never held whole. Every output value comes from the same
    floating-point operations, in the same order, as for one image warped
    whole, so results do not depend on the stacking or the blocks.
    """
    k = len(rows)
    h, w = planes.shape[1:]
    flat = planes.reshape(-1)
    rows_per_block = fy * max(1, _WARP_ROWS // fy)

    def per_image(values):
        return np.array(values, dtype=float)[:, None, None]

    th = [math.radians(a[0]) for a in affines]
    c, s = per_image([math.cos(t) for t in th]), per_image([math.sin(t) for t in th])
    inv = per_image([1.0 / a[2] for a in affines])
    tx, ty = per_image([a[1][0] for a in affines]), per_image([a[1][1] for a in affines])
    fill = per_image([_edge_mean(planes[i]) for i in rows])
    offset = per_image(np.asarray(rows) * (h * w))
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    px = np.arange(w, dtype=float) - cx - tx
    cpx, spx = c * px, -s * px
    for r in range(0, h, rows_per_block):
        n_rows = min(rows_per_block, h - r)
        n = k * n_rows * w
        block = {b: a[:n].reshape(k, n_rows, w) for b, a in ws.items()}
        xq, yq = block["xq"], block["yq"]
        py = np.arange(r, r + n_rows, dtype=float)[:, None] - cy - ty
        # inv * (c*px + s*py) + cx and inv * (-s*px + c*py) + cy
        np.add(cpx, s * py, out=xq)
        xq *= inv
        xq += cx
        np.add(spx, c * py, out=yq)
        yq *= inv
        yq += cy
        warped = _bilinear_into(flat, h, w, xq, yq, fill, block, offset)
        scratch = ws["q"][:n // fx].reshape(k, n_rows, w // fx)
        _area_mean(warped, fy, fx, out[:, r // fy:(r + n_rows) // fy], scratch)


def _edge_mean(img: np.ndarray) -> float:
    """Mean of the border pixels, in float64: the value of out-of-frame
    samples."""
    edge = np.concatenate([img[0, :], img[-1, :], img[1:-1, 0], img[1:-1, -1]],
                          dtype=float)
    return float(edge.mean())


def _draw_affine(ranges: AffineRanges, seed: int):
    """Seeded (rotation_deg, (tx, ty), scale) within the ranges."""
    rng = make_rng(seed)
    rot = rng.uniform(-ranges.rotation_deg, ranges.rotation_deg)
    tx = rng.uniform(-ranges.translate_px, ranges.translate_px)
    ty = rng.uniform(-ranges.translate_px, ranges.translate_px)
    sc = rng.uniform(ranges.scale_min, ranges.scale_max)
    return rot, (tx, ty), sc


# ---------------------------------------------------------------------------
# Adam + training loop
# ---------------------------------------------------------------------------

# The Adam step updates each parameter in blocks of at most this many
# values, through two scratch arrays of this size (64 KiB of float64 each).
_ADAM_BLOCK = 8192


class AdamState:
    """Adam's first and second moments, two arrays per trainable parameter,
    and two scratch arrays of _ADAM_BLOCK values that every update shares:
    one for a block's weight gradient, one for its temporaries.

    A layer's moments are allocated, as zeros, at its first update, so a
    layer that is never trained (frozen in fine-tuning) gets none.
    """

    def __init__(self, m: RegressorModel):
        self.slots: list[list[tuple[np.ndarray, np.ndarray]] | None] = [None] * m.n_layers
        self.scratch, self.grad = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
        self.t = 0

    def step(self, model: RegressorModel, grads_w, grads_b, lr: float,
             cfg: TrainConfig, trainable: set[int]):
        """One in-place update of the trainable layers from backward_batch's
        gradients; it consumes the bias gradients. Each parameter is updated
        in blocks of at most _ADAM_BLOCK values, a weight block's
        gradient formed into ``self.grad`` (weight_grad), with the operations
        of the plain formula in their order, so the result does not depend
        on the blocks and no model-sized gradient is formed."""
        self.t += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t

        def update(theta, g, mom, vel):
            s = self.scratch[:theta.size].reshape(theta.shape)
            # The operations of g' = g + wd*theta, mom = b1*mom + (1-b1)*g',
            # vel = b2*vel + (1-b2)*g'*g' and
            # theta -= lr*(mom/c1) / (sqrt(vel/c2) + eps), in that order,
            # with g' in s and the temporaries in g and s.
            np.multiply(cfg.weight_decay, theta, out=s)
            np.add(g, s, out=s)
            mom *= b1
            np.multiply(1 - b1, s, out=g)
            mom += g
            vel *= b2
            np.multiply(1 - b2, s, out=g)
            g *= s
            vel += g
            np.divide(mom, c1, out=s)
            np.multiply(lr, s, out=s)
            np.divide(vel, c2, out=g)
            np.sqrt(g, out=g)
            g += cfg.adam_eps
            s /= g
            theta -= s

        for k in sorted(trainable):
            w, b = model.weights[k], model.biases[k]
            if self.slots[k] is None:
                self.slots[k] = [(np.zeros_like(p), np.zeros_like(p)) for p in (w, b)]
            (w_mom, w_vel), (b_mom, b_vel) = self.slots[k]
            # Whole rows while a row fits in a block, else pieces of a row.
            cols = min(w.shape[1], _ADAM_BLOCK) or 1
            rows = _ADAM_BLOCK // cols
            for blk in ((slice(r, r + rows), slice(c, c + cols))
                        for r in range(0, w.shape[0], rows)
                        for c in range(0, w.shape[1], cols)):
                g = self.grad[:w[blk].size].reshape(w[blk].shape)
                update(w[blk], weight_grad(grads_w[k], *blk, out=g),
                       w_mom[blk], w_vel[blk])
            for blk in (slice(lo, lo + _ADAM_BLOCK) for lo in range(0, b.size, _ADAM_BLOCK)):
                update(b[blk], grads_b[k][blk], b_mom[blk], b_vel[blk])


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
        """One row per epoch: the EpochStats fields, in their order."""
        write_table(path, [f.name for f in fields(EpochStats)],
                    map(astuple, self.history))


@dataclass(frozen=True)
class TrainingSet:
    """Samples to train or validate on, as training planes: planes[rows[i]]
    is sample i's frame reduced by its r x r area mean (see plane_factor),
    screen_pts[i] and gazes[i] its labels. Sets cut from one pool with
    subset share its plane stack."""

    planes: np.ndarray  # float32 (N, h/r, w/r), C-contiguous
    r: int
    rows: np.ndarray
    screen_pts: np.ndarray
    gazes: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def subset(self, ids) -> "TrainingSet":
        """Samples ids of this set, in that order, on the same planes."""
        ids = np.asarray(ids, dtype=np.intp)
        return TrainingSet(self.planes, self.r, self.rows[ids],
                           self.screen_pts[ids], self.gazes[ids])


def training_set(samples, loaded=None) -> TrainingSet:
    """The training set of ``samples`` (anything with screen_pt and gaze).
    Frame i is the image of the i-th sample of ``loaded``, samples[i] as it
    was read, or ``samples[i].image`` without ``loaded``; each is reduced to
    its plane as soon as it is read, so no frame is held beyond its own
    reduction. Every frame must have the same shape, one that frame_factors
    accepts."""
    n = len(samples)
    if n == 0:
        raise DataError("a training set needs at least one sample")
    planes = None
    for i, s in enumerate(samples if loaded is None else loaded):
        x = np.asarray(s.image, dtype=float)
        if planes is None:
            shape, r = x.shape, plane_factor(x.shape)
            planes = np.empty((n, shape[0] // r, shape[1] // r), dtype=np.float32)
            mean = np.empty(planes.shape[1:])
            scratch = np.empty((shape[0], shape[1] // r))
        elif x.shape != shape:
            raise DataError("the images of a training set differ in shape")
        _area_mean(x, r, r, mean, scratch)
        planes[i] = mean
    return TrainingSet(planes, r, np.arange(n),
                       np.array([s.screen_pt for s in samples], dtype=float),
                       np.array([s.gaze for s in samples], dtype=float))


def _prepare_inputs(ts: TrainingSet, augment: bool, ranges: AffineRanges,
                    seed: int, epoch: int, ws: dict[str, np.ndarray],
                    ids, X: np.ndarray) -> np.ndarray:
    """Model inputs of samples ``ids`` of ts, in that order, into the rows
    of X (len(ids), 32*32), which it returns: the 32x32 area mean of each
    training plane, warped first when asked. Sample i's warp draws its
    affine from (seed, epoch, i), in frame pixels, and applies it to the
    plane with the translation divided by r, so a row does not depend on
    which other ids it is made with. Augmented planes are warped and
    averaged down in stacks of _STACK through the scratch arrays ``ws``
    (_warp_scratch(ts.planes)).
    """
    if not augment:
        for x, row in zip(X, ts.rows[ids]):
            x[:] = downsample_image(ts.planes[row]).reshape(-1)
        return X
    fy, fx = frame_factors(ts.planes.shape[1:])
    for lo in range(0, len(ids), _STACK):
        stack = ids[lo:lo + _STACK]
        affines = []
        for i in map(int, stack):
            rot, (tx, ty), scale = _draw_affine(ranges, mix_seed(seed, 0xA46, epoch, i))
            affines.append((rot, (tx / ts.r, ty / ts.r), scale))
        out = X[lo:lo + len(stack)].reshape(len(stack), INPUT_SIDE, INPUT_SIDE)
        _warp_stack(ts.planes, ts.rows[stack], affines, out, ws, fy, fx)
    return X


def _val_metrics(m: RegressorModel, X: np.ndarray, gt_pts: np.ndarray,
                 gazes: np.ndarray, screen: CalibratedScreen):
    v, _ = forward_batch(m, X)
    keep, losses, _ = _screen_l1(v, gt_pts, screen)
    errs = [angular_error(v[i], gazes[i]) for i in range(len(gazes))]
    val_loss = float(np.mean(losses)) if len(losses) else float("nan")
    return val_loss, float(np.mean(errs)), int((~keep).sum())


def train(model: RegressorModel, train_set, val_set, cfg: TrainConfig,
          screen: CalibratedScreen, trainable: set[int] | None = None) -> TrainResult:
    """Run the full regimen on two TrainingSets and return the weights with
    best validation error.

    ``model`` is trained in place and left at the last epoch's weights;
    the result's model is the only other copy, holding the best weights. So
    a caller that still needs the starting weights passes a copy (fine_tune
    does).

    Seeded shuffling, Adam with coupled L2 weight decay, learning rate
    decayed every lr_step_epochs. ``trainable`` restricts updates to a layer
    subset (fine-tuning); default is all layers.

    Each batch's inputs are made (warped and averaged down) just before it
    trains, into one batch buffer allocated per run, so memory does not grow
    with the training set beyond its planes. The validation inputs are made
    once per run and reused every epoch. Weight gradients stay factors,
    which the Adam step forms a block at a time.
    """
    if not train_set or not val_set:
        raise DataError("train and validation sets must be non-empty")
    if trainable is None:
        trainable = set(range(model.n_layers))
    # Backpropagation stops at the lowest trainable layer.
    first = min(trainable, default=model.n_layers)
    opt = AdamState(model)
    gt_train, gt_val, gaze_val = train_set.screen_pts, val_set.screen_pts, val_set.gazes
    ws = _warp_scratch(train_set.planes)
    n, n_val = len(train_set), len(val_set)
    X_val = _prepare_inputs(val_set, False, cfg.aug, cfg.seed, 0, ws,
                            np.arange(n_val), np.empty((n_val, model.dims[0])))
    X = np.empty((min(cfg.batch_size, n), model.dims[0]))

    history: list[EpochStats] = []
    # The starting weights are a selection candidate too, so a run that never
    # improves validation (or fine-tuning on a hard subject) cannot regress.
    best = model.copy()
    best_params = best.weights + best.biases
    _, best_err, _ = _val_metrics(model, X_val, gt_val, gaze_val, screen)
    best_epoch = -1
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay ** (epoch // cfg.lr_step_epochs)
        order = make_rng(cfg.seed, 0x54F, epoch).permutation(n)
        loss_sum = 0.0
        used_sum = 0
        skipped = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            X_batch = _prepare_inputs(train_set, cfg.augment, cfg.aug, cfg.seed,
                                      epoch, ws, idx, X[:len(idx)])
            loss, gw, gb, n_used, n_skip = batch_loss_and_grads(
                model, X_batch, gt_train[idx], screen, first)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {lo // cfg.batch_size}")
            skipped += n_skip
            loss_sum += loss * n_used
            used_sum += n_used
            opt.step(model, gw, gb, lr, cfg, trainable)
            # The factors hold this batch's activations: release them before
            # the next batch computes its own.
            del gw, gb
        train_loss = loss_sum / used_sum if used_sum else float("nan")
        val_loss, val_err, skip_val = _val_metrics(model, X_val, gt_val,
                                                   gaze_val, screen)
        history.append(EpochStats(epoch, train_loss, val_loss, val_err, lr,
                                  skipped, skip_val))
        if val_err < best_err:
            best_err = val_err
            for dst, src in zip(best_params, model.weights + model.biases):
                np.copyto(dst, src)
            best_epoch = epoch
    return TrainResult(best, history, best_epoch, best_err)


# Fine-tuning updates only the last two dense layers; earlier layers stay
# frozen (untouched by gradients and weight decay alike).
FINETUNE_LAYERS = frozenset({1, 2})


def fine_tune(m: RegressorModel, train_set, val_set, cfg: TrainConfig,
              screen: CalibratedScreen) -> TrainResult:
    """train a copy of ``m`` on its FINETUNE_LAYERS; ``m`` is left as it is,
    so one base can be fine-tuned again and again."""
    return train(m.copy(), train_set, val_set, cfg, screen,
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
    n_unprojectable: int


def evaluate(m: RegressorModel, test_set, screen: CalibratedScreen) -> EvalReport:
    """Angular error per sample and per grid point, over the samples of
    ``test_set`` in order, each read once (it may be an iterator).

    Each sample is scored by its own one-row forward pass: a batched pass
    can round differently (BLAS gemm against gemv).
    """
    errors = []
    n_unproj = 0
    buckets: dict[tuple[int, int], list[float]] = {}
    for s in test_set:
        v = forward(m, downsample_image(s.image))
        if v[2] <= MIN_PROJECTABLE_Z:
            n_unproj += 1
        errors.append(angular_error(v, s.gaze))
        buckets.setdefault((s.grid_i, s.grid_j), []).append(errors[-1])
    if not errors:
        raise DataError("evaluation set must be non-empty")
    errs = np.array(errors)
    per_point = {k: (float(np.mean(v)), len(v)) for k, v in sorted(buckets.items())}
    return EvalReport(
        errors_deg=errs,
        mean_err_deg=float(errs.mean()),
        min_err_deg=float(errs.min()),
        per_point=per_point,
        n_unprojectable=n_unproj,
    )


# ---------------------------------------------------------------------------
# FTKMDL io
# ---------------------------------------------------------------------------

def save_model(m: RegressorModel, path) -> None:
    """Write ``m`` as FTKMDL. Each layer, its weights stacked over its
    biases, is cast (as_float32) and checked before the file is opened."""
    layers = [as_float32(np.vstack((w, b)), f"layer {k}")
              for k, (w, b) in enumerate(zip(m.weights, m.biases))]
    with open(path, "wb") as f:
        f.write(f"{_FTKMDL_MAGIC}{_VERSION} {len(layers)}\n".encode("ascii"))
        for wb in layers:
            f.write(f"{wb.shape[0] - 1} {wb.shape[1]}\n".encode("ascii"))
            f.write(wb)


def load_model(path) -> RegressorModel:
    with open(path, "rb") as f:
        (n_layers,) = _read_header(f, path, "FTKMDL header", 1, _FTKMDL_MAGIC)
        if not (1 <= n_layers <= 64):
            raise FormatError(f"{path}: implausible layer count {n_layers}")
        weights, biases = [], []
        for k in range(n_layers):
            rows, cols = _read_header(f, path, f"layer {k} dims line", 2)
            if rows <= 0 or cols <= 0 or rows * cols > (1 << 26):
                raise FormatError(f"{path}: implausible dims {rows}x{cols}")
            if weights and rows != weights[-1].shape[1]:
                raise FormatError(f"{path}: layer {k} input dim breaks the chain")
            wb = _read_f32(f, path, (rows + 1, cols),
                           f"parameters in layer {k}").astype(float)
            weights.append(wb[:-1])
            biases.append(wb[-1])
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after last layer")
    ends = (weights[0].shape[0], weights[-1].shape[1])
    if ends != (ARCH[0], ARCH[-1]):
        raise FormatError(f"{path}: model maps {ends[0]} -> {ends[1]} values, "
                          f"not {ARCH[0]} -> {ARCH[-1]}")
    return RegressorModel(weights, biases)
