"""Reference implementations that the tests check flattrack against.

No command runs these, and they live apart from ``src/`` so that a change
to the pipeline cannot edit the oracle it is checked against.
"""

import math

import numpy as np

from flattrack.errors import ConfigError, NumericalError
from flattrack.geometry import CalibratedScreen
from flattrack.optics import (ContourPsfParams, Psf, _check_image,
                              _contour_field, _full_shape, _padded_spectrum,
                              _psf_operand, fft_conv_shape)
from flattrack.regressor import (RegressorModel, _mean_in_order, _screen_l1,
                                 forward_batch)


# ---------------------------------------------------------------------------
# optics
# ---------------------------------------------------------------------------

def convolve_direct(x, p: Psf | np.ndarray) -> np.ndarray:
    """Reference double-sum linear convolution (independent of the FFT path)."""
    xa = _check_image(x, "scene")
    pa = p.data if isinstance(p, Psf) else _check_image(p, "psf")
    out_h, out_w = _full_shape(xa, pa)
    out = np.zeros((out_h, out_w))
    for i in range(pa.shape[0]):
        for j in range(pa.shape[1]):
            out[i:i + xa.shape[0], j:j + xa.shape[1]] += pa[i, j] * xa
    return out


# numpy's own order statistics, which flattrack.orderstats must equal bit
# for bit (they import numpy.ma, which no command may load).

def median(x) -> float:
    return float(np.median(x))


def quantile(x, q: float) -> float:
    return float(np.quantile(x, q))


def percentile(x, p: float) -> float:
    return float(np.percentile(x, p))


def contour_psf(h: int, w: int, params: ContourPsfParams,
                seed: int) -> tuple[np.ndarray, bool]:
    """generate_contour_psf's band through numpy's median and quantile:
    the PSF data, and whether the band width came from the fill quantile
    (True) or was params.levelset_width (False)."""
    f = _contour_field(h, w, params, seed)
    dev = np.abs(f - median(f))
    width = params.levelset_width
    fill = float(np.mean(dev < width))
    from_quantile = not (0.8 * params.fill_target <= fill <= 1.2 * params.fill_target)
    if from_quantile:
        width = quantile(dev, params.fill_target)
    mask = (dev < width).astype(float)
    return mask / float(mask.sum()), from_quantile


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def _wiener_padded(y: np.ndarray, p: np.ndarray, gamma: float) -> np.ndarray:
    """Uncropped minimizer of the padded circular Tikhonov problem, computed
    afresh: the reference that the cached path must equal bit for bit."""
    fh, fw = fft_conv_shape(y.shape[0], y.shape[1])
    # As float64: numpy's rfft2 of a float32 array is complex64.
    fy = np.fft.rfft2(np.asarray(y, dtype=float), s=(fh, fw))
    fp = np.fft.rfft2(p, s=(fh, fw))
    fx = np.conj(fp) * fy / (np.abs(fp) ** 2 + gamma)
    return np.fft.irfft2(fx, s=(fh, fw))


def tikhonov_objective(x_hat, y, p: Psf, gamma: float) -> float:
    """||Y - P*X||_F^2 + gamma*||X||_F^2 under the padded circular semantics.

    Serves as the optimization oracle for the closed form: x_hat may be
    scene-sized (embedded top-left) or span the full padded grid.
    """
    xa = _check_image(x_hat, "estimate")
    ya = _check_image(y, "measurement")
    grid, fp = _padded_spectrum(_psf_operand(p), *ya.shape)
    if xa.shape[0] > grid[0] or xa.shape[1] > grid[1]:
        raise ConfigError("estimate larger than the padded grid")
    fx = np.fft.rfft2(xa, s=grid)
    pred = np.fft.irfft2(fx * fp, s=grid)
    ypad = np.zeros(grid)
    ypad[:ya.shape[0], :ya.shape[1]] = ya
    resid = ypad - pred
    return float(np.sum(resid**2) + gamma * np.sum(xa**2))


def psnr(a, b, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio of ``a`` against reference ``b``, in dB."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if aa.shape != bb.shape:
        raise ConfigError(f"psnr shape mismatch {aa.shape} vs {bb.shape}")
    mse = float(np.mean((aa - bb) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak**2 / mse)


def gradient_descent_tikhonov(y, p: Psf, gamma: float, max_iter: int = 200000,
                              tol: float = 1e-14) -> np.ndarray:
    """Long-run gradient descent on the padded circular Tikhonov objective.

    Steepest descent with exact line search (the objective is a strictly
    convex quadratic). Independent check of the closed form: uses only the
    forward operator and its adjoint, never the analytic solution.
    """
    ya = _check_image(y, "measurement")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError("gamma must be positive and finite")
    grid, fp = _padded_spectrum(_psf_operand(p), *ya.shape)
    cfp, den = np.conj(fp), np.abs(fp) ** 2 + gamma
    ypad = np.zeros(grid)
    ypad[:ya.shape[0], :ya.shape[1]] = ya
    fy = np.fft.rfft2(ypad)

    def grad_f(fx):
        # d/dX of ||Y - PX||^2 + gamma||X||^2, in the Fourier domain.
        return 2.0 * (cfp * (fp * fx - fy) + gamma * fx)

    def apply_h(fg):
        return 2.0 * (den * fg)

    fx = np.zeros_like(fy)
    for _ in range(max_iter):
        fg = grad_f(fx)
        g2 = float(np.sum(np.abs(np.fft.irfft2(fg, s=grid)) ** 2))
        if g2 <= tol:
            break
        hg = apply_h(fg)
        ghg = float(np.vdot(np.fft.irfft2(fg, s=grid),
                            np.fft.irfft2(hg, s=grid)).real)
        if ghg <= 0:
            raise NumericalError("non-convex curvature in quadratic descent")
        fx = fx - (g2 / ghg) * fg
    return np.fft.irfft2(fx, s=grid)


# ---------------------------------------------------------------------------
# regressor
# ---------------------------------------------------------------------------

def loss_l1(pred_pt, gt_pt) -> float:
    """Screen-space L1: |dx| + |dy| in pixels."""
    p = np.asarray(pred_pt, dtype=float)
    g = np.asarray(gt_pt, dtype=float)
    return float(np.abs(p - g).sum())


def batch_loss(m: RegressorModel, X: np.ndarray, gt_pts: np.ndarray,
               screen: CalibratedScreen) -> float:
    """Loss only (used by finite-difference checks); same skip rule."""
    v, _ = forward_batch(m, X)
    _, losses, _ = _screen_l1(v, gt_pts, screen)
    return _mean_in_order(losses) if len(losses) else 0.0


def column_losses(m: RegressorModel, X: np.ndarray, gt_pts: np.ndarray,
                  screen: CalibratedScreen, k: int, j: int, delta: float):
    """batch_loss of each model that differs from ``m`` by ``delta`` added
    to one parameter of column j of layer k: W_k[i, j] for each i in order,
    then b_k[j]. Such a change moves only column j of layer k's
    pre-activation, so the models share the rest of it and run through the
    layers above as one batch: a full forward pass each, no linearisation.
    """
    n = len(X)
    cache = forward_batch(m, X)[1]
    # The bias is one more weight, on a constant input of 1.
    a = np.hstack([cache["acts"][k], np.ones((n, 1))])
    col = np.append(m.weights[k][:, j], m.biases[k][j])
    z = np.repeat(cache["pre"][k][None], len(col), axis=0)
    z[:, :, j] = (a @ (col[:, None] + delta * np.eye(len(col)))).T
    # The layers above, led by an identity layer that passes z through.
    width = z.shape[2]
    above = RegressorModel([np.eye(width)] + m.weights[k + 1:],
                           [np.zeros(width)] + m.biases[k + 1:])
    v, _ = forward_batch(above, z.reshape(-1, width))
    keep, losses, _ = _screen_l1(v, np.tile(gt_pts, (len(col), 1)), screen)
    per_row = np.zeros(len(v))
    per_row[keep] = losses
    # Skipped rows add 0.0 to the running total, as batch_loss leaves them out.
    totals = np.add.accumulate(per_row.reshape(len(col), n), axis=1)[:, -1]
    return totals / np.maximum(keep.reshape(len(col), n).sum(axis=1), 1)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def fov(extent_px: float, axis: str, s: CalibratedScreen) -> float:
    """Angle in degrees subtended at the eye by a pixel extent centered on calib_px."""
    if extent_px < 0:
        raise ConfigError("extent must be nonnegative")
    if axis not in ("x", "y"):
        raise ConfigError(f"axis must be 'x' or 'y', got {axis!r}")
    half_mm = extent_px * s.monitor.pixel_pitch_mm / 2.0
    return 2.0 * math.degrees(math.atan(half_mm / s.monitor.distance_mm))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def fltimg_bytes(image) -> bytes:
    """FLTIMG bytes of a 2D array, written as the format describes them."""
    a = np.asarray(image, dtype="<f4")
    return b"FLTIMG1 %d %d\n" % a.shape + a.tobytes()


def ftkmdl_bytes(weights, biases) -> bytes:
    """FTKMDL bytes of the given layers, written as the format describes them."""
    out = b"FTKMDL1 %d\n" % len(weights)
    for w, b in zip(weights, biases):
        out += (b"%d %d\n" % w.shape + np.asarray(w, dtype="<f4").tobytes()
                + np.asarray(b, dtype="<f4").tobytes())
    return out
