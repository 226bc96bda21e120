"""Scene recovery from lensless measurements by regularized deconvolution.

The measurement model is a full-size linear convolution, so all frequency-
domain algebra runs on a zero-padded grid at least as large as the
measurement: there the circular model is exactly the linear one. The PSF is
embedded at the grid's top-left (no center shift), which registers the
recovered scene's top-left at index (0, 0); the leading output crop is the
scene estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .optics import Psf, _check_image, fft_conv_shape


@dataclass(frozen=True)
class WienerConfig:
    """Closed-form deconvolution settings.

    gamma is the Tikhonov weight; output dims are the expected scene size
    (measurement dims must equal output + psf - 1 per axis). clip01 clamps
    the crop to [0, 1] for images that feed the regressor.
    """

    gamma: float = 1e-5
    output_h: int = 128
    output_w: int = 128
    clip01: bool = True

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if self.output_h <= 0 or self.output_w <= 0:
            raise ConfigError("output dims must be positive")


def _padded_grid(y: np.ndarray) -> tuple[int, int]:
    return fft_conv_shape(y.shape[0], y.shape[1])


def _wiener_padded(y: np.ndarray, p: np.ndarray, gamma: float) -> np.ndarray:
    """Uncropped minimizer of the padded circular Tikhonov problem."""
    fh, fw = _padded_grid(y)
    fy = np.fft.rfft2(y, s=(fh, fw))
    fp = np.fft.rfft2(p, s=(fh, fw))
    fx = np.conj(fp) * fy / (np.abs(fp) ** 2 + gamma)
    return np.fft.irfft2(fx, s=(fh, fw))


def wiener_deconvolve(y, p: Psf, cfg: WienerConfig) -> np.ndarray:
    """Closed-form Tikhonov solution, cropped to the configured scene size."""
    ya = _check_image(y, "measurement")
    pa = p.data if isinstance(p, Psf) else _check_image(p, "psf")
    if pa.shape[0] > ya.shape[0] or pa.shape[1] > ya.shape[1]:
        raise ConfigError("measurement smaller than psf")
    if (cfg.output_h + pa.shape[0] - 1 != ya.shape[0]
            or cfg.output_w + pa.shape[1] - 1 != ya.shape[1]):
        raise ConfigError(
            f"measurement {ya.shape} inconsistent with scene "
            f"({cfg.output_h}, {cfg.output_w}) + psf {pa.shape} - 1")
    full = _wiener_padded(ya, pa, cfg.gamma)
    out = full[:cfg.output_h, :cfg.output_w]
    if cfg.clip01:
        out = np.clip(out, 0.0, 1.0)
    return out


def tikhonov_objective(x_hat, y, p: Psf, gamma: float) -> float:
    """||Y - P*X||_F^2 + gamma*||X||_F^2 under the padded circular semantics.

    Serves as the optimization oracle for the closed form: x_hat may be
    scene-sized (embedded top-left) or span the full padded grid.
    """
    xa = _check_image(x_hat, "estimate")
    ya = _check_image(y, "measurement")
    pa = p.data if isinstance(p, Psf) else _check_image(p, "psf")
    fh, fw = _padded_grid(ya)
    if xa.shape[0] > fh or xa.shape[1] > fw:
        raise ConfigError("estimate larger than the padded grid")
    fx = np.fft.rfft2(xa, s=(fh, fw))
    fp = np.fft.rfft2(pa, s=(fh, fw))
    pred = np.fft.irfft2(fx * fp, s=(fh, fw))
    ypad = np.zeros((fh, fw))
    ypad[:ya.shape[0], :ya.shape[1]] = ya
    resid = ypad - pred
    return float(np.sum(resid**2) + gamma * np.sum(xa**2))


def reconstruct(y, p: Psf, cfg: WienerConfig, method: str = "wiener") -> np.ndarray:
    """Single entry point for scene recovery: ``"wiener"`` deconvolves,
    ``"identity"`` passes the measurement through (lensed-baseline path)."""
    if method == "wiener":
        return wiener_deconvolve(y, p, cfg)
    if method == "identity":
        return _check_image(y, "measurement")
    raise ConfigError(f"unknown reconstructor {method!r}")


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
    pa = p.data if isinstance(p, Psf) else _check_image(p, "psf")
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    fh, fw = _padded_grid(ya)
    fp = np.fft.rfft2(pa, s=(fh, fw))
    ypad = np.zeros((fh, fw))
    ypad[:ya.shape[0], :ya.shape[1]] = ya
    fy = np.fft.rfft2(ypad)

    def grad_f(fx):
        # d/dX of ||Y - PX||^2 + gamma||X||^2, in the Fourier domain.
        return 2.0 * (np.conj(fp) * (fp * fx - fy) + gamma * fx)

    def apply_h(fg):
        return 2.0 * ((np.abs(fp) ** 2 + gamma) * fg)

    fx = np.zeros_like(fy)
    for _ in range(max_iter):
        fg = grad_f(fx)
        g2 = float(np.sum(np.abs(np.fft.irfft2(fg, s=(fh, fw))) ** 2))
        if g2 <= tol:
            break
        hg = apply_h(fg)
        ghg = float(np.vdot(np.fft.irfft2(fg, s=(fh, fw)),
                            np.fft.irfft2(hg, s=(fh, fw))).real)
        if ghg <= 0:
            raise NumericalError("non-convex curvature in quadratic descent")
        fx = fx - (g2 / ghg) * fg
    return np.fft.irfft2(fx, s=(fh, fw))
