"""Scene recovery from lensless measurements by regularized deconvolution.

The measurement model is a full-size linear convolution, so all frequency-
domain algebra runs on a zero-padded grid at least as large as the
measurement: there the circular model is exactly the linear one. The PSF is
embedded at the grid's top-left (no center shift), which registers the
recovered scene's top-left at index (0, 0); the leading output crop is the
scene estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .optics import (Psf, _check_image, _filter_padded, _padded_spectrum,
                     _psf_operand, fft_conv_shape)


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
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError("gamma must be positive and finite")
        if self.output_h <= 0 or self.output_w <= 0:
            raise ConfigError("output dims must be positive")


def _wiener_padded(y: np.ndarray, p: np.ndarray, gamma: float) -> np.ndarray:
    """Uncropped minimizer of the padded circular Tikhonov problem, computed
    afresh: the reference that the cached path must equal bit for bit."""
    fh, fw = fft_conv_shape(y.shape[0], y.shape[1])
    fy = np.fft.rfft2(y, s=(fh, fw))
    fp = np.fft.rfft2(p, s=(fh, fw))
    fx = np.conj(fp) * fy / (np.abs(fp) ** 2 + gamma)
    return np.fft.irfft2(fx, s=(fh, fw))


def _wiener_terms(p: Psf | np.ndarray, out_h: int, out_w: int, gamma: float):
    """The padded grid and, for the PSF spectrum H on it, conj(H) and the
    reciprocal of |H|^2 + gamma for an (out_h, out_w) measurement: memoised
    on a Psf per (grid, gamma).

    The reciprocal is repeated along each row so that it lines up with the
    spectrum's float view (re, im, re, im, ...). For a real divisor d,
    numpy's complex division computes ``(re + im*0) * (1/d)`` and
    ``(im - re*0) * (1/d)``, so scaling ``conj(H) * Y`` by ``1/d`` gives the
    quotient of ``_wiener_padded`` bit for bit; only a component that is
    exactly zero may come out with the other sign of zero. The product comes
    first on purpose: one premultiplied filter conj(H)/(|H|^2+gamma) would
    round differently.
    """
    grid, fp = _padded_spectrum(p, out_h, out_w)

    def terms():
        return np.conj(fp), np.repeat(1.0 / (np.abs(fp) ** 2 + gamma), 2, axis=1)

    if isinstance(p, Psf):
        return grid, p._memo(("wiener", grid, gamma), terms)
    return grid, terms()


def wiener_deconvolve(y, p: Psf, cfg: WienerConfig) -> np.ndarray:
    """Closed-form Tikhonov solution, cropped to the configured scene size.

    Equals ``_wiener_padded`` cropped (and clipped) bit for bit; the inverse
    FFT runs only on the kept rows.
    """
    ya = _check_image(y, "measurement")
    p = _psf_operand(p)
    if p.shape[0] > ya.shape[0] or p.shape[1] > ya.shape[1]:
        raise ConfigError("measurement smaller than psf")
    if (cfg.output_h + p.shape[0] - 1 != ya.shape[0]
            or cfg.output_w + p.shape[1] - 1 != ya.shape[1]):
        raise ConfigError(
            f"measurement {ya.shape} inconsistent with scene "
            f"({cfg.output_h}, {cfg.output_w}) + psf {p.shape} - 1")
    grid, (cfp, inv_den) = _wiener_terms(p, *ya.shape, cfg.gamma)

    def filt(fy):
        # cfp * fy / den as cfp * fy, then a real multiply by 1/den.
        np.multiply(cfp, fy, out=fy)
        v = fy.view(float)
        np.multiply(v, inv_den, out=v)

    out = _filter_padded(ya, grid, filt, cfg.output_h, cfg.output_w)
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
