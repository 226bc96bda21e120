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

from .errors import ConfigError
from .optics import (Psf, _check_image, _filter_padded, _padded_spectrum,
                     _psf_operand)


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


def _wiener_terms(p: Psf | np.ndarray, out_h: int, out_w: int, gamma: float):
    """The padded grid and, for the PSF spectrum H on it, conj(H) and the
    reciprocal of |H|^2 + gamma for an (out_h, out_w) measurement: memoised
    on a Psf per (grid, gamma).

    The reciprocal is repeated along each row so that it lines up with the
    spectrum's float view (re, im, re, im, ...). For a real divisor d,
    numpy's complex division computes ``(re + im*0) * (1/d)`` and
    ``(im - re*0) * (1/d)``, so scaling ``conj(H) * Y`` by ``1/d`` gives the
    quotient of ``_wiener_padded`` (``tests/oracles.py``) bit for bit; only
    a component that is exactly zero may come out with the other sign of
    zero. The product comes first on purpose: one premultiplied filter
    conj(H)/(|H|^2+gamma) would round differently.
    """
    grid, fp = _padded_spectrum(p, out_h, out_w)

    def terms():
        return np.conj(fp), np.repeat(1.0 / (np.abs(fp) ** 2 + gamma), 2, axis=1)

    if isinstance(p, Psf):
        return grid, p._memo(("wiener", grid, gamma), terms)
    return grid, terms()


def wiener_deconvolve(y, p: Psf, cfg: WienerConfig) -> np.ndarray:
    """Closed-form Tikhonov solution, cropped to the configured scene size.

    Equals ``_wiener_padded`` (``tests/oracles.py``) cropped (and clipped)
    bit for bit; the inverse FFT runs only on the kept rows.
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

    out = _filter_padded(ya, p, grid, filt, cfg.output_h, cfg.output_w)
    if cfg.clip01:
        out = np.clip(out, 0.0, 1.0)
    return out
