"""Lensless forward model: full-size PSF convolution, noise, synthetic PSFs.

A measurement is the full (uncropped) linear convolution of the scene with
the camera's point spread function plus additive noise. Images are 2D float
arrays; scenes are nominally in [0, 1], measurements unconstrained.

File formats
------------
FLTIMG (bit-exact storage): ASCII header line ``FLTIMG1 <height> <width>\\n``
followed by height*width little-endian IEEE-754 float32 samples, row-major.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, NumericalError
from .seeds import make_rng

# Guard against absurd allocation from corrupt headers or bad configs.
MAX_DIM = 1 << 16

_FLTIMG_MAGIC = "FLTIMG"
_VERSION = 1  # of FLTIMG and FTKMDL (regressor), written after the magic


def _check_image(x, name: str = "image") -> np.ndarray:
    """``x`` as a checked 2D array: float32 as it is, anything else as
    float64. The kernels compute in float64 either way (_filter_padded)."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ConfigError(f"{name} must be a non-empty 2D array")
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{name} contains non-finite values")
    return x


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (FFT-friendly padded size)."""
    if n <= 1:
        return 1
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@dataclass(frozen=True)
class NoiseModel:
    """Additive measurement noise.

    gaussian: zero-mean, std = sigma_rel * max(measurement). The level is a
    fraction of the (noiseless) measurement peak so it tracks signal scale.
    """

    kind: str = "gaussian"
    sigma_rel: float = 5e-3

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not (0.0 <= self.sigma_rel < 1.0):
            raise ConfigError("sigma_rel must be in [0, 1)")


@dataclass(frozen=True, eq=False)
class Psf:
    """Nonnegative intensity PSF: immutable, and memoises its padded spectrum
    and, per live thread, its per-frame FFT buffers (_fft_workspace).

    ``data`` is a read-only copy of the given array, so nothing cached from
    it can go stale. Build one Psf per camera and reuse it for every frame.
    """

    data: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # float64 even from a float32 file: a float32 PSF would give a
        # complex64 spectrum.
        data = _check_image(self.data, "psf").astype(float)
        if np.any(data < 0):
            raise ConfigError("psf values must be nonnegative")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def _memo(self, key, compute):
        """``compute()`` on the first call for ``key``, the stored value after.

        Threads may race to compute the same deterministic value; setdefault
        keeps the first one stored, so every caller gets the same array.
        """
        value = self._cache.get(key)
        if value is None:
            value = self._cache.setdefault(key, compute())
        return value


def _full_shape(x: np.ndarray, p: Psf | np.ndarray) -> tuple[int, int]:
    h = x.shape[0] + p.shape[0] - 1
    w = x.shape[1] + p.shape[1] - 1
    if h > MAX_DIM or w > MAX_DIM:
        raise NumericalError(f"convolution output {h}x{w} exceeds dimension limit")
    return h, w


def fft_conv_shape(h: int, w: int) -> tuple[int, int]:
    """Padded FFT grid for an output of size (h, w): circular == linear."""
    return next_fast_len(h), next_fast_len(w)


def _psf_operand(p: Psf | np.ndarray) -> Psf | np.ndarray:
    """A Psf as it is; anything else as a checked float64 array, which may
    be negative and is never cached."""
    return p if isinstance(p, Psf) else _check_image(p, "psf").astype(float, copy=False)


def _padded_spectrum(p: Psf | np.ndarray, out_h: int, out_w: int):
    """The FFT grid on which an (out_h, out_w) linear convolution is exact,
    and the PSF's rfft2 on it: memoised on a Psf, computed for an array."""
    grid = fft_conv_shape(out_h, out_w)
    if isinstance(p, Psf):
        return grid, p._memo(("spectrum", grid),
                             lambda: np.fft.rfft2(p.data, s=grid))
    return grid, np.fft.rfft2(p, s=grid)


def _fft_workspace(p: Psf | np.ndarray | None, grid: tuple[int, int]):
    """Two (fh, fw//2+1) complex buffers for transforms on ``grid``. A Psf
    keeps one pair per thread, for that thread's last grid, freed with the
    Psf or, once the thread has ended, at any thread's next new pair; a raw
    array gets fresh ones (528 KiB at 256x129, page-faulted in anew)."""
    shape = (grid[0], grid[1] // 2 + 1)
    if not isinstance(p, Psf):
        return np.empty(shape, complex), np.empty(shape, complex)
    key = ("fft", threading.get_ident())
    held = p._cache.get(key)
    if held is None or held[0] != grid:
        live = {t.ident for t in threading.enumerate()}
        for dead in [k for k in list(p._cache) if k[0] == "fft" and k[1] not in live]:
            p._cache.pop(dead, None)
        held = p._cache[key] = (grid, *_fft_workspace(None, grid))
    return held[1:]


def _filter_padded(x: np.ndarray, p: Psf | np.ndarray, grid: tuple[int, int],
                   filt, out_h: int, out_w: int) -> np.ndarray:
    """``irfft2(filt(rfft2(x, s=grid)), s=grid)[:out_h, :out_w]``, bit for bit.

    The 2-D transforms run as the same 1-D passes, written into p's buffer
    pair for ``grid`` (_fft_workspace); ``filt`` updates the spectrum in place.
    The row pass reads ``x`` through the second buffer, converted there to
    float64 and zero-padded in place to the grid's width, so neither a
    float32 frame's cast nor a short row's pad gets a copy (numpy's rfft
    would allocate both); it fills the top rows and the pad rows are zeroed
    in place, so the column pass needs no padded copy. Only the last pass,
    on the kept rows, allocates: its array is the result, not a buffer.
    """
    fw = grid[1]
    a, b = _fft_workspace(p, grid)
    h, w = x.shape
    rows = b.view(float)[:h, :fw]
    rows[:, :w] = x
    rows[:, w:] = 0
    np.fft.rfft(rows, axis=1, out=a[:h])
    # The previous call's inverse pass left data in the pad rows.
    a[h:] = 0
    np.fft.fft(a, axis=0, out=b)
    filt(b)
    np.fft.ifft(b, axis=0, out=a)
    return np.fft.irfft(a[:out_h], n=fw, axis=1)[:, :out_w]


def full_convolve(x, p: Psf | np.ndarray) -> np.ndarray:
    """Full-size linear convolution of scene ``x`` with PSF ``p`` via FFT.

    Output size is (Hx+Hp-1, Wx+Wp-1): no sensor cropping. Zero-padding to
    at least the output size makes the circular FFT convolution exactly
    linear; the pad is then trimmed.
    """
    xa = _check_image(x, "scene")
    p = _psf_operand(p)
    out_h, out_w = _full_shape(xa, p)
    grid, fp = _padded_spectrum(p, out_h, out_w)
    return _filter_padded(xa, p, grid, lambda fx: np.multiply(fx, fp, out=fx),
                          out_h, out_w)


def simulate_measurement(x, p: Psf, noise: NoiseModel, seed: int) -> np.ndarray:
    """Measurement = full_convolve(x, p) + seeded additive noise, formed in
    float64 and returned as float32, as FLTIMG stores it.

    Deterministic: identical (inputs, seed) give bit-identical outputs.
    """
    y = full_convolve(x, p)
    if noise.kind != "none" and noise.sigma_rel > 0.0:
        sigma = noise.sigma_rel * float(np.max(y))
        if sigma > 0:
            # rng.normal(0, sigma) is 0.0 + sigma * z, bit for bit. z is
            # drawn into p's first FFT buffer, which full_convolve is done
            # with and y does not share (_filter_padded).
            ws = _fft_workspace(p, fft_conv_shape(*y.shape))[0]
            z = ws.view(float).reshape(-1)[:y.size].reshape(y.shape)
            make_rng(seed).standard_normal(out=z)
            z *= sigma
            z += 0.0
            y += z
    return as_float32(y, "measurement")


@dataclass(frozen=True)
class ContourPsfParams:
    """Knobs for the synthetic contour-band PSF."""

    n_waves: int = 24
    levelset_width: float = 0.08
    fill_target: float = 0.15

    def __post_init__(self):
        if self.n_waves < 1:
            raise ConfigError("n_waves must be >= 1")
        if self.levelset_width <= 0:
            raise ConfigError("levelset_width must be positive")
        if not (0.0 < self.fill_target < 1.0):
            raise ConfigError("fill_target must be in (0, 1)")


def generate_contour_psf(h: int, w: int, params: ContourPsfParams, seed: int) -> Psf:
    """Deterministic sparse contour-band pattern, normalized to unit sum.

    A sum of random-orientation cosine waves is thresholded to the level-set
    band |f - median| < width; the band width is widened/narrowed until the
    nonzero fraction lands within 20% of fill_target. The result is a
    well-conditioned multiplexing mask: broadband, no dominant blur axis.
    """
    if h < 16 or w < 16:
        raise ConfigError("psf dims must be at least 16")
    if h > MAX_DIM or w > MAX_DIM:
        raise ConfigError("psf dims exceed dimension limit")
    rng = make_rng(seed)
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    scale = min(h, w)
    f = np.zeros((h, w))
    for _ in range(params.n_waves):
        theta = rng.uniform(0.0, np.pi)
        cycles = rng.uniform(2.0, 10.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        kx = np.cos(theta) * 2 * np.pi * cycles / scale
        ky = np.sin(theta) * 2 * np.pi * cycles / scale
        f += np.cos(kx * xx + ky * yy + phase)
    f /= max(float(f.std()), 1e-12)

    dev = np.abs(f - np.median(f))
    width = params.levelset_width
    fill = float(np.mean(dev < width))
    lo, hi = 0.8 * params.fill_target, 1.2 * params.fill_target
    if not (lo <= fill <= hi):
        # Exact hit via the deviation quantile.
        width = float(np.quantile(dev, params.fill_target))
        fill = float(np.mean(dev < width))
    mask = (dev < width).astype(float)
    total = float(mask.sum())
    if total <= 0:
        raise NumericalError("degenerate contour psf: all-zero mask")
    return Psf(mask / total)


def spectral_flatness_ratio(p: Psf) -> float:
    """max|F(P)| / mean|F(P)| on the PSF's native grid; lower = flatter = easier to invert."""
    mag = np.abs(np.fft.fft2(p.data))
    return float(mag.max() / mag.mean())


# ---------------------------------------------------------------------------
# float32 array files: FLTIMG here, FTKMDL in regressor
# ---------------------------------------------------------------------------

def as_float32(x, name: str = "image") -> np.ndarray:
    """``x`` as FLTIMG and FTKMDL store it: contiguous little-endian float32,
    cast only when it is not that already. Finiteness is checked after the
    cast, so a value beyond float32's range raises NumericalError here."""
    with np.errstate(over="ignore"):  # an overflow raises below instead
        xa = np.ascontiguousarray(x, dtype="<f4")
    if not np.all(np.isfinite(xa)):
        raise NumericalError(f"{name} contains values that are not finite "
                             f"in float32")
    return xa


def _read_header(f, path, what: str, count: int,
                 magic: str | None = None) -> list[int]:
    """The ``count`` integers of the next line of ``f``, ASCII of at most 64
    bytes led by the token ``<magic>1`` if given; else FormatError."""
    line = f.readline(64)
    if not line.endswith(b"\n"):
        raise FormatError(f"{path}: missing {what} terminator")
    parts = line.decode("ascii", errors="replace").split()
    if magic is not None:
        if not parts or not parts[0].startswith(magic):
            raise FormatError(f"{path}: bad {what} {line!r}")
        version = parts.pop(0)[len(magic):]
        if version != str(_VERSION):
            raise FormatError(f"{path}: unsupported {magic} version {version!r}")
    if len(parts) != count:
        raise FormatError(f"{path}: bad {what} {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as e:
        raise FormatError(f"{path}: non-integer value in {what}") from e


def _read_f32(f, path, shape: tuple[int, int], what: str) -> np.ndarray:
    """The next little-endian float32 values of ``f`` in a new array of
    ``shape``, all finite. The file's size is checked before allocating:
    a header may claim gigabytes."""
    n = 4 * shape[0] * shape[1]
    if os.fstat(f.fileno()).st_size - f.tell() < n:
        raise FormatError(f"{path}: truncated or oversized {what}")
    data = np.empty(shape, dtype="<f4")
    if f.readinto(data) != n:
        raise FormatError(f"{path}: truncated or oversized {what}")
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite {what}")
    return data


def save_image(x, path) -> None:
    """Write a 2D array as FLTIMG (float32, bit-exact round trip).

    The array is cast (as_float32) and checked before the file is opened;
    its buffer is written as it is.
    """
    xa = np.asarray(x)
    if xa.ndim != 2 or xa.size == 0:
        raise ConfigError("image must be a non-empty 2D array")
    xa = as_float32(xa)
    with open(path, "wb") as f:
        f.write(f"{_FLTIMG_MAGIC}{_VERSION} {xa.shape[0]} {xa.shape[1]}\n".encode("ascii"))
        f.write(xa)


def load_image(path) -> np.ndarray:
    """Read an FLTIMG file into a writable float32 2D array.

    Frames are float32 in memory as on disk: render_eye,
    simulate_measurement and the CLI's reconstruction step return them so.
    Every kernel computes in float64; the conversion is exact.
    """
    with open(path, "rb") as f:
        h, w = _read_header(f, path, "FLTIMG header", 2, _FLTIMG_MAGIC)
        if h <= 0 or w <= 0 or h > MAX_DIM or w > MAX_DIM:
            raise FormatError(f"{path}: implausible dims {h}x{w}")
        data = _read_f32(f, path, (h, w), "payload")
        if f.read(1):
            raise FormatError(f"{path}: truncated or oversized payload")
    return data


def save_psf(p: Psf, path) -> None:
    save_image(p.data, path)


def load_psf(path) -> Psf:
    """Load a PSF from FLTIMG; negative values are rejected."""
    data = load_image(path)
    if np.any(data < 0):
        raise FormatError(f"{path}: negative values in psf")
    return Psf(data)
