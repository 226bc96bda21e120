"""Procedural NIR-style eye renderer: ground-truth (image, gaze) pairs.

Scaled-orthographic close-range model: the camera sits a few centimeters
from the eye, so pupil/iris disc positions are linear in the gaze tangent.
Dark-pupil appearance (pupil darkest, then iris, then sclera). A fixed
point light near the screen produces a peaked illumination field that
tracks opposite the gaze: looking away from the light dims the frame,
which is what makes corner stimuli harder downstream.

All randomness is seeded: subject seeds perturb anatomy, jitter seeds add
per-capture texture noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .geometry import CalibratedScreen, GridSpec, make_grid, screen_to_gaze
from .seeds import make_rng, mix_seed

# Fraction by which a subject seed perturbs each anatomical parameter.
SUBJECT_VARIATION = 0.10
# Light-field displacement in image px per unit gaze tangent, as a multiple
# of the eyeball displacement gain (radius * camera scale).
LIGHT_TRACK_FACTOR = 2.0
_EDGE_PX = 1.0  # anti-aliasing ramp width


@dataclass(frozen=True)
class EyeRenderParams:
    image_h: int = 128
    image_w: int = 128
    eyeball_radius_mm: float = 12.0
    pupil_radius_mm: float = 2.5
    iris_radius_mm: float = 6.0
    camera_scale_px_per_mm: float = 4.0
    sclera_level: float = 0.85
    iris_level: float = 0.45
    pupil_level: float = 0.08
    eyelid_openness: float = 0.8
    light_x_px: float = 63.5
    light_y_px: float = 63.5
    light_falloff_r0_px: float = 80.0
    texture_noise_rel: float = 0.02

    def __post_init__(self):
        if self.image_h < 8 or self.image_w < 8:
            raise ConfigError("render frame must be at least 8x8")
        if not (0 < self.pupil_radius_mm < self.iris_radius_mm < self.eyeball_radius_mm):
            raise ConfigError("radii must satisfy pupil < iris < eyeball")
        if not (0 <= self.pupil_level < self.iris_level < self.sclera_level <= 1):
            raise ConfigError("intensities must satisfy pupil < iris < sclera in [0, 1]")
        if self.camera_scale_px_per_mm <= 0 or self.light_falloff_r0_px <= 0:
            raise ConfigError("scales must be positive")
        if not (0.0 <= self.eyelid_openness <= 1.0):
            raise ConfigError("eyelid_openness must be in [0, 1]")
        if self.texture_noise_rel < 0:
            raise ConfigError("texture_noise_rel must be nonnegative")


@dataclass
class GazeSample:
    """One paired record: image at some pipeline stage plus ground truth."""

    image: np.ndarray
    gaze: np.ndarray
    screen_pt: np.ndarray
    subject_id: int
    round_id: int
    grid_i: int
    grid_j: int
    stage: str = "scene"
    sample_id: str = ""


def subject_params(params: EyeRenderParams, subject_seed: int) -> EyeRenderParams:
    """Anatomy perturbed +/-10% per subject (radii and intensity levels)."""
    rng = make_rng(subject_seed)
    def jig(v):
        return float(v * rng.uniform(1 - SUBJECT_VARIATION, 1 + SUBJECT_VARIATION))
    return replace(
        params,
        eyeball_radius_mm=jig(params.eyeball_radius_mm),
        pupil_radius_mm=jig(params.pupil_radius_mm),
        iris_radius_mm=jig(params.iris_radius_mm),
        sclera_level=min(1.0, jig(params.sclera_level)),
        iris_level=jig(params.iris_level),
        pupil_level=jig(params.pupil_level),
    )


def _soft_disc(dist: np.ndarray, radius: float) -> np.ndarray:
    """1 inside, 0 outside, linear ramp of one pixel at the rim."""
    return np.clip((radius - dist) / _EDGE_PX + 0.5, 0.0, 1.0)


def render_eye(gaze, params: EyeRenderParams, subject_seed: int,
               jitter_seed: int) -> np.ndarray:
    """Render one eye frame for a unit gaze vector with z > 0.

    Pupil/iris centers displace from the frame center by
    (R*gaze_x*scale, -R*gaze_y*scale); the pupil is foreshortened by gaze_z
    along the displacement direction. Output values lie in [0, 1], as
    float32: the image is computed in float64 and cast once at the end.
    """
    g = np.asarray(gaze, dtype=float)
    if g[2] <= 0:
        raise ConfigError("renderable gaze needs z > 0")
    p = subject_params(params, subject_seed)
    h, w = p.image_h, p.image_w
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    scale = p.camera_scale_px_per_mm

    dx = p.eyeball_radius_mm * g[0] * scale
    dy = -p.eyeball_radius_mm * g[1] * scale
    pupil_r = p.pupil_radius_mm * scale
    iris_r = p.iris_radius_mm * scale
    if (abs(dx) - pupil_r > w / 2.0) or (abs(dy) - pupil_r > h / 2.0):
        raise NumericalError("unrenderable gaze: pupil fully off-frame")

    # A column of rows and a row of columns: each term broadcasts to the
    # frame with the operations a full grid would take.
    yy = np.arange(h, dtype=float)[:, None]
    xx = np.arange(w, dtype=float)
    u = xx - (cx + dx)
    v = yy - (cy + dy)

    # Foreshorten the pupil by gaze_z along the displacement direction.
    disp = np.hypot(dx, dy)
    if disp > 1e-9:
        ex, ey = dx / disp, dy / disp
    else:
        ex, ey = 1.0, 0.0
    shrink = max(float(g[2]), 1e-3)
    along = (u * ex + v * ey) / shrink
    across = -u * ey + v * ex
    pupil_dist = np.hypot(along, across)
    iris_dist = np.hypot(u, v)

    img = np.full((h, w), p.sclera_level)
    iris_m = _soft_disc(iris_dist, iris_r)
    img = img * (1 - iris_m) + p.iris_level * iris_m
    pupil_m = _soft_disc(pupil_dist, pupil_r)
    img = img * (1 - pupil_m) + p.pupil_level * pupil_m

    # Parabolic eyelids: aperture half-height openness*(h/2) at the center
    # column, tightening toward the left/right edges.
    lid_level = 0.9 * p.sclera_level
    half_up = p.eyelid_openness * (h / 2.0) * (1.0 - 0.25 * ((xx - cx) / (w / 2.0)) ** 2)
    lid_m = np.clip((np.abs(yy - cy) - half_up) / _EDGE_PX + 0.5, 0.0, 1.0)
    img = img * (1 - lid_m) + lid_level * lid_m

    # Peaked illumination: the light is fixed in the rig, the camera frame is
    # eye-fixed, so the bright spot drifts opposite the gaze tangent.
    gain = LIGHT_TRACK_FACTOR * p.eyeball_radius_mm * scale
    lx = p.light_x_px - gain * g[0] / g[2]
    ly = p.light_y_px + gain * g[1] / g[2]
    r2 = ((xx - lx) ** 2 + (yy - ly) ** 2) / p.light_falloff_r0_px ** 2
    img = img / (1.0 + r2)

    if p.texture_noise_rel > 0:
        rng = make_rng(jitter_seed)
        img = img + rng.normal(0.0, p.texture_noise_rel, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def render_round(grid: GridSpec, screen: CalibratedScreen, params: EyeRenderParams,
                 subject_id: int, round_id: int, n_per_point: int,
                 base_seed: int) -> list[GazeSample]:
    """All captures of one grid pass: n_per_point frames per stimulus point.

    base_seed is the dataset master seed; subject anatomy is derived from
    (base_seed, subject_id) only, so it is stable across rounds. Jitter is
    per capture.
    """
    return list(iter_round(grid, screen, params, subject_id, round_id,
                           n_per_point, base_seed))


def iter_round(grid: GridSpec, screen: CalibratedScreen, params: EyeRenderParams,
               subject_id: int, round_id: int, n_per_point: int, base_seed: int):
    """render_round's captures, rendered one at a time as they are asked for."""
    if n_per_point < 1:
        raise ConfigError("n_per_point must be >= 1")
    pts = make_grid(grid, screen.monitor)
    subject_seed = _subject_seed(base_seed, subject_id)
    k = 0
    for i in range(grid.rows):
        for j in range(grid.cols):
            pt = pts[i * grid.cols + j]
            g = screen_to_gaze(pt, screen)
            for _ in range(n_per_point):
                jitter = _jitter_seed(base_seed, subject_id, round_id, k)
                yield GazeSample(
                    image=render_eye(g, params, subject_seed, jitter), gaze=g,
                    screen_pt=pt, subject_id=subject_id, round_id=round_id,
                    grid_i=i, grid_j=j, stage="scene",
                    sample_id=f"s{subject_id:02d}_r{round_id:02d}_{k:05d}",
                )
                k += 1


def _subject_seed(base_seed: int, subject_id: int) -> int:
    return mix_seed(base_seed, 0xE7E, subject_id)


def _jitter_seed(base_seed: int, subject_id: int, round_id: int, k: int) -> int:
    return mix_seed(base_seed, 0x717, subject_id, round_id, k)
