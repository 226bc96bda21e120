"""Eye/screen geometry: gaze <-> pixel projection, angular metrics, stimulus grid.

Conventions
-----------
Screen points are (x_px, y_px) with origin at the monitor's top-left corner
and y growing downward. The eye frame is right-handed with x toward
screen-right, y up, and z from the eye toward the screen plane; the y-down /
y-up mismatch is a single explicit sign flip inside the projection. Angles
are reported in degrees; radians are internal only.

Gaze vectors and screen points are plain float arrays, shape (3,) and (2,);
the projection also takes a stack of gaze vectors, shape (N, 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UnprojectableGazeError
from .report import write_table

# Below this z-component a gaze ray is parallel to or facing away from the
# screen and has no pixel image.
MIN_PROJECTABLE_Z = 1e-6


@dataclass(frozen=True)
class MonitorSpec:
    """Monitor geometry. Square pixels of pixel_pitch_mm, eye at distance_mm."""

    width_px: int = 1920
    height_px: int = 1080
    pixel_pitch_mm: float = 0.2938
    distance_mm: float = 500.0

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise ConfigError("monitor pixel counts must be positive")
        if self.pixel_pitch_mm <= 0 or self.distance_mm <= 0:
            raise ConfigError("pixel pitch and distance must be positive")
        if self.distance_mm <= 10 * self.pixel_pitch_mm:
            raise ConfigError("viewing distance must be much larger than pixel pitch")


@dataclass(frozen=True)
class CalibratedScreen:
    """Monitor plus the calibration origin: the pixel the eye faces head-on."""

    monitor: MonitorSpec = field(default_factory=MonitorSpec)
    calib_x_px: float = 960.0
    calib_y_px: float = 540.0

    def __post_init__(self):
        if not (0 <= self.calib_x_px <= self.monitor.width_px):
            raise ConfigError("calibration x outside monitor")
        if not (0 <= self.calib_y_px <= self.monitor.height_px):
            raise ConfigError("calibration y outside monitor")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular stimulus grid, row-major from a top-left origin point."""

    rows: int = 15
    cols: int = 15
    spacing_x_px: float = 121.3
    spacing_y_px: float = 66.3
    # Defaults center the 15x15 default grid on the 1920x1080 monitor center.
    origin_x_px: float = 960.0 - 14 * 121.3 / 2
    origin_y_px: float = 540.0 - 14 * 66.3 / 2

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ConfigError("grid needs at least 2 rows and 2 cols")
        if self.spacing_x_px <= 0 or self.spacing_y_px <= 0:
            raise ConfigError("grid spacings must be positive")

    @property
    def extent_x_px(self) -> float:
        return (self.cols - 1) * self.spacing_x_px

    @property
    def extent_y_px(self) -> float:
        return (self.rows - 1) * self.spacing_y_px


def screen_to_gaze(p, s: CalibratedScreen) -> np.ndarray:
    """Unit gaze vector of the eye fixating screen pixel ``p``.

    Total on valid screens: the z-component is always positive because the
    eye sits distance_mm in front of the screen plane.
    """
    p = np.asarray(p, dtype=float)
    pitch = s.monitor.pixel_pitch_mm
    v = np.array([
        (p[0] - s.calib_x_px) * pitch,
        -(p[1] - s.calib_y_px) * pitch,
        s.monitor.distance_mm,
    ])
    return v / np.linalg.norm(v)


def gaze_to_screen(v, s: CalibratedScreen) -> np.ndarray:
    """Screen pixel(s) hit by unit gaze vector(s) ``v``: (3,) -> (2,), or
    (N, 3) -> (N, 2) row by row.

    Raises UnprojectableGazeError when any v_z <= 1e-6. Closed-form partial
    derivatives are exposed via gaze_to_screen_jacobian for the training path.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v[..., 2] <= MIN_PROJECTABLE_Z):
        raise UnprojectableGazeError(f"unprojectable gaze: v_z={v[..., 2].min()!r}")
    d = s.monitor.distance_mm
    pitch = s.monitor.pixel_pitch_mm
    return np.stack([
        s.calib_x_px + d * v[..., 0] / v[..., 2] / pitch,
        s.calib_y_px - d * v[..., 1] / v[..., 2] / pitch,
    ], axis=-1)


def gaze_to_screen_jacobian(v, s: CalibratedScreen) -> np.ndarray:
    """2x3 Jacobian d(screen point)/d(gaze vector) at ``v`` (v as a free
    3-vector); (N, 3) gives the (N, 2, 3) Jacobians of the rows."""
    v = np.asarray(v, dtype=float)
    if np.any(v[..., 2] <= MIN_PROJECTABLE_Z):
        raise UnprojectableGazeError(f"unprojectable gaze: v_z={v[..., 2].min()!r}")
    k = s.monitor.distance_mm / s.monitor.pixel_pitch_mm
    z = v[..., 2]
    zero = np.zeros_like(z)
    # z**2 as C pow, as it was when v was one vector: on an array, ** squares
    # by multiplication, which rounds differently in about 1 case in 1000.
    z2 = np.float_power(z, 2)
    return np.stack([
        np.stack([k / z, zero, -k * v[..., 0] / z2], axis=-1),
        np.stack([zero, -k / z, k * v[..., 1] / z2], axis=-1),
    ], axis=-2)


def angular_error(a, b) -> float:
    """Angle in degrees between two unit vectors: arccos of the clamped dot."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.degrees(math.acos(min(1.0, max(-1.0, float(np.dot(a, b))))))


def make_grid(g: GridSpec, monitor: MonitorSpec | None = None) -> list[np.ndarray]:
    """Row-major list of the rows*cols grid points.

    Point (i, j) = origin + (j*spacing_x, i*spacing_y). If ``monitor`` is
    given, a grid leaving the visible area is rejected.
    """
    if monitor is not None:
        x_max = g.origin_x_px + g.extent_x_px
        y_max = g.origin_y_px + g.extent_y_px
        if (g.origin_x_px < 0 or g.origin_y_px < 0
                or x_max > monitor.width_px or y_max > monitor.height_px):
            raise ConfigError("grid exceeds monitor bounds")
    return [
        np.array([g.origin_x_px + j * g.spacing_x_px,
                  g.origin_y_px + i * g.spacing_y_px])
        for i in range(g.rows)
        for j in range(g.cols)
    ]


@dataclass
class GridAngularStats:
    """Angular layout of a stimulus grid as seen from the eye.

    dtheta_x_deg[i, j] is the angle between grid points (i, j) and (i, j+1);
    NaN in the last column. dtheta_y_deg likewise along rows.
    """

    grid: GridSpec
    dtheta_x_deg: np.ndarray
    dtheta_y_deg: np.ndarray
    points: list[np.ndarray]

    @property
    def min_spacing_x_deg(self) -> float:
        return float(np.nanmin(self.dtheta_x_deg))

    @property
    def min_spacing_y_deg(self) -> float:
        return float(np.nanmin(self.dtheta_y_deg))

    def write_csv(self, path) -> None:
        g = self.grid
        write_table(path, ["i", "j", "x_px", "y_px", "dtheta_x_deg", "dtheta_y_deg"],
                    ((i, j, *self.points[i * g.cols + j],
                      self.dtheta_x_deg[i, j], self.dtheta_y_deg[i, j])
                     for i in range(g.rows) for j in range(g.cols)))


def grid_angular_stats(g: GridSpec, s: CalibratedScreen) -> GridAngularStats:
    """Adjacent-pair gaze angles along each axis."""
    pts = make_grid(g)
    vecs = np.array([screen_to_gaze(p, s) for p in pts]).reshape(g.rows, g.cols, 3)
    dx = np.full((g.rows, g.cols), np.nan)
    dy = np.full((g.rows, g.cols), np.nan)
    for i in range(g.rows):
        for j in range(g.cols):
            if j + 1 < g.cols:
                dx[i, j] = angular_error(vecs[i, j], vecs[i, j + 1])
            if i + 1 < g.rows:
                dy[i, j] = angular_error(vecs[i, j], vecs[i + 1, j])
    return GridAngularStats(grid=g, dtheta_x_deg=dx, dtheta_y_deg=dy, points=pts)
