import math

import numpy as np
import pytest

from flattrack.errors import ConfigError, UnprojectableGazeError
from flattrack.geometry import (CalibratedScreen, GridSpec, MonitorSpec,
                                angular_error, gaze_to_screen,
                                gaze_to_screen_jacobian, grid_angular_stats,
                                make_grid, screen_to_gaze)
from oracles import fov

SCREEN = CalibratedScreen()


def test_screen_to_gaze_head_on():
    v = screen_to_gaze([960.0, 540.0], SCREEN)
    assert np.allclose(v, [0, 0, 1], atol=1e-12)


def test_screen_to_gaze_ten_degrees():
    # Point offset by d*tan(10 deg) worth of pixels lies exactly 10 deg off-axis.
    d = SCREEN.monitor.distance_mm
    pitch = SCREEN.monitor.pixel_pitch_mm
    p = [960.0 + d * math.tan(math.radians(10)) / pitch, 540.0]
    v = screen_to_gaze(p, SCREEN)
    assert angular_error(v, [0, 0, 1]) == pytest.approx(10.0, abs=1e-9)


def test_screen_to_gaze_unit_norm_and_forward():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p = rng.uniform([0, 0], [1920, 1080])
        v = screen_to_gaze(p, SCREEN)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
        assert v[2] > 0


def test_projection_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = rng.uniform([0, 0], [1920, 1080])
        back = gaze_to_screen(screen_to_gaze(p, SCREEN), SCREEN)
        assert np.max(np.abs(back - p)) < 1e-6


def test_gaze_to_screen_center():
    assert np.allclose(gaze_to_screen([0, 0, 1], SCREEN), [960, 540])


def test_gaze_to_screen_half_grid_extent():
    # 26.515 deg off-axis in the x-plane lands half the default grid extent
    # (14 * 121.3 / 2 = 849.1 px) from the calibration point.
    a = math.radians(26.515)
    v = np.array([math.sin(a), 0.0, math.cos(a)])
    p = gaze_to_screen(v, SCREEN)
    offset = p[0] - 960.0
    assert offset == pytest.approx(849.1, abs=0.15)
    assert p[1] == pytest.approx(540.0, abs=1e-9)


@pytest.mark.parametrize("vz", [0.0, -0.5, 1e-7])
def test_gaze_to_screen_rejects_unprojectable(vz):
    v = np.array([0.3, 0.2, vz])
    with pytest.raises(UnprojectableGazeError):
        gaze_to_screen(v, SCREEN)


def _unit_rows(n, seed):
    v = np.random.default_rng(seed).normal(size=(n, 3))
    v[:, 2] = np.abs(v[:, 2]) + 0.05
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [0, 1, 33])
def test_projection_of_a_stack_equals_its_rows(n):
    v = _unit_rows(n, n)
    pts = gaze_to_screen(v, SCREEN)
    jac = gaze_to_screen_jacobian(v, SCREEN)
    assert pts.shape == (n, 2) and jac.shape == (n, 2, 3)
    rows_pts = np.array([gaze_to_screen(r, SCREEN) for r in v]).reshape(n, 2)
    rows_jac = np.array([gaze_to_screen_jacobian(r, SCREEN) for r in v]).reshape(n, 2, 3)
    assert np.array_equal(pts, rows_pts)
    assert np.array_equal(jac, rows_jac)
    for i in range(n):
        bad = v.copy()
        bad[i, 2] = 0.0
        with pytest.raises(UnprojectableGazeError):
            gaze_to_screen(bad, SCREEN)
        with pytest.raises(UnprojectableGazeError):
            gaze_to_screen_jacobian(bad, SCREEN)


def test_jacobian_equals_the_scalar_formula():
    # The z-column's z**2 is C pow on Python floats; squaring by
    # multiplication rounds differently in about 1 case in 1000.
    v = _unit_rows(20000, 5)
    k = SCREEN.monitor.distance_mm / SCREEN.monitor.pixel_pitch_mm
    expected = np.array([[[k / z, 0.0, -k * x / z**2], [0.0, -k / z, k * y / z**2]]
                         for x, y, z in v.tolist()])
    assert np.array_equal(gaze_to_screen_jacobian(v, SCREEN), expected)


def test_angular_error_basics():
    assert angular_error([0, 0, 1], [0, 0, 1]) == 0.0
    assert angular_error([0, 0, 1], [1, 0, 0]) == pytest.approx(90.0)
    a = math.radians(3.21)
    assert angular_error([0, 0, 1], [math.sin(a), 0, math.cos(a)]) == pytest.approx(3.21, abs=1e-9)


def test_angular_error_metric_properties():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b, c = (u / np.linalg.norm(u) for u in rng.normal(size=(3, 3)))
        ab = angular_error(a, b)
        assert ab == pytest.approx(angular_error(b, a), abs=1e-12)
        assert 0.0 <= ab <= 180.0
        # triangle inequality with numeric slack
        assert ab <= angular_error(a, c) + angular_error(c, b) + 1e-9
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    assert angular_error(v, v) < 1e-9


def test_make_grid_defaults_and_order():
    pts = make_grid(GridSpec(), SCREEN.monitor)
    assert len(pts) == 225
    ext = pts[14][0] - pts[0][0]
    assert ext == pytest.approx(14 * 121.3, abs=1e-9)
    g2 = GridSpec(rows=2, cols=2, spacing_x_px=10, spacing_y_px=10,
                  origin_x_px=0, origin_y_px=0)
    pts2 = make_grid(g2)
    assert [tuple(p) for p in pts2] == [(0, 0), (10, 0), (0, 10), (10, 10)]


def test_make_grid_rejects_out_of_bounds():
    g = GridSpec(rows=15, cols=15, spacing_x_px=121.3, spacing_y_px=66.3,
                 origin_x_px=500.0, origin_y_px=75.9)
    with pytest.raises(ConfigError):
        make_grid(g, SCREEN.monitor)


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        GridSpec(rows=1)
    with pytest.raises(ConfigError):
        GridSpec(spacing_x_px=0)


def test_grid_angular_stats_match_reported_spacings():
    st = grid_angular_stats(GridSpec(), SCREEN)
    assert st.min_spacing_x_deg == pytest.approx(3.21, abs=0.5)
    assert st.min_spacing_y_deg == pytest.approx(1.77, abs=0.5)


def test_grid_spacing_decreases_with_eccentricity():
    # Near-1D grid straight ahead: adjacent-pair angles shrink monotonically
    # from the center of the row outward.
    g = GridSpec(rows=2, cols=15, spacing_x_px=121.3, spacing_y_px=2.0,
                 origin_x_px=960.0 - 7 * 121.3, origin_y_px=539.0)
    st = grid_angular_stats(g, SCREEN)
    row = st.dtheta_x_deg[0, :-1]
    left = row[:7]
    right = row[7:]
    assert all(np.diff(left) > 0)
    assert all(np.diff(right) < 0)


def test_two_point_grid_matches_direct_trigonometry():
    w = 400.0
    g = GridSpec(rows=2, cols=2, spacing_x_px=w, spacing_y_px=2.0,
                 origin_x_px=960.0 - w / 2, origin_y_px=539.0)
    st = grid_angular_stats(g, SCREEN)
    d = SCREEN.monitor.distance_mm
    pitch = SCREEN.monitor.pixel_pitch_mm
    expect = 2 * math.degrees(math.atan(w * pitch / (2 * d)))
    assert st.dtheta_x_deg[0, 0] == pytest.approx(expect, abs=1e-5)


def test_grid_minimum_spacing_at_edges_for_symmetric_grids():
    for rows, cols, sx, sy in [(15, 15, 121.3, 66.3), (7, 9, 80.0, 90.0)]:
        g = GridSpec(rows=rows, cols=cols, spacing_x_px=sx, spacing_y_px=sy,
                     origin_x_px=960.0 - (cols - 1) * sx / 2,
                     origin_y_px=540.0 - (rows - 1) * sy / 2)
        st = grid_angular_stats(g, SCREEN)
        # minimum x-spacing occurs in a corner row at the row's far end
        i, j = np.unravel_index(np.nanargmin(st.dtheta_x_deg), st.dtheta_x_deg.shape)
        assert i in (0, rows - 1)
        assert j in (0, cols - 2)
        i, j = np.unravel_index(np.nanargmin(st.dtheta_y_deg), st.dtheta_y_deg.shape)
        assert i in (0, rows - 2)
        assert j in (0, cols - 1)


def test_fov_matches_reported_values():
    g = GridSpec()
    assert fov(g.extent_x_px, "x", SCREEN) == pytest.approx(53.03, abs=2.0)
    assert fov(g.extent_y_px, "y", SCREEN) == pytest.approx(29.6, abs=2.0)
    assert fov(0.0, "x", SCREEN) == 0.0


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    eps = 1e-6
    checked = 0
    while checked < 100:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v[2] <= 0.1:
            continue
        checked += 1
        jac = gaze_to_screen_jacobian(v, SCREEN)
        for k in range(3):
            dv = np.zeros(3)
            dv[k] = eps
            num = (gaze_to_screen(v + dv, SCREEN) - gaze_to_screen(v - dv, SCREEN)) / (2 * eps)
            denom = np.maximum(np.abs(num), 1.0)
            assert np.max(np.abs(jac[:, k] - num) / denom) < 1e-5


def test_grid_stats_csv_export(tmp_path):
    st = grid_angular_stats(GridSpec(rows=3, cols=3, spacing_x_px=50, spacing_y_px=50,
                                     origin_x_px=860, origin_y_px=440), SCREEN)
    path = tmp_path / "grid.csv"
    st.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,x_px,y_px,dtheta_x_deg,dtheta_y_deg"
    assert len(lines) == 1 + 9


def test_monitor_spec_validation():
    with pytest.raises(ConfigError):
        MonitorSpec(width_px=0)
    with pytest.raises(ConfigError):
        MonitorSpec(pixel_pitch_mm=-1.0)
    with pytest.raises(ConfigError):
        CalibratedScreen(calib_x_px=-5.0)
