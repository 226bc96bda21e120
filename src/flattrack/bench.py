"""Latency harness for the capture -> reconstruct -> regress pipeline.

One timer (time_stages) for every latency figure: per-stage wall-clock
milliseconds (median, p95 and mean over warm frames) plus an fps equivalent
of the processing budget. Making a frame's input (for the pipeline bench,
render + simulate) is prep work and is never counted in the budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError
from .eyesim import render_eye
from .geometry import make_grid, screen_to_gaze
from .optics import Psf, simulate_measurement
from .orderstats import median, quantile
from .reconstruct import wiener_deconvolve
from .regressor import RegressorModel, downsample_image, forward
from .report import write_table
from .seeds import mix_seed


@dataclass
class BenchResult:
    stages: dict[str, dict[str, float]]  # stage -> median_ms/p95_ms/mean_ms
    total_median_ms: float
    total_p95_ms: float
    fps: float
    frames: int

    def write_csv(self, path) -> None:
        write_table(path, ["stage", "median_ms", "p95_ms", "mean_ms"],
                    [[name, st["median_ms"], st["p95_ms"], st["mean_ms"]]
                     for name, st in self.stages.items()]
                    + [["total", self.total_median_ms, self.total_p95_ms, ""],
                       ["fps", self.fps, "", ""]])


def time_stages(stages, make_input, frames: int, warmup: int) -> BenchResult:
    """Time a chain of (name, fn) stages per frame over ``frames`` frames,
    after ``warmup`` untimed ones.

    Frame k (k = 0, 1, ...) starts from ``make_input(k)``, which is not
    timed; each stage is fed the result of the one before. A frame's total
    is the time from the first stage's start to the last stage's end, and
    fps = 1000 / median total ms. p95 is the 0.95 quantile by numpy's
    default linear rule (np.percentile(ms, 95)), computed exactly by
    orderstats.quantile.
    """
    if frames < 1:
        raise ConfigError("bench.frames must be >= 1")
    if warmup < 0:
        raise ConfigError("bench.warmup must be >= 0")
    ms = np.empty((len(stages) + 1, frames))
    for k in range(warmup + frames):
        x = make_input(k)
        t = [time.perf_counter()]
        for _, fn in stages:
            x = fn(x)
            t.append(time.perf_counter())
        if k >= warmup:
            ms[:-1, k - warmup] = np.diff(t) * 1e3
            ms[-1, k - warmup] = (t[-1] - t[0]) * 1e3
    total_median = median(ms[-1])
    return BenchResult(
        stages={name: {"median_ms": median(row),
                       "p95_ms": quantile(row, 0.95),
                       "mean_ms": float(row.mean())}
                for (name, _), row in zip(stages, ms)},
        total_median_ms=total_median,
        total_p95_ms=quantile(ms[-1], 0.95),
        fps=1000.0 / total_median,
        frames=frames,
    )


def run_pipeline_bench(model: RegressorModel, psf: Psf,
                       config: ExperimentConfig) -> BenchResult:
    """Time reconstruct/downsample/regress per frame over ``bench.frames``
    warm frames, after ``bench.warmup`` untimed ones.

    Each frame is a freshly simulated measurement of a rendered eye (both
    excluded from the budget).
    """
    params = config.render_params()
    noise = config.noise_model()
    seed = config["seed"]
    wcfg = config.wiener_config()
    screen = config.screen()
    gazes = [screen_to_gaze(p, screen) for p in make_grid(config.grid(), screen.monitor)]

    def measurement(k):
        scene = render_eye(gazes[k % len(gazes)], params, mix_seed(seed, 0xBE7C, 0),
                           mix_seed(seed, 0xBE7C, 1, k))
        return simulate_measurement(scene, psf, noise, mix_seed(seed, 0xBE7C, 2, k))

    return time_stages([("reconstruct", lambda y: wiener_deconvolve(y, psf, wcfg)),
                        ("downsample", downsample_image),
                        ("regress", lambda x: forward(model, x))],
                       measurement, config["bench.frames"], config["bench.warmup"])
