"""Lensless near-eye gaze toolkit.

Simulates mask-based lensless capture of synthetic eye images, recovers
scenes with closed-form Wiener/Tikhonov deconvolution, and trains and
evaluates a small gaze regressor with a two-stage pipeline: fixed
reconstruction, trainable regression through a gaze-to-screen projection
with an L1 pixel loss.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, FlatTrackError, FormatError,
                     NumericalError, UnprojectableGazeError)
from .geometry import (CalibratedScreen, GridSpec, MonitorSpec, angular_error,
                       gaze_to_screen, gaze_to_screen_jacobian,
                       grid_angular_stats, make_grid, screen_to_gaze)
from .optics import (ContourPsfParams, NoiseModel, Psf, full_convolve,
                     generate_contour_psf, load_image, load_psf, save_image,
                     save_psf, simulate_measurement)
from .reconstruct import WienerConfig, wiener_deconvolve
from .eyesim import EyeRenderParams, GazeSample, render_eye, render_round
from .regressor import (AffineRanges, EvalReport, RegressorModel, TrainConfig,
                        TrainingSet, downsample_image, evaluate, fine_tune,
                        forward, load_model, model_init, save_model, train,
                        training_set)
from .config import ExperimentConfig
from .manifest import DatasetManifest, read_manifest

__all__ = [name for name in dir() if not name.startswith("_")]
