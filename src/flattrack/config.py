"""Flat key=value experiment configuration.

One file drives every pipeline stage: monitor/grid geometry, renderer,
optics, reconstruction, and training parameters plus the master seed.
Lines are ``key = value``; ``#`` starts a comment. Unknown keys are
rejected so a typo cannot silently fall back to a default.

Most keys are ``<prefix><field>`` for a field of a stage dataclass, and
their type and default are that field's: ``monitor.`` (MonitorSpec, then
CalibratedScreen), ``grid.`` (GridSpec), ``render.`` (EyeRenderParams),
``optics.psf_`` (ContourPsfParams), ``optics.noise_`` (NoiseModel),
``recon.`` (WienerConfig), ``train.`` (TrainConfig) and ``train.aug_``
(AffineRanges). Fields a builder fills itself have no key:
CalibratedScreen.monitor, WienerConfig.output_h/output_w (the render size),
TrainConfig.aug and TrainConfig.seed. Ten keys belong to no dataclass
and carry their defaults here: ``seed``, ``dataset.subjects``,
``dataset.rounds``, ``dataset.n_per_point``, ``optics.psf_h``,
``optics.psf_w``, ``train.augment_finetune``, ``train.holdout_round``,
``bench.frames`` and ``bench.warmup``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .errors import ConfigError, read_lines
from .eyesim import EyeRenderParams
from .geometry import CalibratedScreen, GridSpec, MonitorSpec
from .optics import ContourPsfParams, NoiseModel
from .reconstruct import WienerConfig
from .regressor import AffineRanges, TrainConfig


def _keys(prefix: str, cls, *builder_filled: str) -> list[tuple[str, type, object]]:
    """(key, type, default) for each field of ``cls`` that has a key."""
    hints = get_type_hints(cls)
    return [(prefix + f.name, hints[f.name], f.default)
            for f in fields(cls) if f.name not in builder_filled]


# key -> (type, default), in config-file order
SCHEMA: dict[str, tuple[type, object]] = {key: (typ, default) for key, typ, default in [
    ("seed", int, 12345),
    *_keys("monitor.", MonitorSpec),
    *_keys("monitor.", CalibratedScreen, "monitor"),
    *_keys("grid.", GridSpec),
    *_keys("render.", EyeRenderParams),
    ("dataset.subjects", int, 13),
    ("dataset.rounds", int, 5),
    ("dataset.n_per_point", int, 1),
    ("optics.psf_h", int, 128),
    ("optics.psf_w", int, 128),
    *_keys("optics.psf_", ContourPsfParams),
    *_keys("optics.noise_", NoiseModel),
    *_keys("recon.", WienerConfig, "output_h", "output_w"),
    *_keys("train.", TrainConfig, "aug", "seed"),
    ("train.augment_finetune", bool, True),
    *_keys("train.aug_", AffineRanges),
    ("train.holdout_round", int, -1),
    ("bench.frames", int, 500),
    ("bench.warmup", int, 50),
]}


def _parse_value(key: str, raw: str, typ: type):
    raw = raw.strip()
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        value = typ(raw)
        if typ is float and not math.isfinite(value):
            raise ValueError(raw)
        return value
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {typ.__name__})") from e


@dataclass
class ExperimentConfig:
    values: dict[str, object]

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def set(self, key: str, value) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        typ = SCHEMA[key][0]
        if isinstance(value, str):
            value = _parse_value(key, value, typ)
        if typ is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, typ):
            raise ConfigError(f"bad type for {key}: {value!r}")
        if typ is float and not math.isfinite(value):
            raise ConfigError(f"non-finite value for {key}: {value!r}")
        self.values[key] = value

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls({k: v for k, (_, v) in SCHEMA.items()})

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """The defaults, overridden by each key the file sets. A key set twice
        raises ConfigError naming both lines, so that no line of a file
        silently overrides another."""
        cfg = cls.default()
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(read_lines(path, ConfigError), 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (t.strip() for t in text.split("=", 1))
            if key not in SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is already "
                                  f"set on line {first_line[key]}")
            first_line[key] = lineno
            cfg.values[key] = _parse_value(key, raw, SCHEMA[key][0])
        return cfg

    def save(self, path) -> None:
        with open(path, "w") as f:
            for key in SCHEMA:
                v = self.values[key]
                if isinstance(v, bool):
                    v = "true" if v else "false"
                elif isinstance(v, float):
                    v = repr(v)
                f.write(f"{key} = {v}\n")

    # ---- typed builders ----------------------------------------------------

    def _build(self, cls, prefix: str, **given):
        """``cls`` from the keys ``<prefix><field>``; a given value replaces
        the key."""
        return cls(**{f.name: self[prefix + f.name]
                      for f in fields(cls) if f.name not in given}, **given)

    def screen(self) -> CalibratedScreen:
        return self._build(CalibratedScreen, "monitor.",
                           monitor=self._build(MonitorSpec, "monitor."))

    def grid(self) -> GridSpec:
        return self._build(GridSpec, "grid.")

    def render_params(self) -> EyeRenderParams:
        return self._build(EyeRenderParams, "render.")

    def psf_params(self) -> ContourPsfParams:
        return self._build(ContourPsfParams, "optics.psf_")

    def noise_model(self) -> NoiseModel:
        return self._build(NoiseModel, "optics.noise_")

    def wiener_config(self, output_h: int | None = None,
                      output_w: int | None = None) -> WienerConfig:
        return self._build(
            WienerConfig, "recon.",
            output_h=self["render.image_h"] if output_h is None else output_h,
            output_w=self["render.image_w"] if output_w is None else output_w)

    def train_config(self, seed: int | None = None,
                     finetune: bool = False) -> TrainConfig:
        return self._build(
            TrainConfig, "train.",
            augment=self["train.augment_finetune" if finetune else "train.augment"],
            aug=self._build(AffineRanges, "train.aug_"),
            seed=self["seed"] if seed is None else seed)
