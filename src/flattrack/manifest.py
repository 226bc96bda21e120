"""Dataset manifest: one CSV row per sample plus a sidecar config.

The manifest ties every image file to its labels and provenance
(subject, round, grid cell, pipeline stage). The sidecar config captures
the calibrated screen and seeds that produced the dataset, so label
coherence (gaze == screen_to_gaze(screen point)) can be re-audited on load.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import DataError
from .eyesim import GazeSample
from .geometry import CalibratedScreen, screen_to_gaze
from .optics import load_image, save_image
from .report import read_table, write_table

MANIFEST_NAME = "manifest.csv"
SIDECAR_NAME = "config.cfg"
IMAGES_DIR = "images"
IMAGE_SUFFIX = ".fltimg"
STAGES = ("scene", "measurement", "reconstruction")

_COLUMNS = ["sample_id", "subject_id", "round_id", "grid_i", "grid_j",
            "image_path", "stage", "gaze_x", "gaze_y", "gaze_z",
            "screen_x_px", "screen_y_px"]


@dataclass
class ManifestRow:
    sample_id: str
    subject_id: int
    round_id: int
    grid_i: int
    grid_j: int
    image_path: str
    stage: str
    gaze: np.ndarray
    screen_pt: np.ndarray


@dataclass
class DatasetManifest:
    root: str
    rows: list[ManifestRow]
    config: ExperimentConfig

    def __len__(self) -> int:
        return len(self.rows)

    def screen(self) -> CalibratedScreen:
        return self.config.screen()

    def validate(self) -> None:
        """Referential integrity and label coherence; hard errors on breakage."""
        seen = set()
        screen = self.screen()
        for r in self.rows:
            if r.sample_id in seen:
                raise DataError(f"duplicate sample_id {r.sample_id!r}")
            seen.add(r.sample_id)
            if r.stage not in STAGES:
                raise DataError(f"{r.sample_id}: unknown stage {r.stage!r}")
            path = os.path.join(self.root, r.image_path)
            if not os.path.isfile(path):
                raise DataError(f"{r.sample_id}: missing image {path}")
            # NaN fails every `> tol` test below, so check finiteness first.
            if not (np.all(np.isfinite(r.gaze)) and np.all(np.isfinite(r.screen_pt))):
                raise DataError(f"{r.sample_id}: non-finite gaze or screen point")
            if abs(float(np.linalg.norm(r.gaze)) - 1.0) > 1e-6:
                raise DataError(f"{r.sample_id}: gaze not unit-norm")
            expect = screen_to_gaze(r.screen_pt, screen)
            if float(np.max(np.abs(expect - r.gaze))) > 1e-6:
                raise DataError(f"{r.sample_id}: gaze/screen-point mismatch")

    def load_sample(self, row: ManifestRow) -> GazeSample:
        img = load_image(os.path.join(self.root, row.image_path))
        return GazeSample(image=img, gaze=row.gaze, screen_pt=row.screen_pt,
                          subject_id=row.subject_id, round_id=row.round_id,
                          grid_i=row.grid_i, grid_j=row.grid_j,
                          stage=row.stage, sample_id=row.sample_id)


def save_sample(root: str, s: GazeSample) -> ManifestRow:
    """Write one sample's image under ``root`` and return its manifest row."""
    os.makedirs(os.path.join(root, IMAGES_DIR), exist_ok=True)
    rel = os.path.join(IMAGES_DIR, f"{s.sample_id}_{s.stage}{IMAGE_SUFFIX}")
    save_image(s.image, os.path.join(root, rel))
    return ManifestRow(
        sample_id=s.sample_id, subject_id=s.subject_id, round_id=s.round_id,
        grid_i=s.grid_i, grid_j=s.grid_j, image_path=rel, stage=s.stage,
        gaze=np.asarray(s.gaze, dtype=float),
        screen_pt=np.asarray(s.screen_pt, dtype=float))


def _is_image_path(rel: str) -> bool:
    """Whether ``rel`` names a file directly in the dataset's images
    directory, as save_sample writes it: no absolute path, no ``..``."""
    parts = rel.split("/")
    return (len(parts) == 2 and parts[0] == IMAGES_DIR
            and parts[1].endswith(IMAGE_SUFFIX) and parts[1] != IMAGE_SUFFIX)


def remove_dataset(root: str) -> None:
    """Delete the manifest, then the image files, of a dataset under ``root``.

    The manifest goes first, so an interrupted removal never leaves a
    manifest that names missing images. Other files are left alone.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(root, MANIFEST_NAME))
    images = os.path.join(root, IMAGES_DIR)
    if os.path.isdir(images):
        for name in os.listdir(images):
            if name.endswith(IMAGE_SUFFIX):
                os.remove(os.path.join(images, name))


def write_rows(root: str, rows: list[ManifestRow],
               config: ExperimentConfig) -> DatasetManifest:
    """Write the manifest CSV and sidecar config for already-saved rows."""
    os.makedirs(root, exist_ok=True)
    write_table(os.path.join(root, MANIFEST_NAME), _COLUMNS,
                ((r.sample_id, r.subject_id, r.round_id, r.grid_i, r.grid_j,
                  r.image_path, r.stage, *r.gaze.tolist(), *r.screen_pt.tolist())
                 for r in rows))
    config.save(os.path.join(root, SIDECAR_NAME))
    return DatasetManifest(root=root, rows=rows, config=config)


def read_manifest(root: str, validate: bool = True) -> DatasetManifest:
    path = os.path.join(root, MANIFEST_NAME)
    sidecar = os.path.join(root, SIDECAR_NAME)
    if not os.path.isfile(path):
        raise DataError(f"no manifest at {path}")
    if not os.path.isfile(sidecar):
        raise DataError(f"no sidecar config at {sidecar}")
    config = ExperimentConfig.load(sidecar)
    rows = []
    for rec in read_table(path, _COLUMNS):
        try:
            rows.append(ManifestRow(
                sample_id=rec[0], subject_id=int(rec[1]), round_id=int(rec[2]),
                grid_i=int(rec[3]), grid_j=int(rec[4]), image_path=rec[5],
                stage=rec[6],
                gaze=np.array([float(rec[7]), float(rec[8]), float(rec[9])]),
                screen_pt=np.array([float(rec[10]), float(rec[11])])))
        except ValueError as e:
            raise DataError(f"{path}: unparsable row {rec}") from e
        if not _is_image_path(rows[-1].image_path):
            raise DataError(f"{path}: image path {rec[5]!r} is not "
                            f"{IMAGES_DIR}/<name>{IMAGE_SUFFIX}")
    m = DatasetManifest(root=root, rows=rows, config=config)
    if validate:
        m.validate()
    return m
