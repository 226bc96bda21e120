"""Experiment protocol: held-out rounds, pooled pretraining, per-subject fine-tuning.

The protocol mirrors the capture-study evaluation: one full grid round per
subject is held out for testing; the remaining samples are pooled and split
80:20 into train/validation for pretraining; each subject then gets a
fine-tuned copy (last two layers only) trained on their own non-held-out
data, and is evaluated on their held-out round.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .errors import DataError
from .eyesim import GazeSample
from .regressor import (EvalReport, TrainingSet, TrainResult, evaluate,
                        fine_tune, model_init, train, training_set)
from .seeds import make_rng, mix_seed
from .workers import parallel_map

# Purpose tags for derived seeds (stable across releases).
TAG_SIMULATE = 0x51B
TAG_PRETRAIN = 0x9143
TAG_FINETUNE = 0xF17E
TAG_SPLIT = 0x0517


def seed_for_sample(master_seed: int, tag: int, sample_id: str) -> int:
    """Per-sample seed independent of manifest row order."""
    digest = hashlib.blake2b(sample_id.encode("utf-8"), digest_size=8).digest()
    return mix_seed(master_seed, tag, int.from_bytes(digest, "little"))


def holdout_round_of(rounds: list[int], holdout_cfg: int) -> int:
    """Resolve the held-out round id: -1 means the last round."""
    if not rounds:
        raise DataError("subject has no rounds")
    if holdout_cfg < 0:
        return rounds[-1]
    if holdout_cfg not in rounds:
        raise DataError(f"configured holdout round {holdout_cfg} not present in {rounds}")
    return holdout_cfg


def split_train_val(items: list, ratio: float, rng: np.random.Generator):
    """Seeded shuffle split; sizes within one sample of the requested ratio."""
    n = len(items)
    if n < 2:
        raise DataError("need at least 2 samples to split")
    perm = rng.permutation(n)
    n_train = int(round(ratio * n))
    n_train = min(max(n_train, 1), n - 1)
    train_idx = perm[:n_train]
    val_idx = perm[n_train:]
    return [items[i] for i in train_idx], [items[i] for i in val_idx]


@dataclass
class ProtocolSplit:
    """Audit record of the sample partition for one protocol run."""

    heldout: dict[int, list[GazeSample]]
    train_pool: list[GazeSample]
    val_pool: list[GazeSample]
    per_subject: dict[int, tuple[list[GazeSample], list[GazeSample]]] = field(
        default_factory=dict)


def partition_samples(samples: list[GazeSample],
                      config: ExperimentConfig) -> ProtocolSplit:
    subjects = sorted({s.subject_id for s in samples})
    if not subjects:
        raise DataError("no samples")
    holdout_cfg = config["train.holdout_round"]
    master = config["seed"]
    heldout: dict[int, list[GazeSample]] = {}
    rest: list[GazeSample] = []
    for sid in subjects:
        subj = [s for s in samples if s.subject_id == sid]
        rounds = sorted({s.round_id for s in subj})
        if len(rounds) < 2:
            raise DataError(f"subject {sid} needs >= 2 rounds to hold one out")
        hr = holdout_round_of(rounds, holdout_cfg)
        heldout[sid] = [s for s in subj if s.round_id == hr]
        rest.extend(s for s in subj if s.round_id != hr)
    ratio = config["train.split_ratio"]
    pool_train, pool_val = split_train_val(rest, ratio,
                                           make_rng(master, TAG_SPLIT, 0))
    split = ProtocolSplit(heldout=heldout, train_pool=pool_train,
                          val_pool=pool_val)
    for sid in subjects:
        subj_rest = [s for s in rest if s.subject_id == sid]
        split.per_subject[sid] = split_train_val(
            subj_rest, ratio, make_rng(master, TAG_SPLIT, 1, sid))
    return split


@dataclass
class ProtocolResult:
    base: TrainResult
    per_subject: dict[int, TrainResult]
    split: ProtocolSplit
    reports: dict[int, EvalReport] = field(default_factory=dict)


def read(items, load=None):
    """``items`` in order, each read once with ``load(item)`` (or taken as
    it is) on the calling process as it is consumed: a list of manifest
    rows is read without holding all of its frames."""
    return iter(items) if load is None else map(load, items)


def load_pool(split: ProtocolSplit, load=None) -> TrainingSet:
    """The training set of the pooled items of ``split``, pretraining's
    train items then its validation items, each read once (see read) and
    reduced to its training plane at once. The held-out items are never
    read, so a split of manifest rows never opens a held-out image."""
    items = split.train_pool + split.val_pool
    return training_set(items, read(items, load))


def train_protocol(split: ProtocolSplit, pool: TrainingSet,
                   config: ExperimentConfig) -> ProtocolResult:
    """Pretrain on the pooled rounds, then fine-tune a copy per subject.

    ``pool`` is load_pool(split): every set trained on is cut from its one
    plane stack. The held-out rounds are never read. The fine-tunes are
    independent, so they run through workers.parallel_map.
    """
    row = {it.sample_id: i for i, it in enumerate(split.train_pool + split.val_pool)}

    def cut(items):
        return pool.subset([row[it.sample_id] for it in items])

    screen = config.screen()
    master = config["seed"]
    base = train(model_init(master), cut(split.train_pool), cut(split.val_pool),
                 config.train_config(seed=mix_seed(master, TAG_PRETRAIN)),
                 screen)

    def one(sid):
        tr, va = split.per_subject[sid]
        cfg_ft = config.train_config(seed=mix_seed(master, TAG_FINETUNE, sid),
                                     finetune=True)
        return fine_tune(base.model, cut(tr), cut(va), cfg_ft, screen)

    sids = sorted(split.heldout)
    per_subject = dict(zip(sids, parallel_map(one, sids)))
    return ProtocolResult(base=base, per_subject=per_subject, split=split)


def run_protocol(items: list, config: ExperimentConfig, load=None) -> ProtocolResult:
    """Pretrain across subjects, fine-tune per subject, evaluate held-out rounds.

    ``items`` (samples, or manifest rows with a ``load``) are partitioned
    first; each is then read once with ``load`` (see read): the pooled ones
    into the training planes, each held-out round as its subject is scored.
    """
    split = partition_samples(items, config)
    result = train_protocol(split, load_pool(split, load), config)
    screen = config.screen()
    for sid, heldout in sorted(result.split.heldout.items()):
        result.reports[sid] = evaluate(result.per_subject[sid].model,
                                       read(heldout, load), screen)
    return result


def aggregate_per_point(reports: dict[int, EvalReport]) -> dict[tuple[int, int], tuple[float, int]]:
    """Count-weighted mean error per grid point across subjects."""
    acc: dict[tuple[int, int], tuple[float, int]] = {}
    for rep in reports.values():
        for key, (err, count) in rep.per_point.items():
            if key in acc:
                e0, c0 = acc[key]
                acc[key] = ((e0 * c0 + err * count) / (c0 + count), c0 + count)
            else:
                acc[key] = (err, count)
    return dict(sorted(acc.items()))
