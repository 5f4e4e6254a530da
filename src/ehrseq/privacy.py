"""Membership inference over token streams via normalized Hamming distance."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class PrivacyError(ValueError):
    pass


@dataclass(frozen=True)
class AttackConfig:
    n_r: int
    thresholds: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        if self.n_r < 1:
            raise PrivacyError("n_r must be >= 1")
        ts = self.thresholds
        if any(not 0.0 <= t <= 1.0 for t in ts):
            raise PrivacyError("thresholds must lie in [0, 1]")
        if any(ts[i] > ts[i + 1] for i in range(len(ts) - 1)):
            raise PrivacyError("thresholds must be sorted ascending")


@dataclass
class ThresholdResult:
    threshold: float
    precision: Optional[float]
    recall: Optional[float]
    flagged: list[int] = field(default_factory=list)  # pool indices; train first


@dataclass
class PrivacyReport:
    n_r: int
    seed: int
    train_indices: list[int]
    heldout_indices: list[int]
    results: list[ThresholdResult]

    def rows(self) -> list[tuple[float, Optional[float], Optional[float]]]:
        return [(r.threshold, r.precision, r.recall) for r in self.results]


def _as_matrix(streams: Sequence[np.ndarray], name: str) -> np.ndarray:
    """One set's streams, which must share one shape, as one matrix (records,
    *shape): a matrix is used as it is, not copied; a sequence is stacked."""
    shapes = sorted({np.shape(s) for s in streams})
    if len(shapes) > 1:
        raise PrivacyError(f"the {name} streams differ in shape: {shapes}")
    return np.asarray(streams)


def membership_attack(train: Sequence[np.ndarray], heldout: Sequence[np.ndarray],
                      synthetic: Sequence[np.ndarray],
                      config: AttackConfig) -> PrivacyReport:
    """Flag pool records whose nearest synthetic record is within threshold.

    The pool is n_r seeded samples from train plus n_r from held-out; a
    record counts as an inferred member iff its minimum normalized Hamming
    distance over all synthetic records is <= the threshold.
    """
    sets = (("train", train), ("held-out", heldout), ("synthetic", synthetic))
    for name, streams in sets:
        if len(streams) == 0:
            raise PrivacyError(f"the {name} set is empty")
    train_m, heldout_m, synth_m = (_as_matrix(streams, name) for name, streams in sets)
    if not train_m.shape[1:] == heldout_m.shape[1:] == synth_m.shape[1:]:
        raise PrivacyError("train/held-out/synthetic streams must share a shape")
    if len(train_m) < config.n_r or len(heldout_m) < config.n_r:
        raise PrivacyError(f"need at least n_r={config.n_r} records in train and held-out")

    rng = random.Random(config.seed)
    train_idx = sorted(rng.sample(range(len(train_m)), config.n_r))
    heldout_idx = sorted(rng.sample(range(len(heldout_m)), config.n_r))
    pool = np.concatenate([train_m[train_idx], heldout_m[heldout_idx]])
    is_member = np.arange(len(pool)) < config.n_r

    length = pool[0].size
    min_dist = np.empty(len(pool))
    for i, record in enumerate(pool):
        diffs = np.count_nonzero((synth_m != record).reshape(len(synth_m), -1), axis=1)
        min_dist[i] = diffs.min() / length

    results = []
    for threshold in config.thresholds:
        flagged = min_dist <= threshold
        n_flagged = int(flagged.sum())
        tp = int(np.count_nonzero(flagged & is_member))
        results.append(
            ThresholdResult(
                threshold=threshold,
                precision=tp / n_flagged if n_flagged else None,
                recall=tp / config.n_r,
                flagged=np.flatnonzero(flagged).tolist(),
            )
        )
    return PrivacyReport(config.n_r, config.seed, train_idx, heldout_idx, results)
