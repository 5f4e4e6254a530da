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


def _set_shape(records: Sequence[Optional[np.ndarray]], name: str) -> tuple[int, ...]:
    """The one shape of a set's records, None items aside."""
    shapes = sorted({np.shape(r) for r in records if r is not None})
    if len(shapes) > 1:
        raise PrivacyError(f"the {name} streams differ in shape: {shapes}")
    return shapes[0]


def draw_pool(sizes: tuple[int, int, int], config: AttackConfig) -> tuple[list[int], list[int]]:
    """The pool of an attack on a train, a held-out and a synthetic set of
    these sizes: n_r seeded, sorted indices into train and n_r into held-out.
    The draw depends on the sizes alone, so a caller may read those records
    alone.  An empty set, and a train or held-out set under n_r, is refused."""
    for name, size in zip(("train", "held-out", "synthetic"), sizes):
        if size == 0:
            raise PrivacyError(f"the {name} set is empty")
    n_train, n_heldout, _ = sizes
    if n_train < config.n_r or n_heldout < config.n_r:
        raise PrivacyError(f"need at least n_r={config.n_r} records in train and held-out")
    rng = random.Random(config.seed)
    return (sorted(rng.sample(range(n_train), config.n_r)),
            sorted(rng.sample(range(n_heldout), config.n_r)))


def membership_attack(train: Sequence[Optional[np.ndarray]],
                      heldout: Sequence[Optional[np.ndarray]],
                      synthetic: Sequence[np.ndarray], config: AttackConfig) -> PrivacyReport:
    """Flag pool records whose nearest synthetic record is within threshold.

    The pool is n_r seeded samples from train plus n_r from held-out (see
    `draw_pool`); a record counts as an inferred member iff its minimum
    normalized Hamming distance over all synthetic records is <= the
    threshold.  Only pooled train and held-out records are compared, so a
    caller may hold None for each other one.  A synthetic matrix is used as
    it is, not copied; a sequence of arrays is stacked.
    """
    train_idx, heldout_idx = draw_pool((len(train), len(heldout), len(synthetic)), config)
    shapes = [_set_shape(records, name) for name, records
              in (("train", train), ("held-out", heldout), ("synthetic", synthetic))]
    if not shapes[0] == shapes[1] == shapes[2]:
        raise PrivacyError("train/held-out/synthetic streams must share a shape")
    synth_m = np.asarray(synthetic)
    pool = np.stack([train[i] for i in train_idx] + [heldout[i] for i in heldout_idx])
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
