"""Evaluation primitives: token-level accuracy and AUROC."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .serializer import TokenStream
from .vocab import PAD_ID


class MetricError(ValueError):
    pass


def token_accuracy(reference: TokenStream, hypothesis: TokenStream,
                   include_pads: bool = False) -> Optional[float]:
    """Fraction of matching token positions; reference pads excluded by default.

    Returns None when no positions are considered.
    """
    ref, hyp = reference.tokens, hypothesis.tokens
    if ref.shape != hyp.shape:
        raise MetricError(f"shape mismatch: {ref.shape} vs {hyp.shape}")
    mask = np.ones(ref.shape, dtype=bool) if include_pads else ref != PAD_ID
    considered = int(mask.sum())
    if considered == 0:
        return None
    matches = int(np.count_nonzero((ref == hyp) & mask))
    return matches / considered


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Pairwise ranking statistic via midrank rank-sum; ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be matched 1-d sequences")
    if not np.isfinite(scores).all():
        raise MetricError("scores must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise MetricError("labels must be 0 or 1")
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = int(np.count_nonzero(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUROC needs at least one example of each class")

    # a group of tied scores takes the mean of its ranks, a half-integer
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u = float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)
