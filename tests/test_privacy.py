import math

import numpy as np
import pytest

from ehrseq.privacy import (
    AttackConfig,
    PrivacyError,
    membership_attack,
)


def streams(rows):
    return [np.asarray(r, dtype=np.int32) for r in rows]


def test_attack_config_validation():
    with pytest.raises(PrivacyError):
        AttackConfig(n_r=0, thresholds=(0.1,))
    with pytest.raises(PrivacyError):
        AttackConfig(n_r=1, thresholds=(0.5, 0.1))
    with pytest.raises(PrivacyError):
        AttackConfig(n_r=1, thresholds=(1.5,))


def test_exact_copy_flagged_at_zero_threshold():
    train = streams([[1, 2, 3], [4, 5, 6]])
    heldout = streams([[7, 8, 9], [10, 11, 12]])
    synthetic = streams([[1, 2, 3]])
    report = membership_attack(
        train, heldout, synthetic, AttackConfig(n_r=2, thresholds=(0.0,)))
    result = report.results[0]
    assert result.recall == 0.5
    assert result.precision == 1.0
    assert result.flagged == [0]


def test_disjoint_synthetic_flags_nothing():
    train = streams([[1, 1, 1], [2, 2, 2]])
    heldout = streams([[3, 3, 3], [4, 4, 4]])
    synthetic = streams([[9, 9, 9]])
    report = membership_attack(
        train, heldout, synthetic, AttackConfig(n_r=2, thresholds=(0.0, 0.5)))
    for result in report.results:
        assert result.recall == 0.0
        assert result.precision is None
        assert result.flagged == []


def test_threshold_one_flags_everyone():
    train = streams([[1, 2], [3, 4], [5, 6]])
    heldout = streams([[7, 8], [9, 10], [11, 12]])
    synthetic = streams([[0, 0]])
    report = membership_attack(
        train, heldout, synthetic, AttackConfig(n_r=3, thresholds=(1.0,)))
    result = report.results[0]
    assert result.recall == 1.0
    assert result.precision == 0.5
    assert result.flagged == list(range(6))


def test_min_over_all_synthetic_records():
    train = streams([[1, 2, 3, 4]])
    heldout = streams([[9, 9, 9, 9]])
    synthetic = streams([[0, 0, 0, 0], [1, 2, 3, 0]])  # nearest at 0.25
    report = membership_attack(
        train, heldout, synthetic, AttackConfig(n_r=1, thresholds=(0.2, 0.25)))
    assert report.results[0].recall == 0.0
    assert report.results[1].recall == 1.0


@pytest.mark.parametrize("synthetic, distance", [
    ([5, 0, 0, 7], 0.0),
    ([5, 1, 0, 8], 0.5),
    ([6, 1, 1, 8], 1.0),
])
def test_distance_is_share_of_mismatched_positions(synthetic, distance):
    thresholds = (0.0, 0.25, 0.5, 0.75, 1.0)
    report = membership_attack(
        streams([[5, 0, 0, 7]]), streams([[9, 9, 9, 9]]), streams([synthetic]),
        AttackConfig(n_r=1, thresholds=thresholds))
    assert [0 in r.flagged for r in report.results] == [t >= distance for t in thresholds]


def test_flags_match_a_position_scan():
    rng = np.random.default_rng(5)
    train = streams(rng.integers(0, 3, size=(12, 10)))
    heldout = streams(rng.integers(0, 3, size=(12, 10)))
    synthetic = streams(rng.integers(0, 3, size=(6, 10)))
    thresholds = tuple(i / 10 for i in range(11))
    report = membership_attack(
        train, heldout, synthetic, AttackConfig(n_r=8, thresholds=thresholds, seed=3))
    pool = ([train[i] for i in report.train_indices]
            + [heldout[i] for i in report.heldout_indices])
    nearest = [min(sum(1 for x, y in zip(record, s) if x != y) for s in synthetic) / 10
               for record in pool]
    for threshold, result in zip(thresholds, report.results):
        assert result.flagged == [i for i, d in enumerate(nearest) if d <= threshold]


def test_recall_monotone_in_threshold():
    rng = np.random.default_rng(13)
    train = streams(rng.integers(0, 4, size=(20, 16)))
    heldout = streams(rng.integers(0, 4, size=(20, 16)))
    synthetic = streams(rng.integers(0, 4, size=(10, 16)))
    thresholds = tuple(i / 10 for i in range(11))
    report = membership_attack(
        train, heldout, synthetic, AttackConfig(n_r=15, thresholds=thresholds, seed=2))
    recalls = [r.recall for r in report.results]
    flagged_counts = [len(r.flagged) for r in report.results]
    assert recalls == sorted(recalls)
    assert flagged_counts == sorted(flagged_counts)
    assert report.results[-1].recall == 1.0


def test_seeded_pool_is_deterministic():
    rng = np.random.default_rng(1)
    train = streams(rng.integers(0, 4, size=(10, 8)))
    heldout = streams(rng.integers(0, 4, size=(10, 8)))
    synthetic = streams(rng.integers(0, 4, size=(5, 8)))
    config = AttackConfig(n_r=4, thresholds=(0.5,), seed=9)
    a = membership_attack(train, heldout, synthetic, config)
    b = membership_attack(train, heldout, synthetic, config)
    assert a.train_indices == b.train_indices
    assert a.heldout_indices == b.heldout_indices
    assert a.rows() == b.rows()


def test_rejects_undersized_pools():
    xs = streams([[1, 2]])
    with pytest.raises(PrivacyError):
        membership_attack(xs, xs, xs, AttackConfig(n_r=2, thresholds=(0.5,)))


@pytest.mark.parametrize("empty", ["train", "held-out", "synthetic"])
def test_rejects_an_empty_set(empty):
    sets = {name: [] if name == empty else streams([[1, 2], [3, 4]])
            for name in ("train", "held-out", "synthetic")}
    with pytest.raises(PrivacyError, match=f"the {empty} set is empty"):
        membership_attack(*sets.values(), AttackConfig(n_r=1, thresholds=(0.5,)))


def test_rejects_length_mismatch():
    with pytest.raises(PrivacyError):
        membership_attack(
            streams([[1, 2]]), streams([[1, 2, 3]]), streams([[1, 2]]),
            AttackConfig(n_r=1, thresholds=(0.5,)))


@pytest.mark.parametrize("train, synthetic, message", [
    ([[1, 2, 3, 4], [[1, 2], [3, 4]]], [[1, 2, 3, 4]], r"the train streams differ in shape"),
    ([[1, 2, 3, 4], [5, 6, 7, 8]], [[[1, 2], [3, 4]]], r"streams must share a shape"),
], ids=["within a set", "across sets"])
def test_rejects_streams_of_one_size_but_different_shapes(train, synthetic, message):
    train, synthetic = ([np.asarray(s) for s in rows] for rows in (train, synthetic))
    with pytest.raises(PrivacyError, match=message):
        membership_attack(train, train, synthetic, AttackConfig(n_r=1, thresholds=(0.5,)))


def test_no_leak_baseline_within_binomial_band():
    """Independent synthetic data should flag members at chance rate.

    With membership independent of flagging, recall ~ Binomial(n_r, p)/n_r;
    reject only outside a two-sided alpha = 0.01 acceptance band.
    """
    rng = np.random.default_rng(99)
    n_r, length = 40, 32
    train = streams(rng.integers(0, 2, size=(n_r, length)))
    heldout = streams(rng.integers(0, 2, size=(n_r, length)))
    synthetic = streams(rng.integers(0, 2, size=(50, length)))
    threshold = 0.4
    report = membership_attack(
        train, heldout, synthetic,
        AttackConfig(n_r=n_r, thresholds=(threshold,), seed=0))
    result = report.results[0]
    # estimate per-record flag probability from the held-out half
    flagged_heldout = sum(1 for i in result.flagged if i >= n_r)
    p = flagged_heldout / n_r
    tp = round(result.recall * n_r)

    def binom_cdf(k, n, prob):
        return sum(math.comb(n, i) * prob ** i * (1 - prob) ** (n - i)
                   for i in range(k + 1))

    lo = binom_cdf(tp, n_r, p)
    hi = 1 - (binom_cdf(tp - 1, n_r, p) if tp > 0 else 0.0)
    assert min(lo, hi) > 0.005
