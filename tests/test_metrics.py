import random

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from ehrseq.cli import main
from ehrseq.metrics import MetricError, auroc, token_accuracy
from ehrseq.serializer import dense_stream
from ehrseq.vocab import PAD_ID


def stream(tokens):
    return dense_stream(np.asarray(tokens, dtype=np.int32))


def test_accuracy_perfect():
    s = stream([5, 6, 7, PAD_ID])
    assert token_accuracy(s, s) == 1.0


def test_accuracy_hand_value():
    ref = stream([5, 6, 7, 8, PAD_ID])
    hyp = stream([5, 6, 9, 8, PAD_ID])
    assert token_accuracy(ref, hyp) == 0.75


def test_accuracy_excludes_reference_pads():
    ref = stream([5, 6, PAD_ID, PAD_ID])
    hyp = stream([5, 6, 9, 9])
    assert token_accuracy(ref, hyp) == 1.0
    assert token_accuracy(ref, hyp, include_pads=True) == 0.5


def test_accuracy_all_pad_reference_is_none():
    ref = stream([PAD_ID, PAD_ID])
    hyp = stream([1, 2])
    assert token_accuracy(ref, hyp) is None
    assert token_accuracy(ref, hyp, include_pads=True) == 0.0


def test_accuracy_hypothesis_pads_count_as_mismatch():
    ref = stream([5, 6])
    hyp = stream([5, PAD_ID])
    assert token_accuracy(ref, hyp) == 0.5


def test_accuracy_shape_mismatch():
    with pytest.raises(MetricError):
        token_accuracy(stream([1, 2]), stream([1, 2, 3]))


def test_accuracy_grid_streams():
    ref = stream([[5, 6, PAD_ID], [PAD_ID, PAD_ID, PAD_ID]])
    hyp = stream([[5, 7, PAD_ID], [PAD_ID, PAD_ID, PAD_ID]])
    assert token_accuracy(ref, hyp) == 0.5


def test_auroc_hand_value():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_perfect_separation():
    assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auroc_inverted():
    assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auroc_all_tied_is_chance():
    assert auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5


def test_auroc_single_class_rejected():
    with pytest.raises(MetricError):
        auroc([0.1, 0.9], [1, 1])


@pytest.mark.parametrize("scores, labels", [([0.1, 0.9], [0]), ([[0.1, 0.9]], [[0, 1]])],
                         ids=["lengths", "not-1-d"])
def test_auroc_refuses_unmatched_sequences(scores, labels):
    with pytest.raises(MetricError, match="^scores and labels must be matched 1-d sequences$"):
        auroc(scores, labels)


def test_auroc_non_finite_rejected():
    with pytest.raises(MetricError):
        auroc([0.1, float("nan")], [0, 1])


@pytest.mark.parametrize("label", [2, -1, 0.5])
def test_auroc_refuses_labels_other_than_0_1(tmp_path, label):
    with pytest.raises(MetricError, match="labels must be 0 or 1"):
        auroc([0.1, 0.5, 0.9], [0, label, 1])
    scores = tmp_path / "scores.tsv"
    scores.write_text(f"0.1\t0\n0.5\t{label}\n0.9\t1\n")
    result = CliRunner().invoke(main, ["metrics", "--scores", str(scores)])
    assert result.exit_code == 1
    assert result.output == f"error: {scores}:2: expected score<TAB>label\n"


def brute_force_auroc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(
        1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg
    )
    return wins / (len(pos) * len(neg))


def test_auroc_matches_pairwise_oracle():
    rng = random.Random(4)
    for _ in range(1000):
        n = rng.randint(2, 12)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        # coarse grid of score values forces plenty of ties
        scores = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
        assert abs(auroc(scores, labels) - brute_force_auroc(scores, labels)) <= 1e-12


@given(st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), st.integers(0, 1)),
                min_size=2, max_size=40).filter(lambda rows: len({y for _, y in rows}) == 2))
def test_auroc_with_heavy_ties_equals_the_pairwise_count_exactly(rows):
    scores, labels = zip(*rows)
    assert auroc(scores, labels) == brute_force_auroc(scores, labels)


def test_auroc_invariant_under_monotone_transform():
    rng = random.Random(8)
    scores = [rng.random() for _ in range(50)]
    labels = [rng.randint(0, 1) for _ in range(50)]
    labels[0], labels[1] = 0, 1
    base = auroc(scores, labels)
    assert auroc([3 * s + 2 for s in scores], labels) == pytest.approx(base, abs=1e-12)
    assert auroc([s ** 3 for s in scores], labels) == pytest.approx(base, abs=1e-12)
