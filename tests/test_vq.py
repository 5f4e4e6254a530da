import json
import tracemalloc

import numpy as np
import pytest

from ehrseq import vq
from ehrseq.vq import Codebook, VQError, ema_update, quantize


def test_exact_match_piece():
    entries = np.arange(8.0).reshape(4, 2)
    book = Codebook.new(entries)
    z = np.concatenate([entries[3], entries[0], entries[1], entries[2]]).reshape(1, 8)
    result = quantize(z, book)
    assert result.indices.tolist() == [[3, 0, 1, 2]]
    assert result.commitment_distance == 0.0
    np.testing.assert_array_equal(result.z_q, z)


def test_nearest_by_hand():
    book = Codebook.new(np.array([[0.0, 0.0], [1.0, 1.0]]))
    z = np.array([[0.9, 0.7] * 4])  # four identical pieces
    result = quantize(z, book)
    # squared distances: 1.30 to e0, 0.10 to e1
    assert result.indices.tolist() == [[1, 1, 1, 1]]
    assert result.commitment_distance == pytest.approx(4 * 0.10)


def test_tie_breaks_to_lowest_index():
    book = Codebook.new(np.array([[0.0, 0.0], [1.0, 1.0]]))
    piece = np.array([0.5, 0.5])
    d0 = np.sum((piece - book.entries[0]) ** 2)
    d1 = np.sum((piece - book.entries[1]) ** 2)
    assert d0 == d1
    z = np.tile(piece, 4).reshape(1, 8)
    assert quantize(z, book).indices.tolist() == [[0, 0, 0, 0]]


def test_quantize_rejects_bad_widths():
    book = Codebook.new(np.zeros((2, 3)))
    with pytest.raises(VQError):
        quantize(np.zeros((2, 6)), book)  # c not divisible by 4... 6 % 4 != 0
    with pytest.raises(VQError):
        quantize(np.zeros((2, 8)), book)  # piece width 2 != 3


def _brute_force_indices(z, book):
    """Each piece's nearest code by a plain loop; the first of equals wins."""
    indices = []
    for piece in z.reshape(-1, book.width):
        best, best_d = 0, float("inf")
        for j in range(book.size):
            d = float(np.sum((piece - book.entries[j]) ** 2))
            if d < best_d:
                best, best_d = j, d
        indices.append(best)
    return np.asarray(indices).reshape(z.shape[0], 4)


def test_brute_force_argmin_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = rng.integers(2, 16)
        width = rng.integers(1, 6)
        t = rng.integers(1, 5)
        book = Codebook.new(rng.normal(size=(k, width)))
        z = rng.normal(size=(t, 4 * width))
        np.testing.assert_array_equal(quantize(z, book).indices, _brute_force_indices(z, book))


# codes 4 and 5 copy codes 1 and 2; of 20 pieces, those equal to the higher
# copies sit on both sides of the boundaries of 3- and 7-piece chunks
_TIED_AT = {0: 4, 2: 5, 3: 4, 6: 5, 7: 4, 13: 4, 14: 5, 17: 5, 18: 4, 19: 5}


@pytest.mark.parametrize("budget", [
    8 * 6 * 3, 3 * 8 * 6 * 3, 7 * 8 * 6 * 3,  # 1, 3 and 7 pieces per chunk
    8 * 6 * 3 - 1, 1,                         # less than one piece's K x width row
])
def test_chunked_search_matches_brute_force(monkeypatch, budget):
    rng = np.random.default_rng(13)
    entries = rng.normal(size=(6, 3))
    entries[4], entries[5] = entries[1], entries[2]
    book = Codebook.new(entries)
    pieces = rng.normal(size=(20, 3))
    for i, code in _TIED_AT.items():
        pieces[i] = entries[code]
    z = pieces.reshape(5, 12)
    whole = quantize(z, book)
    monkeypatch.setattr(vq, "ASSIGN_BUDGET_BYTES", budget)
    chunked = quantize(z, book)
    expected = _brute_force_indices(z, book)
    assert set(expected.reshape(-1)[list(_TIED_AT)]) == {1, 2}
    np.testing.assert_array_equal(chunked.indices, expected)
    np.testing.assert_array_equal(chunked.indices, whole.indices)
    z_q = book.entries[expected].reshape(z.shape)
    np.testing.assert_array_equal(chunked.z_q, z_q)
    assert chunked.commitment_distance == float(np.sum((z - z_q) ** 2))


def test_search_memory_stays_within_the_budget():
    rng = np.random.default_rng(17)
    book = Codebook.new(rng.normal(size=(1024, 64)))
    z = rng.normal(size=(256, 256))
    tracemalloc.start()
    try:
        quantize(z, book)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # without chunks the (1024 pieces, 1024 codes, 64) differences alone are 512 MB
    assert peak < 2 * vq.ASSIGN_BUDGET_BYTES + 4 * (z.nbytes + book.entries.nbytes)


def test_codebook_refuses_zero_width_entries():
    with pytest.raises(VQError, match="width >= 1"):
        Codebook.new(np.zeros((2, 0)))


def test_non_expansion_against_sampled_assemblies():
    rng = np.random.default_rng(3)
    book = Codebook.new(rng.normal(size=(8, 2)))
    z = rng.normal(size=(4, 8))
    result = quantize(z, book)
    chosen = np.linalg.norm(z - result.z_q)
    for _ in range(200):
        alt_idx = rng.integers(0, 8, size=(4, 4))
        alt = book.entries[alt_idx.reshape(-1)].reshape(4, 8)
        assert chosen <= np.linalg.norm(z - alt) + 1e-12


def test_ema_full_decay_is_identity():
    entries = np.array([[1.0, 2.0], [3.0, 4.0]])
    book = Codebook.new(entries.copy(), decay=1.0)
    ema_update(book, [(0, np.array([9.0, 9.0]))])
    np.testing.assert_array_equal(book.entries, entries)


def test_ema_converges_to_assigned_vector():
    book = Codebook.new(np.zeros((2, 2)), decay=0.9)
    v = np.array([2.0, -1.0])
    for _ in range(300):
        ema_update(book, [(1, v)])
    np.testing.assert_allclose(book.entries[1], v, atol=1e-6)
    np.testing.assert_array_equal(book.entries[0], np.zeros(2))


def test_ema_fixed_point_is_cluster_mean():
    rng = np.random.default_rng(11)
    book = Codebook.new(rng.normal(size=(3, 2)), decay=0.9)
    clusters = {k: rng.normal(size=(4, 2)) for k in range(3)}
    assignments = [(k, v) for k, vs in clusters.items() for v in vs]
    for _ in range(300):
        ema_update(book, assignments)
    for k, vs in clusters.items():
        np.testing.assert_allclose(book.entries[k], vs.mean(axis=0), atol=1e-6)


def test_ema_rejects_width_mismatch():
    book = Codebook.new(np.zeros((2, 2)))
    with pytest.raises(VQError):
        ema_update(book, [(0, np.zeros(3))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite_latents(bad):
    book = Codebook.new(np.zeros((2, 2)))
    z = np.zeros((1, 8))
    z[0, 5] = bad
    with pytest.raises(VQError, match="non-finite"):
        quantize(z, book)


@pytest.mark.parametrize("code", [-1, 2])
def test_ema_rejects_code_outside_codebook(code):
    book = Codebook.new(np.array([[1.0, 2.0], [3.0, 4.0]]), decay=0.5)
    before = (book.entries.copy(), book.ema_counts.copy(), book.ema_sums.copy())
    with pytest.raises(VQError, match=f"code {code} outside 0..1"):
        ema_update(book, [(0, np.ones(2)), (code, np.ones(2))])
    for got, want in zip((book.entries, book.ema_counts, book.ema_sums), before):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("doc, reason", [
    ({}, "missing field 'entries'"),
    ([], "list indices"),
    ({"entries": [[0.0]], "ema_counts": [1.0], "ema_sums": [[0.0]], "decay": 2.0}, "decay"),
    ({"entries": [[np.nan]], "ema_counts": [1.0], "ema_sums": [[0.0]], "decay": 0.9},
     "non-finite"),
    ({"entries": [[0.0]], "ema_counts": [np.inf], "ema_sums": [[0.0]], "decay": 0.9},
     "non-finite"),
    ({"entries": [[0.0]], "ema_counts": [1.0], "ema_sums": [[-np.inf]], "decay": 0.9},
     "non-finite"),
])
def test_codebook_load_names_file(tmp_path, doc, reason):
    path = tmp_path / "codebook.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(VQError, match=reason) as info:
        Codebook.load(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("field", ["entries", "ema_counts", "ema_sums"])
def test_codebook_refuses_non_finite_values(field):
    arrays = {"entries": np.zeros((2, 1)), "ema_counts": np.ones(2), "ema_sums": np.zeros((2, 1))}
    arrays[field].flat[1] = np.nan
    with pytest.raises(VQError, match="non-finite"):
        Codebook(**arrays)


def test_codebook_save_load(tmp_path):
    rng = np.random.default_rng(0)
    book = Codebook.new(rng.normal(size=(4, 3)), decay=0.95)
    ema_update(book, [(2, rng.normal(size=3))])
    path = tmp_path / "codebook.json"
    book.save(path)
    loaded = Codebook.load(path)
    np.testing.assert_allclose(loaded.entries, book.entries)
    np.testing.assert_allclose(loaded.ema_counts, book.ema_counts)
    assert loaded.decay == book.decay


def test_determinism():
    rng = np.random.default_rng(5)
    book = Codebook.new(rng.normal(size=(6, 2)))
    z = rng.normal(size=(3, 8))
    a = quantize(z, book)
    b = quantize(z, book)
    np.testing.assert_array_equal(a.indices, b.indices)
