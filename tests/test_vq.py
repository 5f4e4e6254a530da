import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    8 * 6, 3 * 8 * 6, 7 * 8 * 6,  # 1, 3 and 7 pieces per chunk of (pieces, K) distances
    8 * 6 - 1, 1,                 # less than one piece's K distances
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
    z = rng.normal(size=(256, 256))
    # explicit differences of all (1024 pieces, 1024 codes, 64) would be 512 MB; with
    # all codes equal, every code is a candidate of every piece
    for entries in rng.normal(size=(1024, 64)), np.full((1024, 64), 0.5):
        book = Codebook.new(entries)
        tracemalloc.start()
        try:
            result = quantize(z, book)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * vq.ASSIGN_BUDGET_BYTES + 4 * (z.nbytes + book.entries.nbytes)
    assert not result.indices.any()  # equal codes tie, and the lowest index wins


def _assert_brute_force(z, book):
    result = quantize(z, book)
    expected = _brute_force_indices(z, book)
    np.testing.assert_array_equal(result.indices, expected)
    z_q = book.entries[expected].reshape(z.shape)
    np.testing.assert_array_equal(result.z_q, z_q)
    assert result.commitment_distance == float(np.sum((z - z_q) ** 2))


_MANTISSAS = st.one_of(st.integers(-3, 3).map(float), st.floats(-4, 4))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_search_matches_brute_force_at_any_scale(data):
    """Duplicated codes and pieces that copy the higher duplicate make exact
    ties; scales down to 1e-170 let squared distances underflow."""
    k, w, t = (data.draw(st.integers(1, n)) for n in (8, 5, 3))

    def array(rows):
        cells = data.draw(st.lists(_MANTISSAS, min_size=rows * w, max_size=rows * w))
        return np.reshape(cells, (rows, w)) * 10.0 ** data.draw(st.integers(-170, 100))

    entries, pieces = array(k), array(4 * t)
    codes = st.integers(0, k - 1)
    pairs = data.draw(st.lists(st.tuples(codes, codes), max_size=3))
    for low, high in pairs:
        entries[max(low, high)] = entries[min(low, high)]
    for i in data.draw(st.lists(st.integers(0, 4 * t - 1), max_size=4)) if pairs else ():
        pieces[i] = entries[max(data.draw(st.sampled_from(pairs)))]
    _assert_brute_force(pieces.reshape(t, 4 * w), Codebook.new(entries))


def test_all_equal_codebook_picks_code_zero():
    rng = np.random.default_rng(19)
    book = Codebook.new(np.full((16, 3), 0.25))
    z = rng.normal(size=(5, 12))
    assert quantize(z, book).indices.tolist() == [[0] * 4] * 5
    _assert_brute_force(z, book)


@pytest.mark.parametrize("offset", [1.0, -1.0])
def test_piece_exactly_between_two_codes(offset):
    # the explicit distances tie at 1; their norm expansions round apart, and for
    # one of the two code orders the expansion alone would pick the higher code
    piece = 1e8 + 0.5
    book = Codebook.new(np.array([[piece - offset], [piece + offset], [piece + 3.0]]))
    z = np.full((1, 4), piece)
    assert quantize(z, book).indices.tolist() == [[0, 0, 0, 0]]
    _assert_brute_force(z, book)


def test_underflowing_distances_still_break_ties_to_the_lowest_index():
    # (3e-162 - 2e-162)**2 underflows to 0, so both codes are at distance 0
    book = Codebook.new(np.array([[2e-162], [3e-162]]))
    z = np.array([[3e-162, 3e-162, 0.0, -2e-162]])
    assert quantize(z, book).indices.tolist() == [[0, 0, 0, 0]]
    _assert_brute_force(z, book)


@pytest.mark.parametrize("scale_latent, scale_codes", [(1e200, 1.0), (1.0, 1e200), (1e154, 1e154)])
def test_quantize_refuses_overflowing_distances(scale_latent, scale_codes):
    book = Codebook.new(np.array([[0.0, 1.0], [1.0, 0.0]]) * scale_codes)
    z = np.ones((1, 8)) * scale_latent
    with pytest.raises(VQError, match="overflow"):
        quantize(z, book)


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
    ([], r"expected a JSON object, got \[\]"),
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
    text = path.read_text()  # one compact line of JSON
    assert text.count("\n") == 1 and text.endswith("\n")
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
