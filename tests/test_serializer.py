import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ehrseq import corpus as C
from ehrseq import serializer as S
from ehrseq.vocab import (PAD_ID, RESERVED, Vocabulary, build_vocabulary, detokenize,
                          is_timegap_id)

from conftest import corpus_texts


def test_textualize_itemized():
    cell = C.itemized("51385")
    assert S.textualize_cell(cell, {"51385": "Atypical Lymphocytes"}) == "atypical lymphocytes"


def test_textualize_numeric_spaced():
    assert S.textualize_cell(C.numeric("123.1"), {}) == "1 2 3 . 1"


def test_textualize_text_casefold():
    assert S.textualize_cell(C.text("Normal Saline"), {}) == "normal saline"


def test_textualize_unknown_code():
    with pytest.raises(S.SerializeError):
        S.textualize_cell(C.itemized("9"), {})


def test_timegap_zero():
    assert S.quantize_timegap(0) == "[tg0]"


def test_timegap_ninety_seconds():
    assert S.quantize_timegap(90) == "[tg1]"


def test_timegap_left_inclusive_boundary():
    assert S.quantize_timegap(7200) == "[tg6]"  # exactly 120 min


def test_timegap_negative_rejected():
    with pytest.raises(S.SerializeError):
        S.quantize_timegap(-1)


def simple_vocab():
    return Vocabulary(RESERVED + ["lab", "value", "7", ".", "4", "2", "0", "5", "v", "t", "c"])


def test_serialize_event_numeric_tail():
    vocab = simple_vocab()
    event = C.EventRecord("lab", (("value", C.numeric("7.4")),), timestamp=0)
    ids, types, dpes = S.serialize_event(event, 0, vocab, {})
    units = [vocab.units[i] for i in ids]
    assert units == ["lab", "value", "7", ".", "4", "[tg0]"]
    assert types == [int(S.TokenType.TABLE_NAME), int(S.TokenType.COLUMN_NAME),
                     int(S.TokenType.COLUMN_VALUE), int(S.TokenType.COLUMN_VALUE),
                     int(S.TokenType.COLUMN_VALUE), int(S.TokenType.TIMEGAP)]
    assert dpes[2:5] == [S.dpe_place(0), S.DPE_DECIMAL_POINT, S.dpe_place(-1)]


def test_dpe_integer_places_descend():
    assert S._numeric_dpe_labels("205") == [S.dpe_place(2), S.dpe_place(1), S.dpe_place(0)]


def test_event_without_columns_rejected():
    with pytest.raises(C.CorpusError):
        C.EventRecord("lab", (), timestamp=0)


def grid_fixture():
    vocab = simple_vocab()
    events = [
        C.EventRecord("t", (("c", C.text("v")),), timestamp=0),
        C.EventRecord("t", (("c", C.text("v v v")),), timestamp=60),
        C.EventRecord("t", (("c", C.text("v")),), timestamp=120),
    ]
    patient = C.PatientRecord("p0", events)
    config = S.SerializerConfig(n_e=4, n_tpe=8, n_t=64)
    return vocab, patient, config


def test_build_hierarchical_pads_and_unused_rows():
    vocab, patient, config = grid_fixture()
    stream = S.build_hierarchical(patient, vocab, {}, config)
    assert stream.tokens.shape == (4, 8)
    # rows: event lengths 4, 6, 4; row 3 all pad
    lengths = (stream.tokens != PAD_ID).sum(axis=1)
    assert list(lengths) == [4, 6, 4, 0]
    assert (stream.tokens[3] == PAD_ID).all()


def test_build_hierarchical_truncates_long_event():
    vocab = simple_vocab()
    event = C.EventRecord("t", (("c", C.text(" ".join(["v"] * 10))),), timestamp=0)
    config = S.SerializerConfig(n_e=4, n_tpe=8, n_t=64)
    stream = S.build_hierarchical(C.PatientRecord("p", [event]), vocab, {}, config)
    full, _, _ = S.serialize_event(event, 0, vocab, {})
    assert list(stream.tokens[0]) == full[:8]


def test_serialize_path_allocates_no_dense_grid():
    vocab = simple_vocab()
    events = [C.EventRecord("t", (("c", C.text("v v")), ("value", C.numeric("7.4"))),
                            timestamp=60 * i) for i in range(5)]
    config = S.SerializerConfig()
    tracemalloc.start()
    try:
        hier = S.build_hierarchical(C.PatientRecord("p", events), vocab, {}, config)
        S.stream_record(hier)
        S.stream_record(S.flatten(hier, config.n_t))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < config.n_e * config.n_tpe * np.dtype(np.int32).itemsize


def test_dense_views_are_read_only():
    vocab, patient, config = grid_fixture()
    hier = S.build_hierarchical(patient, vocab, {}, config)
    for stream in (hier, S.flatten(hier, config.n_t)):
        with pytest.raises(ValueError, match="read-only"):
            stream.tokens[0] = 5


def test_build_hierarchical_empty_patient_rejected():
    vocab, _, config = grid_fixture()
    with pytest.raises(S.SerializeError):
        S.build_hierarchical(C.PatientRecord("p", []), vocab, {}, config)


def test_flatten_boundaries_and_padding():
    vocab, patient, config = grid_fixture()
    hier = S.build_hierarchical(patient, vocab, {}, config)
    flat = S.flatten(hier, config.n_t)
    assert np.count_nonzero(flat.tokens != PAD_ID) == 14
    assert flat.event_boundaries == [(0, 4), (4, 10), (10, 14)]
    assert (flat.tokens[14:] == PAD_ID).all()


def test_flatten_all_pad_grid():
    tokens = np.full((4, 8), PAD_ID, dtype=np.int32)
    stream = S.dense_stream(tokens)
    flat = S.flatten(stream, 16)
    assert np.count_nonzero(flat.tokens != PAD_ID) == 0
    assert flat.event_boundaries == []


def test_flatten_conserves_tokens():
    vocab, patient, config = grid_fixture()
    hier = S.build_hierarchical(patient, vocab, {}, config)
    flat = S.flatten(hier, config.n_t)
    hier_payload = sorted(hier.tokens[hier.tokens != PAD_ID].tolist())
    flat_payload = sorted(flat.tokens[flat.tokens != PAD_ID].tolist())
    assert hier_payload == flat_payload
    assert np.count_nonzero(flat.tokens != PAD_ID) <= config.n_e * config.n_tpe


def test_roundtrip_on_untruncated_patients(small_corpus, small_vocab):
    config = S.SerializerConfig()
    for patient in small_corpus.patients:
        hier = S.build_hierarchical(patient, small_vocab, small_corpus.definitions, config)
        events = S.detokenize_events(hier, small_vocab)
        assert len(events) == len(patient.events)
        for original, rebuilt in zip(patient.events, events):
            assert rebuilt.defect is None
            assert rebuilt.table == original.table_name.casefold()
            expected = [
                (col.casefold(), S.textualize_cell(cell, small_corpus.definitions))
                for col, cell in original.columns
            ]
            assert rebuilt.pairs == expected


def test_detokenize_flags_not_table_first():
    vocab, patient, config = grid_fixture()
    built = S.build_hierarchical(patient, vocab, {}, config)
    types = built.type_labels.copy()
    types[0, 0] = int(S.TokenType.COLUMN_NAME)
    hier = S.dense_stream(built.tokens, types, built.dpe_labels)
    events = S.detokenize_events(hier, vocab)
    assert events[0].defect == S.DEFECT_NOT_TABLE_FIRST


def test_detokenize_flags_unpaired_truncated_column():
    vocab = simple_vocab()
    # truncation at 3 tokens cuts the column's value
    event = C.EventRecord("t", (("c", C.text("v v v v")),), timestamp=0)
    config = S.SerializerConfig(n_e=2, n_tpe=2, n_t=16)
    stream = S.build_hierarchical(C.PatientRecord("p", [event]), vocab, {}, config)
    rebuilt = S.detokenize_events(stream, vocab)[0]
    assert rebuilt.table == "t"
    assert rebuilt.defect == S.DEFECT_UNPAIRED_COLUMN


def test_detokenize_label_less_splits_on_timegap(small_corpus, small_vocab):
    patient = small_corpus.patients[0]
    hier = S.build_hierarchical(patient, small_vocab, small_corpus.definitions)
    flat = S.flatten(hier)
    bare = S.dense_stream(flat.tokens, patient_id=patient.patient_id)
    events = S.detokenize_events(bare, small_vocab)
    assert len(events) == len(patient.events)
    first = events[0]
    assert first.words is not None and first.timegap is not None
    assert first.words[0] == patient.events[0].table_name.casefold().split()[0]


@pytest.mark.parametrize("bad", [-1, -2, 24, 5000])
@pytest.mark.parametrize("labeled", [True, False])
def test_detokenize_refuses_ids_outside_the_vocabulary(bad, labeled):
    vocab = simple_vocab()
    assert len(vocab) == 24
    tokens = np.array([vocab.units.index("lab"), bad, RESERVED.index("[tg0]"), PAD_ID],
                      dtype=np.int32)
    labels = np.array([1, 3, 4, 0], dtype=np.int32) if labeled else None
    stream = S.dense_stream(tokens, labels, patient_id="p9")
    with pytest.raises(S.SerializeError) as err:
        S.detokenize_events(stream, vocab)
    assert str(err.value) == f"patient 'p9': token id {bad} is outside the vocabulary of 24 units"
    tokens[1] = len(vocab) - 1
    stream = S.dense_stream(tokens, labels, patient_id="p9")
    assert len(S.detokenize_events(stream, vocab)) == 1


def reconstruct_from_dpe(chars, labels):
    """Independent rebuild of a decimal string from digit/place pairs."""
    places = {}
    has_point = False
    for ch, label in zip(chars, labels):
        if label == S.DPE_DECIMAL_POINT:
            has_point = True
        elif S.dpe_is_place(label):
            places[S.dpe_place_value(label)] = ch
    int_places = sorted((k for k in places if k >= 0), reverse=True)
    frac_places = sorted((k for k in places if k < 0), reverse=True)
    out = "".join(places[k] for k in int_places)
    if has_point:
        out += "." + "".join(places[k] for k in frac_places)
    return out


def test_dpe_roundtrip_random_decimals():
    rng = random.Random(42)
    for _ in range(1000):
        int_digits = rng.randint(1, 6)
        frac_digits = rng.randint(0, 5)
        value = "".join(rng.choice("0123456789") for _ in range(int_digits))
        if int_digits > 1:
            value = str(rng.randint(1, 9)) + value[1:]
        if frac_digits:
            value += "." + "".join(rng.choice("0123456789") for _ in range(frac_digits))
        labels = S._numeric_dpe_labels(value)
        assert reconstruct_from_dpe(list(value), labels) == value
        int_labels = [l for l in labels[:int_digits]]
        assert [S.dpe_place_value(l) for l in int_labels] == list(range(int_digits - 1, -1, -1))


def test_stream_save_load_roundtrip(tmp_path, small_corpus, small_vocab):
    config = S.SerializerConfig()
    streams = [
        S.flatten(S.build_hierarchical(p, small_vocab, small_corpus.definitions, config))
        for p in small_corpus.patients[:3]
    ]
    path = tmp_path / "streams.jsonl"
    S.save_streams(streams, path)
    loaded = S.load_streams(path)
    for a, b in zip(streams, loaded):
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.type_labels, b.type_labels)
        assert a.event_boundaries == b.event_boundaries


# Cells are mostly fill values (0) so rows get mid-row pads and labels under
# pad tokens; the rest span int32.
cells = st.one_of(st.integers(0, 2), st.integers(-2**31, 2**31 - 1))


@st.composite
def token_streams(draw):
    layout = draw(st.sampled_from(["hierarchical", "flattened"]))
    shape = (draw(st.integers(0, 5)), draw(st.integers(0, 6))) if layout == "hierarchical" \
        else (draw(st.integers(0, 12)),)
    channel = hnp.arrays(np.int32, shape, elements=cells)
    label = st.none() | channel
    ends = st.integers(0, shape[-1])
    bounds = st.none() | st.lists(st.tuples(ends, ends).map(sorted).map(tuple), max_size=3)
    return S.dense_stream(draw(channel), draw(label), draw(label),
                          draw(bounds), draw(st.text(max_size=5)))


@settings(deadline=None)
@given(st.lists(token_streams(), max_size=4))
def test_save_load_restores_streams(tmp_path_factory, streams):
    path = tmp_path_factory.getbasetemp() / "roundtrip.jsonl"
    S.save_streams(streams, path)
    loaded = S.load_streams(path)
    assert len(loaded) == len(streams)
    for a, b in zip(streams, loaded):
        assert (a.layout, a.patient_id, a.event_boundaries) == \
            (b.layout, b.patient_id, b.event_boundaries)
        for x, y in zip((a.tokens, a.type_labels, a.dpe_labels),
                        (b.tokens, b.type_labels, b.dpe_labels)):
            assert (x is None and y is None) or (y.dtype == np.int32 and np.array_equal(x, y))
        again = S.dense_stream(a.tokens, a.type_labels, a.dpe_labels)
        assert np.array_equal(again.lengths, a.lengths) and all(
            (x is None and y is None) or np.array_equal(x, y) for x, y in zip(again.cells, a.cells))


def test_save_writes_cells_up_to_last_non_fill(tmp_path):
    tokens = np.array([[5, PAD_ID, 6, PAD_ID], [PAD_ID] * 4, [PAD_ID] * 4], dtype=np.int32)
    types = np.zeros_like(tokens)
    types[1, 1] = int(S.TokenType.TABLE_NAME)  # a label under a pad token
    stream = S.dense_stream(tokens, types, None, patient_id="p")
    S.save_streams([stream], tmp_path / "s.jsonl")
    record = json.loads((tmp_path / "s.jsonl").read_text())
    assert record == {"patient_id": "p", "layout": "hierarchical", "shape": [3, 4],
                      "lengths": [3, 2], "tokens": [5, 0, 6, 0, 0], "type_labels": [0, 0, 0, 0, 1],
                      "dpe_labels": None, "event_boundaries": None}


def test_load_accepts_dense_records(tmp_path):
    path = tmp_path / "dense.jsonl"
    path.write_text(json.dumps({
        "patient_id": "p7", "layout": "hierarchical",
        "tokens": [[14, 4, PAD_ID], [PAD_ID, PAD_ID, PAD_ID]],
        "type_labels": [[1, 4, 0], [0, 0, 0]], "dpe_labels": None,
        "event_boundaries": None,
    }) + "\n" + json.dumps({
        "patient_id": "p8", "layout": "flattened", "tokens": [14, 4, PAD_ID, PAD_ID],
        "type_labels": None, "dpe_labels": None, "event_boundaries": [[0, 2]],
    }) + "\n")
    hier, flat = S.load_streams(path)
    assert hier.patient_id == "p7" and hier.layout == "hierarchical"
    assert hier.tokens.tolist() == [[14, 4, PAD_ID], [PAD_ID, PAD_ID, PAD_ID]]
    assert hier.type_labels.tolist() == [[1, 4, 0], [0, 0, 0]]
    assert hier.dpe_labels is None and hier.event_boundaries is None
    assert flat.tokens.tolist() == [14, 4, PAD_ID, PAD_ID] and flat.type_labels is None
    assert flat.event_boundaries == [(0, 2)]


def test_layout_is_the_rank_of_the_tokens():
    assert S.dense_stream(np.zeros((2, 3), dtype=np.int32)).layout == "hierarchical"
    assert S.dense_stream(np.zeros(3, dtype=np.int32)).layout == "flattened"
    for shape in ((), (2, 2, 2)):
        with pytest.raises(S.SerializeError, match=f"1-D or 2-D, not {len(shape)}-D"):
            S.dense_stream(np.zeros(shape, dtype=np.int32))


def test_load_reads_an_empty_dense_grid_as_no_events(tmp_path, small_vocab):
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps({"layout": "hierarchical", "tokens": [], "type_labels": []}) + "\n")
    (stream,) = S.load_streams(path)
    assert stream.layout == "hierarchical" and stream.tokens.shape == (0, 0)
    assert stream.type_labels.shape == (0, 0)
    assert S.detokenize_events(stream, small_vocab) == []


GOOD = {"patient_id": "p", "layout": "hierarchical", "shape": [2, 3], "lengths": [2, 1],
        "tokens": [4, 5, 6], "type_labels": None, "dpe_labels": None, "event_boundaries": None}
FLAT = {**GOOD, "layout": "flattened", "shape": [8], "lengths": [3], "event_boundaries": [[0, 3]]}


@pytest.mark.parametrize("line, reason", [
    ('{"patient_id": "p", "layout": "hier', "malformed JSON"),
    ("[1, 2]", "not a JSON object"),
    (json.dumps({**GOOD, "layout": "grid"}), "unknown layout"),
    (json.dumps({"layout": "hierarchical", "tokens": [[4, 5], [6]]}), "inhomogeneous"),
    (json.dumps({**GOOD, "lengths": [2, 2]}), "sum(lengths) = 4"),
    (json.dumps({**GOOD, "type_labels": [1, 3]}), "type_labels payload"),
    (json.dumps({**GOOD, "lengths": [0, 3], "shape": [2, 2]}), "row length outside 0..2"),
    (json.dumps({**GOOD, "lengths": [-1, 4]}), "row length outside"),
    (json.dumps({**GOOD, "lengths": [1, 1, 1]}), "3 row lengths for 2 rows"),
    (json.dumps({**GOOD, "shape": [2, 3, 1]}), "bad shape"),
    (json.dumps({**GOOD, "layout": "flattened"}), "bad shape [2, 3] for layout 'flattened'"),
    (json.dumps({**FLAT, "layout": "hierarchical"}), "bad shape [8] for layout 'hierarchical'"),
    (json.dumps({**GOOD, "shape": [3], "lengths": [3]}),
     "bad shape [3] for layout 'hierarchical'"),
    (json.dumps({"layout": "flattened", "tokens": [[4, 5], [6, 7]]}), "tokens: 'list' object"),
    (json.dumps({"layout": "hierarchical", "tokens": [4, 5]}),
     "tokens: a hierarchical record needs a list of rows"),
    (json.dumps({k: v for k, v in GOOD.items() if k != "lengths"}), "missing field 'lengths'"),
    (json.dumps({**GOOD, "tokens": None}), "no tokens"),
    (json.dumps({**GOOD, "tokens": [4, 4.7, 6]}), "value 4.7 is not an integer"),
    (json.dumps({**GOOD, "tokens": [4, "5", 6]}),
     "tokens: 'str' object cannot be interpreted as an integer"),
    (json.dumps({**GOOD, "type_labels": [1, None, 0]}), "type_labels: 'NoneType' object"),
    (json.dumps({**GOOD, "dpe_labels": [0, float("inf"), 0]}), "value Infinity is not an integer"),
    (json.dumps({"layout": "flattened", "tokens": [4, float("nan")]}), "value NaN is not an integer"),
    (json.dumps({"layout": "flattened", "tokens": [4, -4.0]}), "value -4.0 is not an integer"),
    (json.dumps({"layout": "hierarchical", "tokens": [[4, 5], [6, "7"]]}), "'str' object"),
    (json.dumps({"layout": "hierarchical", "tokens": [[[4]]]}), "'list' object"),
    (json.dumps({"layout": "flattened", "tokens": [4, 2 ** 40]}), "greater than maximum"),
    (json.dumps({"layout": "flattened", "tokens": "45"}),
     "tokens: a flattened record needs a list of integers"),
    (json.dumps({**FLAT, "event_boundaries": [["0", "5"]]}), "event boundary ['0', '5'] is not"),
    (json.dumps({**FLAT, "event_boundaries": [[9000, 2]]}), "0 <= start <= end <= 8"),
    (json.dumps({**FLAT, "event_boundaries": [[0, 3], [3, 1]]}), "boundary [3, 1] is not"),
    (json.dumps({**FLAT, "event_boundaries": [[0, 9]]}), "boundary [0, 9] is not"),
    (json.dumps({**FLAT, "event_boundaries": [[-1, 2]]}), "boundary [-1, 2] is not"),
    (json.dumps({**FLAT, "event_boundaries": [[0]]}), "boundary [0] is not"),
    (json.dumps({**FLAT, "event_boundaries": [[True, 1]]}), "boundary [True, 1] is not"),
    (json.dumps({**FLAT, "event_boundaries": [[0, 1.0]]}), "value 1.0 is not an integer"),
    (json.dumps({**FLAT, "event_boundaries": [3]}), "boundary 3 is not"),
    (json.dumps({**FLAT, "event_boundaries": {"0": 3}}), "event_boundaries must be a list"),
    (json.dumps({**FLAT, "tokens": [4, True, 6]}), "tokens: JSON true and false are not integers"),
    (json.dumps({**GOOD, "type_labels": [1, False, 0]}), "type_labels: JSON true and false"),
    (json.dumps({"layout": "hierarchical", "tokens": [[4, 5], [True, 7]]}),
     "tokens: JSON true and false are not integers"),
    (json.dumps(GOOD).replace('"p"', '"p\udcff"'), "not UTF-8 (invalid start byte at byte 18)"),
])
def test_load_rejects_bad_line_naming_file_and_line(tmp_path, line, reason):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(GOOD) + "\n\n" + line + "\n",
                    errors="surrogateescape")  # "\udcff" is written as the byte 0xff
    with pytest.raises(S.SerializeError) as err:
        S.load_streams(path)
    assert str(err.value).startswith(f"{path}, line 3: ")
    assert reason in str(err.value)


def test_load_reads_channel_keys_as_json_does(tmp_path):
    """A key may be spelled with escapes, and a repeated key keeps its last
    value, whichever of its values are integer arrays."""
    path = tmp_path / "keys.jsonl"
    path.write_text('{"layout": "flattened", "tok\\u0065ns": [4, 5], "type_labels": [1, 2], '
                    '"type_labels": null, "dpe_labels": null, "dpe_labels": [0, 9]}\n'
                    '{"layout": "flattened", "tokens": [7], "nested": {"tokens": [8, 9]}}\n')
    first, second = S.load_streams(path)
    assert first.tokens.tolist() == [4, 5] and first.type_labels is None
    assert first.dpe_labels.tolist() == [0, 9]
    assert second.tokens.tolist() == [7]


# The record grammar.  A record is rendered with random JSON whitespace (space,
# tab, LF, CR) between all its tokens and read by `_stream_from_line`, the
# reader of one file line: only there may an LF stand inside a record.  Channel
# values are kept as text, so that one can be spoilt.

class Raw(str):
    """A channel value's text, rendered as it is."""


INT32_TEXT = st.one_of(st.sampled_from(["0", "-0", str(-2**31), str(2**31 - 1)]),
                       st.integers(-2**31, 2**31 - 1).map(str)).map(Raw)


def render(value, pad) -> str:
    """JSON text of a value, with pad() between every two tokens."""
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        items = (json.dumps(k) + pad() + ":" + pad() + render(v, pad) for k, v in value.items())
        return "{" + pad() + ("," + pad()).join(i + pad() for i in items) + "}"
    if isinstance(value, list):
        return "[" + pad() + ("," + pad()).join(render(v, pad) + pad() for v in value) + "]"
    return json.dumps(value)


@st.composite
def records(draw):
    """(record, pad): a valid stream record, de-padded or dense, of either
    layout, and a whitespace source."""
    layout = draw(st.sampled_from(["hierarchical", "flattened"]))
    rows, width = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    if draw(st.booleans()):  # de-padded
        shape = [rows, width] if layout == "hierarchical" else [width]
        lengths = draw(st.lists(st.integers(0, width),
                                max_size=rows if layout == "hierarchical" else 1))
        channel = st.lists(INT32_TEXT, min_size=sum(lengths), max_size=sum(lengths))
        record = {"layout": layout, "shape": shape, "lengths": lengths}
    elif layout == "hierarchical":
        row = st.lists(INT32_TEXT, min_size=width if rows else 0, max_size=width if rows else 0)
        channel = st.lists(row, min_size=rows, max_size=rows)
        record = {"layout": layout}
    else:
        channel = st.lists(INT32_TEXT, min_size=width, max_size=width)
        record = {"layout": layout}
    # an id that holds what the line's lexer looks for
    pid = st.sampled_from(['"tokens": [1]', "{", "}]", "\\"]) | st.text(max_size=4)
    record.update(tokens=draw(channel), type_labels=draw(st.none() | channel),
                  dpe_labels=draw(st.none() | channel), event_boundaries=None,
                  patient_id=draw(pid))
    order = draw(st.permutations(list(record)))
    rnd = draw(st.randoms(use_true_random=False))

    def pad():
        return "".join(rnd.choices(" \t\n\r", k=rnd.choice((0, 0, 1, 2))))

    return {k: record[k] for k in order}, pad


def json_oracle(text: str) -> S.TokenStream:
    """The stream a record means, read with json.loads."""
    r = json.loads(text)
    rank = 1 if "shape" in r or r["layout"] == "flattened" else 2
    cells = [None if r[n] is None else np.array(r[n], dtype=np.int32).reshape(
        len(r[n]), len(r[n][0]) if r[n] else 0) if rank == 2 else np.array(r[n], dtype=np.int32)
        for n in ("tokens", "type_labels", "dpe_labels")]
    if "shape" in r:
        return S.TokenStream(tuple(r["shape"]), r["lengths"], tuple(cells), None, r["patient_id"])
    return S.dense_stream(*cells, patient_id=r["patient_id"])


@settings(deadline=None)
@given(records())
def test_record_grammar_reads_as_json_does(drawn):
    record, pad = drawn
    text = render(record, pad)
    expect, got = json_oracle(text), S._stream_from_line(text.encode())
    assert (got.shape, got.patient_id, got.event_boundaries) == \
        (expect.shape, expect.patient_id, expect.event_boundaries)
    assert got.lengths.tolist() == expect.lengths.tolist()
    for x, y in zip(expect.cells, got.cells):
        assert (x is None and y is None) or (y.dtype == np.int32 and np.array_equal(x, y))


SPOILS = {
    "leading zero": lambda v: ("-0" if v.startswith("-") else "0") + v.lstrip("-"),
    "plus sign": lambda v: "+" + v,
    "exponent": lambda v: v + "e3",
    "fraction": lambda v: v + ".0",
    "lone minus": lambda v: "-",
    "space after minus": lambda v: "- " + v.lstrip("-"),
    "space inside a number": lambda v: v + "\t1",
    "double minus": lambda v: "--" + v.lstrip("-"),
    "form feed": lambda v: "\f" + v,
    "vertical tab": lambda v: "\v" + v,
    "2**31": lambda v: str(2**31),
    "-2**31-1": lambda v: str(-2**31 - 1),
    "true": lambda v: "true",
}


@settings(deadline=None)
@given(records(), st.sampled_from([*SPOILS, "empty value", "trailing comma", "unequal rows"]),
       st.data())
def test_record_grammar_refuses_spoilt_payloads(drawn, spoil, data):
    record, pad = drawn
    names = [n for n in ("tokens", "type_labels", "dpe_labels") if record[n]]
    assume(names)
    name = data.draw(st.sampled_from(names))
    nested = record["layout"] == "hierarchical" and "shape" not in record
    rows = record[name] if nested else [record[name]]
    j = data.draw(st.integers(0, len(rows) - 1))
    row = rows[j]
    if spoil == "unequal rows":  # one value moves to another row
        assume(nested and len(rows) > 1 and row)
        rows[j - 1].append(row.pop())
    else:
        assume(row)
        i = data.draw(st.integers(0, len(row) - 1))
        if spoil == "empty value":
            row.insert(i, Raw(""))
        elif spoil == "trailing comma":
            row.append(Raw(""))
        else:
            row[i] = Raw(SPOILS[spoil](row[i]))
    text = render(record, pad)
    with pytest.raises((S.SerializeError, json.JSONDecodeError)) as err:
        S._stream_from_line(text.encode())
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:  # a fault of JSON is placed where JSON places it
        assert (err.value.msg, err.value.pos) == (exc.msg, exc.pos)


def test_stream_refuses_bounds_it_could_not_read_back():
    with pytest.raises(S.SerializeError, match=r"boundary \(2, 5\) is not .* <= 4$"):
        S.dense_stream(np.zeros(4, dtype=np.int32), event_boundaries=[(0, 2), (2, 5)])


def flatten_by_rows(tokens, labels, n_t):
    """Row-by-row reference: each row keeps as many leading cells as it has
    non-pad tokens."""
    pieces, boundaries, offset = [], [], 0
    for row in range(tokens.shape[0]):
        count = int((tokens[row] != PAD_ID).sum())
        if count:
            pieces.append((tokens[row, :count], labels[row, :count]))
            boundaries.append((offset, offset + count))
            offset += count

    def assemble(channel):
        out = np.full(n_t, PAD_ID, dtype=np.int32)
        if pieces:
            flat = np.concatenate([p[channel] for p in pieces])[:n_t]
            out[: len(flat)] = flat
        return out

    return (assemble(0), assemble(1), [(s, min(e, n_t)) for s, e in boundaries if s < n_t],
            pieces)


@settings(deadline=None)
@given(hnp.arrays(np.int32, st.tuples(st.integers(0, 6), st.integers(0, 6)), elements=cells),
       st.sampled_from([1, 4, 8, 64]))
def test_flatten_and_segments_match_row_loop(tokens, n_t):
    labels = tokens[::-1, ::-1].copy()
    hier = S.dense_stream(tokens, labels, None)
    flat = S.flatten(hier, n_t)
    want_tokens, want_labels, boundaries, pieces = flatten_by_rows(tokens, labels, n_t)
    assert np.array_equal(flat.tokens, want_tokens)
    assert np.array_equal(flat.type_labels, want_labels)
    assert flat.dpe_labels is None and flat.event_boundaries == boundaries
    segments = [(t.tolist(), y.tolist()) for t, y in S._event_segments(hier)]
    assert segments == [(t.tolist(), y.tolist()) for t, y in pieces]


def segments_by_token_loop(tokens):
    """Reference: de-padded ids split after each time-gap id, one id at a time."""
    tokens = tokens[tokens != PAD_ID].tolist()
    segments, start = [], 0
    for i, tid in enumerate(tokens):
        if is_timegap_id(tid):
            segments.append(tokens[start:i + 1])
            start = i + 1
    return segments + ([tokens[start:]] if start < len(tokens) else [])


@given(hnp.arrays(np.int32, st.integers(0, 40), elements=st.integers(0, 16)))
def test_label_less_segments_match_the_token_loop(tokens):
    stream = S.dense_stream(tokens)
    assert [t.tolist() for t, _ in S._event_segments(stream)] == segments_by_token_loop(tokens)


def parse_labeled_by_loop(units, labels):
    """Reference: runs grown one unit at a time, then read run by run."""
    runs = []
    for unit, label in zip(units, labels):
        if runs and runs[-1][0] == label:
            runs[-1][1].append(unit)
        else:
            runs.append((label, [unit]))
    event = S.ReconstructedEvent()
    if not runs or runs[0][0] != S.TokenType.TABLE_NAME:
        event.defect = S.DEFECT_NOT_TABLE_FIRST
    idx = 0
    while idx < len(runs):
        label, run_units = runs[idx]
        if label == S.TokenType.TABLE_NAME:
            event.table = detokenize(run_units)
            idx += 1
        elif label == S.TokenType.COLUMN_NAME:
            if idx + 1 < len(runs) and runs[idx + 1][0] == S.TokenType.COLUMN_VALUE:
                event.pairs.append((detokenize(run_units), detokenize(runs[idx + 1][1])))
                idx += 2
            else:
                event.defect = event.defect or S.DEFECT_UNPAIRED_COLUMN
                idx += 1
        elif label == S.TokenType.TIMEGAP:
            event.timegap = run_units[-1]
            idx += 1
        else:
            event.defect = event.defect or S.DEFECT_UNPAIRED_COLUMN
            idx += 1
    return event


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "##c", "[tg1]"]), st.integers(0, 5)),
                max_size=12))
def test_labeled_parse_matches_the_run_loop(pairs):
    units, labels = [u for u, _ in pairs], [label for _, label in pairs]
    assert S._parse_labeled(units, labels) == parse_labeled_by_loop(units, labels)
