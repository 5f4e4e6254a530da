"""Event-stream serialization into token grids and flat sequences.

Each event serializes as table name, then (column name, textualized cell)
pairs, then one quantized time-gap token.  Two parallel label channels ride
along: token-type (table/column/value/timegap/pad) and digit-place labels
for the digits of numeric cells.
"""

from __future__ import annotations

import bisect
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable, Iterator, Optional

import numpy as np

from .corpus import NUMERIC, CellValue, Corpus, EventRecord, PatientRecord, is_decimal
from .manifest import STRING, json_doc, json_list, json_text, reading
from .vocab import (
    PAD_ID,
    TIMEGAP_BOUNDARIES_MIN,
    Vocabulary,
    detokenize,
    is_timegap_id,
    timegap_unit,
    tokenize,
)


class SerializeError(ValueError):
    pass


class TokenType:  # token-type labels, plain ints
    PAD, TABLE_NAME, COLUMN_NAME, COLUMN_VALUE, TIMEGAP = range(5)


# Digit-place labels are small ints: 0 = non-digit, 1 = decimal point,
# PLACE_ZERO + k = digit at power-of-ten position k (k=0 units, k=-1 tenths).
DPE_NON_DIGIT = 0
DPE_DECIMAL_POINT = 1
DPE_PLACE_ZERO = 64


def dpe_place(k: int) -> int:
    label = DPE_PLACE_ZERO + k
    if label < 2:
        raise SerializeError(f"digit place {k} out of encodable range")
    return label


def dpe_is_place(label: int) -> bool:
    return label >= 2


def dpe_place_value(label: int) -> int:
    if not dpe_is_place(label):
        raise SerializeError(f"label {label} is not a digit place")
    return label - DPE_PLACE_ZERO


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class SerializerConfig:
    n_e: int = 256
    n_tpe: int = 128
    n_t: int = 8192

    def __post_init__(self):
        for name, v in (("n_e", self.n_e), ("n_tpe", self.n_tpe), ("n_t", self.n_t)):
            if not _is_pow2(v):
                raise SerializeError(f"{name}={v} must be a power of two")


# Stream channels in record order, and the fill value of each: every fill
# is 0, so a channel's cells that differ from its fill are its nonzero cells.
CHANNELS = ("tokens", "type_labels", "dpe_labels")
_FILLS = (PAD_ID, TokenType.PAD, DPE_NON_DIGIT)

# Layout names by the rank of the stream's shape: 1-D, then 2-D.
_LAYOUTS = ("flattened", "hierarchical")


@dataclass
class TokenStream:
    """Token ids with parallel label channels: a 2-D grid of events, one per
    row, or a 1-D flat sequence, one row.  The rank of `shape` is the layout.

    `cells` holds the tokens, type labels and dpe labels (either label channel
    may be None), each as the first lengths[i] cells of each row i, row after
    row; all other cells are the channel's fill.  The dense channels are
    read-only views of `shape`, built on each access."""

    shape: tuple[int, ...]
    lengths: np.ndarray
    cells: tuple[Optional[np.ndarray], ...]
    event_boundaries: Optional[list[tuple[int, int]]] = None
    patient_id: str = ""

    def __post_init__(self):
        n_rows, width = _rows_shape(self.shape)
        self.lengths = lengths = np.asarray(self.lengths, dtype=np.int64)
        if lengths.ndim != 1 or len(lengths) > n_rows:
            raise SerializeError(f"{len(lengths)} row lengths for {n_rows} rows")
        if lengths.size and not 0 <= lengths.min() <= lengths.max() <= width:
            raise SerializeError(f"row length outside 0..{width}")
        total = int(lengths.sum())
        for name, payload in zip(CHANNELS, self.cells):
            if payload is not None and payload.shape != (total,):
                raise SerializeError(f"{name} payload does not hold sum(lengths) = {total} cells")
        if self.event_boundaries is not None:
            self.event_boundaries = _checked_bounds(self.event_boundaries, width)

    @property
    def layout(self) -> str:
        return _LAYOUTS[len(self.shape) - 1]

    tokens = property(lambda self: self._dense(0))
    type_labels = property(lambda self: self._dense(1))
    dpe_labels = property(lambda self: self._dense(2))

    def _dense(self, channel: int) -> Optional[np.ndarray]:
        """One channel as a read-only array of `shape`, fill outside the rows' lengths."""
        cells = self.cells[channel]
        if cells is None:
            return None
        n_rows, width = _rows_shape(self.shape)
        out = np.full((n_rows, width), _FILLS[channel], dtype=np.int32)
        out[: len(self.lengths)][np.arange(width) < self.lengths[:, None]] = cells
        out.flags.writeable = False
        return out.reshape(self.shape)


def _rows_shape(shape) -> tuple[int, int]:
    """A stream's shape as (rows, width); a flat stream is one row."""
    if len(shape) not in (1, 2):
        raise SerializeError(f"a stream must be 1-D or 2-D, not {len(shape)}-D")
    return (1, shape[0]) if len(shape) == 1 else tuple(shape)


def dense_stream(tokens, type_labels=None, dpe_labels=None,
                 event_boundaries=None, patient_id: str = "") -> TokenStream:
    """A stream from dense channels of one shape, 1-D or 2-D.  Each row keeps
    its cells up to the last where any channel differs from its fill."""
    dense = [None if c is None else np.asarray(c, dtype=np.int32)
             for c in (tokens, type_labels, dpe_labels)]
    shape = dense[0].shape
    n_rows, width = _rows_shape(shape)
    differs = np.zeros((n_rows, width), dtype=bool)
    for channel, fill in zip(dense, _FILLS):
        if channel is not None:
            if channel.shape != shape:
                raise SerializeError("label channel shape does not match token channel")
            differs |= channel.reshape(n_rows, width) != fill
    lengths = np.max(np.where(differs, np.arange(1, width + 1), 0), axis=1, initial=0)
    kept = np.arange(width) < lengths[:, None]
    cells = tuple(None if c is None else c.reshape(n_rows, width)[kept] for c in dense)
    return TokenStream(shape, lengths, cells, event_boundaries, patient_id)


def _checked_bounds(bounds, length: int) -> list[tuple[int, int]]:
    """Event boundaries as [start, end] integer pairs, 0 <= start <= end <= length."""
    if not isinstance(bounds, list):
        raise SerializeError("event_boundaries must be a list")
    for b in bounds:
        if not (isinstance(b, (list, tuple)) and len(b) == 2
                and all(type(x) is int for x in b) and 0 <= b[0] <= b[1] <= length):
            raise SerializeError(f"event boundary {b!r} is not [start, end] with "
                                 f"0 <= start <= end <= {length}")
    return [tuple(b) for b in bounds]


def textualize_cell(cell: CellValue, definitions: dict[str, str]) -> str:
    """Map a cell to text: code -> description, number -> spaced characters."""
    if cell.kind == NUMERIC:
        return " ".join(cell.value)
    if cell.kind == "itemized":
        if cell.value not in definitions:
            raise SerializeError(f"unknown itemized code {cell.value!r}")
        return definitions[cell.value].casefold()
    return cell.value.casefold()


def corpus_texts(corpus: Corpus) -> Iterator[str]:
    """Every text the serializer tokenizes for a corpus: table names, column
    names and textualized cells, in event order."""
    for p in corpus.patients:
        for e in p.events:
            yield e.table_name
            for col, cell in e.columns:
                yield col
                yield textualize_cell(cell, corpus.definitions)


def quantize_timegap(delta_seconds: int) -> str:
    """Bucket a non-negative gap into TG tokens; buckets are [b_i, b_{i+1})."""
    if delta_seconds < 0:
        raise SerializeError("negative time gap")
    minutes = delta_seconds / 60.0
    return timegap_unit(bisect.bisect_right(TIMEGAP_BOUNDARIES_MIN, minutes))


def _numeric_dpe_labels(value: str) -> list[int]:
    """Per-character digit-place labels for a decimal string: non-digit for
    the sign, then the integer digits' places, the point, the fraction's."""
    if not is_decimal(value):
        raise SerializeError(f"{value!r} is not a decimal")
    digits = value.removeprefix("-")
    int_part, point, frac_part = digits.partition(".")
    return ([DPE_NON_DIGIT] * (len(value) - len(digits))
            + list(range(DPE_PLACE_ZERO + len(int_part) - 1, DPE_PLACE_ZERO - 1, -1))
            + [DPE_DECIMAL_POINT] * len(point)
            + list(range(DPE_PLACE_ZERO - 1, dpe_place(-len(frac_part)) - 1, -1)))


def _text_segment(text: str, label: int, vocab: Vocabulary) -> tuple[list[int], ...]:
    """A non-numeric text's ids, type labels and dpe labels, made once per vocabulary;
    keyed by the text, never the cell, as an itemized cell's text depends on definitions."""
    segment = vocab._segments.get((label, text))
    if segment is None:
        ids = vocab.encode(tokenize(text, vocab))
        segment = vocab._segments[label, text] = (ids, [label] * len(ids),
                                                  [DPE_NON_DIGIT] * len(ids))
    return segment


def serialize_event(event: EventRecord, prev_timestamp: int, vocab: Vocabulary,
                    definitions: dict[str, str]) -> tuple[list[int], list[int], list[int]]:
    """Serialize one event to (token ids, type labels, dpe labels)."""
    delta = event.timestamp - prev_timestamp
    segments = [_text_segment(event.table_name, TokenType.TABLE_NAME, vocab)]
    for col_name, cell in event.columns:
        segments.append(_text_segment(col_name, TokenType.COLUMN_NAME, vocab))
        cell_text = textualize_cell(cell, definitions)
        if cell.kind != NUMERIC:
            segments.append(_text_segment(cell_text, TokenType.COLUMN_VALUE, vocab))
        else:  # one unit per character, made per occurrence so no memo grows with values
            ids = vocab.encode(tokenize(cell_text, vocab))
            segments.append((ids, [TokenType.COLUMN_VALUE] * len(ids),
                             _numeric_dpe_labels(cell.value)))
    segments.append((vocab.encode([quantize_timegap(delta)]), [TokenType.TIMEGAP], [DPE_NON_DIGIT]))
    ids, types, dpes = [], [], []
    for segment_ids, segment_types, segment_dpes in segments:
        ids += segment_ids
        types += segment_types
        dpes += segment_dpes
    return ids, types, dpes


def build_hierarchical(patient: PatientRecord, vocab: Vocabulary,
                       definitions: dict[str, str],
                       config: SerializerConfig = SerializerConfig()) -> TokenStream:
    """Serialize a patient to an n_e x n_tpe grid, one event per row.

    Rows are right-padded or truncated at n_tpe; events beyond n_e are
    dropped from the end (earliest kept).
    """
    if not patient.events:
        raise SerializeError(f"patient {patient.patient_id} has no events")
    lengths, cells = [], ([], [], [])
    prev_ts = 0  # first gap measured from admission
    for event in patient.events[: config.n_e]:
        channels = serialize_event(event, prev_ts, vocab, definitions)
        prev_ts = event.timestamp
        lengths.append(min(len(channels[0]), config.n_tpe))
        for kept, values in zip(cells, channels):
            kept.extend(values[: config.n_tpe])
    return TokenStream((config.n_e, config.n_tpe), lengths,
                       tuple(np.array(c, dtype=np.int32) for c in cells),
                       patient_id=patient.patient_id)


def _kept_cells(hier: TokenStream) -> tuple[np.ndarray, np.ndarray]:
    """Which cells of a hierarchical stream flatten and detokenize keep, and
    how many each row keeps, for the rows that keep any: a row keeps its
    first c cells, c being its count of non-pad tokens."""
    ends = np.cumsum(hier.lengths)
    non_pad = np.concatenate(([0], np.cumsum(hier.cells[0] != PAD_ID)))
    starts = ends - hier.lengths
    counts = non_pad[ends] - non_pad[starts]
    in_row = np.arange(len(hier.cells[0])) - np.repeat(starts, hier.lengths)
    return in_row < np.repeat(counts, hier.lengths), counts[counts > 0]


def flatten(hier: TokenStream, n_t: int = SerializerConfig.n_t) -> TokenStream:
    """Concatenate de-padded rows chronologically, recording event boundaries.

    Row i contributes its first c_i cells, c_i being its count of non-pad
    tokens; the concatenation is cut at n_t.
    """
    if hier.layout != "hierarchical":
        raise SerializeError("flatten expects a hierarchical stream")
    keep, kept = _kept_cells(hier)
    offsets = np.cumsum(kept) - kept
    boundaries = [(s, min(s + n, n_t)) for s, n in zip(offsets.tolist(), kept.tolist())
                  if s < n_t]
    cells = tuple(None if c is None else c[keep][:n_t] for c in hier.cells)
    return TokenStream((n_t,), [len(cells[0])], cells, boundaries, hier.patient_id)


NOT_TABLE_FIRST = "not_table_first"
UNPAIRED_COLUMN = "unpaired_column"


@dataclass
class ReconstructedEvent:
    """Textual view of one serialized event, possibly defect-marked.

    For label-carrying streams `table`/`pairs` are populated; for label-less
    generated streams only `words` is, and structure is inferred downstream.
    """

    table: Optional[str] = None
    pairs: list[tuple[str, str]] = field(default_factory=list)
    timegap: Optional[str] = None
    defect: Optional[str] = None
    words: Optional[list[str]] = None

    def key(self) -> str | tuple:
        """Equal iff two events are the same event.  A raw event's key is one
        string: each word led by \\x1e, then \\x1f and the time gap, or \\x1d
        for none; no unit or detokenized word holds a \\x1c-\\x1f separator,
        since `str.split` reads them as whitespace."""
        if self.words is not None:
            gap = "\x1d" if self.timegap is None else "\x1f" + self.timegap
            return "\x1e".join(["", *self.words]) + gap
        return (self.table, tuple(self.pairs), self.timegap)


def _event_cells(stream: TokenStream) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """A stream's events, one after another: their token ids, their type
    labels (None when the events are read without labels) and the offsets
    where each event starts, the last being the total."""
    tokens, labels = stream.cells[:2]
    if stream.layout == "hierarchical":
        keep, counts = _kept_cells(stream)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return tokens[keep], None if labels is None else labels[keep], offsets
    if stream.event_boundaries is not None:
        # a boundary may reach past the cells into the padding
        bounds = np.array(stream.event_boundaries, dtype=np.int64).reshape(-1, 2)
        sizes = bounds[:, 1] - bounds[:, 0]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        at = np.repeat(bounds[:, 0] - offsets[:-1], sizes) + np.arange(offsets[-1])
        labels = stream.type_labels
        return stream.tokens[at], None if labels is None else labels[at], offsets
    # no boundaries: an event ends after each time-gap token
    tokens = tokens[tokens != PAD_ID]
    ends = np.flatnonzero(is_timegap_id(tokens)) + 1
    return tokens, None, np.unique(np.concatenate(([0], ends, [len(tokens)])))


def _run_starts(labels: np.ndarray, event_starts: np.ndarray) -> np.ndarray:
    """Where each run of labeled events' cells starts: at every cell whose
    type label differs from the cell before it, and where an event starts."""
    cut = np.ones(len(labels), dtype=bool)
    cut[1:] = labels[1:] != labels[:-1]
    cut[event_starts[event_starts < len(labels)]] = True
    return np.flatnonzero(cut)


def _read_runs(labels: list[int], values: list[str]) -> ReconstructedEvent:
    """One event from its runs' type labels and values."""
    event = ReconstructedEvent()
    if not labels or labels[0] != TokenType.TABLE_NAME:
        event.defect = NOT_TABLE_FIRST
    idx, n_runs = 0, len(labels)
    while idx < n_runs:
        label, value = labels[idx], values[idx]
        idx += 1
        if label == TokenType.TABLE_NAME:
            event.table = value
        elif (label == TokenType.COLUMN_NAME and idx < n_runs
              and labels[idx] == TokenType.COLUMN_VALUE):
            event.pairs.append((value, values[idx]))
            idx += 1
        elif label == TokenType.TIMEGAP:
            event.timegap = value
        else:
            # a column name without a value, or a value without a column name
            event.defect = event.defect or UNPAIRED_COLUMN
    return event


def _labeled_events(tokens: np.ndarray, labels: np.ndarray, offsets: np.ndarray,
                    vocab: Vocabulary) -> list[ReconstructedEvent]:
    """Labeled events from their cells: every run is cut at once, and each
    distinct (label, ids) run is read once per vocabulary, a time-gap run as
    its last unit and any other run as its detokenized text."""
    starts = _run_starts(labels, offsets[:-1])
    first_runs = np.searchsorted(starts, offsets).tolist()  # each event's first run
    run_labels = labels[starts].tolist()
    ids = tokens.astype(np.int32, copy=False).tobytes()  # 4 bytes a cell
    memo, unit_of = vocab._runs, vocab.units
    values = []
    bounds = (4 * starts).tolist() + [len(ids)]
    for label, s, e in zip(run_labels, bounds, bounds[1:]):
        key = (label, ids[s:e])
        value = memo.get(key)
        if value is None:
            units = [unit_of[t] for t in np.frombuffer(key[1], np.int32).tolist()]
            value = memo[key] = units[-1] if label == TokenType.TIMEGAP else detokenize(units)
        values.append(value)
    return [_read_runs(run_labels[a:b], values[a:b]) for a, b in zip(first_runs, first_runs[1:])]


def detokenize_events(stream: TokenStream, vocab: Vocabulary) -> list[ReconstructedEvent]:
    """Reconstruct event texts from a stream.

    Label-carrying streams parse exactly; label-less streams fall back to
    splitting on time-gap tokens and return raw word lists for the audit
    to structure against its triple set.  A token id outside the vocabulary
    is refused, naming the patient.
    """
    # the cells hold every token but the padding, and PAD_ID is in the vocabulary
    tokens, unit_of, n_units = stream.cells[0], vocab.units, len(vocab)
    if tokens.size and not 0 <= tokens.min() <= tokens.max() < n_units:
        bad = tokens[(tokens < 0) | (tokens >= n_units)].flat[0]
        raise SerializeError(f"patient {stream.patient_id!r}: token id {bad} is outside "
                             f"the vocabulary of {n_units} units")
    tokens, labels, offsets = _event_cells(stream)
    if labels is not None:
        return _labeled_events(tokens, labels, offsets, vocab)
    events = []
    for s, e in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        ids = tokens[s:e].tolist()
        units = [unit_of[t] for t in ids]
        timegap = units.pop() if ids and is_timegap_id(ids[-1]) else None
        words = detokenize(units).split(" ") if units else []
        events.append(ReconstructedEvent(timegap=timegap, words=words))
    return events


# --- persistence: one patient per JSON line --------------------------------
#
# A record stores a stream as it is held: its "shape", its row "lengths" with
# trailing zeros omitted, and each channel's cells as one flat list.  Records
# without "shape" are dense: every channel is the full nested list, de-padded
# on reading, where only the values inside the row lengths are parsed.  The
# "layout" name fixes the rank a record's shape or dense lists must have.

def stream_record(stream: TokenStream) -> str:
    """One stream as its de-padded JSON line, newline included."""
    used = np.flatnonzero(stream.lengths)
    record = {
        "patient_id": stream.patient_id,
        "layout": stream.layout,
        "shape": list(stream.shape),
        "lengths": stream.lengths[: used[-1] + 1 if used.size else 0].tolist(),
    }
    for name, cells in zip(CHANNELS, stream.cells):
        record[name] = None if cells is None else cells.tolist()
    record["event_boundaries"] = stream.event_boundaries
    return json_text(record)


def save_streams(streams: Iterable[TokenStream], path: Path | str) -> None:
    with open(path, "w") as fh:
        fh.writelines(map(stream_record, streams))


# A record line's lexemes: each JSON string, with the colon that makes it a
# key, and each brace; so a channel's array is cut out only at a key of the
# top-level object, never from inside a string.  The text of an integer
# array holds only _ARRAY_BYTES.
_LEXEME = re.compile(rb'("(?:[^"\\]|\\.)*")([ \t\n\r]*:[ \t\n\r]*)?|[{}]', re.DOTALL)
_JSON_WS = b" \t\n\r"
_ARRAY_BYTES = b"0123456789-,[]" + _JSON_WS
# A dense record line runs to hundreds of KB: a buffer larger than the line
# reads it in one piece, where the default 8 KB buffer reads and joins it in
# many.
_READ_BUFFER = 1 << 20


def load_streams(path: Path | str, channels: Optional[Iterable[str]] = None,
                 records: Optional[Container[int]] = None):
    """Read stream records, de-padded or dense; bad input names file and line.

    With no `channels`, every channel of every record, as a list.  Given
    `channels` (names of `CHANNELS`), the records come one at a time and only
    those channels are decoded: each other channel is held as None, yet its
    text passes every check of the record grammar but the 32-bit range, and
    it counts toward a dense record's row lengths as a full read counts it.
    Given `records` too, only the records at those positions (0 for the
    file's first record) are read; the others are passed over unchecked.
    The iterator opens the file when its first record is drawn."""
    asked = CHANNELS if channels is None else tuple(channels)
    if not set(asked) <= set(CHANNELS):
        raise SerializeError(f"unknown channels {sorted(set(asked) - set(CHANNELS))}")
    streams = _read_records(lambda: open(path, "rb", buffering=_READ_BUFFER), path, asked,
                            records)
    return list(streams) if channels is None else streams


def _read_records(open_file, path, channels: tuple[str, ...],
                  records: Optional[Container[int]]) -> Iterator[TokenStream]:
    """A stream file's records, one at a time: the file is opened when the
    first is drawn, and closed after the last or when the iterator is."""
    with open_file() as fh:
        position = -1
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            position += 1
            if records is None or position in records:
                with reading(f"{path}, line {lineno}", SerializeError):
                    stream = _stream_from_line(line, channels)
                yield stream


def _stream_from_line(line: bytes, channels: tuple[str, ...] = CHANNELS) -> TokenStream:
    """One record line: each channel's integer array is checked from the
    line's bytes by `_array_form` and, if it is one of `channels`, parsed by
    `_parse_values`; the rest of the record is read by `json_doc`.  A float
    is refused by the check of the field that holds it."""
    rest, arrays = _cut_arrays(line)
    try:
        r = json_doc(rest.decode())
    except ValueError:
        json_doc(line.decode())  # raises the fault where the line has it
        raise
    if not isinstance(r, dict):
        raise SerializeError("record is not a JSON object")
    if r["tokens"] is None and "tokens" not in arrays:
        raise SerializeError("record has no tokens")
    layout = r["layout"]
    if layout not in _LAYOUTS:
        raise SerializeError(f"unknown layout {layout!r}")
    rank = _LAYOUTS.index(layout) + 1  # of the shape, or of a dense record's lists
    shape = _checked_shape(r, rank) if "shape" in r else None
    if shape is not None:
        rank = 1  # a de-padded record holds each channel as one flat list
    forms = []
    for name in CHANNELS:
        forms.append(_array_form(arrays[name], rank) if name in arrays else None)
        if forms[-1] is None and (name in arrays or r.get(name) is not None):
            _refuse_channel(json_doc(line.decode())[name], name, layout, rank)
    dense = shape is None
    if dense:  # the rows of every channel, read or not, set the row lengths
        shape = forms[0][1]
        if any(form is not None and form[1] != shape for form in forms):
            raise SerializeError("label channel shape does not match token channel")
        lengths = np.max([_dense_rows(*form) for form in forms if form is not None], axis=0)
    else:
        lengths = r["lengths"]
    cells = []
    for name, form in zip(CHANNELS, forms):
        if form is None or name not in channels:
            # an unread de-padded channel stands in by its shape, for the stream's count check
            cells.append(None if form is None or dense else np.broadcast_to(False, form[1]))
            continue
        cells.append(_kept_values(*form, lengths) if dense
                     else _parse_values(form[0][1:-1], form[1][0]))
        if cells[-1] is None:
            _refuse_channel(json_doc(line.decode())[name], name, layout, rank)
    stream = TokenStream(shape, lengths, tuple(cells), r.get("event_boundaries"),
                         STRING("patient_id", r.get("patient_id", "")))
    stream.cells = tuple(c if name in channels else None for name, c in zip(CHANNELS, stream.cells))
    return stream


def _cut_arrays(line: bytes) -> tuple[bytes, dict[str, bytes]]:
    """Cut each channel's value out of a record line where it is a bracketed
    run of array bytes.  Returns the line with each cut value replaced by
    null, and the cut text by channel.  Any other value, and a channel key
    not of the top-level object, stays for the JSON decoder."""
    arrays, kept, depth, pos, start = {}, [], 0, 0, 0
    while m := _LEXEME.search(line, pos):
        pos = m.end()
        if m[1] is None:
            depth += 1 if m[0] == b"{" else -1
            continue
        if depth != 1 or m[2] is None:
            continue
        try:
            name = json_doc(m[1].decode())
        except ValueError:
            continue  # a bad escape: the decoder names it
        if name not in CHANNELS:
            continue
        end = line.find(b'"', pos)
        end = len(line) if end < 0 else end
        brace = line.find(b"}", pos, end)
        value = line[pos:end if brace < 0 else brace].rstrip(b"," + _JSON_WS)
        if value[:1] == b"[" and value[-1:] == b"]" and not value.translate(None, _ARRAY_BYTES):
            arrays[name] = value
            kept += [line[start:pos], b"null"]
            pos = start = pos + len(value)
        else:
            arrays.pop(name, None)  # JSON keeps the last value of a key
    return b"".join(kept) + line[start:], arrays


def _array_form(text: bytes, rank: int) -> Optional[tuple]:
    """Every check that the text of array bytes is a JSON array of integers
    (rank 1), or of equal-length arrays of them (rank 2), but their 32-bit
    range.  Returns the text's bytes without whitespace, the array's shape,
    and where in those bytes each comma and each row's "]" stand; None if
    the text is not such an array.  Each check runs on the whole text at
    once, so no Python object is made per value."""
    compact = text.translate(None, _JSON_WS)
    c = np.frombuffer(compact, np.uint8)
    opens, closes = np.flatnonzero(c == ord("[")), np.flatnonzero(c == ord("]"))
    n_rows = len(opens) - 1 if rank == 2 else 1
    if len(closes) != len(opens) or (rank == 1 and len(opens) > 1):
        return None
    if rank == 2 and not (compact == b"[]" if n_rows == 0 else
                          opens[1] == 1 and closes[-2] == len(c) - 2  # "[[" ... "]]"
                          and np.array_equal(opens[2:], closes[:-2] + 2)  # rows split by "],["
                          and (c[closes[:-2] + 1] == ord(",")).all()):
        return None
    commas = np.flatnonzero(c == ord(","))
    n_values = len(commas) + 1
    num = (c >= ord("-")) & (c <= ord("9"))  # a digit or "-": no array byte lies between
    if not num.any():  # no values: "[]", or rows that are all "[]"
        return (c, (n_rows, 0) if rank == 2 else (0,), commas, closes[:n_rows]) \
            if n_values == max(n_rows, 1) else None
    digit = num & (c != ord("-"))
    minus = np.flatnonzero(c == ord("-"))
    raw = np.frombuffer(text, np.uint8)
    raw_num = (raw >= ord("-")) & (raw <= ord("9"))
    width = n_values // n_rows
    if (np.count_nonzero(~num[:-1] & ~num[1:]) != (2 * n_rows if rank == 2 else 0)  # empty value
            or not (~num[minus - 1] & digit[minus + 1]).all()  # "-" starts a number, before a digit
            or ((c[1:-1] == ord("0")) & ~digit[:-2] & digit[2:]).any()  # leading zero
            or np.count_nonzero(raw_num[1:] & ~raw_num[:-1]) != n_values  # whitespace in a number
            or width * n_rows != n_values
            or (rank == 2 and  # row r's "]" follows (r + 1)·width - 1 commas
                (np.searchsorted(commas, closes[:-2]) != np.arange(1, n_rows) * width - 1).any())):
        return None
    return c, (n_rows, width) if rank == 2 else (n_values,), commas, closes[:n_rows]


def _parse_values(c: np.ndarray, count: int) -> Optional[np.ndarray]:
    """The `count` comma-separated integers of checked array bytes without
    brackets, as int32, parsed by numpy in one call; None if one needs more
    than 32 bits."""
    if count == 0:
        return np.zeros(0, np.int32)
    values = np.fromstring(c.tobytes(), dtype=np.int64, sep=",")
    if len(values) != count or values.min() < -2**31 or values.max() >= 2**31:
        return None
    return values.astype(np.int32)


def _dense_rows(c: np.ndarray, shape: tuple[int, ...], commas: np.ndarray,
                closes: np.ndarray) -> np.ndarray:
    """Per row of a dense channel's `_array_form`, one past its last value
    that is not 0 (every fill is 0), read from the bytes with no value
    parsed: a value is not 0 iff it holds a digit 1 to 9, and its index is
    the count of commas before it."""
    n_rows, width = _rows_shape(shape)
    ends = np.zeros(n_rows, np.int64)
    digits = np.flatnonzero((c >= ord("1")) & (c <= ord("9")))
    if digits.size:
        rows = np.searchsorted(closes, digits)
        last = np.flatnonzero(np.diff(rows, append=n_rows))  # each row's last such digit
        rows = rows[last]
        ends[rows] = np.searchsorted(commas, digits[last]) - rows * width + 1
    return ends


def _kept_values(c: np.ndarray, shape: tuple[int, ...], commas: np.ndarray,
                 closes: np.ndarray, lengths: np.ndarray) -> Optional[np.ndarray]:
    """The first lengths[r] values of each row r of a dense channel's
    `_array_form`, row after row, as `_parse_values` reads them: only those
    values' bytes are parsed, the padding past them is not."""
    width = _rows_shape(shape)[1]
    rows = np.flatnonzero(lengths)
    # a row's values start after its "[", which follows the "]," of the row before
    starts = np.where(rows == 0, len(shape), closes[rows - 1] + 3)
    last = rows * width + lengths[rows] - 1  # the index of each row's last kept value
    stops = np.where(lengths[rows] == width, closes[rows], np.append(commas, 0)[last])
    sizes = stops - starts + 1  # a row's kept bytes and the "," or "]" after them
    offsets = np.cumsum(sizes) - sizes
    kept = c[np.repeat(starts - offsets, sizes) + np.arange(sizes.sum())]
    kept[offsets + sizes - 1] = ord(",")
    return _parse_values(kept[:-1], int(lengths.sum()))


def _refuse_channel(values, name: str, layout: str, rank: int):
    """Raise the fault of a channel value that `_array_form` or
    `_parse_values` refused or could not read, named as its JSON reads."""
    rows = values if rank == 2 else [values]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SerializeError(f"{name}: a {layout} record needs a list of "
                             + ("rows" if rank == 2 else "integers"))
    with reading(name, SerializeError):
        for row in rows:
            array("i", row)
    if len(set(map(len, rows))) > 1:
        raise SerializeError(f"{name}: rows of inhomogeneous length")
    raise SerializeError(f"{name}: JSON true and false are not integers")


def _checked_shape(r: dict, rank: int) -> tuple[int, ...]:
    """A de-padded record's shape, of the layout's rank; its lengths a list of integers."""
    shape = r["shape"]
    if (not isinstance(shape, list) or len(shape) != rank
            or not all(type(n) is int and n >= 0 for n in shape)):
        raise SerializeError(f"bad shape {shape!r} for layout {r['layout']!r}")
    json_list("integers", int)("lengths", r["lengths"])
    return tuple(shape)
