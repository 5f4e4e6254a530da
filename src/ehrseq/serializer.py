"""Event-stream serialization into token grids and flat sequences.

Each event serializes as table name, then (column name, textualized cell)
pairs, then one quantized time-gap token.  Two parallel label channels ride
along: token-type (table/column/value/timegap/pad) and digit-place labels
for the digits of numeric cells.
"""

from __future__ import annotations

import bisect
import json
import re
from array import array
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .corpus import NUMERIC, CellValue, Corpus, EventRecord, PatientRecord, is_decimal
from .manifest import json_text
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


class TokenType(IntEnum):
    PAD = 0
    TABLE_NAME = 1
    COLUMN_NAME = 2
    COLUMN_VALUE = 3
    TIMEGAP = 4


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


# Stream channels in record order, and the fill value of each.
_CHANNELS = ("tokens", "type_labels", "dpe_labels")
_FILLS = (PAD_ID, int(TokenType.PAD), DPE_NON_DIGIT)

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
        for name, payload in zip(_CHANNELS, self.cells):
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
    n = len(int_part)
    return ([DPE_NON_DIGIT] * (len(value) - len(digits))
            + [dpe_place(n - 1 - i) for i in range(n)]
            + [DPE_DECIMAL_POINT] * len(point)
            + [dpe_place(-k) for k in range(1, len(frac_part) + 1)])


def serialize_event(event: EventRecord, prev_timestamp: int, vocab: Vocabulary,
                    definitions: dict[str, str]) -> tuple[list[int], list[int], list[int]]:
    """Serialize one event to (token ids, type labels, dpe labels)."""
    delta = event.timestamp - prev_timestamp
    if delta < 0:
        raise SerializeError("events not in chronological order")

    ids: list[int] = []
    types: list[int] = []
    dpes: list[int] = []

    def emit(units: list[str], label: TokenType, dpe: Optional[list[int]] = None):
        token_ids = vocab.encode(units)
        ids.extend(token_ids)
        types.extend([int(label)] * len(token_ids))
        dpes.extend(dpe if dpe is not None else [DPE_NON_DIGIT] * len(token_ids))

    emit(tokenize(event.table_name, vocab), TokenType.TABLE_NAME)
    for col_name, cell in event.columns:
        emit(tokenize(col_name, vocab), TokenType.COLUMN_NAME)
        cell_text = textualize_cell(cell, definitions)
        units = tokenize(cell_text, vocab)
        if cell.kind == NUMERIC:
            # one unit per character of the decimal string
            emit(units, TokenType.COLUMN_VALUE, _numeric_dpe_labels(cell.value))
        else:
            emit(units, TokenType.COLUMN_VALUE)
    emit([quantize_timegap(delta)], TokenType.TIMEGAP)
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


def _kept_rows(hier: TokenStream) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a hierarchical stream, where its cells start and its count c
    of non-pad tokens: flatten and detokenize keep the row's first c cells."""
    ends = np.cumsum(hier.lengths)
    non_pad = np.concatenate(([0], np.cumsum(hier.cells[0] != PAD_ID)))
    starts = ends - hier.lengths
    return starts, non_pad[ends] - non_pad[starts]


def flatten(hier: TokenStream, n_t: int = SerializerConfig.n_t) -> TokenStream:
    """Concatenate de-padded rows chronologically, recording event boundaries.

    Row i contributes its first c_i cells, c_i being its count of non-pad
    tokens; the concatenation is cut at n_t.
    """
    if hier.layout != "hierarchical":
        raise SerializeError("flatten expects a hierarchical stream")
    starts, counts = _kept_rows(hier)
    in_row = np.arange(len(hier.cells[0])) - np.repeat(starts, hier.lengths)
    keep = in_row < np.repeat(counts, hier.lengths)
    kept = counts[counts > 0]
    offsets = np.cumsum(kept) - kept
    boundaries = [(s, min(s + n, n_t)) for s, n in zip(offsets.tolist(), kept.tolist())
                  if s < n_t]
    cells = tuple(None if c is None else c[keep][:n_t] for c in hier.cells)
    return TokenStream((n_t,), [len(cells[0])], cells, boundaries, hier.patient_id)


DEFECT_NOT_TABLE_FIRST = "not_table_first"
DEFECT_UNPAIRED_COLUMN = "unpaired_column"


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

    def key(self) -> tuple:
        if self.words is not None:
            return ("raw", tuple(self.words), self.timegap)
        return (self.table, tuple(self.pairs), self.timegap)


def _event_segments(stream: TokenStream):
    tokens, labels = stream.cells[:2]
    if stream.layout == "hierarchical":
        starts, counts = _kept_rows(stream)
        for s, n in zip(starts[counts > 0].tolist(), counts[counts > 0].tolist()):
            yield tokens[s:s + n], None if labels is None else labels[s:s + n]
    elif stream.event_boundaries is not None:
        # a boundary may reach past the cells into the padding
        tokens, labels = stream.tokens, stream.type_labels
        for s, e in stream.event_boundaries:
            yield tokens[s:e], None if labels is None else labels[s:e]
    else:
        # no boundaries: an event ends after each time-gap token
        tokens = tokens[tokens != PAD_ID]
        ends = (np.flatnonzero(is_timegap_id(tokens)) + 1).tolist()
        for start, end in zip([0] + ends, ends + [len(tokens)]):
            if start < end:
                yield tokens[start:end], None


def _parse_labeled(units: list[str], labels: list[int]) -> ReconstructedEvent:
    cuts = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
    runs = [(labels[s], units[s:e])
            for s, e in zip([0] + cuts, cuts + [len(labels)]) if s < e]

    event = ReconstructedEvent()
    if not runs or runs[0][0] != TokenType.TABLE_NAME:
        event.defect = DEFECT_NOT_TABLE_FIRST
    idx = 0
    while idx < len(runs):
        label, run_units = runs[idx]
        idx += 1
        if label == TokenType.TABLE_NAME:
            event.table = detokenize(run_units)
        elif (label == TokenType.COLUMN_NAME and idx < len(runs)
              and runs[idx][0] == TokenType.COLUMN_VALUE):
            event.pairs.append((detokenize(run_units), detokenize(runs[idx][1])))
            idx += 1
        elif label == TokenType.TIMEGAP:
            event.timegap = run_units[-1]
        else:
            # a column name without a value, or a value without a column name
            event.defect = event.defect or DEFECT_UNPAIRED_COLUMN
    return event


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
    events = []
    for token_ids, labels in _event_segments(stream):
        ids = token_ids.tolist()
        units = [unit_of[t] for t in ids]
        if labels is not None:
            events.append(_parse_labeled(units, labels.tolist()))
        else:
            timegap = units.pop() if ids and is_timegap_id(ids[-1]) else None
            words = detokenize(units).split(" ") if units else []
            events.append(ReconstructedEvent(timegap=timegap, words=words))
    return events


# --- persistence: one patient per JSON line --------------------------------
#
# A record stores a stream as it is held: its "shape", its row "lengths" with
# trailing zeros omitted, and each channel's cells as one flat list.  Records
# without "shape" are dense: every channel is the full nested list, de-padded
# on reading.  The "layout" name fixes the rank a record's shape or dense
# lists must have.

def stream_record(stream: TokenStream) -> str:
    """One stream as its de-padded JSON line, newline included."""
    record = {
        "patient_id": stream.patient_id,
        "layout": stream.layout,
        "shape": list(stream.shape),
        "lengths": np.trim_zeros(stream.lengths, "b").tolist(),
    }
    for name, cells in zip(_CHANNELS, stream.cells):
        record[name] = None if cells is None else cells.tolist()
    record["event_boundaries"] = stream.event_boundaries
    return json_text(record)


def save_streams(streams: Iterable[TokenStream], path: Path | str) -> None:
    with open(path, "w") as fh:
        fh.writelines(map(stream_record, streams))


def _not_an_integer(text: str):
    raise SerializeError(f"value {text} is not an integer")


# floats, NaN and Infinity are refused while parsing; integers keep the fast path
_RECORD_DECODER = json.JSONDecoder(parse_float=_not_an_integer, parse_constant=_not_an_integer)

# A record line's lexemes: each JSON string, with the colon that makes it a
# key, and each brace; so a channel's array is cut out only at a key of the
# top-level object, never from inside a string.  The text of an integer
# array holds only _ARRAY_BYTES.
_LEXEME = re.compile(rb'("(?:[^"\\]|\\.)*")([ \t\n\r]*:[ \t\n\r]*)?|[{}]', re.DOTALL)
_JSON_WS = b" \t\n\r"
_ARRAY_BYTES = b"0123456789-,[]" + _JSON_WS
_KEYS = {json.dumps(name).encode(): name for name in _CHANNELS}


def load_streams(path: Path | str) -> list[TokenStream]:
    """Read stream records, de-padded or dense; bad input names file and line."""
    streams = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                streams.append(_stream_from_line(line))
            except UnicodeDecodeError as exc:
                raise SerializeError(f"{path}, line {lineno}: not UTF-8 ({exc.reason} "
                                     f"at byte {exc.start + 1})") from exc
            except json.JSONDecodeError as exc:
                raise SerializeError(f"{path}, line {lineno}: malformed JSON "
                                     f"({exc.msg} at column {exc.pos + 1})") from exc
            except KeyError as exc:
                raise SerializeError(f"{path}, line {lineno}: missing field {exc}") from exc
            except (ValueError, TypeError, OverflowError) as exc:
                raise SerializeError(f"{path}, line {lineno}: {exc}") from exc
    return streams


def _stream_from_line(line: bytes) -> TokenStream:
    """One record line: each channel's integer array is read from the line's
    bytes by `_int_array`, the rest of the record by the JSON decoder."""
    rest, arrays = _cut_arrays(line)
    try:
        r = _RECORD_DECODER.decode(rest.decode())
    except ValueError:
        _RECORD_DECODER.decode(line.decode())  # raises the fault where the line has it
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
    cells = []
    for name in _CHANNELS:
        cells.append(_int_array(arrays[name], rank) if name in arrays else None)
        if cells[-1] is None and (name in arrays or r.get(name) is not None):
            _refuse_channel(_RECORD_DECODER.decode(line.decode())[name], name, layout, rank)
    bounds, patient_id = r.get("event_boundaries"), r.get("patient_id", "")
    if shape is not None:
        return TokenStream(shape, r["lengths"], tuple(cells), bounds, patient_id)
    return dense_stream(*cells, bounds, patient_id)


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
            name = _KEYS.get(m[1]) if b"\\" not in m[1] else json.loads(m[1])
        except ValueError:
            continue  # a bad escape: the decoder names it
        if name not in _CHANNELS:
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


def _int_array(text: bytes, rank: int) -> Optional[np.ndarray]:
    """A JSON array of integers (rank 1), or of equal-length arrays of them
    (rank 2), as int32, from its text of array bytes; None if the text is not
    one.  Each check runs on the whole text at once and one numpy parse reads
    every value, so no Python object is made per value."""
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
    comma = c == ord(",")
    n_values = np.count_nonzero(comma) + 1
    num = (c >= ord("-")) & (c <= ord("9"))  # a digit or "-": no array byte lies between
    if not num.any():  # no values: "[]", or rows that are all "[]"
        return np.zeros((n_rows, 0) if rank == 2 else 0, np.int32) \
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
            or (rank == 2 and  # each row but the last holds width - 1 commas and the one after it
                (np.add.reduceat(comma, opens[1:], dtype=np.intp)[:-1] != width).any())):
        return None
    values = np.fromstring(compact.translate(None, b"[]"), dtype=np.int64, sep=",")
    if len(values) != n_values or values.min() < -2**31 or values.max() >= 2**31:
        return None
    values = values.astype(np.int32)
    return values.reshape(n_rows, width) if rank == 2 else values


def _refuse_channel(values, name: str, layout: str, rank: int):
    """Raise the fault of a channel value that `_int_array` refused or could
    not read, named as its JSON reads."""
    rows = values if rank == 2 else [values]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SerializeError(f"{name}: a {layout} record needs a list of "
                             + ("rows" if rank == 2 else "integers"))
    try:
        for row in rows:
            array("i", row)
    except (TypeError, OverflowError) as exc:
        raise SerializeError(f"{name}: {exc}") from None
    if len(set(map(len, rows))) > 1:
        raise SerializeError(f"{name}: rows of inhomogeneous length")
    raise SerializeError(f"{name}: JSON true and false are not integers")


def _checked_shape(r: dict, rank: int) -> tuple[int, ...]:
    """A de-padded record's shape, of the layout's rank; its lengths a list of integers."""
    shape = r["shape"]
    if (not isinstance(shape, list) or len(shape) != rank
            or not all(type(n) is int and n >= 0 for n in shape)):
        raise SerializeError(f"bad shape {shape!r} for layout {r['layout']!r}")
    lengths = r["lengths"]
    if not isinstance(lengths, list) or not all(type(n) is int for n in lengths):
        raise SerializeError("lengths must be a list of integers")
    return tuple(shape)
