"""Synthetic EHR corpora: generation and disk I/O.

A corpus is a set of patients, each a chronologically sorted list of clinical
events drawn from a handful of tables (lab, prescription, infusion).  Cell
values are numeric, free-text, or itemized codes resolved against a
definition table.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import and_
from pathlib import Path

from .manifest import (INTEGER, NUMBER, OBJECT, STRING, STRINGS, json_doc, json_entries,
                       json_fields, json_list, json_text, reading)

NUMERIC = "numeric"
TEXT = "text"
ITEMIZED = "itemized"

_CELL_KINDS = (NUMERIC, TEXT, ITEMIZED)

# The cohort filter: a patient is kept with at least MIN_EVENTS events in the
# first OBSERVATION_WINDOW_HOURS after admission; the generator stays inside it.
MIN_EVENTS = 5
OBSERVATION_WINDOW_HOURS = 12


class CorpusError(ValueError):
    """Raised for invalid configs, malformed files, or broken invariants."""


# The one numeric grammar: an optional minus, ASCII digits, and an optional
# fractional part.  No exponent, sign "+", separators, spaces, nan or inf.
_DECIMAL = re.compile(r"-?\d+(\.\d+)?", re.ASCII)


def is_decimal(text: str) -> bool:
    return _DECIMAL.fullmatch(text) is not None


@dataclass(frozen=True)
class CellValue:
    kind: str
    value: str

    def __post_init__(self):
        if self.kind not in _CELL_KINDS:
            raise CorpusError(f"unknown cell kind {self.kind!r}")
        if self.kind == NUMERIC and not is_decimal(self.value):
            raise CorpusError(f"numeric cell {self.value!r} is not a finite decimal")


def numeric(value: str) -> CellValue:
    return CellValue(NUMERIC, value)


def text(value: str) -> CellValue:
    return CellValue(TEXT, value)


def itemized(code: str) -> CellValue:
    return CellValue(ITEMIZED, str(code))


@dataclass(frozen=True)
class EventRecord:
    """One clinical event: a table row with ordered (column, cell) pairs."""

    table_name: str
    columns: tuple[tuple[str, CellValue], ...]
    timestamp: int  # seconds since admission

    def __post_init__(self):
        if not self.table_name:
            raise CorpusError("event with empty table name")
        if not self.columns:
            raise CorpusError("event with no column pairs")
        if self.timestamp < 0:
            raise CorpusError("negative event timestamp")


@dataclass
class PatientRecord:
    patient_id: str
    events: list[EventRecord]
    labels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.events = sorted(self.events, key=lambda e: e.timestamp)


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str = field(metadata={"json": "type"})
    # numeric columns
    low: float = 0.0
    high: float = 1.0
    decimals: int = 1
    # text columns
    choices: tuple[str, ...] = ()
    # itemized columns
    codes: tuple[str, ...] = ()


@dataclass(frozen=True)
class TableSpec:
    name: str
    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        if not self.columns:
            raise CorpusError(f"table {self.name!r} has no columns")


def _at(p: PatientRecord, e: EventRecord) -> str:
    return f"patient {p.patient_id!r}, table {e.table_name!r}"


def _column_mismatch(names: list[str], columns: tuple) -> str:
    """Why an event's columns are not its table's schema columns."""
    given = [name for name, _ in columns]
    missing = [name for name in names if name not in given]
    if missing:
        return f"column {missing[0]!r}: missing from the event"
    stray = [name for name in given if name not in names]
    if stray:
        return f"column {stray[0]!r}: not in the schema"
    return f"column {next(n for n in given if given.count(n) > 1)!r}: given twice"


def _check_schema(tables) -> None:
    """Each table, and each column within its table, is named once, and each
    name holds at least one word: the audit matches names word by word.  Each
    column's type is a cell kind."""
    named = [("table", [t.name for t in tables])]
    named += [(f"table {t.name!r}, column", [c.name for c in t.columns]) for t in tables]
    for what, names in named:
        blank = next((n for n in names if not str(n).split()), None)
        if blank is not None:
            raise CorpusError(f"{what} {blank!r}: blank name in the schema")
        twice = next((n for n in names if names.count(n) > 1), None)
        if twice is not None:
            raise CorpusError(f"{what} {twice!r}: named twice in the schema")
    for t in tables:
        for c in t.columns:
            if c.kind not in _CELL_KINDS:
                raise CorpusError(f"column {t.name}.{c.name}: unknown type {c.kind!r}")


@dataclass
class Corpus:
    patients: list[PatientRecord]
    definitions: dict[str, str]
    schema: list[TableSpec]


@dataclass(frozen=True)
class GeneratorConfig:
    n_patients: int
    tables: tuple[TableSpec, ...]
    seed: int = 0
    definitions: dict[str, str] = field(default_factory=dict)
    events_per_patient: tuple[int, int] = (MIN_EVENTS, 12)

    def validate(self) -> None:
        if self.n_patients < 0:
            raise CorpusError("n_patients must be >= 0")
        if not self.tables:
            raise CorpusError("at least one table spec required")
        lo, hi = self.events_per_patient
        if lo < MIN_EVENTS:
            raise CorpusError(f"events_per_patient minimum is {MIN_EVENTS} (cohort filter)")
        if hi < lo:
            raise CorpusError("events_per_patient range inverted")
        _check_schema(self.tables)
        for table in self.tables:
            for col in table.columns:
                at = f"column {table.name}.{col.name}"
                if col.kind == NUMERIC and not all(map(math.isfinite, (col.low, col.high))):
                    raise CorpusError(f"{at}: low and high must be finite")
                if col.kind == NUMERIC and col.low > col.high:
                    raise CorpusError(f"{at}: range min > max")
                if col.kind == NUMERIC and col.decimals < 0:
                    raise CorpusError(f"{at}: decimals must be >= 0")
                if col.kind == TEXT and not col.choices:
                    raise CorpusError(f"{at}: no text choices")
                if col.kind == ITEMIZED:
                    if not col.codes:
                        raise CorpusError(f"{at}: no codes")
                    missing = [c for c in col.codes if c not in self.definitions]
                    if missing:
                        raise CorpusError(f"{at}: codes without definitions: {missing}")


_DEFAULT_DEFINITIONS = {
    "50001": "serum sodium level",
    "50002": "serum potassium level",
    "50003": "blood glucose",
    "50004": "hemoglobin concentration",
    "50005": "white blood cell count",
    "50006": "atypical lymphocytes",
    "60001": "normal saline infusion",
    "60002": "dextrose five percent",
    "60003": "lactated ringers solution",
}

_DRUGS = ("aspirin", "heparin", "insulin", "furosemide", "metoprolol", "vancomycin")
_ROUTES = ("oral", "intravenous", "subcutaneous")
_UNITS = ("meq per liter", "mg per dl", "grams per dl", "cells per microliter")


def default_config(seed: int = 0, n_patients: int = 20) -> GeneratorConfig:
    """Desk-scale three-table config: lab, prescription, infusion."""
    tables = (
        TableSpec(
            "lab",
            (
                ColumnSpec("item id", ITEMIZED, codes=tuple(c for c in _DEFAULT_DEFINITIONS if c.startswith("5"))),
                ColumnSpec("value", NUMERIC, low=0.5, high=180.0, decimals=1),
                ColumnSpec("unit", TEXT, choices=_UNITS),
            ),
        ),
        TableSpec(
            "prescription",
            (
                ColumnSpec("drug", TEXT, choices=_DRUGS),
                ColumnSpec("dose", NUMERIC, low=1.0, high=500.0, decimals=1),
                ColumnSpec("route", TEXT, choices=_ROUTES),
            ),
        ),
        TableSpec(
            "infusion",
            (
                ColumnSpec("item id", ITEMIZED, codes=tuple(c for c in _DEFAULT_DEFINITIONS if c.startswith("6"))),
                ColumnSpec("amount", NUMERIC, low=10.0, high=1000.0, decimals=1),
                ColumnSpec("rate", NUMERIC, low=5.0, high=250.0, decimals=1),
            ),
        ),
    )
    return GeneratorConfig(
        seed=seed,
        n_patients=n_patients,
        tables=tables,
        definitions=dict(_DEFAULT_DEFINITIONS),
    )


def _generate_cell(rng: random.Random, col: ColumnSpec) -> CellValue:
    if col.kind == NUMERIC:
        value = rng.uniform(col.low, col.high)
        return CellValue(NUMERIC, f"{round(value, col.decimals):.{col.decimals}f}")
    if col.kind == TEXT:
        return CellValue(TEXT, rng.choice(col.choices))
    return CellValue(ITEMIZED, rng.choice(col.codes))


def generate_corpus(config: GeneratorConfig) -> Corpus:
    """Deterministically generate a corpus from a seeded config."""
    config.validate()
    rng = random.Random(config.seed)
    window = OBSERVATION_WINDOW_HOURS * 3600
    patients = []
    for i in range(config.n_patients):
        n_events = rng.randint(*config.events_per_patient)
        events = []
        for _ in range(n_events):
            table = rng.choice(config.tables)
            ts = rng.randrange(window)
            cells = tuple((c.name, _generate_cell(rng, c)) for c in table.columns)
            events.append(EventRecord(table.name, cells, ts))
        patients.append(PatientRecord(f"p{i:05d}", events, labels={"outcome": rng.randint(0, 1)}))
    # valid by construction from a valid config; `corpus_files` checks it on write
    return Corpus(patients, dict(config.definitions), list(config.tables))


# A generator config's JSON keys, each with its converter (`manifest.json_fields`).
_COLUMN_KEYS = {"name": STRING, "type": STRING, "low": NUMBER, "high": NUMBER,
                "decimals": INTEGER, "choices": STRINGS, "codes": STRINGS}
_TABLE_KEYS = {"name": STRING, "columns": json_entries(ColumnSpec, _COLUMN_KEYS)}
_CONFIG_KEYS = {"seed": INTEGER, "n_patients": INTEGER,
                "events_per_patient": json_list("two integers", int, 2),
                "tables": json_entries(TableSpec, _TABLE_KEYS),
                "definitions": lambda key, defs: {code: STRING(f"{key} {code!r}", text)
                                                  for code, text in OBJECT(key, defs).items()}}


def load_generator_config(path: Path | str) -> GeneratorConfig:
    """Read and validate a generator config; any fault in it names the file."""
    with reading(f"malformed generator config {path}", CorpusError):
        config = GeneratorConfig(**json_fields(GeneratorConfig, json_doc(Path(path).read_text()),
                                               _CONFIG_KEYS))
        config.validate()
    return config


# --- disk format ------------------------------------------------------------
#
# One tab-delimited file per table ("<table>.tsv"), header row:
#   patient_id  timestamp_seconds  <column names...>
# plus "definitions.tsv" (code, description) and "schema.json" declaring
# per-column types.

@dataclass(frozen=True)
class _Patient:
    """A `schema.json` patient entry."""
    id: str
    labels: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class _Schema:
    """The `schema.json` document: each column declares its name and type alone."""
    tables: tuple[TableSpec, ...]
    patients: tuple[_Patient, ...] = ()


_SCHEMA_KEYS = {
    "tables": json_entries(TableSpec, {
        "name": STRING, "columns": json_entries(ColumnSpec, {"name": STRING, "type": STRING})}),
    "patients": json_entries(_Patient, {"id": STRING, "labels": lambda key, labels: {
        name: INTEGER(f"{key} {name!r}", value) for name, value in OBJECT(key, labels).items()}})}
_TSV_UNSAFE = re.compile(r"[\t\n\r]")
_TIMESTAMP = re.compile(r"\d{1,4300}", re.ASCII)  # whole seconds: ASCII digits that `int` reads
_TIMESTAMPS = re.compile(r"\d{1,4300}(?:\t\d{1,4300})*", re.ASCII)  # a column of them, tab-joined


def _tsv_row(fields: list[str], names: list[str], where: str) -> str:
    """Fields joined by tabs; a field holding a tab or line break is refused,
    since the file could not be read back."""
    line = "\t".join(fields)
    if line.count("\t") != len(fields) - 1 or "\n" in line or "\r" in line:
        name, value = next((n, v) for n, v in zip(names, fields) if _TSV_UNSAFE.search(v))
        raise CorpusError(f"{where}, column {name!r}: {value!r} holds a tab or line break")
    return line


def _header(table: TableSpec) -> list[str]:  # a table file's first row
    return ["patient_id", "timestamp_seconds"] + [c.name for c in table.columns]


def corpus_files(corpus: Corpus) -> dict[str, str]:
    """The files of a corpus directory, name -> text, in one walk that checks
    each event before writing its row: time order, exactly its schema table's
    columns, the declared kinds, resolvable itemized codes.  A bad schema, an
    empty patient id or a value the format cannot hold is refused too."""
    _check_schema(corpus.schema)
    headers = {t.name: _header(t) for t in corpus.schema}
    known = {t.name: {c.name: c.kind for c in t.columns} for t in corpus.schema}
    tables = {name: [_tsv_row(header, header, f"table {name!r}")]
              for name, header in headers.items()}
    for i, p in enumerate(corpus.patients):
        if not p.patient_id:
            raise CorpusError(f"patient at position {i}: empty patient id")
        prev = -1
        for e in p.events:
            if e.timestamp < prev:
                raise CorpusError(f"{_at(p, e)}: events out of order")
            prev = e.timestamp
            kinds, cells = known.get(e.table_name), dict(e.columns)
            if kinds is None:
                raise CorpusError(f"{_at(p, e)}: table not in the schema")
            if len(e.columns) != len(kinds) or cells.keys() != kinds.keys():
                raise CorpusError(f"{_at(p, e)}, {_column_mismatch(list(kinds), e.columns)}")
            for col, cell in e.columns:
                if cell.kind != kinds[col]:
                    raise CorpusError(f"{_at(p, e)}, column {col!r}: cell kind {cell.kind} "
                                      f"does not match declared {kinds[col]}")
                if cell.kind == ITEMIZED and cell.value not in corpus.definitions:
                    raise CorpusError(f"{_at(p, e)}, column {col!r}: "
                                      f"unresolvable itemized code {cell.value!r}")
            row = [p.patient_id, str(e.timestamp)] + [cells[name].value for name in kinds]
            tables[e.table_name].append(_tsv_row(row, headers[e.table_name], _at(p, e)))
    files = {f"{name}.tsv": "\n".join(lines) + "\n" for name, lines in tables.items()}

    files["definitions.tsv"] = "".join(
        _tsv_row([code, desc], ["code", "description"], "definitions") + "\n"
        for code, desc in sorted(corpus.definitions.items())
    )
    schema = {
        "tables": [
            {
                "name": t.name,
                "columns": [{"name": c.name, "type": c.kind} for c in t.columns],
            }
            for t in corpus.schema
        ],
        "patients": [{"id": p.patient_id, "labels": p.labels} for p in corpus.patients],
    }
    files["schema.json"] = json_text(schema)
    return files


def save_corpus(corpus: Corpus, out_dir: Path | str) -> None:
    """Write a corpus directory; nothing is written if `corpus_files` refuses."""
    files = corpus_files(corpus)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (Path(out_dir) / name).write_text(content)


@dataclass
class TableColumns:
    """One schema table's kept rows, column by column: each row's patient id
    and timestamp, and per schema column each row's (column, cell) pair.
    Equal cells of a column share one pair object."""

    name: str
    patient_ids: list[str]
    timestamps: list[int]
    cells: list[list[tuple[str, CellValue]]]


@dataclass
class CorpusColumns:
    """A corpus directory read by columns, after the cohort filter."""

    patient_ids: list[str]  # the kept patients, sorted
    labels: dict[str, dict[str, int]]
    definitions: dict[str, str]
    schema: list[TableSpec]
    tables: list[TableColumns]


def _read_table(table_path: Path, table: TableSpec, definitions: dict[str, str]) -> TableColumns:
    """A table file's rows, column by column, every row checked.

    Each check runs over a whole column; the lowest-numbered bad row is
    named, and within a row the first of field count, patient id, timestamp,
    then cells left to right.  Blank lines count toward row numbers."""
    if not table_path.exists():
        raise CorpusError(f"missing table file {table_path}")
    with reading(table_path, CorpusError):
        lines = table_path.read_text().split("\n")
    expected = _header(table)
    if lines == [""]:
        return TableColumns(table.name, [], [], [[] for _ in table.columns])
    header = lines[0].split("\t")
    if header != expected:
        raise CorpusError(f"{table_path}: header {header} does not match schema {expected}")
    body = lines[1:]
    if body and not body[-1]:
        body.pop()  # the line break ending the file
    row_nos = range(2, len(body) + 2)
    if not all(map(str.strip, body)):
        row_nos = [n for n, line in zip(row_nos, body) if line.strip()]
        body = [line for line in body if line.strip()]
    rows = [line.split("\t") for line in body]
    faults = []  # (row position, check order, message) of each check's first bad row
    if set(map(len, rows)) - {len(expected)}:
        short = next(i for i, fields in enumerate(rows) if len(fields) != len(expected))
        faults.append((short, 0, "unpaired column/cell row"))
        rows = rows[:short]  # later rows cannot be named
    columns = list(zip(*rows)) or [()] * len(expected)
    pids, stamps = columns[0], columns[1]
    if "" in pids:
        faults.append((pids.index(""), 1, "empty patient id"))
    if stamps and not _TIMESTAMPS.fullmatch("\t".join(stamps)):
        bad = next(i for i, ts in enumerate(stamps) if not _TIMESTAMP.fullmatch(ts))
        faults.append((bad, 2, f"bad timestamp {stamps[bad]!r}"))
    cells = []
    for order, (spec, values) in enumerate(zip(table.columns, columns[2:]), start=3):
        pairs = {}  # value -> its checked (column, cell) pair
        for value in dict.fromkeys(values):  # in order of first row
            try:
                if spec.kind == ITEMIZED and value not in definitions:
                    raise CorpusError(f"unknown code {value!r}")
                pairs[value] = (spec.name, CellValue(spec.kind, value))
            except CorpusError as exc:
                faults.append((values.index(value), order, f"column {spec.name!r}: {exc}"))
                break
        if not faults:
            cells.append(list(map(pairs.__getitem__, values)))
    if faults:
        row, _, message = min(faults)
        raise CorpusError(f"{table_path}:{row_nos[row]}: {message}")
    return TableColumns(table.name, list(pids), list(map(int, stamps)), cells)


def _read_columns(path: Path | str) -> CorpusColumns:
    """Read a corpus directory by columns and apply the cohort filter.

    A schema naming a table or column twice, with a blank name or an unknown
    column type, is refused naming `schema.json` before any table file is read.  Rows failing the declared column type,
    itemized codes missing from the definitions file, and definitions rows
    without exactly one tab or repeating a code are load errors naming the
    offending row.  A patient is kept with at least MIN_EVENTS rows before
    OBSERVATION_WINDOW_HOURS, and only those rows of a kept patient are.
    """
    root = Path(path)
    schema_path = root / "schema.json"
    if not schema_path.exists():
        raise CorpusError(f"missing schema sidecar {schema_path}")
    with reading(schema_path, CorpusError):
        doc = _Schema(**json_fields(_Schema, json_doc(schema_path.read_text()), _SCHEMA_KEYS))
        _check_schema(doc.tables)
        labels = {p.id: p.labels for p in doc.patients}
        if len(labels) < len(doc.patients):
            twice = next(i for i, n in Counter(p.id for p in doc.patients).items() if n > 1)
            raise CorpusError(f"patient {twice!r}: listed twice in the schema")
    schema = list(doc.tables)

    definitions: dict[str, str] = {}
    defs_path = root / "definitions.tsv"
    if defs_path.exists():
        with reading(defs_path, CorpusError):
            rows = defs_path.read_text().split("\n")
        for row_no, line in enumerate(rows, start=1):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise CorpusError(f"{defs_path}:{row_no}: expected code<TAB>description")
            if fields[0] in definitions:
                raise CorpusError(f"{defs_path}:{row_no}: code {fields[0]!r} given twice")
            definitions[fields[0]] = fields[1]

    tables = [_read_table(root / f"{t.name}.tsv", t, definitions) for t in schema]

    window = OBSERVATION_WINDOW_HOURS * 3600
    in_window: Counter[str] = Counter()
    for t in tables:
        in_window.update(compress(t.patient_ids, map(window.__gt__, t.timestamps)))
    kept = {pid for pid, n in in_window.items() if n >= MIN_EVENTS}
    for t in tables:
        mask = list(map(and_, map(window.__gt__, t.timestamps), map(kept.__contains__,
                                                                   t.patient_ids)))
        if not all(mask):
            t.patient_ids = list(compress(t.patient_ids, mask))
            t.timestamps = list(compress(t.timestamps, mask))
            t.cells = [list(compress(pairs, mask)) for pairs in t.cells]
    return CorpusColumns(sorted(kept), labels, definitions, schema, tables)


def load_corpus(path: Path | str, events: bool = True) -> Corpus | CorpusColumns:
    """Load a corpus directory.  It is read by columns (`CorpusColumns`), and
    that is returned when `events` is false; otherwise each kept patient gets
    its events in schema table order, then file row order, then stably sorted
    by timestamp (non-monotone timestamps are sorted, not rejected).  Every
    invariant that `corpus_files` checks holds by construction."""
    read = _read_columns(path)
    if not events:
        return read
    by_patient: dict[str, list[EventRecord]] = {pid: [] for pid in read.patient_ids}
    for t in read.tables:
        for pid, ts, cells in zip(t.patient_ids, t.timestamps, zip(*t.cells)):
            by_patient[pid].append(EventRecord(t.name, cells, ts))
    patients = [PatientRecord(pid, by_patient[pid], read.labels.get(pid, {}))
                for pid in read.patient_ids]
    return Corpus(patients, read.definitions, read.schema)
