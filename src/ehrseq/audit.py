"""Quality scoring of generated event streams against a triple set.

The triple set records, per (table, column), either the observed numeric
[min, max] or the admissible subword units from real data.  Generated
events pass a syntax check (starts with a table name, columns and contents
paired, table/column known) and then a semantics check per column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .corpus import NUMERIC, CellValue, Corpus, CorpusColumns, is_decimal
from .serializer import NOT_TABLE_FIRST, UNPAIRED_COLUMN, ReconstructedEvent, textualize_cell
from .vocab import Vocabulary, tokenize


class AuditError(ValueError):
    pass


# defect kinds, in check order; the serializer defines the first two, and marks them
UNKNOWN_TABLE_COLUMN = "unknown_table_column"
NUMERIC_OUT_OF_RANGE = "numeric_out_of_range"
UNKNOWN_SUBWORD = "unknown_subword"

DEFECTS = (NOT_TABLE_FIRST, UNPAIRED_COLUMN, UNKNOWN_TABLE_COLUMN, NUMERIC_OUT_OF_RANGE,
           UNKNOWN_SUBWORD)


@dataclass
class NumericRange:
    low: float
    high: float


@dataclass
class SubwordSet:
    units: set[str]


def name_key(name: str) -> str:
    """The audit's one name rule: a table or column name is its casefolded
    words, one space apart, and names with the same key are one name."""
    return " ".join(name.casefold().split())


def _name_pattern(names: set[str]) -> re.Pattern:
    """Matches a space and the longest of `names` (keys) whose words follow
    it whole, the name as group 1: names with most words are tried first."""
    ordered = sorted(names, key=lambda name: (-name.count(" "), name))
    alternatives = "|".join(map(re.escape, ordered)) or "(?!)"  # no names: never matches
    return re.compile(r" (%s)(?![^ ])" % alternatives)


@dataclass
class TripleSet:
    content: dict[tuple[str, str], NumericRange | SubwordSet]  # by (table, column)

    def __post_init__(self):  # a triple set is not changed once built
        self.columns: dict[str, set[str]] = {}  # table -> column names, from content's keys
        for table, column in self.content:
            self.columns.setdefault(table, set()).add(column)
        self.tables = set(self.columns)
        for name in sorted(self.tables.union(*self.columns.values())):
            if not name.strip():
                raise AuditError(f"blank table or column name {name!r}")
            if name != name_key(name):
                raise AuditError(f"table or column name {name!r} is not its casefolded words")
        self._table_pattern = _name_pattern(self.tables)
        self._column_patterns = {t: _name_pattern(cols) for t, cols in self.columns.items()}
        # check_event's memo, (table, column) -> content -> verdict (a defect
        # or None), for one vocabulary; checking under another starts anew
        self._verdict_vocab, self._verdicts = None, {}


def _parse_decimal(text: str) -> Optional[float]:
    """Parse content text as a decimal, reassembling spaced digits first."""
    compact = text.replace(" ", "")
    return float(compact) if is_decimal(compact) else None


def build_triples(real: Corpus | CorpusColumns, vocab: Vocabulary) -> TripleSet:
    """Refined triple set from a real corpus, in memory or read by columns.

    A (table, column) is numeric iff every observed content parses as a
    decimal; numeric columns keep [min, max], text columns the union of
    subword units over all observed contents.  Table and column names are
    keyed by `name_key`, so names with the same casefolded words are merged.
    """
    # (table name, (column, cell) pairs): one group per table column of a corpus
    # read by columns, whose equal cells share one pair object, and one per event
    # of a `Corpus`; each group's distinct pair objects are looked at once
    if isinstance(real, CorpusColumns):
        groups = ((t.name, pairs) for t in real.tables for pairs in t.cells)
    else:
        groups = ((e.table_name, e.columns) for p in real.patients for e in p.events)
    observed: dict[tuple[str, str], list[CellValue]] = {}  # equal cells may repeat
    for table, pairs in groups:
        table = name_key(table)
        for col_name, cell in {id(p): p for p in pairs}.values():
            observed.setdefault((table, name_key(col_name)), []).append(cell)
    if not observed:
        raise AuditError("cannot build triples from an empty corpus")

    content: dict[tuple[str, str], NumericRange | SubwordSet] = {}
    for key, cells in observed.items():
        texts = {textualize_cell(c, real.definitions) for c in cells if c.kind != NUMERIC}
        # a numeric cell was checked as a decimal when it was made
        values = [float(c.value) for c in cells if c.kind == NUMERIC]
        values += map(_parse_decimal, texts)
        if None not in values:
            content[key] = NumericRange(min(values), max(values))
        else:
            texts.update(textualize_cell(c, real.definitions) for c in cells if c.kind == NUMERIC)
            units: set[str] = set()
            for t in texts:
                units.update(tokenize(t, vocab))
            content[key] = SubwordSet(units)
    return TripleSet(content)


def _structure_raw_event(event: ReconstructedEvent, triples: TripleSet) -> ReconstructedEvent:
    """Infer (table, (column, content) pairs) from a raw word list.

    The words are casefolded and each is led by a space.  The longest table
    name they start with is the table; then come alternately the longest
    column name of that table and the content words, as written, up to the
    next word that starts a column name.
    """
    words = event.words or []
    text = " " + " ".join(words).casefold()
    structured = ReconstructedEvent(timegap=event.timegap)
    table = triples._table_pattern.match(text)
    if table is None:
        structured.defect = NOT_TABLE_FIRST
        return structured
    structured.table = table[1]
    # words before the first column name, then each column name and the words after it
    parts = triples._column_patterns[table[1]].split(text[table.end():])
    if parts[0]:
        structured.defect = UNKNOWN_TABLE_COLUMN
        return structured
    n = table[1].count(" ") + 1  # words read
    for name, content in zip(parts[1::2], parts[2::2]):
        n += name.count(" ") + 1
        n_content = content.count(" ")
        if not n_content:
            structured.defect = UNPAIRED_COLUMN
            return structured
        structured.pairs.append((name, " ".join(words[n:n + n_content])))
        n += n_content
    return structured


_UNCHECKED = object()  # a verdict memo's miss; None is a verdict


def _pair_defect(table: str, col_name: str, content: str, triples: TripleSet,
                 vocab: Vocabulary) -> Optional[str]:
    """The semantics check of one (column, content) pair of a known table."""
    admissible = triples.content.get((table, name_key(col_name)))
    if admissible is None:
        return UNKNOWN_TABLE_COLUMN
    if isinstance(admissible, NumericRange):
        value = _parse_decimal(content)
        if value is None or not (admissible.low <= value <= admissible.high):
            return NUMERIC_OUT_OF_RANGE
    elif any(u not in admissible.units for u in tokenize(content, vocab)):
        return UNKNOWN_SUBWORD
    return None


def check_event(event: ReconstructedEvent, triples: TripleSet,
                vocab: Vocabulary) -> Optional[str]:
    """Syntax then semantics check of one reconstructed event: its first
    defect, or None when the event is correct.  Each distinct (table,
    column, content) is checked once per triple set and vocabulary."""
    if event.words is not None and event.defect is None:
        event = _structure_raw_event(event, triples)
    if event.defect is not None:
        return event.defect

    if event.table is None:
        return NOT_TABLE_FIRST
    table = name_key(event.table)
    if table not in triples.tables:
        return UNKNOWN_TABLE_COLUMN
    if not event.pairs:
        return UNPAIRED_COLUMN
    if triples._verdict_vocab is not vocab:
        triples._verdict_vocab, triples._verdicts = vocab, {}
    verdicts = triples._verdicts
    for col_name, content in event.pairs:
        known = verdicts.get((table, col_name))
        if known is None:
            known = verdicts[table, col_name] = {}
        defect = known.get(content, _UNCHECKED)
        if defect is _UNCHECKED:
            defect = known[content] = _pair_defect(table, col_name, content, triples, vocab)
        if defect is not None:
            return defect
    return None


@dataclass
class AuditReport:
    rce: Optional[float]
    rue: Optional[float]
    rcs: Optional[float]
    total_events: int
    unique_events: int
    total_samples: int
    defect_counts: dict[str, int] = field(default_factory=dict)


def score(generated: Iterable[list[ReconstructedEvent]], triples: TripleSet,
          vocab: Vocabulary) -> AuditReport:
    """RCE over events, RUE over deduplicated events, RCS over samples.

    A sample is correct iff all its events are; a sample with no events
    counts incorrect.  Empty denominators yield null metrics.  Samples are
    counted as they are iterated, and each is dropped before the next is
    drawn, so a generator of samples holds one sample's events at a time
    plus one key per distinct event.
    """
    total_events = 0
    correct_events = 0
    unique: dict[str | tuple, bool] = {}
    n_samples = 0
    correct_samples = 0
    defect_counts = {k: 0 for k in DEFECTS}

    for sample in generated:
        n_samples += 1
        sample_ok = bool(sample)
        for event in sample:
            defect = check_event(event, triples, vocab)
            total_events += 1
            if defect is None:
                correct_events += 1
            else:
                defect_counts[defect] += 1
                sample_ok = False
            unique.setdefault(event.key(), defect is None)
        if sample_ok:
            correct_samples += 1
        del sample  # before the next sample is drawn

    n_unique = len(unique)
    return AuditReport(
        rce=correct_events / total_events if total_events else None,
        rue=sum(unique.values()) / n_unique if n_unique else None,
        rcs=correct_samples / n_samples if n_samples else None,
        total_events=total_events,
        unique_events=n_unique,
        total_samples=n_samples,
        defect_counts=defect_counts,
    )
