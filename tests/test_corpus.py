import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ehrseq import audit as A
from ehrseq import corpus as C
from ehrseq import serializer as S


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generation_is_deterministic(tmp_path):
    config = C.default_config(seed=7, n_patients=12)
    a = C.generate_corpus(config)
    b = C.generate_corpus(config)
    C.save_corpus(a, tmp_path / "a")
    C.save_corpus(b, tmp_path / "b")
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")


def test_zero_patients():
    config = dataclasses.replace(C.default_config(seed=1), n_patients=0)
    assert C.generate_corpus(config).patients == []


def test_numeric_range_respected_by_scan():
    config = C.default_config(seed=5, n_patients=30)
    tables = tuple(
        C.TableSpec(
            t.name,
            tuple(
                dataclasses.replace(c, low=3.0, high=7.0) if c.kind == C.NUMERIC else c
                for c in t.columns
            ),
        )
        for t in config.tables
    )
    config = dataclasses.replace(config, tables=tables)
    corpus = C.generate_corpus(config)
    scanned = 0
    for p in corpus.patients:
        for e in p.events:
            for _, cell in e.columns:
                if cell.kind == C.NUMERIC:
                    assert 3.0 <= float(cell.value) <= 7.0
                    scanned += 1
    assert scanned > 0


@pytest.mark.parametrize("make, reason", [
    (lambda: C.CellValue("date", "1"), "unknown cell kind 'date'"),
    (lambda: C.EventRecord("", (("drug", C.text("aspirin")),), 0), "event with empty table name"),
    (lambda: C.EventRecord("lab", (("drug", C.text("aspirin")),), -1), "negative event timestamp"),
], ids=["cell-kind", "empty-table-name", "negative-timestamp"])
def test_records_refuse_what_no_corpus_holds(make, reason):
    with pytest.raises(C.CorpusError, match=f"^{reason}$"):
        make()


def test_invalid_configs_rejected():
    config = C.default_config()
    with pytest.raises(C.CorpusError):
        dataclasses.replace(config, n_patients=-1).validate()
    with pytest.raises(C.CorpusError):
        dataclasses.replace(config, tables=()).validate()
    with pytest.raises(C.CorpusError):
        dataclasses.replace(config, events_per_patient=(2, 8)).validate()


def test_save_load_roundtrip(tmp_path):
    corpus = C.generate_corpus(C.default_config(seed=3, n_patients=8))
    C.save_corpus(corpus, tmp_path)
    loaded = C.load_corpus(tmp_path)
    assert [p.patient_id for p in loaded.patients] == [p.patient_id for p in corpus.patients]
    for orig, back in zip(corpus.patients, loaded.patients):
        assert len(orig.events) == len(back.events)
        assert [e.table_name for e in orig.events] == [e.table_name for e in back.events]


WINDOW = C.OBSERVATION_WINDOW_HOURS * 3600
_UNSAFE = re.compile(r"[\t\n\r]")
# schema names hold at least one word (blank names are refused)
_SCHEMA_NAMES = st.text(alphabet="abcxyz _", min_size=1, max_size=5).filter(lambda name: name.split())


@st.composite
def corpora(draw):
    """Corpora inside the cohort filter whose ids, cells and definitions are
    arbitrary text; patients come in id order, as a corpus directory lists them."""
    definitions = draw(st.dictionaries(st.text(max_size=4), st.text(max_size=6),
                                       min_size=1, max_size=3))
    cells = {
        C.NUMERIC: st.from_regex(r"-?[0-9]+(\.[0-9]+)?", fullmatch=True).map(C.numeric),
        C.TEXT: st.text(max_size=6).map(C.text),
        C.ITEMIZED: st.sampled_from(sorted(definitions)).map(C.itemized),
    }
    schema = [
        C.TableSpec(name, tuple(C.ColumnSpec(col, draw(st.sampled_from(sorted(cells))))
                                for col in draw(st.lists(_SCHEMA_NAMES, min_size=1,
                                                         max_size=3, unique=True))))
        for name in draw(st.lists(_SCHEMA_NAMES, min_size=1, max_size=3, unique=True))
    ]
    timestamps = st.one_of(st.integers(0, 2), st.integers(0, WINDOW - 1))
    patients = []
    for pid in sorted(draw(st.lists(st.text(min_size=1, max_size=5), max_size=3, unique=True))):
        events = []
        for _ in range(draw(st.integers(C.MIN_EVENTS, C.MIN_EVENTS + 3))):
            table = draw(st.sampled_from(schema))
            row = tuple((c.name, draw(cells[c.kind])) for c in table.columns)
            events.append(C.EventRecord(table.name, row, draw(timestamps)))
        labels = draw(st.dictionaries(st.text(max_size=3), st.integers(0, 1), max_size=2))
        patients.append(C.PatientRecord(pid, events, labels))
    return C.Corpus(patients, definitions, schema)


def _tsv_fields(corpus):
    for code, description in corpus.definitions.items():
        yield code
        yield description
    for p in corpus.patients:
        yield p.patient_id
        for e in p.events:
            yield from (cell.value for _, cell in e.columns)


@settings(deadline=None)
@given(corpora())
def test_save_then_load_gives_back_the_corpus(corpus):
    unsafe = any(_UNSAFE.search(field) for field in _tsv_fields(corpus))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "corpus"
        if unsafe:
            with pytest.raises(C.CorpusError, match="holds a tab or line break"):
                C.save_corpus(corpus, out)
            assert not out.exists()
            return
        C.save_corpus(corpus, out)
        loaded = C.load_corpus(out)
    assert loaded.schema == corpus.schema
    assert loaded.definitions == corpus.definitions
    # One file per table keeps no order between same-timestamp events of
    # different tables: they load back in schema order.
    table_order = {t.name: i for i, t in enumerate(corpus.schema)}
    def events(p):
        return sorted(p.events, key=lambda e: (e.timestamp, table_order[e.table_name]))
    assert [(p.patient_id, p.labels, events(p)) for p in loaded.patients] == \
        [(p.patient_id, p.labels, events(p)) for p in corpus.patients]


@pytest.mark.parametrize("patient_id, cell, column", [
    ("p\t1", "aspirin", "patient_id"),
    ("p1", "as\npirin", "drug"),
    ("p1", "as\rpirin", "drug"),
])
def test_save_refuses_unstorable_values_before_writing(tmp_path, patient_id, cell, column):
    event = C.EventRecord("prescription", (("drug", C.text(cell)),), 0)
    corpus = C.Corpus([C.PatientRecord(patient_id, [event] * C.MIN_EVENTS)], {},
                      [C.TableSpec("prescription", (C.ColumnSpec("drug", C.TEXT),))])
    with pytest.raises(C.CorpusError) as info:
        C.save_corpus(corpus, tmp_path / "out")
    assert str(info.value).startswith(
        f"patient {patient_id!r}, table 'prescription', column {column!r}: ")
    assert not (tmp_path / "out").exists()


def _event_with(columns, table):
    cells = tuple((name, C.numeric("1.0") if name == "dose" else
                   C.itemized("99999") if name == "item id" else C.text("oral"))
                  for name in columns)
    return C.EventRecord(table, cells, 0)


@pytest.mark.parametrize("columns, table, where", [
    (["drug", "dose"], "prescription",
     "table 'prescription', column 'route': missing from the event"),
    (["drug", "dose", "route", "site"], "prescription",
     "table 'prescription', column 'site': not in the schema"),
    (["drug", "dose", "route", "dose"], "prescription",
     "table 'prescription', column 'dose': given twice"),
    (["drug", "dose", "route"], "vitals", "table 'vitals': table not in the schema"),
    (["value", "item id", "unit"], "lab",
     "table 'lab', column 'value': cell kind text does not match declared numeric"),
    (["item id", "value", "unit"], "lab",
     "table 'lab', column 'item id': unresolvable itemized code '99999'"),
])
def test_save_refuses_events_off_the_schema(tmp_path, columns, table, where):
    corpus = C.generate_corpus(C.default_config(seed=3, n_patients=2))
    corpus.patients[1].events.insert(0, _event_with(columns, table))
    with pytest.raises(C.CorpusError, match=f"^patient 'p00001', {where}"):
        C.save_corpus(corpus, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_save_refuses_events_out_of_time_order(tmp_path):
    corpus = C.generate_corpus(C.default_config(seed=3, n_patients=2))
    events = corpus.patients[1].events
    events.reverse()  # after construction, which sorts them
    where = f"patient 'p00001', table {events[1].table_name!r}"
    with pytest.raises(C.CorpusError, match=f"^{where}: events out of order$"):
        C.save_corpus(corpus, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_load_applies_the_cohort_filter(tmp_path):
    def events(timestamps):
        return [C.EventRecord("prescription", (("drug", C.text("aspirin")),), ts)
                for ts in timestamps]
    inside = list(range(C.MIN_EVENTS))
    corpus = C.Corpus(
        [C.PatientRecord("kept", events(inside + [WINDOW])),
         C.PatientRecord("too few", events(inside[1:])),
         C.PatientRecord("too late", events(inside[1:] + [WINDOW]))],
        {}, [C.TableSpec("prescription", (C.ColumnSpec("drug", C.TEXT),))])
    C.save_corpus(corpus, tmp_path)
    loaded = C.load_corpus(tmp_path)
    assert [p.patient_id for p in loaded.patients] == ["kept"]
    assert [e.timestamp for e in loaded.patients[0].events] == inside


def _config_json(config):
    doc = dataclasses.asdict(config)
    for table in doc["tables"]:
        for col in table["columns"]:
            col["type"] = col.pop("kind")
    return doc


def test_table_named_twice_is_refused(tmp_path):
    twice = "^table 'lab': named twice in the schema$"
    config = C.default_config(seed=3, n_patients=4)
    with pytest.raises(C.CorpusError, match=twice):
        C.generate_corpus(dataclasses.replace(config, tables=config.tables + config.tables[:1]))
    corpus = C.generate_corpus(config)
    with pytest.raises(C.CorpusError, match=twice):
        C.corpus_files(dataclasses.replace(corpus, schema=corpus.schema + corpus.schema[:1]))
    C.save_corpus(corpus, tmp_path)
    schema = json.loads((tmp_path / "schema.json").read_text())
    schema["tables"].append(schema["tables"][0])
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    with pytest.raises(C.CorpusError, match=re.escape(f"{tmp_path / 'schema.json'}: ")
                       + twice[1:]):
        C.load_corpus(tmp_path)


def test_column_named_twice_is_refused(tmp_path):
    twice = "^table 'lab', column 'unit': named twice in the schema$"
    config = C.default_config(seed=3, n_patients=4)
    lab = config.tables[0]
    doubled = dataclasses.replace(lab, columns=lab.columns + lab.columns[-1:])
    with pytest.raises(C.CorpusError, match=twice):
        C.generate_corpus(dataclasses.replace(config, tables=(doubled,) + config.tables[1:]))
    corpus = C.generate_corpus(config)
    with pytest.raises(C.CorpusError, match=twice):
        C.corpus_files(dataclasses.replace(corpus, schema=[doubled] + corpus.schema[1:]))


_UNIT = {"name": "unit", "type": "text"}


@pytest.mark.parametrize("tables, reason", [
    ([{"name": "lab", "columns": [_UNIT]}] * 2, "table 'lab': named twice in the schema"),
    ([{"name": "lab", "columns": [_UNIT] * 2}],
     "table 'lab', column 'unit': named twice in the schema"),
    ([{"name": " ", "columns": [_UNIT]}], "table ' ': blank name in the schema"),
    ([{"name": 5, "columns": [_UNIT]}], "tables[0]: name must be a JSON string"),
    ([{"name": "lab", "columns": "abc"}],
     "tables[0] 'lab': columns must be a JSON list of objects"),
    ([{"name": "lab"}], "tables[0] 'lab': missing field 'columns'"),
    ([{"name": "lab", "columns": [{"name": "unit"}]}],
     "tables[0] 'lab', columns[0] 'unit': missing field 'type'"),
    ([{"name": "lab", "columns": [{**_UNIT, "type": "banana"}]}],
     "column lab.unit: unknown type 'banana'"),
    ("lab", "tables must be a JSON list of objects"),
], ids=["table-twice", "column-twice", "blank-table", "name-a-number", "columns-a-string",
        "no-columns", "no-type", "unknown-type", "tables-a-string"])
def test_load_refuses_a_bad_schema_before_reading_any_table(tmp_path, tables, reason):
    """The directory holds no table file: the schema error comes first, naming the schema."""
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"tables": tables}))
    with pytest.raises(C.CorpusError, match=f"^{re.escape(f'{path}: {reason}')}$"):
        C.load_corpus(tmp_path)


@pytest.mark.parametrize("blank", ["", " ", "\u00a0"])
def test_blank_names_are_refused(tmp_path, blank):
    config = C.default_config(seed=3, n_patients=5)
    lab = config.tables[0]
    renamed = dataclasses.replace(lab, columns=(dataclasses.replace(lab.columns[0], name=blank),)
                                  + lab.columns[1:])
    column = "^" + re.escape(f"table 'lab', column {blank!r}: blank name in the schema") + "$"
    with pytest.raises(C.CorpusError, match=column):
        C.generate_corpus(dataclasses.replace(config, tables=(renamed,) + config.tables[1:]))
    corpus = C.generate_corpus(config)
    with pytest.raises(C.CorpusError, match=re.escape(f"table {blank!r}: blank name")):
        C.corpus_files(dataclasses.replace(
            corpus, schema=[dataclasses.replace(lab, name=blank)] + corpus.schema[1:]))
    C.save_corpus(corpus, tmp_path)
    schema = json.loads((tmp_path / "schema.json").read_text())
    schema["tables"][0]["columns"][0]["name"] = blank
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    lab_path = tmp_path / "lab.tsv"
    lines = lab_path.read_text().split("\n")
    lines[0] = lines[0].replace("item id", blank)
    lab_path.write_text("\n".join(lines))
    with pytest.raises(C.CorpusError, match=re.escape(f"{tmp_path / 'schema.json'}: ")
                       + column[1:]):
        C.load_corpus(tmp_path)


def test_a_bad_cell_that_repeats_names_its_first_row(tmp_path):
    """A value is checked once per load, keyed by column, kind and value: its
    first bad row is named, and a value good in one column does not pass
    unchecked in a column of another kind."""
    schema = {"tables": [{"name": "note", "columns": [{"name": "value", "type": "text"}]},
                         {"name": "lab", "columns": [{"name": "value", "type": "numeric"},
                                                     {"name": "item", "type": "itemized"}]}]}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    (tmp_path / "definitions.tsv").write_text("50001\tsodium\n")
    (tmp_path / "note.tsv").write_text("patient_id\ttimestamp_seconds\tvalue\np1\t0\tabc\n")
    lab = tmp_path / "lab.tsv"
    header = "patient_id\ttimestamp_seconds\tvalue\titem\n"
    rows = ["p1\t1\t5\t50001", "p1\t2\t5\t50001", "p1\t3\tabc\t50001", "p1\t4\tabc\t50001"]
    lab.write_text(header + "\n".join(rows) + "\n")
    with pytest.raises(C.CorpusError) as info:
        C.load_corpus(tmp_path)
    assert str(info.value) == f"{lab}:4: column 'value': numeric cell 'abc' is not a finite decimal"
    rows = ["p1\t1\t5\t50001", "p1\t2\t5\t50009", "p1\t3\t5\t50009"]
    lab.write_text(header + "\n".join(rows) + "\n")
    with pytest.raises(C.CorpusError) as info:
        C.load_corpus(tmp_path)
    assert str(info.value) == f"{lab}:3: column 'item': unknown code '50009'"


def test_corpus_files_walks_each_patients_events_once():
    class Events(list):  # a list that counts the walks over it
        walks = 0

        def __iter__(self):
            Events.walks += 1
            return super().__iter__()

    corpus = C.generate_corpus(C.default_config(seed=3, n_patients=4))
    for p in corpus.patients:
        p.events = Events(p.events)
    C.corpus_files(corpus)
    assert Events.walks == len(corpus.patients)


def test_table_without_columns_is_refused(tmp_path):
    with pytest.raises(C.CorpusError, match="^table 'lab' has no columns$"):
        C.TableSpec("lab", ())
    C.save_corpus(C.generate_corpus(C.default_config(seed=3, n_patients=5)), tmp_path)
    schema_path = tmp_path / "schema.json"
    schema = json.loads(schema_path.read_text())
    schema["tables"][1]["columns"] = []
    schema_path.write_text(json.dumps(schema))
    with pytest.raises(C.CorpusError) as info:
        C.load_corpus(tmp_path)
    assert str(info.value) == f"{schema_path}: table 'prescription' has no columns"
    config_path = tmp_path / "config.json"
    config = _config_json(C.default_config(seed=3, n_patients=5))
    config["tables"][0]["columns"] = []
    config_path.write_text(json.dumps(config))
    with pytest.raises(C.CorpusError, match="table 'lab' has no columns$"):
        C.load_generator_config(config_path)


@pytest.mark.parametrize("rows, row, reason", [
    (["p1\t1\t5\t50001", "p1\t2\tabc\t50001", "p1\tx\t5\t50001"],
     3, "column 'value': numeric cell 'abc' is not a finite decimal"),
    (["p1\t1\t5\t50009", "p1\t2"], 2, "column 'item': unknown code '50009'"),
    (["p1\t1\t5\t50001", "p1\t2\t5\t50001\tx", "\t3\t5\t50001"], 3,
     "unpaired column/cell row"),
    (["p1\t1\t5\t50001", "\t-1\tabc\t50009", "p1"], 3, "empty patient id"),
    (["p1\t-1\tabc\t50009", "\t1\t5\t50001"], 2, "bad timestamp '-1'"),
    (["p1\t1\t5\t50009", "p1\t1\tabc\t50009"], 2, "column 'item': unknown code '50009'"),
    (["p1\t1\tabc\t50009", "p1\t1\t5\t50009"], 2,
     "column 'value': numeric cell 'abc' is not a finite decimal"),
    (["p1\t1\t5\t50001", "", "   ", "\t\t\t", "p1\t2\tabc\t50001", "p1\t+3\t5\t50001"],
     6, "column 'value': numeric cell 'abc' is not a finite decimal"),
    (["", "p1\t1\t5", "", "p1\t2\t5\t50001"], 3, "unpaired column/cell row"),
    (["p1\t1\t5\t50001", f"p1\t{'1' * 4301}\tabc\t50001"], 3, f"bad timestamp '{'1' * 4301}'"),
    ([f"p1\t{'1' * 4300}\tabc\t50001"], 2,
     "column 'value': numeric cell 'abc' is not a finite decimal"),
], ids=["lower-row-later-check", "lower-row-before-a-short-row", "short-row-before-empty-id",
        "empty-id-before-timestamp-and-cells", "timestamp-before-cells", "cell-on-lower-row",
        "cells-left-to-right", "blank-lines-count", "blank-lines-count-before-a-short-row",
        "over-4300-digits-before-cells", "4300-digits-read"])
def test_load_names_the_first_bad_row_and_its_first_fault(tmp_path, rows, row, reason):
    """Every check runs over the whole table, yet the error names the
    lowest-numbered bad row and, within it, the first failing check in the
    order field count, patient id, timestamp, cells left to right."""
    schema = {"tables": [{"name": "lab", "columns": [{"name": "value", "type": "numeric"},
                                                     {"name": "item", "type": "itemized"}]}]}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    (tmp_path / "definitions.tsv").write_text("50001\tsodium\n")
    lab = tmp_path / "lab.tsv"
    lab.write_text("patient_id\ttimestamp_seconds\tvalue\titem\n" + "\n".join(rows) + "\n")
    for events in (True, False):
        with pytest.raises(C.CorpusError) as info:
            C.load_corpus(tmp_path, events=events)
        assert str(info.value) == f"{lab}:{row}: {reason}"


def test_empty_patient_id_is_refused(tmp_path):
    event = C.EventRecord("prescription", (("drug", C.text("aspirin")),), 0)
    schema = [C.TableSpec("prescription", (C.ColumnSpec("drug", C.TEXT),))]
    corpus = C.Corpus([C.PatientRecord("p1", [event] * C.MIN_EVENTS),
                       C.PatientRecord("", [event] * C.MIN_EVENTS)], {}, schema)
    with pytest.raises(C.CorpusError, match="^patient at position 1: empty patient id$"):
        C.save_corpus(corpus, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    corpus.patients.pop()
    C.save_corpus(corpus, tmp_path / "out")
    table = tmp_path / "out" / "prescription.tsv"
    table.write_text(table.read_text() + "\t0\taspirin\n")
    with pytest.raises(C.CorpusError) as info:
        C.load_corpus(tmp_path / "out")
    assert str(info.value) == f"{table}:{C.MIN_EVENTS + 2}: empty patient id"


@pytest.mark.parametrize("row, reason", [
    ("50009", "expected code<TAB>description"),
    ("50009\tsodium\tlevel", "expected code<TAB>description"),
    ("50001\tsodium again", "code '50001' given twice"),
])
def test_load_names_row_of_bad_definition(tmp_path, row, reason):
    C.save_corpus(C.generate_corpus(C.default_config(seed=3, n_patients=5)), tmp_path)
    defs = tmp_path / "definitions.tsv"
    lines = defs.read_text().splitlines()
    assert lines[0].startswith("50001\t")
    lines.insert(1, row)
    defs.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.CorpusError) as info:
        C.load_corpus(tmp_path)
    assert str(info.value) == f"{defs}:2: {reason}"


def test_generator_config_file_roundtrip(tmp_path):
    config = C.default_config(seed=4, n_patients=9)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_json(config)))
    assert C.load_generator_config(path) == config


def test_generator_config_defaults_come_from_the_dataclass(tmp_path):
    doc = _config_json(C.default_config())
    del doc["seed"], doc["events_per_patient"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = C.load_generator_config(path)
    assert (config.seed, config.events_per_patient) == (0, (C.MIN_EVENTS, 12))


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc.update(observation_window_hours=24),
     "unknown key 'observation_window_hours'"),
    (lambda doc: doc["tables"][0]["columns"][0].update(kind="numeric"), "unknown key 'kind'"),
    (lambda doc: doc.pop("n_patients"), "n_patients"),
    (lambda doc: doc.update(events_per_patient=[2, 8]), "minimum is 5"),
    (lambda doc: doc["tables"][0]["columns"][0].update(type="foo"), "unknown type 'foo'"),
    # a string is not split into one-character cells
    (lambda doc: doc["tables"][1]["columns"][2].update(choices="oral"),
     "choices must be a JSON list of strings"),
    (lambda doc: doc["tables"][0]["columns"][0].update(codes="50001"),
     "codes must be a JSON list of strings"),
    (lambda doc: doc["tables"][0]["columns"][0].update(codes=[50001]),
     "codes must be a JSON list of strings"),
    (lambda doc: doc.update(events_per_patient="58"),
     "events_per_patient must be a JSON list of two integers"),
    (lambda doc: doc.update(events_per_patient=[5, 8, 12]),
     "events_per_patient must be a JSON list of two integers"),
    (lambda doc: doc.update(events_per_patient=[5.0, 8]),
     "events_per_patient must be a JSON list of two integers"),
    (lambda doc: doc.update(n_patients=2.9), "n_patients must be a JSON integer"),
    (lambda doc: doc.update(n_patients=True), "n_patients must be a JSON integer"),
    (lambda doc: doc.update(seed="7"), "seed must be a JSON integer"),
    (lambda doc: doc["tables"][0]["columns"][1].update(decimals=1.5),
     "decimals must be a JSON integer"),
    (lambda doc: doc["tables"][0]["columns"][1].update(low=True), "low must be a JSON number"),
    (lambda doc: doc["tables"][0]["columns"][1].update(high="9"), "high must be a JSON number"),
    (lambda doc: doc["tables"][0]["columns"][1].update(type=3), "type must be a JSON string"),
    (lambda doc: doc["tables"][0]["columns"][0].update(name=5), "name must be a JSON string"),
    (lambda doc: doc["tables"][0].update(name=5), "name must be a JSON string"),
    (lambda doc: doc.update(definitions={"1": 5}), "definitions '1' must be a JSON string"),
    # a container of the wrong JSON type names its key
    (lambda doc: doc.update(definitions=["50001"]), "definitions must be a JSON object"),
    (lambda doc: doc.update(tables=5), "tables must be a JSON list of objects"),
    (lambda doc: doc.update(tables=["lab"]), "tables must be a JSON list of objects"),
    (lambda doc: doc["tables"][0].update(columns={"a": 1}),
     "columns must be a JSON list of objects"),
])
def test_generator_config_faults_name_the_file(tmp_path, edit, reason):
    doc = _config_json(C.default_config())
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(C.CorpusError, match=reason) as info:
        C.load_generator_config(path)
    assert str(info.value).startswith(f"malformed generator config {path}: ")


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc["tables"][1]["columns"][2].update(choices="oral"),
     "tables[1] 'prescription', columns[2] 'route': choices must be a JSON list of strings"),
    (lambda doc: doc["tables"][2]["columns"][0].update(kind="numeric"),
     "tables[2] 'infusion', columns[0] 'item id': unknown key 'kind'"),
    (lambda doc: doc["tables"][0]["columns"][1].pop("type"),
     "tables[0] 'lab', columns[1] 'value': missing field 'type'"),
    (lambda doc: doc["tables"][0]["columns"][1].update(high="9"),
     "tables[0] 'lab', columns[1] 'value': high must be a JSON number"),
    # a name that is not a string is not shown
    (lambda doc: doc["tables"][0]["columns"][2].update(name=5),
     "tables[0] 'lab', columns[2]: name must be a JSON string"),
    (lambda doc: doc["tables"][1].update(name=["prescription"]),
     "tables[1]: name must be a JSON string"),
    (lambda doc: doc["tables"][1].update(columns={"a": 1}),
     "tables[1] 'prescription': columns must be a JSON list of objects"),
    (lambda doc: doc["tables"][2].update(columns=[*doc["tables"][2]["columns"], "rate"]),
     "tables[2] 'infusion': columns must be a JSON list of objects"),
    (lambda doc: doc["tables"][1].update(rows=3), "tables[1] 'prescription': unknown key 'rows'"),
    # faults outside the lists, and checks of the built config, are as before
    (lambda doc: doc.update(tables=["lab"]), "tables must be a JSON list of objects"),
    (lambda doc: doc["tables"][1].update(columns=[]), "table 'prescription' has no columns"),
    (lambda doc: doc["tables"][0]["columns"][1].update(low=9, high=1),
     "column lab.value: range min > max"),
], ids=["column-choices", "column-unknown-key", "column-no-type", "column-high", "column-name",
        "table-name", "table-columns", "table-column-a-string", "table-unknown-key",
        "tables-of-strings", "table-without-columns", "column-range"])
def test_generator_config_faults_name_the_entry(tmp_path, edit, reason):
    """A fault in a table or column entry names its place in its list and,
    when it is a string, its name."""
    doc = _config_json(C.default_config())
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(C.CorpusError) as info:
        C.load_generator_config(path)
    assert str(info.value) == f"malformed generator config {path}: {reason}"


def test_generator_config_malformed_json_names_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{")
    with pytest.raises(C.CorpusError, match=f"malformed generator config {path}: "):
        C.load_generator_config(path)


@pytest.mark.parametrize("schema, reason", [
    ({}, "missing field 'tables'"),
    ({"tables": [{"name": "lab"}]}, "missing field 'columns'"),
    ([], r"expected a JSON object, got \[\]"),
    ("{", "Expecting"),
    ({"tables": [], "patients": [{"id": "p", "labels": {"outcome": float("nan")}}]},
     "non-finite number NaN is not JSON"),
])
def test_load_names_malformed_schema(tmp_path, schema, reason):
    path = tmp_path / "schema.json"
    path.write_text(schema if isinstance(schema, str) else json.dumps(schema))
    with pytest.raises(C.CorpusError, match=reason) as info:
        C.load_corpus(tmp_path)
    assert str(info.value).startswith(f"{path}: ")


def test_load_rejects_bad_numeric(tmp_path):
    corpus = C.generate_corpus(C.default_config(seed=3, n_patients=5))
    C.save_corpus(corpus, tmp_path)
    lab = tmp_path / "lab.tsv"
    lines = lab.read_text().splitlines()
    fields = lines[1].split("\t")
    fields[3] = "abc"  # 'value' column is numeric-declared
    lines[1] = "\t".join(fields)
    lab.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.CorpusError, match="value"):
        C.load_corpus(tmp_path)


def test_load_empty_tables_gives_zero_patients(tmp_path):
    corpus = C.generate_corpus(C.default_config(seed=3, n_patients=5))
    C.save_corpus(corpus, tmp_path)
    for table in corpus.schema:
        path = tmp_path / f"{table.name}.tsv"
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n")
    assert C.load_corpus(tmp_path).patients == []
    (tmp_path / "lab.tsv").write_text("")  # an empty file holds no rows either
    assert C.load_corpus(tmp_path).patients == []


@pytest.mark.parametrize("timestamp", ["+1", "\u0661", " 1", "1 ", "1e3", "-5",
                                       pytest.param("9" * 5000, id="5000-digits")])
def test_load_names_row_of_bad_timestamp(tmp_path, timestamp):
    C.save_corpus(C.generate_corpus(C.default_config(seed=3, n_patients=5)), tmp_path)
    lab = tmp_path / "lab.tsv"
    lines = lab.read_text().split("\n")
    fields = lines[1].split("\t")
    fields[1] = timestamp
    lines[1] = "\t".join(fields)
    lab.write_text("\n".join(lines))
    with pytest.raises(C.CorpusError) as info:
        C.load_corpus(tmp_path)
    assert str(info.value) == f"{lab}:2: bad timestamp {timestamp!r}"


def test_load_sorts_non_monotone_timestamps(tmp_path):
    corpus = C.generate_corpus(C.default_config(seed=9, n_patients=5))
    C.save_corpus(corpus, tmp_path)
    lab = tmp_path / "lab.tsv"
    lines = lab.read_text().splitlines()
    if len(lines) > 2:
        lines[1], lines[2] = lines[2], lines[1]
        lab.write_text("\n".join(lines) + "\n")
    loaded = C.load_corpus(tmp_path)
    for p in loaded.patients:
        timestamps = [e.timestamp for e in p.events]
        assert timestamps == sorted(timestamps)


def _accepts(parse, value):
    try:
        parse(value)
    except ValueError:
        return False
    return True


@given(st.one_of(st.from_regex(r"-?[0-9]+(\.[0-9]+)?", fullmatch=True),
                 st.text(alphabet="0123456789.-+eE_nanif\u0663\t", max_size=8)))
def test_corpus_serializer_and_audit_share_one_decimal_grammar(value):
    corpus = _accepts(C.numeric, value)
    dpe = _accepts(S._numeric_dpe_labels, value)
    # audit reads a numeric cell in its textualized, character-spaced form
    audit = A._parse_decimal(" ".join(value)) is not None
    assert corpus == dpe == audit


@pytest.mark.parametrize("value", ["nan", "-inf", "1e5", "1_000", " 12", "12.", ".5",
                                   "+1", "\u0663", ""])
def test_non_decimals_rejected(value):
    with pytest.raises(C.CorpusError, match="not a finite decimal"):
        C.numeric(value)
    with pytest.raises(S.SerializeError):
        S._numeric_dpe_labels(value)


def test_audit_reassembles_spaced_decimals_only():
    assert A._parse_decimal("- 1 2 . 5") == -12.5
    assert A._parse_decimal("n a n") is None
    assert A._parse_decimal("1 _ 0") is None


def test_load_names_row_of_non_decimal(tmp_path):
    corpus = C.generate_corpus(C.default_config(seed=3, n_patients=5))
    C.save_corpus(corpus, tmp_path)
    lab = tmp_path / "lab.tsv"
    lines = lab.read_text().splitlines()
    fields = lines[1].split("\t")
    fields[3] = "1e5"
    lines[1] = "\t".join(fields)
    lab.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.CorpusError, match=f"{lab}:2: column 'value': .*'1e5'"):
        C.load_corpus(tmp_path)
