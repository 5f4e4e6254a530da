import dataclasses
import tempfile
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ehrseq import audit as A
from ehrseq import corpus as C
from ehrseq import serializer as S
from ehrseq.serializer import ReconstructedEvent
from ehrseq.vocab import RESERVED, Vocabulary, build_vocabulary, tokenize

from conftest import corpus_texts


def event(table=None, pairs=(), timegap="[tg0]", defect=None, words=None):
    return ReconstructedEvent(
        table=table, pairs=list(pairs), timegap=timegap, defect=defect,
        words=list(words) if words is not None else None,
    )


@pytest.fixture(scope="module")
def triples_fixture():
    """Tiny real corpus: numeric lab.value, text prescription.drug."""
    patients = [
        C.PatientRecord(f"p{i}", [
            C.EventRecord("lab", (("value", C.numeric(v)),), timestamp=0),
            C.EventRecord("prescription", (("drug", C.text(d)),), timestamp=600),
        ])
        for i, (v, d) in enumerate([("3.1", "normal saline"),
                                    ("7.4", "saline flush"),
                                    ("5.0", "normal saline")])
    ]
    schema = [
        C.TableSpec("lab", (C.ColumnSpec("value", "numeric"),)),
        C.TableSpec("prescription", (C.ColumnSpec("drug", "text"),)),
    ]
    corpus = C.Corpus(patients, {}, schema)
    vocab = build_vocabulary(list(corpus_texts(corpus)))
    return A.build_triples(corpus, vocab), vocab


def test_build_triples_numeric_range(triples_fixture):
    triples, _ = triples_fixture
    admissible = triples.content[("lab", "value")]
    assert isinstance(admissible, A.NumericRange)
    assert (admissible.low, admissible.high) == (3.1, 7.4)


def test_build_triples_subword_set(triples_fixture):
    triples, vocab = triples_fixture
    admissible = triples.content[("prescription", "drug")]
    assert isinstance(admissible, A.SubwordSet)
    for word in ("normal", "saline", "flush"):
        for unit in tokenize(word, vocab):
            assert unit in admissible.units


def test_build_triples_empty_corpus():
    with pytest.raises(A.AuditError):
        A.build_triples(C.Corpus([], {}, {}), Vocabulary(list(RESERVED)))


def test_check_correct_numeric(triples_fixture):
    triples, vocab = triples_fixture
    assert A.check_event(event("lab", [("value", "5 . 5")]), triples, vocab) is None


def test_check_numeric_out_of_range(triples_fixture):
    triples, vocab = triples_fixture
    defect = A.check_event(event("lab", [("value", "9 . 9")]), triples, vocab)
    assert defect == A.NUMERIC_OUT_OF_RANGE


def test_check_range_endpoints_inclusive(triples_fixture):
    triples, vocab = triples_fixture
    for content in ("3 . 1", "7 . 4"):
        assert A.check_event(event("lab", [("value", content)]), triples, vocab) is None


def test_check_correct_text(triples_fixture):
    triples, vocab = triples_fixture
    defect = A.check_event(
        event("prescription", [("drug", "saline saline")]), triples, vocab)
    assert defect is None


def test_check_unknown_subword(triples_fixture):
    triples, vocab = triples_fixture
    defect = A.check_event(
        event("prescription", [("drug", "heparin")]), triples, vocab)
    assert defect == A.UNKNOWN_SUBWORD


def test_check_unknown_table(triples_fixture):
    triples, vocab = triples_fixture
    defect = A.check_event(event("surgery", [("value", "5")]), triples, vocab)
    assert defect == A.UNKNOWN_TABLE_COLUMN


def test_check_unknown_column(triples_fixture):
    triples, vocab = triples_fixture
    defect = A.check_event(event("lab", [("drug", "saline")]), triples, vocab)
    assert defect == A.UNKNOWN_TABLE_COLUMN


def test_check_carries_serializer_defects(triples_fixture):
    triples, vocab = triples_fixture
    bad = event(defect=S.NOT_TABLE_FIRST)
    assert A.check_event(bad, triples, vocab) == A.NOT_TABLE_FIRST
    cut = event("lab", defect=S.UNPAIRED_COLUMN)
    assert A.check_event(cut, triples, vocab) == A.UNPAIRED_COLUMN


def test_raw_words_structured_and_checked(triples_fixture):
    triples, vocab = triples_fixture
    ok = event(words=["lab", "value", "6", ".", "0"])
    assert A.check_event(ok, triples, vocab) is None
    bad_start = event(words=["value", "6"])
    assert A.check_event(bad_start, triples, vocab) == A.NOT_TABLE_FIRST
    dangling = event(words=["lab", "value"])
    assert A.check_event(dangling, triples, vocab) == A.UNPAIRED_COLUMN


def test_raw_words_multiword_content(triples_fixture):
    triples, vocab = triples_fixture
    raw = event(words=["prescription", "drug", "normal", "saline"])
    assert A.check_event(raw, triples, vocab) is None


def test_raw_names_are_matched_casefolded_as_labeled_names_are(triples_fixture):
    triples, vocab = triples_fixture
    raw = event(words=["LAB", "Value", "5"])
    structured = A._structure_raw_event(raw, triples)
    assert (structured.table, structured.pairs) == ("lab", [("value", "5")])
    twin = event("LAB", [("Value", "5")])
    assert A.check_event(raw, triples, vocab) is A.check_event(twin, triples, vocab) is None


def test_score_event_and_sample_rates(triples_fixture):
    triples, vocab = triples_fixture
    good = event("lab", [("value", "5 . 0")])
    bad = event("lab", [("value", "9 . 9")])
    samples = [
        [good, good, good], [good, good, bad],
        [good] * 5,
    ]
    report = A.score(samples, triples, vocab)
    assert report.rce == pytest.approx(10 / 11)
    assert report.rcs == pytest.approx(2 / 3)
    assert report.total_events == 11 and report.total_samples == 3
    assert report.defect_counts[A.NUMERIC_OUT_OF_RANGE] == 1


def test_score_unique_rate_deduplicates(triples_fixture):
    triples, vocab = triples_fixture
    good = event("lab", [("value", "5 . 0")])
    bad = event("lab", [("value", "9 . 9")])
    report = A.score([[good, good, good, bad]], triples, vocab)
    assert report.unique_events == 2
    assert report.rue == pytest.approx(1 / 2)
    assert report.rce == pytest.approx(3 / 4)


def test_score_empty_sample_counts_incorrect(triples_fixture):
    triples, vocab = triples_fixture
    good = event("lab", [("value", "5 . 0")])
    report = A.score([[good], []], triples, vocab)
    assert report.rcs == pytest.approx(1 / 2)
    assert report.rce == 1.0


def test_score_no_samples(triples_fixture):
    triples, vocab = triples_fixture
    report = A.score([], triples, vocab)
    assert report.rce is None and report.rue is None and report.rcs is None


def test_self_audit_scores_one(small_corpus, small_vocab):
    """Serialized real data audited against its own triples is fully correct."""
    triples = A.build_triples(small_corpus, small_vocab)
    samples = []
    for patient in small_corpus.patients:
        stream = S.build_hierarchical(
            patient, small_vocab, small_corpus.definitions)
        samples.append(S.detokenize_events(stream, small_vocab))
    report = A.score(samples, triples, small_vocab)
    assert report.rce == 1.0 and report.rue == 1.0 and report.rcs == 1.0


def test_corruption_lowers_scores(small_corpus, small_vocab):
    triples = A.build_triples(small_corpus, small_vocab)
    patient = small_corpus.patients[0]
    stream = S.build_hierarchical(patient, small_vocab, small_corpus.definitions)
    events = S.detokenize_events(stream, small_vocab)
    clean = A.score([events], triples, small_vocab)
    corrupted = [ReconstructedEvent(
        table="nonexistent", pairs=e.pairs, timegap=e.timegap) for e in events]
    dirty = A.score([corrupted], triples, small_vocab)
    assert clean.rce == 1.0 and dirty.rce == 0.0
    assert dirty.defect_counts[A.UNKNOWN_TABLE_COLUMN] == len(events)



def build_triples_per_occurrence(real, vocab):
    """Reference: every cell occurrence textualized, parsed and tokenized."""
    observed = {}
    for p in real.patients:
        for e in p.events:
            for col_name, cell in e.columns:
                key = tuple(" ".join(name.casefold().split()) for name in (e.table_name, col_name))
                observed.setdefault(key, []).append(S.textualize_cell(cell, real.definitions))
    content = {}
    for key, texts in observed.items():
        values = [A._parse_decimal(t) for t in texts]
        if all(v is not None for v in values):
            content[key] = A.NumericRange(min(values), max(values))
        else:
            content[key] = A.SubwordSet({u for t in texts for u in tokenize(t, vocab)})
    return A.TripleSet(content)


def test_build_triples_matches_the_per_occurrence_build(tmp_path, small_corpus, small_vocab):
    C.save_corpus(small_corpus, tmp_path)
    for corpus in (small_corpus, C.load_corpus(tmp_path)):
        built = A.build_triples(corpus, small_vocab)
        assert built == build_triples_per_occurrence(corpus, small_vocab)
        assert any(isinstance(c, A.NumericRange) for c in built.content.values())
        assert any(isinstance(c, A.SubwordSet) for c in built.content.values())


_NAMES = st.sampled_from(["lab", "Lab", "LAB", "item id", "item  id", "Item ID", "value"])
_CELLS = {C.NUMERIC: st.sampled_from(["1", "-2.5", "10.0", "0.25"]).map(C.numeric),
          C.TEXT: st.sampled_from(["aspirin", "Aspirin", "oral route", "1.5", "7"]).map(C.text),
          C.ITEMIZED: st.sampled_from(["c1", "c2"]).map(C.itemized)}
_WINDOW = C.OBSERVATION_WINDOW_HOURS * 3600


@st.composite
def corpora(draw):
    """Corpora whose table and column names may differ only in case and
    spacing, and whose patients may have too few events inside the
    observation window."""
    schema = [C.TableSpec(name, tuple(C.ColumnSpec(col, draw(st.sampled_from(list(_CELLS))))
                                      for col in draw(st.lists(_NAMES, min_size=1, max_size=3,
                                                               unique=True))))
              for name in draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))]
    patients = []
    for i in range(draw(st.integers(0, 5))):
        events = []
        for _ in range(draw(st.integers(0, 9))):
            table = draw(st.sampled_from(schema))
            events.append(C.EventRecord(
                table.name, tuple((c.name, draw(_CELLS[c.kind])) for c in table.columns),
                draw(st.sampled_from([0, 60, _WINDOW - 1, _WINDOW, _WINDOW + 60]))))
        patients.append(C.PatientRecord(f"p{i}", events))
    return C.Corpus(patients, {"c1": "Sodium Level", "c2": "sodium"}, schema)


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_triples_read_by_columns_match_the_loaded_corpus_and_the_reference(corpus):
    vocab = build_vocabulary(S.corpus_texts(corpus))
    with tempfile.TemporaryDirectory() as directory:
        C.save_corpus(corpus, directory)
        loaded = C.load_corpus(directory)
        by_columns = C.load_corpus(directory, events=False)
    assert by_columns.patient_ids == [p.patient_id for p in loaded.patients]
    if not loaded.patients:
        for real in (by_columns, loaded):
            with pytest.raises(A.AuditError, match="empty corpus"):
                A.build_triples(real, vocab)
        return
    built = A.build_triples(by_columns, vocab)
    assert built == A.build_triples(loaded, vocab) == build_triples_per_occurrence(loaded, vocab)


def structure_by_scan(words, triples):
    """Reference: at each position try every name on the casefolded words;
    the longest match wins."""
    def match(pos, names):
        best = None
        for name in names:
            if [w.casefold() for w in words[pos:pos + len(name.split())]] == name.split():
                if best is None or len(name.split()) > len(best.split()):
                    best = name
        return best

    out = ReconstructedEvent(timegap="[tg1]")
    table = match(0, triples.tables) if words else None
    if table is None:
        out.defect = A.NOT_TABLE_FIRST
        return out
    out.table, pos = table, len(table.split())
    names = triples.columns.get(table, set())
    while pos < len(words):
        col = match(pos, names)
        if col is None:
            out.defect = A.UNKNOWN_TABLE_COLUMN
            return out
        pos += len(col.split())
        content = []
        while pos < len(words) and match(pos, names) is None:
            content.append(words[pos])
            pos += 1
        if not content:
            out.defect = A.UNPAIRED_COLUMN
            return out
        out.pairs.append((col, " ".join(content)))
    return out


def names_only(columns):
    """A triple set of these tables' columns, every column admitting no unit;
    a table without columns has no triple, so it is no table of the set."""
    return A.TripleSet({(t, c): A.SubwordSet(set()) for t, names in columns.items()
                        for c in names})


def test_a_triple_set_is_its_content():
    triples = names_only({"lab": ["value", "unit"], "drug": ["dose"], "note": []})
    assert [f.name for f in dataclasses.fields(triples)] == ["content"]
    assert triples.tables == {"lab", "drug"}
    assert triples.columns == {"lab": {"value", "unit"}, "drug": {"dose"}}


# names of one to three words that often share a first word, some of them
# regular-expression characters; the words may also differ from a name's in case
_NAME_WORDS = ["a", "b", "c", "a.b", "*", "(", "\\"]
NAMES = st.lists(st.sampled_from(_NAME_WORDS), min_size=1, max_size=3).map(" ".join)


@given(st.sets(NAMES, min_size=1, max_size=5).flatmap(
           lambda tables: st.fixed_dictionaries({t: st.sets(NAMES, max_size=5) for t in tables})),
       st.lists(st.sampled_from(_NAME_WORDS + ["z", "axb", "A", "A.B"]), max_size=10))
def test_raw_structuring_matches_a_longest_prefix_scan(columns, words):
    triples = names_only(columns)
    raw = event(words=words, timegap="[tg1]")
    assert A._structure_raw_event(raw, triples) == structure_by_scan(words, triples)


def test_names_with_the_same_casefolded_words_are_one_triple():
    patients = [C.PatientRecord("p0", [
        C.EventRecord("lab", ((name, C.numeric(v)),), timestamp=0)
        for name, v in (("item id", "1"), ("item  id", "3"), ("Item ID", "2"))])]
    corpus = C.Corpus(patients, {}, [])
    triples = A.build_triples(corpus, Vocabulary(list(RESERVED)))
    assert triples.content == {("lab", "item id"): A.NumericRange(1.0, 3.0)}


def test_a_name_that_is_not_its_key_is_refused_by_the_triple_set():
    with pytest.raises(A.AuditError, match="column name 'item  id' is not its casefolded words"):
        names_only({"lab": ["value", "item  id"]})


def test_blank_names_are_refused_by_the_triple_set():
    with pytest.raises(A.AuditError, match="blank table or column name ' '"):
        names_only({"lab": ["value", " "]})


def score_per_event(samples, triples, vocab):
    """Reference: each event checked on its own, against a triple set with an
    empty verdict memo, then counted as `score` counts."""
    def fresh():
        return A.TripleSet(triples.content)

    defects = [[A.check_event(e, fresh(), vocab) for e in sample] for sample in samples]
    flat = [(e, d) for sample, ds in zip(samples, defects) for e, d in zip(sample, ds)]
    unique = {}
    for e, d in flat:
        unique.setdefault(e.key(), d is None)
    n_ok = sum(d is None for _, d in flat)
    n_samples_ok = sum(bool(ds) and all(d is None for d in ds) for ds in defects)
    return A.AuditReport(
        rce=n_ok / len(flat) if flat else None,
        rue=sum(unique.values()) / len(unique) if unique else None,
        rcs=n_samples_ok / len(samples) if samples else None,
        total_events=len(flat), unique_events=len(unique), total_samples=len(samples),
        defect_counts={k: sum(d == k for _, d in flat) for k in A.DEFECTS})


WORDS = ["lab", "value", "prescription", "drug", "5", ".", "0", "9", "3", "1",
         "saline", "normal", "heparin", "x"]
CONTENTS = st.sampled_from(["5 . 0", "9 . 9", "3 . 1", "7 . 4", "x", "saline", "normal saline",
                            "heparin", "saline flush", "5 0"])
EVENTS = st.one_of(
    st.builds(event, st.sampled_from(["lab", "prescription", "LAB", "surgery", None]),
              st.lists(st.tuples(st.sampled_from(["value", "drug", "Value", "dose"]), CONTENTS),
                       max_size=3),
              defect=st.sampled_from([None, None, None, A.NOT_TABLE_FIRST, A.UNPAIRED_COLUMN])),
    st.builds(event, words=st.lists(st.sampled_from(WORDS), max_size=8)),
)


@settings(deadline=None)
@given(st.lists(st.lists(EVENTS, max_size=6), max_size=6))
def test_score_matches_a_per_event_check_without_memo(triples_fixture, samples):
    triples, vocab = triples_fixture
    assert A.score(samples, triples, vocab) == score_per_event(samples, triples, vocab)


@settings(deadline=None)
@given(st.lists(st.lists(EVENTS, max_size=4), max_size=6))
def test_score_of_an_iterator_equals_score_of_the_list(triples_fixture, samples):
    """Samples are counted as they are drawn, empty ones and none at all included."""
    triples, vocab = triples_fixture
    report = A.score(iter(samples), triples, vocab)
    assert report == A.score(samples, triples, vocab)
    assert report.total_samples == len(samples)


def test_score_drops_each_sample_before_drawing_the_next(triples_fixture):
    triples, vocab = triples_fixture

    class Sample(list):  # a list that a weak reference can follow
        pass

    drawn, alive_at_draw = [], []

    def samples():
        for words in (["lab", "value", "5", ".", "0"], [], ["drug"], ["lab", "value", "9"]):
            alive_at_draw.append(sum(ref() is not None for ref in drawn))
            sample = Sample([event(words=words)] if words else [])
            drawn.append(weakref.ref(sample))
            yield sample
            del sample

    report = A.score(samples(), triples, vocab)
    assert report.total_samples == 4 and alive_at_draw == [0, 0, 0, 0]


def test_verdicts_are_kept_per_vocabulary(triples_fixture):
    """A triple set's verdict memo holds for one vocabulary: checked under
    another, a content is tokenized by that one."""
    triples, vocab = triples_fixture
    letters = Vocabulary(RESERVED + sorted(set("salinedrug")))
    saline = event("prescription", [("drug", "saline")])
    assert A.check_event(saline, triples, vocab) is None
    assert A.check_event(saline, triples, letters) == A.UNKNOWN_SUBWORD
    assert A.check_event(saline, triples, vocab) is None
