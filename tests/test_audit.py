import pytest

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
    verdict = A.check_event(event("lab", [("value", "5 . 5")]), triples, vocab)
    assert verdict.correct and verdict.defect is None


def test_check_numeric_out_of_range(triples_fixture):
    triples, vocab = triples_fixture
    verdict = A.check_event(event("lab", [("value", "9 . 9")]), triples, vocab)
    assert verdict.defect == A.NUMERIC_OUT_OF_RANGE


def test_check_range_endpoints_inclusive(triples_fixture):
    triples, vocab = triples_fixture
    for content in ("3 . 1", "7 . 4"):
        assert A.check_event(event("lab", [("value", content)]), triples, vocab).correct


def test_check_correct_text(triples_fixture):
    triples, vocab = triples_fixture
    verdict = A.check_event(
        event("prescription", [("drug", "saline saline")]), triples, vocab)
    assert verdict.correct


def test_check_unknown_subword(triples_fixture):
    triples, vocab = triples_fixture
    verdict = A.check_event(
        event("prescription", [("drug", "heparin")]), triples, vocab)
    assert verdict.defect == A.UNKNOWN_SUBWORD


def test_check_unknown_table(triples_fixture):
    triples, vocab = triples_fixture
    verdict = A.check_event(event("surgery", [("value", "5")]), triples, vocab)
    assert verdict.defect == A.UNKNOWN_TABLE_COLUMN


def test_check_unknown_column(triples_fixture):
    triples, vocab = triples_fixture
    verdict = A.check_event(event("lab", [("drug", "saline")]), triples, vocab)
    assert verdict.defect == A.UNKNOWN_TABLE_COLUMN


def test_check_carries_serializer_defects(triples_fixture):
    triples, vocab = triples_fixture
    bad = event(defect=S.DEFECT_NOT_TABLE_FIRST)
    assert A.check_event(bad, triples, vocab).defect == A.NOT_TABLE_FIRST
    cut = event("lab", defect=S.DEFECT_UNPAIRED_COLUMN)
    assert A.check_event(cut, triples, vocab).defect == A.UNPAIRED_COLUMN


def test_raw_words_structured_and_checked(triples_fixture):
    triples, vocab = triples_fixture
    ok = event(words=["lab", "value", "6", ".", "0"])
    assert A.check_event(ok, triples, vocab).correct
    bad_start = event(words=["value", "6"])
    assert A.check_event(bad_start, triples, vocab).defect == A.NOT_TABLE_FIRST
    dangling = event(words=["lab", "value"])
    assert A.check_event(dangling, triples, vocab).defect == A.UNPAIRED_COLUMN


def test_raw_words_multiword_content(triples_fixture):
    triples, vocab = triples_fixture
    raw = event(words=["prescription", "drug", "normal", "saline"])
    assert A.check_event(raw, triples, vocab).correct


def test_verdict_must_be_exclusive():
    with pytest.raises(A.AuditError):
        A.EventVerdict(True, A.UNKNOWN_SUBWORD)
    with pytest.raises(A.AuditError):
        A.EventVerdict(False)


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

