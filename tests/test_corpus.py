import dataclasses

import pytest
from hypothesis import given, strategies as st

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


def test_split_sizes_8_1_1():
    corpus = C.generate_corpus(C.default_config(seed=2, n_patients=10))
    train, valid, test = C.split_cohort(corpus, (0.8, 0.1, 0.1), seed=0)
    assert (len(train.patients), len(valid.patients), len(test.patients)) == (8, 1, 1)


def test_split_all_train():
    corpus = C.generate_corpus(C.default_config(seed=2, n_patients=10))
    train, valid, test = C.split_cohort(corpus, (1.0, 0.0, 0.0), seed=0)
    assert len(train.patients) == 10
    assert not valid.patients and not test.patients


def test_split_partition_is_exact():
    corpus = C.generate_corpus(C.default_config(seed=4, n_patients=23))
    parts = C.split_cohort(corpus, (0.8, 0.1, 0.1), seed=5)
    ids = [p.patient_id for part in parts for p in part.patients]
    assert sorted(ids) == sorted(p.patient_id for p in corpus.patients)
    assert len(set(ids)) == len(ids)


def test_split_stratified_within_one():
    corpus = C.generate_corpus(C.default_config(seed=6, n_patients=100))
    # force an exact 50/50 label balance
    for i, p in enumerate(corpus.patients):
        p.labels["outcome"] = i % 2
    parts = C.split_cohort(corpus, (0.8, 0.1, 0.1), seed=1, stratify_on="outcome")
    for part, expected in zip(parts, (80, 10, 10)):
        positives = sum(p.labels["outcome"] for p in part.patients)
        assert abs(positives - len(part.patients) / 2) <= 1
        assert abs(len(part.patients) - expected) <= 1


def test_split_missing_label_errors():
    corpus = C.generate_corpus(C.default_config(seed=2, n_patients=4))
    with pytest.raises(C.CorpusError):
        C.split_cohort(corpus, (0.8, 0.1, 0.1), seed=0, stratify_on="nonexistent")


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
