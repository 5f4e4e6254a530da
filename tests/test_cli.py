import gc
import hashlib
import json
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ehrseq
from ehrseq import audit as audit_mod
from ehrseq import corpus as corpus_mod
from ehrseq import planner, serializer
from ehrseq.analyzer import analysis_report
from ehrseq.cli import main
from ehrseq.manifest import json_text
from ehrseq.serializer import SerializerConfig, dense_stream, load_streams, save_streams
from ehrseq.vocab import PAD_ID, Vocabulary, is_timegap_id
from ehrseq.vq import Codebook


@pytest.fixture()
def runner():
    return CliRunner()


def dir_digest(path):
    parts = []
    for p in sorted(Path(path).rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            parts.append(p.name.encode() + p.read_bytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


def test_gen_is_deterministic(runner, tmp_path):
    for sub in ("a", "b"):
        result = runner.invoke(main, ["gen", "--seed", "7", "--n-patients", "8",
                                      "--out", str(tmp_path / sub)])
        assert result.exit_code == 0, result.output
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")
    assert (tmp_path / "a" / "manifest.json").exists()


def test_gen_seed_changes_output(runner, tmp_path):
    for seed, sub in ((1, "a"), (2, "b")):
        runner.invoke(main, ["gen", "--seed", str(seed), "--n-patients", "8",
                             "--out", str(tmp_path / sub)])
    assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")


def test_gen_missing_config_fails(runner, tmp_path):
    result = runner.invoke(main, ["gen", "--config", str(tmp_path / "nope.json"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1


def test_load_reports_counts(runner, tmp_path):
    runner.invoke(main, ["gen", "--seed", "3", "--n-patients", "6",
                         "--out", str(tmp_path / "corpus")])
    result = runner.invoke(main, ["load", "--in", str(tmp_path / "corpus")])
    assert result.exit_code == 0
    assert "6 patients" in result.output and "3 tables" in result.output


def test_load_missing_dir_fails(runner, tmp_path):
    result = runner.invoke(main, ["load", "--in", str(tmp_path / "missing")])
    assert result.exit_code == 1
    assert "error" in result.output


def serialize_corpus(runner, tmp_path, sub="streams", seed="5"):
    corpus_dir = tmp_path / f"corpus_{sub}"
    runner.invoke(main, ["gen", "--seed", seed, "--n-patients", "6",
                         "--out", str(corpus_dir)])
    out = tmp_path / sub
    result = runner.invoke(main, ["serialize", "--in", str(corpus_dir),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    return corpus_dir, out


def test_serialize_writes_streams_and_vocab(runner, tmp_path):
    _, out = serialize_corpus(runner, tmp_path)
    for name in ("vocab.txt", "streams_hier.jsonl", "streams_flat.jsonl",
                 "manifest.json"):
        assert (out / name).exists()
    assert len((out / "streams_flat.jsonl").read_text().splitlines()) == 6


@pytest.mark.parametrize("dims, hier_sha, flat_sha", [
    ([], "06e732433a9832485a5a6614d26b0cbe99e0ca1e0393dc21ab60f99d67511324",
     "6bedbd802210290d252872a6a23b688d15e9a356146cad0f0e171c7bc6a37e05"),
    (["--n-e", "16", "--n-tpe", "16", "--n-t", "128"],
     "e693237c879c3dc4b2f3f5eb4db76d39e7f2e239df0a082d56fef61f36f21b16",
     "cfc589b7d64eb13ad34d7553f27dc25db90b98223cb3828a958e2a63de1c95bb"),
])
def test_serialize_bytes_are_pinned(runner, tmp_path, dims, hier_sha, flat_sha):
    """The stream files of a fixed corpus, at the default dimensions and at
    dimensions that cut events, rows and the flat stream, never change."""
    runner.invoke(main, ["gen", "--seed", "7", "--n-patients", "40",
                         "--out", str(tmp_path / "corpus")])
    result = runner.invoke(main, ["serialize", "--in", str(tmp_path / "corpus"),
                                  "--out", str(tmp_path / "out"), *dims])
    assert result.exit_code == 0, result.output
    digest = lambda name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
    assert (digest("streams_hier.jsonl"), digest("streams_flat.jsonl")) == (hier_sha, flat_sha)


def test_serialize_tokenizes_each_distinct_text_once(runner, tmp_path, monkeypatch):
    """Table names, column names and non-numeric cell texts are tokenized once
    per role they take in the corpus, not once per occurrence; numeric cells
    are tokenized per occurrence."""
    corpus_dir = tmp_path / "corpus"
    runner.invoke(main, ["gen", "--seed", "4", "--n-patients", "30", "--out", str(corpus_dir)])
    corpus = corpus_mod.load_corpus(corpus_dir)
    roles, numeric = set(), Counter()
    for patient in corpus.patients:
        for event in patient.events:
            roles.add(("table", event.table_name))
            for col, cell in event.columns:
                roles.add(("column", col))
                text = serializer.textualize_cell(cell, corpus.definitions)
                if cell.kind == corpus_mod.NUMERIC:
                    numeric[text] += 1
                else:
                    roles.add(("value", text))
    calls = []
    tokenize = serializer.tokenize

    def counted(text, vocab):
        calls.append(text)
        return tokenize(text, vocab)

    monkeypatch.setattr(serializer, "tokenize", counted)
    result = runner.invoke(main, ["serialize", "--in", str(corpus_dir),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert Counter(calls) == Counter(text for _, text in roles) + numeric


def test_serialize_memory_does_not_grow_with_the_patient_count(runner, tmp_path):
    config = SerializerConfig()
    one_patient = 3 * 4 * (config.n_e * config.n_tpe + config.n_t)  # int32 grid + flat stream
    peaks, texts = {}, {}
    for n in (8, 32):
        corpus_dir, out = tmp_path / f"corpus{n}", tmp_path / f"streams{n}"
        runner.invoke(main, ["gen", "--seed", "3", "--n-patients", str(n),
                             "--out", str(corpus_dir)])
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["serialize", "--in", str(corpus_dir),
                                          "--out", str(out)])
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        texts[n] = sum((out / name).stat().st_size
                       for name in ("streams_hier.jsonl", "streams_flat.jsonl"))
        # holding every patient's dense streams would take n * one_patient
        assert peaks[n] < 3 * one_patient + 4 * texts[n]
    assert peaks[32] - peaks[8] < one_patient


def test_audit_of_own_serialization_is_perfect(runner, tmp_path):
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    report_dir = tmp_path / "audit"
    result = runner.invoke(main, [
        "audit", "--real", str(corpus_dir),
        "--generated", str(out / "streams_hier.jsonl"),
        "--vocab", str(out / "vocab.txt"), "--out", str(report_dir)])
    assert result.exit_code == 0, result.output
    report = json.loads((report_dir / "audit_report.json").read_text())
    assert report["rce"] == 1.0 and report["rue"] == 1.0 and report["rcs"] == 1.0


def test_audit_reads_the_real_corpus_without_building_events(runner, tmp_path, monkeypatch):
    """`audit` builds its triple set from the corpus read by columns: no
    event is made, and the report is the one a loaded corpus gives."""
    real_dir, out = serialize_corpus(runner, tmp_path, "real", seed="5")
    other_dir = tmp_path / "other"
    runner.invoke(main, ["gen", "--seed", "6", "--n-patients", "12", "--out", str(other_dir)])
    vocab_path = out / "vocab.txt"
    assert runner.invoke(main, ["serialize", "--in", str(other_dir), "--out",
                                str(tmp_path / "gen"), "--vocab", str(vocab_path)]).exit_code == 0
    vocab = Vocabulary.load(vocab_path)
    reports = {}
    for layout in ("hier", "flat"):
        generated = tmp_path / "gen" / f"streams_{layout}.jsonl"
        samples = [serializer.detokenize_events(s, vocab) for s in load_streams(generated)]
        report = audit_mod.score(
            samples, audit_mod.build_triples(corpus_mod.load_corpus(real_dir), vocab), vocab)
        reports[layout] = json_text(asdict(report))
        assert 0 < report.rce < 1
    made = []
    post_init = corpus_mod.EventRecord.__post_init__
    monkeypatch.setattr(corpus_mod.EventRecord, "__post_init__",
                        lambda event: made.append(event) or post_init(event))
    for layout, expected in reports.items():
        result = runner.invoke(main, [
            "audit", "--real", str(real_dir), "--vocab", str(vocab_path), "--out",
            str(tmp_path / f"audit_{layout}"),
            "--generated", str(tmp_path / "gen" / f"streams_{layout}.jsonl")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / f"audit_{layout}" / "audit_report.json").read_text() == expected
    assert made == []
    corpus_mod.load_corpus(real_dir)
    assert made


@pytest.mark.parametrize("layout", ["hier", "flat"])
def test_audit_drops_each_samples_events_before_the_next(runner, tmp_path, monkeypatch, layout):
    """`audit` holds one sample's events at a time: every list of events that
    `detokenize_events` returned is freed before it is called again."""
    corpus_dir, out = serialize_corpus(runner, tmp_path)

    class Events(list):  # a list that a weak reference can follow
        pass

    returned, alive_at_call = [], []
    detokenize_events = serializer.detokenize_events

    def tracked(stream, vocab):
        alive_at_call.append(sum(ref() is not None for ref in returned))
        events = Events(detokenize_events(stream, vocab))
        returned.append(weakref.ref(events))
        return events

    monkeypatch.setattr(serializer, "detokenize_events", tracked)
    result = runner.invoke(main, ["audit", "--real", str(corpus_dir),
                                  "--generated", str(out / f"streams_{layout}.jsonl"),
                                  "--vocab", str(out / "vocab.txt"),
                                  "--out", str(tmp_path / "audit")])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["total_samples"] == 6
    assert alive_at_call == [0] * 6


def peak_of(runner, args):
    """The tracemalloc peak of one command run, which must succeed."""
    tracemalloc.start()
    try:
        result = runner.invoke(main, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    return peak


def test_privacy_holds_the_synthetic_matrix_and_the_pool_alone(runner, tmp_path):
    """The synthetic set is one dense matrix, filled a stream at a time; of
    train and held-out only the pooled records' tokens are held."""
    n, width = 48, 16384  # a set outweighs the read buffer
    rng = np.random.default_rng(0)
    paths = []
    for name in ("train", "heldout", "synthetic"):
        grids = np.zeros((n, width), np.int32)
        grids[:, :8] = rng.integers(1, 50, (n, 8))
        paths.append(write_streams(tmp_path / f"{name}.jsonl", grids))
    one_set = n * width * np.dtype(np.int32).itemsize
    peak = peak_of(runner, ["privacy", "--train", paths[0], "--heldout", paths[1],
                            "--synthetic", paths[2], "--nr", "2",
                            "--out", str(tmp_path / "privacy")])
    # the synthetic matrix, the pool, the attack's temporaries and the read
    # buffer (about 1.5 sets); a dense matrix of train or held-out, or a
    # second copy of the synthetic one, would be one set more
    assert peak < 2 * one_set


def test_metrics_and_privacy_memory_does_not_grow_with_the_records(runner, tmp_path):
    """`metrics` holds one stream pair at a time, and `privacy` the synthetic
    matrix and the 2·n_r pooled rows: four times the reference and hypothesis
    records, or the train and held-out records, raise their tracemalloc peak
    by less than half.  The records are wide enough that their cells, if
    every stream read were held, would outweigh the read buffers."""
    n, width = 24, 8192
    rng = np.random.default_rng(3)
    grids = np.zeros((4 * n, width), np.int32)
    grids[:, : width - 8] = rng.integers(1, 50, (4 * n, width - 8))
    files = {k: write_streams(tmp_path / f"{k}.jsonl", grids[:k]) for k in (n, 4 * n)}
    for k in (n, 4 * n):
        other = write_streams(tmp_path / f"other{k}.jsonl", grids[:k] % 7 + 1)
        peaks = {"metrics": peak_of(runner, ["metrics", "--reference", files[k],
                                             "--hypothesis", other]),
                 "privacy": peak_of(runner, ["privacy", "--train", files[k],
                                             "--heldout", other, "--synthetic", files[n],
                                             "--nr", "2", "--out", str(tmp_path / f"p{k}")])}
        if k == n:
            base = peaks
    for command in peaks:
        assert peaks[command] < 1.5 * base[command], (command, base, peaks)


def test_each_command_parses_only_the_values_it_uses(runner, tmp_path, monkeypatch):
    """numpy parses the values of a channel only when the command uses it:
    `audit` the tokens and type labels of each stream, `metrics` the tokens,
    `privacy` the tokens of the 2·n_r pooled records and of every synthetic
    one.  Each other channel is checked but not parsed."""
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    streams = {layout: str(out / f"streams_{layout}.jsonl") for layout in ("hier", "flat")}
    for stream in load_streams(streams["flat"]):
        assert all(cells is not None for cells in stream.cells)  # three channels to parse
    parsed = []
    parse_values = serializer._parse_values
    monkeypatch.setattr(serializer, "_parse_values",
                        lambda c, count: parsed.append(count) or parse_values(c, count))

    def parses(args):
        parsed.clear()
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return len(parsed)

    assert parses(["audit", "--real", str(corpus_dir), "--generated", streams["hier"],
                   "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "audit")]) == 6 * 2
    assert parses(["metrics", "--reference", streams["flat"],
                   "--hypothesis", streams["flat"]]) == 6 * 2
    assert parses(["privacy", "--train", streams["flat"], "--heldout", streams["flat"],
                   "--synthetic", streams["flat"], "--nr", "2",
                   "--out", str(tmp_path / "privacy")]) == 2 * 2 + 6


def test_audit_report_holds_when_labels_reach_past_the_last_token(runner, tmp_path):
    """Digit-place labels past the last token of a row widen the row's length
    in a dense record; `audit`, which does not read them, writes the report
    that a full read of the file gives."""
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    vocab = Vocabulary.load(out / "vocab.txt")
    lines = []
    for stream in load_streams(out / "streams_hier.jsonl"):
        dpes = stream.dpe_labels.copy()
        ends = (stream.tokens != PAD_ID).sum(axis=1)
        dpes[np.arange(len(dpes)), np.minimum(ends + 1, dpes.shape[1] - 1)] = 70
        lines.append(json.dumps({"patient_id": stream.patient_id, "layout": stream.layout,
                                 "tokens": stream.tokens.tolist(),
                                 "type_labels": stream.type_labels.tolist(),
                                 "dpe_labels": dpes.tolist()}) + "\n")
    generated = tmp_path / "dense.jsonl"
    generated.write_text("".join(lines))
    full = load_streams(generated)
    assert any((s.lengths > (s.tokens != PAD_ID).sum(axis=1)[: len(s.lengths)]).any()
               for s in full)
    expected = json_text(asdict(audit_mod.score(
        [serializer.detokenize_events(s, vocab) for s in full],
        audit_mod.build_triples(corpus_mod.load_corpus(corpus_dir), vocab), vocab)))
    result = runner.invoke(main, ["audit", "--real", str(corpus_dir),
                                  "--generated", str(generated),
                                  "--vocab", str(out / "vocab.txt"),
                                  "--out", str(tmp_path / "audit")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "audit" / "audit_report.json").read_text() == expected


@pytest.mark.parametrize("corrupt, reason", [
    (lambda line: line[: len(line) // 2], "malformed JSON"),
    (lambda line: json.dumps({"patient_id": "p", "layout": "hierarchical",
                              "tokens": [[4, 5], [6]]}), "inhomogeneous"),
    (lambda line: line.replace('": "', '": "\udcff', 1),
     "not UTF-8 (invalid start byte at byte 17)"),
    (lambda line: line.replace('"patient_id": "p00001"', '"patient_id": 5', 1),
     "patient_id must be a JSON string"),
])
def test_audit_rejects_bad_stream_line(runner, tmp_path, corrupt, reason):
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    streams = out / "streams_hier.jsonl"
    lines = streams.read_text().splitlines()
    lines[1] = corrupt(lines[1])
    streams.write_text("\n".join(lines) + "\n", errors="surrogateescape")  # \udcff: byte 0xff
    result = runner.invoke(main, [
        "audit", "--real", str(corpus_dir), "--generated", str(streams),
        "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "audit")])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{streams}, line 2:" in result.output and reason in result.output


def test_audit_refuses_bad_event_boundaries(runner, tmp_path):
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    streams = out / "streams_flat.jsonl"
    lines = streams.read_text().splitlines()
    record = json.loads(lines[2])
    record["event_boundaries"][0] = ["0", "5"]
    lines[2] = json.dumps(record)
    streams.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, [
        "audit", "--real", str(corpus_dir), "--generated", str(streams),
        "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "audit")])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output == (f"error: {streams}, line 3: event boundary ['0', '5'] is not "
                             "[start, end] with 0 <= start <= end <= 8192\n")
    assert not (tmp_path / "audit").exists()


@pytest.mark.parametrize("name, layout", [("streams_hier.jsonl", "flattened"),
                                          ("streams_flat.jsonl", "hierarchical")])
def test_audit_refuses_a_layout_that_disagrees_with_the_shape(runner, tmp_path, name, layout):
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    streams = out / name
    lines = streams.read_text().splitlines()
    record = json.loads(lines[1])
    lines[1] = json.dumps({**record, "layout": layout})
    streams.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, [
        "audit", "--real", str(corpus_dir), "--generated", str(streams),
        "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "audit")])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output == (f"error: {streams}, line 2: bad shape {record['shape']} "
                             f"for layout {layout!r}\n")
    assert not (tmp_path / "audit").exists()


def test_text_that_reads_as_reserved_units_keeps_every_time_gap(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "n_patients": 3, "tables": [
        {"name": "note", "columns": [
            {"name": "text", "type": "text", "choices": ["[pad] x", "[tg3] y"]}]}]}))
    corpus_dir, out = tmp_path / "corpus", tmp_path / "streams"
    assert runner.invoke(main, ["gen", "--config", str(config),
                                "--out", str(corpus_dir)]).exit_code == 0
    result = runner.invoke(main, ["serialize", "--in", str(corpus_dir), "--out", str(out),
                                  "--n-e", "16", "--n-tpe", "16", "--n-t", "128"])
    assert result.exit_code == 0, result.output
    flat = out / "streams_flat.jsonl"
    streams = load_streams(flat)
    for stream in streams:
        tokens = stream.tokens.tolist()
        assert stream.event_boundaries
        assert all(is_timegap_id(tokens[end - 1]) for _, end in stream.event_boundaries)
    label_less = tmp_path / "label_less.jsonl"
    label_less.write_text("".join(
        json.dumps({**json.loads(line), "type_labels": None, "dpe_labels": None,
                    "event_boundaries": None}) + "\n" for line in flat.read_text().splitlines()))
    result = runner.invoke(main, [
        "audit", "--real", str(corpus_dir), "--generated", str(label_less),
        "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "audit")])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["rce"] == report["rue"] == report["rcs"] == 1.0
    assert report["total_events"] == sum(len(s.event_boundaries) for s in streams)


def test_audit_keys_a_column_by_its_casefolded_words_with_labels_or_without(runner, tmp_path):
    """A column named `item  id` is checked as `item id` in labeled streams
    and in the same streams read as raw words."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_with_column(2, name="item  id")))
    corpus_dir, out = tmp_path / "corpus", tmp_path / "streams"
    assert runner.invoke(main, ["gen", "--config", str(config),
                                "--out", str(corpus_dir)]).exit_code == 0
    result = runner.invoke(main, ["serialize", "--in", str(corpus_dir), "--out", str(out)])
    assert result.exit_code == 0, result.output
    labeled, label_less = out / "streams_flat.jsonl", tmp_path / "label_less.jsonl"
    label_less.write_text("".join(
        json.dumps({**json.loads(line), "type_labels": None, "dpe_labels": None,
                    "event_boundaries": None}) + "\n" for line in labeled.read_text().splitlines()))
    for streams in (labeled, label_less):
        result = runner.invoke(main, [
            "audit", "--real", str(corpus_dir), "--generated", str(streams),
            "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / streams.stem)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["rce"] == 1.0


def test_audit_keys_only_the_corpus_names_whatever_the_number_of_events(runner, tmp_path,
                                                                        monkeypatch):
    """A stream's names are casefolded words already, so one `audit` keys
    each schema column's table and column name once, and the triple set
    checks each of its names once: no event's name is keyed."""
    real_dir, out = serialize_corpus(runner, tmp_path, "real", seed="5")
    vocab_path = out / "vocab.txt"
    real = corpus_mod.load_corpus(real_dir, events=False)
    triples = audit_mod.build_triples(real, Vocabulary.load(vocab_path))
    bound = (2 * sum(len(t.columns) for t in real.schema)
             + len(triples.tables.union(*triples.columns.values())))
    generated = []
    for n_patients in ("3", "24"):
        corpus_dir, streams = tmp_path / f"gen_{n_patients}", tmp_path / f"streams_{n_patients}"
        runner.invoke(main, ["gen", "--seed", "6", "--n-patients", n_patients,
                             "--out", str(corpus_dir)])
        assert runner.invoke(main, ["serialize", "--in", str(corpus_dir), "--out", str(streams),
                                    "--vocab", str(vocab_path)]).exit_code == 0
        labeled, label_less = streams / "streams_flat.jsonl", streams / "label_less.jsonl"
        label_less.write_text("".join(
            json.dumps({**json.loads(line), "type_labels": None, "dpe_labels": None,
                        "event_boundaries": None}) + "\n"
            for line in labeled.read_text().splitlines()))
        generated += [labeled, label_less]
    name_key, calls, events = audit_mod.name_key, [], []
    monkeypatch.setattr(audit_mod, "name_key", lambda name: calls.append(name) or name_key(name))
    for path in generated:
        calls.clear()
        result = runner.invoke(main, ["audit", "--real", str(real_dir), "--generated", str(path),
                                      "--vocab", str(vocab_path), "--out", str(tmp_path / "audit")])
        assert result.exit_code == 0, result.output
        events.append(json.loads(result.output)["total_events"])
        assert 0 < len(calls) <= bound
    assert events[0] * 4 < events[2]


@pytest.mark.parametrize("bad", [5000, -1])
def test_audit_refuses_token_ids_outside_the_vocabulary(runner, tmp_path, bad):
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    streams = out / "streams_flat.jsonl"
    lines = streams.read_text().splitlines()
    record = json.loads(lines[2])
    record["tokens"][1] = bad
    lines[2] = json.dumps(record)
    streams.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, [
        "audit", "--real", str(corpus_dir), "--generated", str(streams),
        "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "audit")])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: patient {record['patient_id']!r}: token id {bad} "
                                    "is outside the vocabulary")
    assert result.output.count("\n") == 1
    assert not (tmp_path / "audit").exists()


def test_plan_prints_golden_layers(runner, tmp_path):
    result = runner.invoke(main, ["plan", "--backbone", "cnn",
                                  "--input", "8192x256", "--output", "64x8",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "layer 1: Lnd -> (4096,128)"
    assert lines[4] == "layer 5: Ln -> (256,16)"
    assert lines[6] == "layer 7: Ln -> (64,8)"
    assert (tmp_path / "plan.json").exists()
    assert (tmp_path / "analysis.json").exists()


def test_plan_rejects_expansion(runner, tmp_path):
    result = runner.invoke(main, ["plan", "--input", "64x8", "--output", "128x8",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 1


def test_plan_grid_sweep(runner, tmp_path):
    result = runner.invoke(main, ["plan", "--grid", "256:1024",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "grid.tsv").read_text().splitlines()
    assert lines[0] == "l\tt\tc\tbackbone\trate\tparams\tflops"
    # three l values (256, 512, 1024), five latents each
    assert len(lines) == 1 + 15


@pytest.mark.parametrize("backbone, flops", [("cnn", None), ("transformer", 16265510912)])
def test_analyze_reproduces_the_plan_report(runner, tmp_path, backbone, flops):
    result = runner.invoke(main, ["plan", "--backbone", backbone, "--input", "8192x256",
                                  "--output", "64x8", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["analyze", "--plan", str(tmp_path / "plan.json")])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "analysis.json").read_text())
    assert json.loads(result.output) == report
    assert analysis_report(planner.load_plan(tmp_path / "plan.json")) == report
    assert flops is None or report["flops"] == flops


def test_analyze_existing_plan(runner, tmp_path):
    runner.invoke(main, ["plan", "--input", "8192x256", "--output", "64x8",
                         "--out", str(tmp_path)])
    result = runner.invoke(main, ["analyze", "--plan", str(tmp_path / "plan.json")])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["params"] > 0 and len(report["trace"]) == 7


def test_quantize_roundtrip(runner, tmp_path):
    book = Codebook.new(np.asarray([[0.0, 0.0], [1.0, 1.0]]))
    book.save(tmp_path / "codebook.json")
    (tmp_path / "latent.json").write_text(json.dumps([[0.9, 0.8] * 4]))
    out = tmp_path / "quantized.json"
    result = runner.invoke(main, ["quantize", "--latent", str(tmp_path / "latent.json"),
                                  "--codebook", str(tmp_path / "codebook.json"),
                                  "--beta", "0.25", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["indices"] == [[1, 1, 1, 1]]
    assert doc["commitment_term"] == pytest.approx(0.25 * doc["commitment_distance"])


@pytest.mark.parametrize("beta", [None, "0", "0.25", "2"])
def test_quantize_commitment_term_by_hand(runner, tmp_path, beta):
    Codebook.new(np.asarray([[0.0, 0.0], [2.0, 2.0]])).save(tmp_path / "codebook.json")
    # pieces (1, 0), (0, 0), (0, 0), (0, 0) all take code 0: squared distance 1
    (tmp_path / "latent.json").write_text(json.dumps([[1.0] + [0.0] * 7]))
    out = tmp_path / "q.json"
    args = ["quantize", "--latent", str(tmp_path / "latent.json"),
            "--codebook", str(tmp_path / "codebook.json"), "--out", str(out)]
    result = runner.invoke(main, args + ([] if beta is None else ["--beta", beta]))
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["indices"] == [[0, 0, 0, 0]]
    assert doc["commitment_distance"] == 1.0
    if beta is None:
        assert "commitment_term" not in doc
    else:
        assert doc["commitment_term"] == float(beta)


def test_quantize_creates_missing_out_dir(runner, tmp_path):
    Codebook.new(np.zeros((2, 2))).save(tmp_path / "codebook.json")
    (tmp_path / "latent.json").write_text(json.dumps([[0.0] * 8]))
    out = tmp_path / "sub" / "q.json"
    result = runner.invoke(main, ["quantize", "--latent", str(tmp_path / "latent.json"),
                                  "--codebook", str(tmp_path / "codebook.json"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["indices"] == [[0, 0, 0, 0]]
    assert (out.parent / "manifest.json").exists()


def test_quantize_rejects_bad_width(runner, tmp_path):
    book = Codebook.new(np.zeros((2, 2)))
    book.save(tmp_path / "codebook.json")
    (tmp_path / "latent.json").write_text(json.dumps([[0.0] * 6]))
    result = runner.invoke(main, ["quantize", "--latent", str(tmp_path / "latent.json"),
                                  "--codebook", str(tmp_path / "codebook.json"),
                                  "--out", str(tmp_path / "q.json")])
    assert result.exit_code == 1


def test_privacy_disjoint_pools(runner, tmp_path):
    _, train = serialize_corpus(runner, tmp_path, "train", seed="1")
    _, heldout = serialize_corpus(runner, tmp_path, "heldout", seed="2")
    _, synth = serialize_corpus(runner, tmp_path, "synth", seed="3")
    out = tmp_path / "privacy"
    result = runner.invoke(main, [
        "privacy", "--train", str(train / "streams_flat.jsonl"),
        "--heldout", str(heldout / "streams_flat.jsonl"),
        "--synthetic", str(synth / "streams_flat.jsonl"),
        "--nr", "4", "--thresholds", "0,0.5,1.0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "privacy_curve.tsv").read_text().splitlines()
    assert lines[0] == "threshold\tprecision\trecall"
    assert len(lines) == 4
    first = lines[1].split("\t")
    assert first[0] == "0.0" and first[2] == "0.0"
    last = lines[3].split("\t")
    assert last[1] == "0.5" and last[2] == "1.0"


def test_privacy_copied_synthetic_detected(runner, tmp_path):
    _, train = serialize_corpus(runner, tmp_path, "train", seed="1")
    _, heldout = serialize_corpus(runner, tmp_path, "heldout", seed="2")
    out = tmp_path / "privacy"
    result = runner.invoke(main, [
        "privacy", "--train", str(train / "streams_flat.jsonl"),
        "--heldout", str(heldout / "streams_flat.jsonl"),
        "--synthetic", str(train / "streams_flat.jsonl"),
        "--nr", "4", "--thresholds", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "privacy_report.json").read_text())
    assert report["results"][0]["recall"] == 1.0
    assert report["results"][0]["precision"] == 1.0


def write_streams(path, grids):
    save_streams([dense_stream(np.asarray(g), patient_id=f"p{i}") for i, g in enumerate(grids)],
                 path)
    return str(path)


@pytest.mark.parametrize("synthetic, forms", [
    ([[[5, 6], [7, 8]]], "hierarchical (2, 2)"),
    ([[5, 6, 7, 8], [[5, 6], [7, 8]]], "flattened (4,), hierarchical (2, 2)"),
], ids=["across files", "within a file"])
def test_privacy_refuses_mixed_layouts(runner, tmp_path, synthetic, forms):
    train = write_streams(tmp_path / "train.jsonl", [[4, 5, 6, 7], [8, 9, 10, 11]])
    heldout = write_streams(tmp_path / "heldout.jsonl", [[5, 6, 7, 8], [9, 10, 11, 12]])
    synth = write_streams(tmp_path / "synth.jsonl", synthetic)
    result = runner.invoke(main, ["privacy", "--train", train, "--heldout", heldout,
                                  "--synthetic", synth, "--nr", "1",
                                  "--out", str(tmp_path / "privacy")])
    assert result.exit_code == 1
    assert result.output == (f"error: streams differ in layout or shape: {train}: flattened "
                             f"(4,); {heldout}: flattened (4,); {synth}: {forms}\n")
    assert not (tmp_path / "privacy").exists()


def test_metrics_names_files_and_patient_of_a_shape_mismatch(runner, tmp_path):
    ref = write_streams(tmp_path / "ref.jsonl", [[4, 5, 6, 7], [4, 5, 6, 7]])
    hyp = write_streams(tmp_path / "hyp.jsonl", [[4, 5, 6, 7], [4, 5, 6, 7, 8, 0, 0, 0]])
    result = runner.invoke(main, ["metrics", "--reference", ref, "--hypothesis", hyp])
    assert result.exit_code == 1
    assert result.output == (f"error: {ref} vs {hyp}, patient 'p1': "
                             f"shape mismatch: (4,) vs (8,)\n")


def test_metrics_names_files_and_counts_of_unequal_stream_files(runner, tmp_path):
    ref = write_streams(tmp_path / "ref.jsonl", [[4, 5, 6, 7], [4, 5, 6, 7]])
    hyp = write_streams(tmp_path / "hyp.jsonl", [[4, 5, 6, 7]])
    result = runner.invoke(main, ["metrics", "--reference", ref, "--hypothesis", hyp])
    assert result.exit_code == 1
    assert result.output == f"error: {ref} vs {hyp}: stream counts differ: 2 vs 1\n"


def test_metrics_accuracy_and_auroc(runner, tmp_path):
    _, out = serialize_corpus(runner, tmp_path)
    scores = tmp_path / "scores.tsv"
    scores.write_text("0.1\t0\n0.4\t0\n\n0.35\t1\n \n0.8\t1\n")  # blank lines are skipped
    result = runner.invoke(main, [
        "metrics", "--reference", str(out / "streams_flat.jsonl"),
        "--hypothesis", str(out / "streams_flat.jsonl"),
        "--scores", str(scores)])
    assert result.exit_code == 0, result.output
    assert "token_accuracy\t1.0" in result.output
    assert "auroc\t0.75" in result.output


@pytest.mark.parametrize("row", [
    "0.5", "abc\t1", "0.5\tyes", "0.5\t1\t0", "nan\t1",
    "0.5\t0_0", "0.5\t+1", "0.5\t\u0660", "0.5\t 1", "0.5\t1.0", "1_5\t1", "NaN\t1",
    "Infinity\t1", "1e400\t1", "1" + "0" * 400 + "\t1", "true\t1", '"1"\t1', "[1]\t1",
    "[" * 100000 + "\t1", " 0.5\t1", "0.5 \t1", "\t1", "0.5\x0c\t1"])
def test_metrics_names_row_of_bad_score(runner, tmp_path, row):
    scores = tmp_path / "scores.tsv"
    scores.write_text(f"0.1\t0\n{row}\n0.8\t1\n")
    result = runner.invoke(main, ["metrics", "--scores", str(scores)])
    assert result.exit_code == 1
    assert result.output == f"error: {scores}:2: expected score<TAB>label\n"


def test_metrics_without_inputs_fails(runner):
    result = CliRunner().invoke(main, ["metrics"])
    assert result.exit_code == 1


@pytest.mark.parametrize("given, missing", [("reference", "hypothesis"),
                                             ("hypothesis", "reference")])
@pytest.mark.parametrize("with_scores", [False, True])
def test_metrics_refuses_half_a_stream_pair(runner, tmp_path, given, missing, with_scores):
    streams = write_streams(tmp_path / "streams.jsonl", [[4, 5, 6, 7]])
    scores = tmp_path / "scores.tsv"
    scores.write_text("0.1\t0\n0.8\t1\n")
    args = ["metrics", f"--{given}", streams] + (["--scores", str(scores)] if with_scores else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output == f"error: --{given} needs --{missing}\n"


@pytest.mark.parametrize("with_scores", [False, True])
def test_metrics_refuses_include_pads_without_a_stream_pair(runner, tmp_path, with_scores):
    scores = tmp_path / "scores.tsv"
    scores.write_text("0.1\t0\n0.8\t1\n")
    args = ["metrics", "--include-pads"] + (["--scores", str(scores)] if with_scores else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output == "error: --include-pads needs --reference and --hypothesis\n"


@pytest.mark.parametrize("rows", ["0.1\t1\n0.8\t1\n", "", "\n \n"],
                         ids=["one class", "no rows", "blank lines"])
def test_metrics_names_the_score_table_of_an_auroc_fault(runner, tmp_path, rows):
    scores = tmp_path / "scores.tsv"
    scores.write_text(rows)
    result = runner.invoke(main, ["metrics", "--scores", str(scores)])
    assert result.exit_code == 1
    assert result.output == (f"error: {scores}: AUROC needs at least one example "
                             f"of each class\n")


def test_manifest_contents(runner, tmp_path):
    out = tmp_path / "corpus"
    runner.invoke(main, ["gen", "--seed", "7", "--n-patients", "4", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 7
    assert manifest["tool_version"] == ehrseq.__version__
    assert manifest["outputs"] and all(isinstance(p, str) for p in manifest["outputs"])


def manifest_digest(path):
    """An input's manifest digest, by the rule: SHA-256 of a file's bytes; for
    a directory, of each file in it but manifest.json, in name order, as its
    name, NUL, its size in decimal, NUL, then its bytes."""
    path = Path(path)
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    files = sorted((p for p in path.iterdir() if p.name != "manifest.json"), key=lambda p: p.name)
    return hashlib.sha256(b"".join(
        p.name.encode() + b"\0" + str(len(p.read_bytes())).encode() + b"\0" + p.read_bytes()
        for p in files)).hexdigest()


def test_serialize_manifest_digests_every_corpus_file_it_reads(runner, tmp_path):
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    read = [p.name for p in corpus_dir.iterdir() if p.name != "manifest.json"]
    assert "schema.json" in read and "lab.tsv" in read
    assert (corpus_dir / "manifest.json").exists()  # gen's, left out of the digest
    assert inputs == {str(corpus_dir): manifest_digest(corpus_dir)}
    (corpus_dir / "lab.tsv").write_text((corpus_dir / "lab.tsv").read_text() + "\n")
    assert manifest_digest(corpus_dir) != inputs[str(corpus_dir)]  # every file it reads counts


def _bad_vocab(tmp_path):
    path = tmp_path / "bad_vocab.txt"
    path.write_text("not\na\nvocabulary\n")
    return path


def _a_file(tmp_path, text="x"):
    path = tmp_path / "a_file"
    path.write_text(text)
    return path


def _bad_codebook(tmp_path):
    path = tmp_path / "codebook.json"
    path.write_text("{}")
    return path


def _corpus_with_schema(tmp_path, schema, tables=None):
    path = tmp_path / "bad_corpus"
    path.mkdir()
    (path / "schema.json").write_text(json.dumps(schema))
    for name, text in (tables or {}).items():
        (path / name).write_text(text)
    return str(path)


@pytest.mark.parametrize("make_args", [
    lambda tmp, corpus: ["serialize", "--in", corpus, "--out", str(tmp / "s"),
                         "--vocab", str(_bad_vocab(tmp))],
    lambda tmp, corpus: ["audit", "--real", corpus, "--generated", str(tmp / "none.jsonl"),
                         "--vocab", str(_bad_vocab(tmp)), "--out", str(tmp / "a")],
    lambda tmp, corpus: ["plan", "--grid", "256", "--out", str(tmp / "p")],
    lambda tmp, corpus: ["gen", "--n-patients", "2", "--out", str(_a_file(tmp) / "sub")],
    lambda tmp, corpus: ["serialize", "--in", corpus, "--out", str(_a_file(tmp))],
    lambda tmp, corpus: ["analyze", "--plan", str(_a_file(tmp))],
    lambda tmp, corpus: ["gen", "--config", str(_a_file(tmp, "{")), "--out", str(tmp / "g")],
    lambda tmp, corpus: ["quantize", "--latent", str(_a_file(tmp, "[[0, 0, 0, 0]]")),
                         "--codebook", str(_bad_codebook(tmp)), "--out", str(tmp / "q.json")],
    lambda tmp, corpus: ["load", "--in", _corpus_with_schema(tmp, {})],
    lambda tmp, corpus: ["load", "--in", _corpus_with_schema(tmp, {"tables": [{"name": "lab"}]})],
    lambda tmp, corpus: ["load", "--in", _corpus_with_schema(
        tmp, {"tables": [{"name": 5, "columns": [{"name": "a", "type": "text"}]}]})],
    lambda tmp, corpus: ["load", "--in", _corpus_with_schema(
        tmp, {"tables": [{"name": "lab", "columns": "abc"}]})],
    lambda tmp, corpus: ["load", "--in", _corpus_with_schema(
        tmp, {"tables": [{"name": "lab", "columns": [{"name": "a", "type": "banana"}]}]},
        {"lab.tsv": ""})],
], ids=["serialize-bad-vocab", "audit-bad-vocab", "plan-grid-one-number",
        "gen-out-under-file", "serialize-out-is-file",
        "analyze-not-json", "gen-config-not-json", "quantize-codebook-empty",
        "load-schema-without-tables", "load-table-without-columns", "load-table-named-5",
        "load-columns-a-string", "load-unknown-type-empty-table"])
def test_bad_input_is_one_error_line(runner, tmp_path, make_args):
    corpus = tmp_path / "corpus"
    runner.invoke(main, ["gen", "--seed", "1", "--n-patients", "6", "--out", str(corpus)])
    result = runner.invoke(main, make_args(tmp_path, str(corpus)))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ") and result.output.count("\n") == 1


def test_a_document_that_is_no_object_is_quoted_short(runner, tmp_path):
    """A plan file holding a 1024x64 array is refused in one line of 85
    bytes besides the file name; the whole array's repr is 329,728."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(np.ones((1024, 64)).tolist()))
    result = runner.invoke(main, ["analyze", "--plan", str(plan)])
    assert result.exit_code == 1
    assert result.output == f"error: {plan}: expected a JSON object, got [[...], [...], " \
                            "[...], [...], [...], [...], ...]\n"


@pytest.mark.parametrize("command", ["serialize", "audit"])
def test_bad_vocab_names_its_file(runner, tmp_path, command):
    corpus = tmp_path / "corpus"
    runner.invoke(main, ["gen", "--seed", "1", "--n-patients", "2", "--out", str(corpus)])
    vocab = _bad_vocab(tmp_path)
    args = {"serialize": ["--in", str(corpus)],
            "audit": ["--real", str(corpus), "--generated", str(tmp_path / "none.jsonl")]}
    result = runner.invoke(main, [command, *args[command], "--vocab", str(vocab),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == (f"error: {vocab}: reserved entries must occupy "
                             "the lowest indices\n")


@pytest.mark.parametrize("latent", ["[[0, 0", "[[0, 0, 0, 0], [0]]", '[["a", 0, 0, 0]]',
                                    "[0, 0, 0, 0]", '{"z": 1}', "[[0, NaN, 0, 0]]",
                                    '[["0.1", true, 2, "3"]]', "[[0, null, 0, 0]]",
                                    "[[true, false, true, false]]", "[[true, 0, false, 1]]"],
                         ids=["malformed", "ragged", "non-number", "1-d", "object",
                              "non-finite", "number-strings", "null", "booleans",
                              "booleans-among-numbers"])
def test_bad_latent_names_its_file(runner, tmp_path, latent):
    path = _a_file(tmp_path, latent)
    Codebook.new(np.zeros((2, 1))).save(tmp_path / "codebook.json")
    result = runner.invoke(main, ["quantize", "--latent", str(path), "--codebook",
                                  str(tmp_path / "codebook.json"), "--out", str(tmp_path / "q.json")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: {path}: ") and result.output.count("\n") == 1
    assert not (tmp_path / "q.json").exists()


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc.update(entries=[["1.5"], ["0"]]), "entries must be an array of JSON numbers"),
    (lambda doc: doc.update(ema_counts=[1, None]), "ema_counts must be an array of JSON numbers"),
    (lambda doc: doc.update(ema_sums=[[True], [False]]),
     "ema_sums must be an array of JSON numbers"),
    (lambda doc: doc.update(decay="0.99"), "decay must be a JSON number"),
    (lambda doc: doc.update(decay=True), "decay must be a JSON number"),
    (lambda doc: doc.update(ema_counts=[1.0]), "EMA accumulator shapes do not match entries"),
    (lambda doc: doc.update(size=3), "size 3 does not match entries of shape (2, 1)"),
    (lambda doc: doc.update(width=1.0), "width must be a JSON integer"),
    (lambda doc: doc.update(width=True), "width must be a JSON integer"),
    (lambda doc: doc.update(extra=1), "unknown key 'extra'"),
    (lambda doc: doc.pop("decay"), "missing field 'decay'"),
    (lambda doc: doc.update(ema_counts=[True, 1]), "ema_counts must be an array of JSON numbers"),
    (lambda doc: doc.update(ema_counts=[0, 1]), "ema_counts must all be > 0"),
    (lambda doc: doc.update(ema_counts=[-1, 1]), "ema_counts must all be > 0"),
    (lambda doc: doc.update(entries=[[5.0], [0.0]]), "entries are not ema_sums / ema_counts"),
    (lambda doc: doc.update(ema_sums=[[1.0], [0.0]], ema_counts=[2, 1]),
     "entries are not ema_sums / ema_counts"),
    (lambda doc: doc.update(entries=[[1e300], [0.0]], ema_sums=[[1e300], [0.0]],
                            ema_counts=[1e-300, 1]), "entries are not ema_sums / ema_counts"),
], ids=["number-strings", "null", "booleans", "decay-string", "decay-bool", "ema-counts-length",
        "size", "width-float", "width-bool", "unknown-key", "no-decay", "booleans-among-numbers",
        "zero-count", "negative-count", "entry-off", "sums-off", "quotient-overflows"])
def test_bad_codebook_names_its_file(runner, tmp_path, edit, reason):
    path = tmp_path / "codebook.json"
    Codebook.new(np.zeros((2, 1))).save(path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    latent = _a_file(tmp_path, "[[1, 1, 1, 1]]")
    result = runner.invoke(main, ["quantize", "--latent", str(latent), "--codebook", str(path),
                                  "--out", str(tmp_path / "q.json")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: {path}: {reason}\n"
    assert not (tmp_path / "q.json").exists()


def test_quantize_refuses_a_codebook_holding_nan(runner, tmp_path):
    path = tmp_path / "codebook.json"
    Codebook.new(np.zeros((2, 1))).save(path)
    path.write_text(path.read_text().replace("0.0", "NaN", 1))
    latent = _a_file(tmp_path, "[[1, 1, 1, 1]]")
    result = runner.invoke(main, ["quantize", "--latent", str(latent), "--codebook", str(path),
                                  "--out", str(tmp_path / "q.json")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: {path}: non-finite number NaN is not JSON\n"
    assert not (tmp_path / "q.json").exists()


@pytest.mark.parametrize("beta, reason", [
    ("nan", "--beta value 'nan': malformed JSON (Expecting value at column 1)"),
    ("inf", "--beta value 'inf': malformed JSON (Expecting value at column 1)"),
    ("-1", "--beta must be a finite weight >= 0, got -1.0"),
    ("1e400", "--beta value '1e400': '1e400' is not a finite JSON number"),
    ("0.5 ", "--beta value '0.5 ': '0.5 ' is not a finite JSON number"),
], ids=["nan", "inf", "-1", "1e400", "space"])
def test_quantize_refuses_a_bad_beta(runner, tmp_path, beta, reason):
    Codebook.new(np.zeros((2, 2))).save(tmp_path / "codebook.json")
    latent = _a_file(tmp_path, "[[0, 0, 0, 0]]")
    out = tmp_path / "q" / "q.json"
    result = runner.invoke(main, ["quantize", "--latent", str(latent), "--codebook",
                                  str(tmp_path / "codebook.json"), "--beta", beta,
                                  "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: {reason}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("latent_scale, code_scale", [(1e200, 1.0), (1.0, 1e200)],
                         ids=["latent", "codebook"])
def test_quantize_refuses_overflowing_distances(runner, tmp_path, latent_scale, code_scale):
    Codebook.new(np.eye(2, 4) * code_scale).save(tmp_path / "codebook.json")
    latent = _a_file(tmp_path, json.dumps([[latent_scale] + [0.0] * 15]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would end the run unhandled
        result = runner.invoke(main, ["quantize", "--latent", str(latent), "--codebook",
                                      str(tmp_path / "codebook.json"),
                                      "--out", str(tmp_path / "q.json")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == (f"error: {latent}: squared distances between latent pieces "
                             "and codes overflow float64\n")
    assert not (tmp_path / "q.json").exists()


def test_analyze_names_plan_file_missing_a_field(runner, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("{}")
    result = runner.invoke(main, ["analyze", "--plan", str(path)])
    assert result.exit_code == 1
    assert f"error: {path}: missing field 'backbone'" in result.output


@pytest.mark.parametrize("ops, output_shape, reason", [
    ([{"kind": "Ln"}], [1, 4], "terminal shape (2, 4) != declared (1, 4)"),
    ([{"kind": "Ln"}] * 3, [1, 4], "layer 2: layer Ln produces non-integral shape from (1, 4)"),
    ([{"kind": "Ld", "factor": 3}], [4, 2], "layer factor 3 must be a power of two >= 1"),
    ([{"kind": "Ln", "target": True}], [2, 4], "ops[0]: target must be a JSON integer"),
    ([{"kind": "Ln"}], [True, 4], "output_shape must be a JSON list of two positive integers"),
], ids=["terminal-mismatch", "non-integral-shape", "factor-not-a-power-of-two", "boolean-target",
        "boolean-shape"])
def test_analyze_refuses_a_plan_whose_ops_miss_its_output(runner, tmp_path, ops, output_shape,
                                                          reason):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"backbone": "cnn", "direction": "encode", "ops": ops,
                                "input_shape": [4, 4], "output_shape": output_shape}))
    result = runner.invoke(main, ["analyze", "--plan", str(path)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("backbone, direction, ops, shapes, reason", [
    ("cnn", "decode", [{"kind": "Ld1", "factor": 2}], [[64, 8], [64, 4]],
     "layer 0: a cnn decode plan cannot hold Ld1"),
    ("cnn", "decode", [{"kind": "Ln"}], [[4, 4], [2, 4]],
     "layer 0: a cnn decode plan cannot hold Ln"),
    ("transformer", "encode", [{"kind": "Ld2", "factor": 2}, {"kind": "Un"}], [[4, 4], [8, 2]],
     "layer 1: a transformer encode plan cannot hold Un"),
], ids=["attention-in-cnn", "downsampling-in-decoder", "conv-in-transformer"])
def test_analyze_refuses_an_op_its_plan_cannot_hold(runner, tmp_path, backbone, direction, ops,
                                                    shapes, reason):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"backbone": backbone, "direction": direction, "ops": ops,
                                "input_shape": shapes[0], "output_shape": shapes[1]}))
    for attention in ("full", "linear"):
        result = runner.invoke(main, ["analyze", "--plan", str(path), "--attention", attention])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output == f"error: {path}: {reason}\n"


def _drop_last_field_of_row_2(path):
    lines = path.read_text().split("\n")
    lines[1] = lines[1].rsplit("\t", 1)[0]
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("edit, reason", [
    (lambda path: path.unlink(), "missing table file {path}"),
    (lambda path: path.write_text(path.read_text().replace("\tvalue\t", "\tvalu\t", 1)),
     "{path}: header ['patient_id', 'timestamp_seconds', 'item id', 'valu', 'unit'] does not "
     "match schema ['patient_id', 'timestamp_seconds', 'item id', 'value', 'unit']"),
    (_drop_last_field_of_row_2, "{path}:2: unpaired column/cell row"),
], ids=["missing", "renamed-header-column", "short-row"])
def test_load_names_the_fault_of_a_table_file(runner, tmp_path, edit, reason):
    corpus = tmp_path / "corpus"
    runner.invoke(main, ["gen", "--seed", "1", "--n-patients", "4", "--out", str(corpus)])
    edit(corpus / "lab.tsv")
    result = runner.invoke(main, ["load", "--in", str(corpus)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == "error: " + reason.format(path=corpus / "lab.tsv") + "\n"


def _config(**top):
    columns = [{"name": "value", "type": "numeric", "low": 1, "high": 2},
               {"name": "unit", "type": "text", "choices": ["mg"]},
               {"name": "item", "type": "itemized", "codes": ["c1"]}]
    doc = {"seed": 0, "n_patients": 3, "definitions": {"c1": "one"},
           "tables": [{"name": "lab", "columns": columns}]}
    return {**doc, **top}


def _with_column(i, **fields):
    doc = _config()
    doc["tables"][0]["columns"][i].update(fields)
    return doc


@pytest.mark.parametrize("doc, reason", [
    (_config(events_per_patient=[9, 6]), "events_per_patient range inverted"),
    (_with_column(0, low=3), "column lab.value: range min > max"),
    (_with_column(1, choices=[]), "column lab.unit: no text choices"),
    (_with_column(2, codes=[]), "column lab.item: no codes"),
    (_config(definitions={}), "column lab.item: codes without definitions: ['c1']"),
    ([], "expected a JSON object, got []"),
    (_with_column(0, low=float("nan")), "non-finite number NaN is not JSON"),
    (_with_column(0, low=-float("inf")), "non-finite number -Infinity is not JSON"),
    (json.dumps(_with_column(0, high=2)).replace('"high": 2', '"high": 1e400'),
     "column lab.value: low and high must be finite"),
    (json.dumps(_with_column(0, low=1)).replace('"low": 1', '"low": -1e400'),
     "column lab.value: low and high must be finite"),
    (_with_column(0, decimals=-1), "column lab.value: decimals must be >= 0"),
    (_config(tables=[{"name": "lab"}]), "tables[0] 'lab': missing field 'columns'"),
    (json.dumps(_with_column(0, high=2)).replace('"high": 2', '"high": ' + "1" * 401),
     "tables[0] 'lab', columns[0] 'value': high: int too large to convert to float"),
], ids=["events-inverted", "low-above-high", "no-choices", "no-codes", "undefined-codes",
        "not-an-object", "nan", "minus-infinity", "high-past-float", "low-past-float",
        "negative-decimals", "table-without-columns", "high-a-401-digit-integer"])
def test_gen_names_the_fault_of_its_config(runner, tmp_path, doc, reason):
    path = tmp_path / "config.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    result = runner.invoke(main, ["gen", "--config", str(path), "--out", str(tmp_path / "g")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: malformed generator config {path}: {reason}\n"
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc["patients"][0].update(id=5), "patients[0]: id must be a JSON string"),
    (lambda doc: doc["patients"][0].pop("id"), "patients[0]: missing field 'id'"),
    (lambda doc: doc["patients"][0].update(labels="x"),
     "patients[0] 'p00000': labels must be a JSON object"),
    (lambda doc: doc["patients"][1].update(labels={"outcome": [1]}),
     "patients[1] 'p00001': labels 'outcome' must be a JSON integer"),
    (lambda doc: doc["patients"][1].update(labels={"outcome": True}),
     "patients[1] 'p00001': labels 'outcome' must be a JSON integer"),
    (lambda doc: doc["patients"][1].update(age=3), "patients[1] 'p00001': unknown key 'age'"),
    (lambda doc: doc["patients"].append(doc["patients"][2]),
     "patient 'p00002': listed twice in the schema"),
    (lambda doc: doc.update(patients={}), "patients must be a JSON list of objects"),
    (lambda doc: doc.update(extra=1), "unknown key 'extra'"),
    (lambda doc: doc["tables"][0]["columns"][1].update(low=3),
     "tables[0] 'lab', columns[1] 'value': unknown key 'low'"),
    (lambda doc: doc["patients"][3].update(id=None), "patients[3]: id must be a JSON string"),
    (lambda doc: doc["tables"][1]["columns"][2].update(choices=["oral"]),
     "tables[1] 'prescription', columns[2] 'route': unknown key 'choices'"),
], ids=["id-a-number", "no-id", "labels-a-string", "label-a-list", "label-a-boolean",
        "entry-unknown-key", "patient-twice", "patients-an-object", "document-unknown-key",
        "column-low", "fourth-id-null", "route-choices"])
def test_load_checks_the_whole_schema_before_any_table(runner, tmp_path, edit, reason):
    corpus = tmp_path / "corpus"
    runner.invoke(main, ["gen", "--seed", "2", "--n-patients", "6", "--out", str(corpus)])
    schema = corpus / "schema.json"
    doc = json.loads(schema.read_text())
    edit(doc)
    schema.write_text(json.dumps(doc))
    (corpus / "lab.tsv").unlink()  # a schema let through would fail here, naming lab.tsv
    result = runner.invoke(main, ["load", "--in", str(corpus)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: {schema}: {reason}\n"


def _file_inputs(runner, tmp):
    """A valid file for each file option of the commands below, under `tmp`."""
    (tmp / "config.json").write_text(json.dumps(_config()))
    corpus, out = serialize_corpus(runner, tmp)
    corpus.rename(tmp / "corpus")
    (tmp / "vocab.txt").write_bytes((out / "vocab.txt").read_bytes())
    for name in ("generated", "train", "heldout", "synthetic", "reference", "hypothesis"):
        (tmp / f"{name}.jsonl").write_bytes((out / "streams_hier.jsonl").read_bytes())
    planner.save_plan(planner.cnn_plan(64, 8, 8, 8), tmp / "plan.json")
    (tmp / "latent.json").write_text("[[1, 1, 1, 1]]")
    Codebook.new(np.zeros((2, 1))).save(tmp / "codebook.json")
    (tmp / "scores.tsv").write_text("0.1\t0\n0.9\t1\n")
    return {
        "gen": ["gen", "--config", "config.json", "--out", "out"],
        "load": ["load", "--in", "corpus"],
        "serialize": ["serialize", "--in", "corpus", "--vocab", "vocab.txt", "--out", "out"],
        "audit": ["audit", "--real", "corpus", "--generated", "generated.jsonl",
                  "--vocab", "vocab.txt", "--out", "out"],
        "analyze": ["analyze", "--plan", "plan.json"],
        "quantize": ["quantize", "--latent", "latent.json", "--codebook", "codebook.json",
                     "--out", "out/q.json"],
        "privacy": ["privacy", "--train", "train.jsonl", "--heldout", "heldout.jsonl",
                    "--synthetic", "synthetic.jsonl", "--out", "out"],
        "metrics": ["metrics", "--reference", "reference.jsonl",
                    "--hypothesis", "hypothesis.jsonl"],
        "metrics-scores": ["metrics", "--scores", "scores.tsv"],
    }


_READS = [("gen", "config.json")] + [
    (command, f"corpus/{name}") for command in ("load", "serialize", "audit")
    for name in ("schema.json", "definitions.tsv", "lab.tsv")] + [
    ("serialize", "vocab.txt"), ("audit", "vocab.txt"), ("analyze", "plan.json"),
    ("quantize", "latent.json"), ("quantize", "codebook.json"), ("audit", "generated.jsonl"),
    ("privacy", "train.jsonl"), ("privacy", "heldout.jsonl"), ("privacy", "synthetic.jsonl"),
    ("metrics", "reference.jsonl"), ("metrics", "hypothesis.jsonl"),
    ("metrics-scores", "scores.tsv")]
_DEEP = "[" * 200_000 + "]" * 200_000 + "\n"


@pytest.mark.parametrize("command, name, fault", [
    (command, name, fault) for command, name in _READS
    for fault in ("non-text-byte", "deep-json") if fault == "non-text-byte" or "json" in name
], ids=lambda value: value.replace("/", "-"))
def test_each_file_read_names_the_file_of_its_fault(runner, tmp_path, monkeypatch, command,
                                                    name, fault):
    """A byte no text codec reads, or JSON nested past the parser's depth, in
    any file a command reads ends the run with one `error:` line naming that
    file (and line, in a stream file), never a traceback."""
    args = _file_inputs(runner, tmp_path)[command]
    path = tmp_path / name
    if fault == "non-text-byte":
        path.write_bytes(b"\xff" + path.read_bytes())
        reason = "not UTF-8 (invalid start byte at byte 1)"
    else:
        path.write_text(_DEEP)
        reason = "JSON nested too deeply"
    where = {"config.json": f"malformed generator config {name}"}.get(name, name)
    where += ", line 1" if name.endswith(".jsonl") else ""
    monkeypatch.chdir(tmp_path)  # the arguments name files relative to it
    result = runner.invoke(main, args)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: {where}: {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, reason", [
    (["serialize", "--in", "{corpus}", "--n-e", "3"], "n_e=3 must be a power of two"),
    (["plan", "--backbone", "transformer", "--layers", "0"], "n_l must be >= 1"),
    (["plan", "--grid", "4096:256"], "l_min must be <= l_max"),
    (["plan", "--backbone", "transformer", "--input", "64x8", "--output", "64x16"],
     "transformer schedule cannot expand channels"),
    (["privacy", "--train", "{corpus}", "--heldout", "{corpus}", "--synthetic", "{corpus}",
      "--thresholds", "0,a"],
     "--thresholds value 'a': malformed JSON (Expecting value at column 1)"),
    (["privacy", "--train", "{corpus}", "--heldout", "{corpus}", "--synthetic", "{corpus}",
      "--thresholds", "0,+0.5"],
     "--thresholds value '+0.5': malformed JSON (Expecting value at column 1)"),
    (["privacy", "--train", "{corpus}", "--heldout", "{corpus}", "--synthetic", "{corpus}",
      "--thresholds", "0,0.0_5"],
     "--thresholds value '0.0_5': malformed JSON (Extra data at column 4)"),
    (["privacy", "--train", "{corpus}", "--heldout", "{corpus}", "--synthetic", "{corpus}",
      "--thresholds", "0,\u0660.\u0665"],
     "--thresholds value '\u0660.\u0665': malformed JSON (Expecting value at column 1)"),
    (["privacy", "--train", "{corpus}", "--heldout", "{corpus}", "--synthetic", "{corpus}",
      "--thresholds", "0, 0.5"],
     "--thresholds value ' 0.5': ' 0.5' is not a finite JSON number"),
    (["privacy", "--train", "{corpus}", "--heldout", "{corpus}", "--synthetic", "{corpus}",
      "--thresholds", "0,0.5\n"],
     "--thresholds value '0.5\\n': '0.5\\n' is not a finite JSON number"),
    (["plan", "--input", "\u0668\u0661\u0669\u0662x256"],
     "expected NxD shape, got '\u0668\u0661\u0669\u0662x256'"),
    (["plan", "--input", " 8_192 x 256"], "expected NxD shape, got ' 8_192 x 256'"),
    (["plan", "--input", "8192x256.0"], "expected NxD shape, got '8192x256.0'"),
    (["plan", "--grid", "256:" + "[" * 100000], f"expected LMIN:LMAX, got '256:{'[' * 100000}'"),
    (["plan", "--backbone", "transformer", "--layers", "\u0664"],
     "--layers value '\u0664': malformed JSON (Expecting value at column 1)"),
    (["plan", "--kernel", " 3"], "--kernel value ' 3': ' 3' is not a JSON int"),
    (["plan", "--kernel", "3.0"], "--kernel value '3.0': '3.0' is not a JSON int"),
    (["gen", "--n-patients", "true"], "--n-patients value 'true': 'true' is not a JSON int"),
    (["serialize", "--in", "{corpus}", "--n-e", "1_6"],
     "--n-e value '1_6': malformed JSON (Extra data at column 2)"),
    (["privacy", "--train", "{corpus}", "--heldout", "{corpus}", "--synthetic", "{corpus}",
      "--nr", "1e1"], "--nr value '1e1': '1e1' is not a JSON int"),
], ids=["serialize-n-e", "plan-no-layers", "plan-grid-inverted", "plan-transformer-expands",
        "privacy-thresholds", "privacy-thresholds-plus", "privacy-thresholds-underscore",
        "privacy-thresholds-arabic-indic", "privacy-thresholds-space", "privacy-thresholds-newline",
        "plan-input-arabic-indic", "plan-input-spaced", "plan-input-float", "plan-grid-deep",
        "plan-layers-arabic-indic", "plan-kernel-space", "plan-kernel-float", "gen-n-patients-bool",
        "serialize-n-e-underscore", "privacy-nr-exponent"])
def test_bad_settings_are_refused_by_name(runner, tmp_path, args, reason):
    corpus = tmp_path / "corpus"
    runner.invoke(main, ["gen", "--seed", "1", "--n-patients", "2", "--out", str(corpus)])
    out = tmp_path / "out"
    result = runner.invoke(main, [a.format(corpus=corpus) for a in args] + ["--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: {reason}\n"
    assert not out.exists()


def test_vocabulary_listing_a_unit_twice_names_the_unit(runner, tmp_path):
    corpus, streams = serialize_corpus(runner, tmp_path)
    units = (streams / "vocab.txt").read_text().splitlines()
    vocab = tmp_path / "twice.txt"
    vocab.write_text("\n".join(units + [units[-1], units[-2]]) + "\n")
    result = runner.invoke(main, ["serialize", "--in", str(corpus), "--vocab", str(vocab),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: {vocab}: duplicate vocabulary unit {units[-2]!r}\n"


_PLAN = {"backbone": "cnn", "input_shape": "8192x256", "output_shape": "64x8", "n_l": 4}
_SERIALIZE = {"min_count": 2, "n_e": 256, "n_tpe": 128, "n_t": 8192}


@pytest.mark.parametrize("args, written, config, inputs, seed", [
    (["gen", "--n-patients", "6", "--seed", "4"],
     ["lab.tsv", "prescription.tsv", "infusion.tsv", "definitions.tsv", "schema.json"],
     {"seed": 4, "n_patients": 6}, [], 4),
    (["gen", "--config", "{genconfig}"], ["lab.tsv", "definitions.tsv", "schema.json"],
     {"seed": None, "n_patients": None}, ["genconfig"], 9),
    (["serialize", "--in", "{corpus}", "--vocab", "{vocab}", "--min-count", "2"],
     ["vocab.txt", "streams_hier.jsonl", "streams_flat.jsonl"], _SERIALIZE,
     ["corpus", "vocab"], None),
    (["plan", "--kernel", "3"], ["plan.json", "analysis.json"],
     {**_PLAN, "grid": None, "kernel": 3}, [], None),
    (["plan", "--grid", "256:512"], ["grid.tsv"], {**_PLAN, "grid": "256:512", "kernel": 5},
     [], None),
    (["quantize", "--latent", "{latent}", "--codebook", "{codebook}"], ["q.json"],
     {"beta": None}, ["latent", "codebook"], None),
    (["audit", "--real", "{corpus}", "--generated", "{hier}", "--vocab", "{vocab}"],
     ["audit_report.json"], {}, ["corpus", "hier", "vocab"], None),
    (["privacy", "--train", "{flat}", "--heldout", "{flat}", "--synthetic", "{flat}",
      "--nr", "2"], ["privacy_curve.tsv", "privacy_report.json"],
     {"n_r": 2, "thresholds": "0,0.05,0.1,0.2,0.5,1.0", "seed": 0}, ["flat"] * 3, 0),
], ids=["gen", "gen-config", "serialize", "plan", "plan-grid", "quantize", "audit", "privacy"])
def test_manifest_lists_exactly_the_files_written(runner, tmp_path, args, written, config,
                                                  inputs, seed):
    corpus_dir, streams = serialize_corpus(runner, tmp_path)
    Codebook.new(np.zeros((2, 2))).save(tmp_path / "codebook.json")
    (tmp_path / "latent.json").write_text(json.dumps([[0.0] * 8]))
    (tmp_path / "config.json").write_text(json.dumps(_config(seed=9)))
    paths = {"corpus": corpus_dir, "hier": streams / "streams_hier.jsonl",
             "flat": streams / "streams_flat.jsonl", "vocab": streams / "vocab.txt",
             "latent": tmp_path / "latent.json", "codebook": tmp_path / "codebook.json",
             "genconfig": tmp_path / "config.json"}
    out = tmp_path / "out"
    target = out / "q.json" if args[0] == "quantize" else out
    result = runner.invoke(main, [a.format(**paths) for a in args] + ["--out", str(target)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == args[0]
    assert manifest["outputs"] == [str(out / name) for name in written]
    # the command's own options: non-path ones as given, path ones given but --out
    assert list(manifest["config"].items()) == list(config.items())
    assert list(manifest["inputs"].items()) == list(
        {str(paths[name]): manifest_digest(paths[name]) for name in inputs}.items())
    assert manifest["seed"] == seed  # the effective seed, config's or --seed's
    assert sorted(p.name for p in out.iterdir()) == sorted(written + ["manifest.json"])
    mtimes = [(out / name).stat().st_mtime_ns for name in written + ["manifest.json"]]
    assert mtimes == sorted(mtimes)
    for name in [n for n in written if n.endswith(".json")] + ["manifest.json"]:
        text = (out / name).read_text()  # one compact line of JSON
        assert text.count("\n") == 1 and text.endswith("\n"), name
        json.loads(text)


def test_outputs_that_differ_come_with_manifests_that_differ(runner, tmp_path):
    corpus_dir, streams = serialize_corpus(runner, tmp_path)
    runs = [["plan", "--kernel", "3"], ["plan", "--kernel", "5"],
            ["plan", "--grid", "256:512", "--input", "4096x128"],
            ["plan", "--grid", "256:512", "--input", "8192x256"],
            ["serialize", "--in", str(corpus_dir)],
            ["serialize", "--in", str(corpus_dir), "--min-count", "1000"]]
    outputs, manifests = [], []
    for i, args in enumerate(runs):
        out = tmp_path / f"run{i}"
        assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
        outputs.append(dir_digest(out))
        manifests.append(json.loads((out / "manifest.json").read_text())["config"])
    for i in range(0, len(runs), 2):
        assert outputs[i] != outputs[i + 1] and manifests[i] != manifests[i + 1], runs[i + 1]


@pytest.mark.parametrize("args", [
    ["plan", "--grid", "256"],
    ["plan", "--input", "bad"],
    ["plan", "--input", "64x8", "--output", "128x8"],
    ["gen", "--n-patients", "-1"],
])
def test_failed_run_leaves_no_out_dir(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--out", str(tmp_path / "p")])
    assert result.exit_code == 1
    assert not (tmp_path / "p").exists()


def _gen_manifest(runner, out):
    runner.invoke(main, ["gen", "--n-patients", "6", "--out", str(out)])


@pytest.mark.parametrize("make_manifest", [
    _gen_manifest,
    lambda runner, out: out.mkdir() or (out / "manifest.json").write_text("[]"),
    lambda runner, out: out.mkdir() or (out / "manifest.json").write_text("{"),
    lambda runner, out: out.mkdir() or (out / "manifest.json").write_bytes(b"\xff{}"),
    lambda runner, out: out.mkdir() or (out / "manifest.json").write_text(_DEEP),
], ids=["gen", "not-an-object", "not-json", "non-text-byte", "deep-json"])
def test_writer_refuses_a_manifest_it_did_not_write(runner, tmp_path, make_manifest):
    out = tmp_path / "d"
    make_manifest(runner, out)
    before = (out / "manifest.json").read_bytes()
    Codebook.new(np.zeros((2, 2))).save(tmp_path / "codebook.json")
    (tmp_path / "latent.json").write_text(json.dumps([[0.0] * 8]))
    result = runner.invoke(main, ["quantize", "--latent", str(tmp_path / "latent.json"),
                                  "--codebook", str(tmp_path / "codebook.json"),
                                  "--out", str(out / "q.json")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == (f"error: {out / 'manifest.json'} is not a quantize manifest; "
                             "write quantize outputs to another directory\n")
    assert not (out / "q.json").exists()
    assert (out / "manifest.json").read_bytes() == before


def test_rerun_replaces_its_own_manifest(runner, tmp_path):
    for seed in ("1", "2"):
        result = runner.invoke(main, ["gen", "--seed", seed, "--n-patients", "6",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == 2


def test_audit_detokenizes_each_distinct_run_and_checks_each_distinct_pair_once(
        runner, tmp_path, monkeypatch):
    """A labeled audit detokenizes each distinct (type label, ids) run once and
    checks each distinct (table, column, content) once, not per occurrence."""
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    streams_path, vocab = out / "streams_hier.jsonl", Vocabulary.load(out / "vocab.txt")
    runs, distinct_runs, distinct_pairs = 0, set(), set()
    for stream in load_streams(streams_path):
        for row_tokens, row_labels in zip(stream.tokens.tolist(), stream.type_labels.tolist()):
            kept = len(row_tokens) - row_tokens.count(PAD_ID)
            start = 0
            for i in range(1, kept + 1):
                if i == kept or row_labels[i] != row_labels[start]:
                    if row_labels[start] != serializer.TokenType.TIMEGAP:  # read as its last unit
                        runs += 1
                        distinct_runs.add((row_labels[start], tuple(row_tokens[start:i])))
                    start = i
        for event in serializer.detokenize_events(stream, vocab):
            distinct_pairs.update((event.table.casefold(), col, content)
                                  for col, content in event.pairs)
    assert runs > 2 * len(distinct_runs) and distinct_pairs

    detokenized, checked = [], []
    detokenize, pair_defect = serializer.detokenize, audit_mod._pair_defect
    monkeypatch.setattr(serializer, "detokenize",
                        lambda units: detokenized.append(units) or detokenize(units))
    monkeypatch.setattr(audit_mod, "_pair_defect", lambda table, col, content, *rest:
                        checked.append((table, col, content)) or pair_defect(
                            table, col, content, *rest))
    result = runner.invoke(main, ["audit", "--real", str(corpus_dir),
                                  "--generated", str(streams_path),
                                  "--vocab", str(out / "vocab.txt"),
                                  "--out", str(tmp_path / "audit")])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["rce"] == 1.0
    assert len(detokenized) == len(distinct_runs)
    assert sorted(checked) == sorted(distinct_pairs)


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_restore_the_collectors_state(runner, tmp_path, monkeypatch, enabled):
    """The cyclic collector is paused while a command runs and is left as the
    caller had it after success, an `error:` exit and an exception."""
    during = []
    load_corpus = corpus_mod.load_corpus

    def watched(path, **options):
        during.append(gc.isenabled())
        if Path(path).name == "raises":
            raise RuntimeError("not a ValueError")
        return load_corpus(path, **options)

    monkeypatch.setattr(corpus_mod, "load_corpus", watched)
    corpus_dir = tmp_path / "corpus"
    assert runner.invoke(main, ["gen", "--seed", "1", "--n-patients", "2",
                                "--out", str(corpus_dir)]).exit_code == 0
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for where, code in ((corpus_dir, 0), (tmp_path / "missing", 1), (tmp_path / "raises", 1)):
            result = runner.invoke(main, ["load", "--in", str(where)])
            assert result.exit_code == code
            assert gc.isenabled() is enabled
        assert isinstance(result.exception, RuntimeError)
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False, False]
