import hashlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ehrseq
from ehrseq.cli import main
from ehrseq.serializer import SerializerConfig, load_streams
from ehrseq.vocab import is_timegap_id
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


@pytest.mark.parametrize("corrupt, reason", [
    (lambda line: line[: len(line) // 2], "malformed JSON"),
    (lambda line: json.dumps({"patient_id": "p", "layout": "hierarchical",
                              "tokens": [[4, 5], [6]]}), "inhomogeneous"),
    (lambda line: line.replace('": "', '": "\udcff', 1),
     "not UTF-8 (invalid start byte at byte 17)"),
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


def test_metrics_accuracy_and_auroc(runner, tmp_path):
    _, out = serialize_corpus(runner, tmp_path)
    scores = tmp_path / "scores.tsv"
    scores.write_text("0.1\t0\n0.4\t0\n0.35\t1\n0.8\t1\n")
    result = runner.invoke(main, [
        "metrics", "--reference", str(out / "streams_flat.jsonl"),
        "--hypothesis", str(out / "streams_flat.jsonl"),
        "--scores", str(scores)])
    assert result.exit_code == 0, result.output
    assert "token_accuracy\t1.0" in result.output
    assert "auroc\t0.75" in result.output


@pytest.mark.parametrize("row", ["0.5", "abc\t1", "0.5\tyes", "0.5\t1\t0", "nan\t1"])
def test_metrics_names_row_of_bad_score(runner, tmp_path, row):
    scores = tmp_path / "scores.tsv"
    scores.write_text(f"0.1\t0\n{row}\n0.8\t1\n")
    result = runner.invoke(main, ["metrics", "--scores", str(scores)])
    assert result.exit_code == 1
    assert result.output == f"error: {scores}:2: expected score<TAB>label\n"


def test_metrics_without_inputs_fails(runner):
    result = CliRunner().invoke(main, ["metrics"])
    assert result.exit_code == 1


def test_manifest_contents(runner, tmp_path):
    out = tmp_path / "corpus"
    runner.invoke(main, ["gen", "--seed", "7", "--n-patients", "4", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 7
    assert manifest["tool_version"] == ehrseq.__version__
    assert manifest["outputs"] and all(isinstance(p, str) for p in manifest["outputs"])


def test_serialize_manifest_digests_every_corpus_file_it_reads(runner, tmp_path):
    corpus_dir, out = serialize_corpus(runner, tmp_path)
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    read = [p for p in sorted(corpus_dir.iterdir()) if p.name != "manifest.json"]
    assert "schema.json" in [p.name for p in read]
    assert inputs == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in read}


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


def _corpus_with_schema(tmp_path, schema):
    path = tmp_path / "bad_corpus"
    path.mkdir()
    (path / "schema.json").write_text(json.dumps(schema))
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
], ids=["serialize-bad-vocab", "audit-bad-vocab", "plan-grid-one-number",
        "gen-out-under-file", "serialize-out-is-file",
        "analyze-not-json", "gen-config-not-json", "quantize-codebook-empty",
        "load-schema-without-tables", "load-table-without-columns"])
def test_bad_input_is_one_error_line(runner, tmp_path, make_args):
    corpus = tmp_path / "corpus"
    runner.invoke(main, ["gen", "--seed", "1", "--n-patients", "6", "--out", str(corpus)])
    result = runner.invoke(main, make_args(tmp_path, str(corpus)))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ") and result.output.count("\n") == 1


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
                                    "[[true, false, true, false]]"],
                         ids=["malformed", "ragged", "non-number", "1-d", "object",
                              "non-finite", "number-strings", "null", "booleans"])
def test_bad_latent_names_its_file(runner, tmp_path, latent):
    path = _a_file(tmp_path, latent)
    Codebook.new(np.zeros((2, 1))).save(tmp_path / "codebook.json")
    result = runner.invoke(main, ["quantize", "--latent", str(path), "--codebook",
                                  str(tmp_path / "codebook.json"), "--out", str(tmp_path / "q.json")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: {path}: ") and result.output.count("\n") == 1
    assert not (tmp_path / "q.json").exists()


def test_quantize_reads_booleans_among_numbers_as_0_and_1(runner, tmp_path):
    Codebook.new([[0.0], [1.0]]).save(tmp_path / "codebook.json")
    latent = _a_file(tmp_path, "[[true, 0, false, 1]]")
    result = runner.invoke(main, ["quantize", "--latent", str(latent), "--codebook",
                                  str(tmp_path / "codebook.json"), "--out", str(tmp_path / "q.json")])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "q.json").read_text())["indices"] == [[1, 0, 0, 1]]


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc.update(entries=[["1.5"], ["0"]]), "entries must be an array of JSON numbers"),
    (lambda doc: doc.update(ema_counts=[1, None]), "ema_counts must be an array of JSON numbers"),
    (lambda doc: doc.update(ema_sums=[[True], [False]]),
     "ema_sums must be an array of JSON numbers"),
    (lambda doc: doc.update(decay="0.99"), "decay must be a JSON number"),
    (lambda doc: doc.update(decay=True), "decay must be a JSON number"),
    (lambda doc: doc.update(size=3), "size 3 does not match entries of shape (2, 1)"),
    (lambda doc: doc.update(width=1.0), "width 1.0 does not match entries of shape (2, 1)"),
    (lambda doc: doc.update(width=True), "width True does not match entries of shape (2, 1)"),
], ids=["number-strings", "null", "booleans", "decay-string", "decay-bool", "size", "width-float",
        "width-bool"])
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
    assert result.output == f"error: {path}: codebook holds non-finite values\n"
    assert not (tmp_path / "q.json").exists()


@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_quantize_refuses_a_bad_beta(runner, tmp_path, beta):
    Codebook.new(np.zeros((2, 2))).save(tmp_path / "codebook.json")
    latent = _a_file(tmp_path, "[[0, 0, 0, 0]]")
    out = tmp_path / "q" / "q.json"
    result = runner.invoke(main, ["quantize", "--latent", str(latent), "--codebook",
                                  str(tmp_path / "codebook.json"), "--beta", beta,
                                  "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: --beta must be a finite weight >= 0, got {float(beta)}\n"
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


@pytest.mark.parametrize("args, written", [
    (["gen", "--n-patients", "6"],
     ["lab.tsv", "prescription.tsv", "infusion.tsv", "definitions.tsv", "schema.json"]),
    (["serialize", "--in", "{corpus}"],
     ["vocab.txt", "streams_hier.jsonl", "streams_flat.jsonl"]),
    (["plan"], ["plan.json", "analysis.json"]),
    (["plan", "--grid", "256:512"], ["grid.tsv"]),
    (["quantize", "--latent", "{latent}", "--codebook", "{codebook}"], ["q.json"]),
    (["audit", "--real", "{corpus}", "--generated", "{hier}", "--vocab", "{vocab}"],
     ["audit_report.json"]),
    (["privacy", "--train", "{flat}", "--heldout", "{flat}", "--synthetic", "{flat}",
      "--nr", "2"], ["privacy_curve.tsv", "privacy_report.json"]),
], ids=["gen", "serialize", "plan", "plan-grid", "quantize", "audit", "privacy"])
def test_manifest_lists_exactly_the_files_written(runner, tmp_path, args, written):
    corpus_dir, streams = serialize_corpus(runner, tmp_path)
    Codebook.new(np.zeros((2, 2))).save(tmp_path / "codebook.json")
    (tmp_path / "latent.json").write_text(json.dumps([[0.0] * 8]))
    inputs = {"corpus": corpus_dir, "hier": streams / "streams_hier.jsonl",
              "flat": streams / "streams_flat.jsonl", "vocab": streams / "vocab.txt",
              "latent": tmp_path / "latent.json", "codebook": tmp_path / "codebook.json"}
    out = tmp_path / "out"
    target = out / "q.json" if args[0] == "quantize" else out
    result = runner.invoke(main, [a.format(**inputs) for a in args] + ["--out", str(target)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == args[0]
    assert manifest["outputs"] == [str(out / name) for name in written]
    assert sorted(p.name for p in out.iterdir()) == sorted(written + ["manifest.json"])
    mtimes = [(out / name).stat().st_mtime_ns for name in written + ["manifest.json"]]
    assert mtimes == sorted(mtimes)
    for name in [n for n in written if n.endswith(".json")] + ["manifest.json"]:
        text = (out / name).read_text()  # one compact line of JSON
        assert text.count("\n") == 1 and text.endswith("\n"), name
        json.loads(text)


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
], ids=["gen", "not-an-object", "not-json"])
def test_writer_refuses_a_manifest_it_did_not_write(runner, tmp_path, make_manifest):
    out = tmp_path / "d"
    make_manifest(runner, out)
    before = (out / "manifest.json").read_bytes()
    Codebook.new(np.zeros((2, 2))).save(tmp_path / "codebook.json")
    (tmp_path / "latent.json").write_text(json.dumps([[0.0] * 8]))
    result = runner.invoke(main, ["quantize", "--latent", str(tmp_path / "latent.json"),
                                  "--codebook", str(tmp_path / "codebook.json"),
                                  "--out", str(out / "q.json")])
    assert result.exit_code == 1
    assert result.output.startswith(f"error: {out / 'manifest.json'} ")
    assert result.output.count("\n") == 1
    assert not (out / "q.json").exists()
    assert (out / "manifest.json").read_bytes() == before


def test_rerun_replaces_its_own_manifest(runner, tmp_path):
    for seed in ("1", "2"):
        result = runner.invoke(main, ["gen", "--seed", seed, "--n-patients", "6",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == 2
