"""Tests of the benchmark itself, at smoke scale.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run([sys.executable, str(bench / "run.py"), "--workload", workload,
                           "--seed", "1", "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", ["prep", "score", "design"])
def test_end_to_end_run_passes_every_oracle(workload):
    proc = smoke(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in spec()["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_ratio       0 (0 failed /" in proc.stdout


LAYERS = {"corpus", "vocab", "serializer", "audit", "privacy", "metrics",
          "planner", "analyzer", "vq", "manifest", "cli"}
IDLE_LAYERS = {
    "prep": {"audit", "privacy", "metrics", "planner", "analyzer", "vq"},
    "score": {"planner", "analyzer", "vq"},
    "design": {"corpus", "vocab", "serializer", "audit", "privacy", "metrics"},
}


@pytest.mark.parametrize("workload", ["prep", "score", "design"])
def test_traced_run_reports_every_layer(workload):
    proc = smoke(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert [m["name"] for m in spec()["per_layer"]] == list(metrics)
    for layer in LAYERS:
        calls = metrics[f"{layer}.calls"]["value"]
        assert (calls == 0) == (layer in IDLE_LAYERS[workload]), (layer, calls)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("prep", 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- the oracles reject wrong outputs -----------------------------------------

def test_quantize_oracle_rejects_the_higher_tied_index(tmp_path):
    scale = workloads.SCALES["smoke"]
    workloads.WORKLOADS["design"].setup(tmp_path, 1, scale)
    truth = np.load(tmp_path / "inputs" / "truth.npz")
    z, entries = truth["z"], truth["entries"]
    pieces = z.reshape(-1, entries.shape[1])
    d2 = ((pieces[:, None, :] - entries[None]) ** 2).sum(axis=2)
    indices = d2.argmin(axis=1)
    tied = [i for i in range(len(pieces)) if np.count_nonzero(d2[i] == d2[i].min()) > 1]
    assert tied, "the design inputs must contain exact ties"

    def write(idx):
        z_q = entries[idx].reshape(z.shape)
        distance = float(np.sum((z - z_q) ** 2))
        (tmp_path / "q.json").write_text(json.dumps({
            "indices": idx.reshape(-1, 4).tolist(), "z_q": z_q.tolist(),
            "commitment_distance": distance, "commitment_term": 0.25 * distance}))

    write(indices)
    workloads.check_quantize(tmp_path / "q.json", truth)
    wrong = indices.copy()
    wrong[tied[0]] = np.flatnonzero(d2[tied[0]] == d2[tied[0]].min())[-1]
    write(wrong)
    with pytest.raises(AssertionError):
        workloads.check_quantize(tmp_path / "q.json", truth)


def test_privacy_oracle_rejects_a_wrong_recall(tmp_path):
    rng = np.random.default_rng(0)
    truth = {"train": rng.integers(0, 5, (6, 32)), "heldout": rng.integers(0, 5, (6, 32))}
    truth["synthetic"] = np.concatenate([truth["train"][:2], truth["heldout"][:3] + 1])
    from ehrseq import privacy
    report = privacy.membership_attack(list(truth["train"]), list(truth["heldout"]),
                                       list(truth["synthetic"]),
                                       privacy.AttackConfig(3, (0.0, 0.5, 1.0), seed=1))
    doc = {"train_indices": report.train_indices, "heldout_indices": report.heldout_indices,
           "results": [{"threshold": r.threshold, "precision": r.precision,
                        "recall": r.recall, "flagged": r.flagged} for r in report.results]}
    curve = ["threshold\tprecision\trecall"] + [
        f"{t}\t{'' if p is None else p}\t{r}" for t, p, r in report.rows()]
    (tmp_path / "privacy_curve.tsv").write_text("\n".join(curve) + "\n")
    (tmp_path / "privacy_report.json").write_text(json.dumps(doc))
    workloads.check_privacy(tmp_path, truth, 3, [0.0, 0.5, 1.0])
    doc["results"][0]["recall"] += 1 / 3
    (tmp_path / "privacy_report.json").write_text(json.dumps(doc))
    with pytest.raises(AssertionError):
        workloads.check_privacy(tmp_path, truth, 3, [0.0, 0.5, 1.0])


def test_flatten_rows_matches_the_serializer():
    from ehrseq import corpus, serializer
    from ehrseq.vocab import build_vocabulary
    data = corpus.generate_corpus(corpus.default_config(seed=3, n_patients=4))
    vocab = build_vocabulary(workloads.corpus_texts(data))
    for p in data.patients:
        h = serializer.build_hierarchical(p, vocab, data.definitions,
                                          serializer.SerializerConfig(n_e=8, n_tpe=32))
        f = serializer.flatten(h, n_t=64)
        tokens, types, dpes, bounds = workloads.flatten_rows(
            h.tokens, h.type_labels, h.dpe_labels, n_t=64)
        assert np.array_equal(f.tokens, tokens) and np.array_equal(f.type_labels, types)
        assert np.array_equal(f.dpe_labels, dpes) and f.event_boundaries == bounds
