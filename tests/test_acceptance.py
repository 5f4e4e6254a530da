"""Acceptance gate: one test (and one printed verdict line) per criterion.

Run with `pytest tests/test_acceptance.py -v`; each test prints
"PASS criterion N: ..." on success so the gate reads as a checklist.
"""

import random
import time

import numpy as np

from ehrseq import audit as A
from ehrseq import corpus as C
from ehrseq import planner as P
from ehrseq import serializer as S
from ehrseq.analyzer import (FULL_ATTENTION, LINEAR_ATTENTION, CostModel, analysis_report,
                             validate_plan)
from ehrseq.metrics import auroc
from ehrseq.privacy import AttackConfig, membership_attack
from ehrseq.serializer import ReconstructedEvent
from ehrseq.vocab import PAD_ID, build_vocabulary
from ehrseq.vq import Codebook, ema_update, quantize

from conftest import corpus_texts


def _report(capsys, line):
    with capsys.disabled():
        print(line)


def test_criterion_1_golden_cnn_plan(capsys):
    start = time.perf_counter()
    plan = P.cnn_plan(8192, 256, 64, 8)
    assert [op.kind for op in plan.ops] == [P.LND, P.LND, P.LND, P.LND, P.LN, P.LND, P.LN]
    shapes = [tuple(row["shape"]) for row in analysis_report(plan)["trace"]]
    assert shapes == [(4096, 128), (2048, 64), (1024, 32), (512, 16),
                      (256, 16), (128, 8), (64, 8)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(capsys, f"PASS criterion 1: golden CNN plan exact ({elapsed:.3f}s)")


def test_criterion_2_golden_transformer_plan(capsys):
    plan = P.transformer_plan(8192, 256, 64, 8, n_l=4)
    assert [(op.kind, op.factor) for op in plan.ops[:-1]] == [
        (P.LD1, 4), (P.LD2, 2), (P.LD2, 2), (P.LD2, 2)]
    assert plan.ops[-1].kind == P.POOL and plan.ops[-1].target == 64
    shapes = [tuple(row["shape"]) for row in analysis_report(plan)["trace"]]
    assert shapes == [(8192, 64), (8192, 32), (8192, 16), (8192, 8), (64, 8)]
    _report(capsys, "PASS criterion 2: golden Transformer plan exact")


def test_criterion_3_compression_rates(capsys):
    assert P.compression_rate_hier(256, 128, 256, 2048) == 4096
    grid = P.search_grid(256, 4096)
    hier = [P.compression_rate_hier(256, 128, 256, l) for l, _ in grid]
    flat = [P.compression_rate_flat(8192, 256, l) for l, _ in grid]
    assert (min(hier), max(hier)) == (2048, 32768)
    assert (min(flat), max(flat)) == (512, 8192)
    _report(capsys, "PASS criterion 3: compression rates span [2048,32768] / [512,8192]")


def test_criterion_4_count_identity_and_plan_validity(capsys):
    start = time.perf_counter()
    from collections import Counter
    for r_n in range(14):
        for r_d in range(14):
            counts = P.cnn_layer_counts(2 ** r_n, 2 ** r_d, 1, 1)
            order = P.cnn_layer_order(counts, r_n, r_d)
            assert Counter(order) == Counter({k: v for k, v in counts.items() if v})
    for _, specs in P.search_grid(256, 4096):
        for spec in specs:
            for plan in (P.cnn_plan(8192, 256, spec.t, spec.c),
                         P.transformer_plan(8192, 256, spec.t, spec.c, n_l=4)):
                assert validate_plan(plan) == []
                decoder = P.mirror_decoder(plan)
                assert tuple(analysis_report(decoder)["trace"][-1]["shape"]) == plan.input_shape
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(capsys, f"PASS criterion 4: count identity + grid/mirror validity ({elapsed:.3f}s)")


def test_criterion_5_serialization_properties(capsys):
    rng = random.Random(42)
    for _ in range(1000):
        int_digits = rng.randint(1, 6)
        frac_digits = rng.randint(0, 5)
        value = "".join(rng.choice("0123456789") for _ in range(int_digits))
        if frac_digits:
            value += "." + "".join(rng.choice("0123456789") for _ in range(frac_digits))
        labels = S._numeric_dpe_labels(value)
        places = {}
        has_point = False
        for ch, label in zip(value, labels):
            if label == S.DPE_DECIMAL_POINT:
                has_point = True
            else:
                places[S.dpe_place_value(label)] = ch
        rebuilt = "".join(places[k] for k in sorted(
            (k for k in places if k >= 0), reverse=True))
        if has_point:
            rebuilt += "." + "".join(places[k] for k in sorted(
                (k for k in places if k < 0), reverse=True))
        assert rebuilt == value

    corpus = C.generate_corpus(C.default_config(seed=5, n_patients=100))
    vocab = build_vocabulary(corpus_texts(corpus))
    config = S.SerializerConfig()
    for patient in corpus.patients:
        hier = S.build_hierarchical(patient, vocab, corpus.definitions, config)
        flat = S.flatten(hier, config.n_t)
        assert sorted(hier.tokens[hier.tokens != PAD_ID].tolist()) == \
            sorted(flat.tokens[flat.tokens != PAD_ID].tolist())
        events = S.detokenize_events(hier, vocab)
        assert len(events) == len(patient.events)
        for original, rebuilt in zip(patient.events, events):
            assert rebuilt.defect is None
            assert rebuilt.table == original.table_name.casefold()
            assert rebuilt.pairs == [
                (col.casefold(), S.textualize_cell(cell, corpus.definitions))
                for col, cell in original.columns
            ]
    _report(capsys, "PASS criterion 5: DPE roundtrip x1000 + conservation/roundtrip x100")


def test_criterion_6_vq_oracle(capsys):
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 16))
        width = int(rng.integers(1, 6))
        t = int(rng.integers(1, 5))
        book = Codebook.new(rng.normal(size=(k, width)))
        z = rng.normal(size=(t, 4 * width))
        indices = quantize(z, book).indices.reshape(-1)
        pieces = z.reshape(t * 4, width)
        for i, piece in enumerate(pieces):
            dists = [float(np.sum((piece - book.entries[j]) ** 2)) for j in range(k)]
            assert indices[i] == dists.index(min(dists))

    book = Codebook.new(rng.normal(size=(3, 2)), decay=0.9)
    clusters = {j: rng.normal(size=(4, 2)) for j in range(3)}
    assignments = [(j, v) for j, vs in clusters.items() for v in vs]
    for _ in range(300):
        ema_update(book, assignments)
    for j, vs in clusters.items():
        assert np.abs(book.entries[j] - vs.mean(axis=0)).max() < 1e-6
    _report(capsys, "PASS criterion 6: VQ brute-force oracle x100 + EMA fixed point")


def test_criterion_7_audit(capsys):
    corpus = C.generate_corpus(C.default_config(seed=11, n_patients=20))
    vocab = build_vocabulary(corpus_texts(corpus))
    triples = A.build_triples(corpus, vocab)
    samples = [
        S.detokenize_events(
            S.build_hierarchical(p, vocab, corpus.definitions), vocab)
        for p in corpus.patients
    ]
    clean = A.score(samples, triples, vocab)
    assert clean.rce == 1.0 and clean.rue == 1.0 and clean.rcs == 1.0

    schema = [C.TableSpec("lab", (C.ColumnSpec("value", "numeric"),))]
    patients = [C.PatientRecord("p0", [
        C.EventRecord("lab", (("value", C.numeric(v)),), timestamp=i)
        for i, v in enumerate(("3.0", "7.0"))])]
    tiny_vocab = build_vocabulary(
        corpus_texts(C.Corpus(patients, {}, schema)))
    tiny = A.build_triples(C.Corpus(patients, {}, schema), tiny_vocab)
    good = ReconstructedEvent(table="lab", pairs=[("value", "5 . 0")], timegap="[tg0]")
    bad = ReconstructedEvent(table="lab", pairs=[("value", "9 . 9")], timegap="[tg0]")
    r1 = A.score([[good] * 3, [good, good, bad], [good] * 5], tiny, tiny_vocab)
    assert r1.rce == 10 / 11
    r2 = A.score([[good, good, good, bad]], tiny, tiny_vocab)
    assert r2.rue == 1 / 2 and r2.rce == 3 / 4 and r2.rcs == 0.0

    events = [e for sample in samples for e in sample]
    order = list(range(len(events)))
    random.Random(0).shuffle(order)
    previous_rce = 1.1
    for level in range(50):
        n_bad = round(level / 49 * len(events))
        corrupt = set(order[:n_bad])
        mutated = [
            ReconstructedEvent(table="zz unknown", pairs=e.pairs, timegap=e.timegap)
            if i in corrupt else e
            for i, e in enumerate(events)
        ]
        rce = A.score([mutated], triples, vocab).rce
        assert rce <= previous_rce + 1e-12
        previous_rce = rce
    assert previous_rce == 0.0
    _report(capsys, "PASS criterion 7: audit self-consistency, fixtures, monotonicity")


def test_criterion_8_privacy(capsys):
    def streams(rows):
        return [np.asarray(r, dtype=np.int32) for r in rows]

    train = streams([[1, 2, 3, 4], [5, 6, 7, 8]])
    heldout = streams([[9, 9, 9, 9], [8, 8, 8, 8]])
    copied = membership_attack(train, heldout, streams([[1, 2, 3, 4]]),
                               AttackConfig(n_r=2, thresholds=(0.0,)))
    assert copied.results[0].recall == 0.5 and copied.results[0].precision == 1.0

    disjoint = membership_attack(train, heldout, streams([[0, 0, 0, 0]]),
                                 AttackConfig(n_r=2, thresholds=(0.0,)))
    assert disjoint.results[0].recall == 0.0
    assert disjoint.results[0].precision is None

    allflag = membership_attack(train, heldout, streams([[0, 0, 0, 0]]),
                                AttackConfig(n_r=2, thresholds=(1.0,)))
    assert allflag.results[0].recall == 1.0 and allflag.results[0].precision == 0.5

    rng = np.random.default_rng(13)
    report = membership_attack(
        streams(rng.integers(0, 4, size=(20, 16))),
        streams(rng.integers(0, 4, size=(20, 16))),
        streams(rng.integers(0, 4, size=(10, 16))),
        AttackConfig(n_r=15, thresholds=tuple(i / 10 for i in range(11)), seed=2))
    recalls = [r.recall for r in report.results]
    assert recalls == sorted(recalls)
    _report(capsys, "PASS criterion 8: privacy copy/disjoint/all-flag + monotone recall")


def test_criterion_9_auroc_oracle(capsys):
    rng = random.Random(4)
    for _ in range(1000):
        n = rng.randint(2, 12)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        scores = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
        pos = [s for s, y in zip(scores, labels) if y == 1]
        neg = [s for s, y in zip(scores, labels) if y == 0]
        oracle = sum(1.0 if p > q else 0.5 if p == q else 0.0
                     for p in pos for q in neg) / (len(pos) * len(neg))
        assert abs(auroc(scores, labels) - oracle) <= 1e-12
    _report(capsys, "PASS criterion 9: AUROC matches pairwise oracle x1000")


def test_criterion_10_cost_ordering(capsys):
    for cost in (CostModel(attention_variant=FULL_ATTENTION),
                 CostModel(attention_variant=LINEAR_ATTENTION)):
        for _, specs in P.search_grid(256, 4096):
            for spec in specs:
                cnn = P.cnn_plan(8192, 256, spec.t, spec.c)
                trf = P.transformer_plan(8192, 256, spec.t, spec.c, n_l=4)
                cnn_report, trf_report = analysis_report(cnn, cost), analysis_report(trf, cost)
                assert cnn_report["params"] < trf_report["params"]
                assert cnn_report["flops"] < trf_report["flops"]
    _report(capsys, "PASS criterion 10: CNN < Transformer params and FLOPs on every grid "
                    "point, full and linear attention")
