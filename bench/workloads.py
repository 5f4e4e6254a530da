"""The benchmark's workloads: input set-up, one pass of the command chain,
and the oracles that check a pass's outputs.

Every command goes through ``ehrseq.cli`` in process, one at a time (a
closed loop with one client).  Set-up and the full oracles run in a helper
process (see ``run.py``), so the main process's peak RSS holds the command
chain alone.  Oracles never compare file bytes: a storage-format change
may change the bytes and still be correct.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import shutil
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np
from click.testing import CliRunner

from ehrseq import corpus as corpus_mod
from ehrseq import planner, serializer, vq
from ehrseq.cli import main as cli_main
from ehrseq.vocab import (N_TIMEGAP_TOKENS, PAD_ID, RESERVED, TIMEGAP_ID0, Vocabulary,
                          build_vocabulary)

DEFAULT_SEED = 1
GOLDEN_PATH = Path(__file__).parent / "golden.json"  # outputs of the seed commit

# serializer defaults, restated so the oracles do not read them from the code
# under test
N_E, N_TPE, N_T = 256, 128, 8192
TIMEGAP_BOUNDARIES_MIN = (1, 5, 15, 30, 60, 120, 360, 720)
TYPE_COLUMN_VALUE = 3


@dataclass(frozen=True)
class Scale:
    prep_patients: int
    score_patients: int
    score_events: tuple[int, int]   # events per patient; above N_E some are cut
    copies: int                     # train records copied verbatim into the generated set
    n_r: int                        # privacy pool size per side
    latent: tuple[int, int]         # (t, c) of the latent to quantize
    codebook_size: int


SCALES = {
    "full": Scale(300, 120, (64, 320), 8, 10, (256, 256), 1024),
    "smoke": Scale(12, 12, (64, 320), 2, 3, (16, 16), 64),
}


@dataclass
class Step:
    """One operation of a pass: a CLI command or a library call."""

    op: str
    seconds: float
    ok: bool
    stdout: str = ""
    value: object = None


@dataclass
class Run:
    work: Path
    seed: int
    scale: Scale
    tracer: Optional[object] = None
    runner: CliRunner = field(default_factory=CliRunner)
    data: dict = field(default_factory=dict)

    @property
    def inputs(self) -> Path:
        return self.work / "inputs"

    @property
    def out(self) -> Path:
        return self.work / "out"


def cli(run: Run, op: str, args: list[str]) -> Step:
    start = perf_counter()
    if run.tracer is None:
        result = run.runner.invoke(cli_main, args)
    else:
        with run.tracer.command(args[0]):
            result = run.runner.invoke(cli_main, args)
    seconds = perf_counter() - start
    ok = result.exit_code == 0
    return Step(op, seconds, ok, result.stdout if ok else result.output)


def warm(run: Run) -> None:
    """Load click's lazily imported parts and every command's help, untimed."""
    for command in ("gen", "load", "serialize", "plan", "analyze", "quantize",
                    "audit", "privacy", "metrics"):
        run.runner.invoke(cli_main, [command, "--help"])


def call(op: str, fn, *args) -> Step:
    start = perf_counter()
    try:
        value = fn(*args)
    except Exception:  # a failing library call is a failed operation, not a crash
        return Step(op, perf_counter() - start, False, traceback.format_exc())
    return Step(op, perf_counter() - start, True, value=value)


class OracleFailures(dict):
    """op -> reason; a check that raises marks its op failed."""

    @contextmanager
    def op(self, name: str):
        try:
            yield
        except Exception as exc:  # any surprise in an output is that op's failure
            self.setdefault(name, f"{type(exc).__name__}: {exc}")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


# --- stream helpers shared by set-up and oracles -----------------------------

def flatten_rows(tokens, types, dpes, n_t=N_T):
    """De-padded rows of one grid, concatenated and cut at n_t, plus bounds."""
    mask = tokens != PAD_ID
    lengths = mask.sum(axis=1)
    lengths = lengths[lengths > 0]

    def cut(values):
        out = np.zeros(n_t, dtype=np.int32)
        kept = values[mask][:n_t]
        out[:len(kept)] = kept
        return out

    ends = np.cumsum(lengths)
    bounds = [(int(e - n), int(min(e, n_t))) for e, n in zip(ends, lengths) if e - n < n_t]
    return (cut(tokens), None if types is None else cut(types),
            None if dpes is None else cut(dpes), bounds)


def is_timegap(tokens):
    return (tokens >= TIMEGAP_ID0) & (tokens < TIMEGAP_ID0 + N_TIMEGAP_TOKENS)


def raw_event_count(tokens) -> int:
    """Events a label-less flat stream splits into at its time-gap tokens."""
    payload = tokens[tokens != PAD_ID]
    if not len(payload):
        return 0
    return int(is_timegap(payload).sum()) + int(not is_timegap(payload[-1:])[0])


def write_streams(path: Path, records) -> None:
    """Today's dense JSONL record format, as external generators emit it."""
    with open(path, "w") as fh:
        for pid, layout, tokens, types, dpes, bounds in records:
            fh.write(json.dumps({
                "patient_id": pid,
                "layout": layout,
                "tokens": tokens.tolist(),
                "type_labels": None if types is None else types.tolist(),
                "dpe_labels": None if dpes is None else dpes.tolist(),
                "event_boundaries": bounds,
            }) + "\n")


def corpus_texts(corpus):
    for p in corpus.patients:
        for e in p.events:
            yield e.table_name
            for col, cell in e.columns:
                yield col
                yield serializer.textualize_cell(cell, corpus.definitions)


def words(text: str) -> str:
    return " ".join(text.casefold().split())


def cell_text(cell, definitions) -> str:
    """Cell text as the serializer spec states it: codes by description,
    numbers one character per word."""
    if cell.kind == corpus_mod.NUMERIC:
        return words(" ".join(cell.value))
    if cell.kind == corpus_mod.ITEMIZED:
        return words(definitions[cell.value])
    return words(cell.value)


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def corpus_digest(corpus) -> str:
    """SHA-256 of the patients, events, cells and code definitions, in a
    canonical JSON form that does not depend on the corpus file layout."""
    doc = {
        "definitions": sorted(corpus.definitions.items()),
        "patients": [[p.patient_id, sorted(p.labels.items()),
                      [[e.timestamp, e.table_name,
                        [[col, cell.kind, cell.value] for col, cell in e.columns]]
                       for e in p.events]]
                     for p in corpus.patients],
    }
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


class Workload:
    def prepare(self, run: Run, out: Path) -> None:
        """Untimed work before each pass, after its output directory is emptied."""

    def check_in_process(self, run: Run, steps: list[Step]) -> dict:
        """Failures of library calls whose results live in this process."""
        return {}


# --- prep: gen -> load -> serialize on a sparse corpus ------------------------

class Prep(Workload):
    """Write path on the padding-heavy default corpus."""

    def setup(self, work: Path, seed: int, scale: Scale) -> dict:
        reset_dir(work / "inputs")  # the inputs are the seed and the default config
        return {}

    def chain(self, run: Run) -> list[Step]:
        out, n = run.out, run.scale.prep_patients
        return [
            cli(run, "gen", ["gen", "--seed", str(run.seed), "--n-patients", str(n),
                             "--out", f"{out}/gen"]),
            cli(run, "load", ["load", "--in", f"{out}/gen"]),
            cli(run, "serialize", ["serialize", "--in", f"{out}/gen",
                                   "--out", f"{out}/serialize"]),
        ]

    def check(self, work, seed, scale_name, facts, stdout) -> tuple[dict, dict]:
        out, scale = work / "out", SCALES[scale_name]
        corpus = corpus_mod.generate_corpus(
            corpus_mod.default_config(seed=seed, n_patients=scale.prep_patients))
        table_rank = {t.name: i for i, t in enumerate(corpus.schema)}
        # the TSV layout groups rows by table, so equal timestamps load in table order
        events = {p.patient_id: sorted(p.events, key=lambda e: (e.timestamp,
                                                                table_rank[e.table_name]))
                  for p in corpus.patients}
        failures = OracleFailures()
        properties = {"serializer.events_truncated": sum(
            max(0, len(evs) - N_E) for evs in events.values())}

        with failures.op("gen"):
            if seed == DEFAULT_SEED:
                expect(corpus_digest(corpus) == golden()["prep"][scale_name]["corpus_sha256"],
                       "generated corpus differs from the seed commit's")
            loaded = corpus_mod.load_corpus(out / "gen")
            expect([(p.patient_id, p.labels, p.events) for p in loaded.patients]
                   == [(p.patient_id, p.labels, events[p.patient_id])
                       for p in corpus.patients],
                   "written corpus does not load back as the generated corpus")
        with failures.op("load"):
            n_events = sum(len(evs) for evs in events.values())
            expect(stdout["load"].strip() == f"{len(corpus.patients)} patients, "
                   f"{n_events} events, {len(corpus.schema)} tables",
                   f"load summary {stdout['load'].strip()!r}")
            if seed == DEFAULT_SEED:
                expect(stdout["load"].strip() == golden()["prep"][scale_name]["load"],
                       "load summary differs from the seed commit's")
        with failures.op("serialize"):
            streams = out / "serialize"
            vocab = Vocabulary.load(streams / "vocab.txt")
            hier = serializer.load_streams(streams / "streams_hier.jsonl")
            flat = serializer.load_streams(streams / "streams_flat.jsonl")
            expect(len(hier) == len(flat) == len(corpus.patients), "stream count")
            cells = {"hier": [0, 0], "flat": [0, 0]}
            for p, h, f in zip(corpus.patients, hier, flat):
                expect(h.patient_id == f.patient_id == p.patient_id, "patient order")
                expect(h.tokens.shape == (N_E, N_TPE), f"grid shape {h.tokens.shape}")
                got = [(e.table, e.pairs, e.timegap, e.defect, e.words)
                       for e in serializer.detokenize_events(h, vocab)]
                expect(got == expected_events(events[p.patient_id][:N_E], corpus.definitions),
                       f"{p.patient_id}: detokenized events differ from the corpus")
                tokens, types, dpes, bounds = flatten_rows(h.tokens, h.type_labels,
                                                           h.dpe_labels)
                expect(np.array_equal(f.tokens, tokens)
                       and np.array_equal(f.type_labels, types)
                       and np.array_equal(f.dpe_labels, dpes)
                       and [tuple(b) for b in f.event_boundaries] == bounds,
                       f"{p.patient_id}: flattened stream is not the de-padded grid")
                for layout, s in (("hier", h), ("flat", f)):
                    cells[layout][0] += int(np.count_nonzero(s.tokens != PAD_ID))
                    cells[layout][1] += s.tokens.size
            for layout, (payload, total) in cells.items():
                properties[f"serializer.payload_ratio_{layout}"] = payload / total
        return dict(failures), properties

    def stages(self, steps: list[Step]) -> dict[str, float]:
        return {"serialize_s": _seconds(steps, "serialize")}


def expected_events(events, definitions) -> list[tuple]:
    expected, prev = [], 0
    for e in events:
        bucket = bisect.bisect_right(TIMEGAP_BOUNDARIES_MIN, (e.timestamp - prev) / 60.0)
        prev = e.timestamp
        pairs = [(words(col), cell_text(cell, definitions)) for col, cell in e.columns]
        expected.append((words(e.table_name), pairs, f"[tg{bucket}]", None, None))
    return expected


# --- score: audit, privacy and metrics on a dense corpus ---------------------

def dense_corpus(seed: int, scale: Scale) -> corpus_mod.Corpus:
    """Default-config patients whose event counts step evenly through
    scale.score_events, each drawn by the generator with its own seed."""
    n = scale.score_patients
    lo, hi = scale.score_events
    base = corpus_mod.default_config(seed=seed, n_patients=1)
    patients = []
    for i in range(n):
        count = lo + round(i * (hi - lo) / (n - 1))
        config = replace(base, seed=seed * 1_000_003 + i, events_per_patient=(count, count))
        patient = corpus_mod.generate_corpus(config).patients[0]
        patient.patient_id = f"p{i:05d}"
        patients.append(patient)
    return corpus_mod.Corpus(patients, dict(base.definitions), list(base.tables))


class Score(Workload):
    """Read path: stream files written by the benchmark, scored by the CLI."""

    ops = ("audit_labeled", "audit_raw", "privacy", "metrics")
    thresholds = "0,0.005,0.01,0.05,0.2,1"

    def setup(self, work: Path, seed: int, scale: Scale) -> dict:
        inputs = work / "inputs"
        reset_dir(inputs)
        corpus = dense_corpus(seed, scale)
        corpus_mod.save_corpus(corpus, inputs / "real")
        vocab = build_vocabulary(corpus_texts(corpus))
        vocab.save(inputs / "vocab.txt")
        grids = [serializer.build_hierarchical(p, vocab, corpus.definitions)
                 for p in corpus.patients]
        tokens = np.stack([g.tokens for g in grids])
        types = np.stack([g.type_labels for g in grids])
        dpes = np.stack([g.dpe_labels for g in grids])
        pids = [p.patient_id for p in corpus.patients]

        # patients come in pairs of near-equal length; a seeded coin sends one
        # of each pair to train and one to held-out, and copies are taken from
        # fixed pairs, so every seed scores the same amount of work
        rng = np.random.default_rng(seed)
        pairs = np.arange(len(pids) // 2)
        coin = rng.integers(0, 2, len(pairs))
        train, heldout = 2 * pairs + coin, 2 * pairs + 1 - coin
        copies = train[np.linspace(0, len(pairs) - 1, scale.copies).round().astype(int)]

        # perturbed held-out grids: 2 % of non-time-gap tokens replaced by a
        # random unit, 1 % of events relabelled so they do not start with a table
        g_tokens, g_types = tokens[heldout].copy(), types[heldout].copy()
        payload = g_tokens != PAD_ID
        hit = payload & ~is_timegap(g_tokens) & (rng.random(g_tokens.shape) < 0.02)
        g_tokens[hit] = rng.integers(len(RESERVED), len(vocab), int(hit.sum()))
        relabel = payload[:, :, 0] & (rng.random(payload.shape[:2]) < 0.01)
        g_types[:, :, 0][relabel] = TYPE_COLUMN_VALUE
        g_dpes = dpes[heldout]
        g_pids = [f"g{pids[i]}" for i in heldout]

        gen_tokens = np.concatenate([g_tokens, tokens[copies]])
        gen_types = np.concatenate([g_types, types[copies]])
        gen_dpes = np.concatenate([g_dpes, dpes[copies]])
        gen_pids = g_pids + [pids[i] for i in copies]

        train_flat = [flatten_rows(tokens[i], types[i], dpes[i]) for i in train]
        heldout_flat = [flatten_rows(tokens[i], types[i], dpes[i]) for i in heldout]
        gen_flat = [(flatten_rows(t, None, None)[0], None, None, None) for t in gen_tokens]
        # hypotheses: the perturbed held-out streams, a seeded half of them
        # cut short, as a generator that stops early would emit them
        hyp_flat = []
        for f, cut_short in zip(gen_flat, rng.random(len(heldout)) < 0.5):
            hyp = f[0].copy()
            if cut_short:
                hyp[int(0.9 * np.count_nonzero(hyp)):] = PAD_ID
            hyp_flat.append((hyp, None, None, None))

        write_streams(inputs / "gen_labeled.jsonl",
                      [(pid, "hierarchical", t, ty, d, None)
                       for pid, t, ty, d in zip(gen_pids, gen_tokens, gen_types, gen_dpes)])
        for name, records, names in (("gen_raw", gen_flat, gen_pids),
                                     ("train", train_flat, [pids[i] for i in train]),
                                     ("heldout", heldout_flat, [pids[i] for i in heldout]),
                                     ("hyp", hyp_flat, g_pids)):
            write_streams(inputs / f"{name}.jsonl",
                          [(pid, "flattened", *f) for pid, f in zip(names, records)])

        def stack(records):
            return np.stack([f[0] for f in records])

        flats = stack(train_flat + heldout_flat + gen_flat + hyp_flat)
        np.savez(inputs / "truth.npz", train=stack(train_flat), heldout=stack(heldout_flat),
                 synthetic=stack(gen_flat), hypothesis=stack(hyp_flat))
        return {
            "labeled": [len(gen_pids), int((gen_tokens != PAD_ID).any(axis=2).sum())],
            "raw": [len(gen_pids), sum(raw_event_count(f[0]) for f in gen_flat)],
            "properties": {
                "serializer.payload_ratio_hier": float(np.count_nonzero(gen_tokens)
                                                       / gen_tokens.size),
                "serializer.payload_ratio_flat": float(np.count_nonzero(flats) / flats.size),
                "serializer.events_truncated": sum(max(0, len(p.events) - N_E)
                                                   for p in corpus.patients),
            },
        }

    def chain(self, run: Run) -> list[Step]:
        inputs, out = run.inputs, run.out
        audit = ["audit", "--real", f"{inputs}/real", "--vocab", f"{inputs}/vocab.txt"]
        return [
            cli(run, "audit_labeled", audit + ["--generated", f"{inputs}/gen_labeled.jsonl",
                                               "--out", f"{out}/audit_labeled"]),
            cli(run, "audit_raw", audit + ["--generated", f"{inputs}/gen_raw.jsonl",
                                           "--out", f"{out}/audit_raw"]),
            cli(run, "privacy", ["privacy", "--train", f"{inputs}/train.jsonl",
                                 "--heldout", f"{inputs}/heldout.jsonl",
                                 "--synthetic", f"{inputs}/gen_raw.jsonl",
                                 "--nr", str(run.scale.n_r), "--seed", str(run.seed),
                                 "--thresholds", self.thresholds,
                                 "--out", f"{out}/privacy"]),
            cli(run, "metrics", ["metrics", "--reference", f"{inputs}/heldout.jsonl",
                                 "--hypothesis", f"{inputs}/hyp.jsonl"]),
        ]

    def check(self, work, seed, scale_name, facts, stdout) -> tuple[dict, dict]:
        out, scale = work / "out", SCALES[scale_name]
        truth = np.load(work / "inputs" / "truth.npz")
        failures = OracleFailures()
        for kind in ("labeled", "raw"):
            with failures.op(f"audit_{kind}"):
                report = json.loads((out / f"audit_{kind}" / "audit_report.json").read_text())
                expect([report["total_samples"], report["total_events"]] == facts[kind],
                       f"samples/events {report['total_samples']}/{report['total_events']}"
                       f" != written {facts[kind]}")
                if seed == DEFAULT_SEED:
                    expect(report == golden()["audit"][scale_name][kind],
                           "report differs from the seed commit's")
        with failures.op("privacy"):
            check_privacy(out / "privacy", truth, scale.n_r,
                          [float(t) for t in self.thresholds.split(",")])
        with failures.op("metrics"):
            ref, hyp = truth["heldout"], truth["hypothesis"]
            values = []
            for r, h in zip(ref, hyp):
                mask = r != PAD_ID
                if mask.any():
                    values.append(int(np.count_nonzero((r == h) & mask)) / int(mask.sum()))
            name, value = stdout["metrics"].strip().split("\t")
            expect(name == "token_accuracy"
                   and np.isclose(float(value), sum(values) / len(values), rtol=1e-12, atol=0),
                   f"token accuracy {value} != recount {sum(values) / len(values)}")
        return dict(failures), facts["properties"]

    def stages(self, steps: list[Step]) -> dict[str, float]:
        return {f"{op}_s": _seconds(steps, op) for op in self.ops}


def check_privacy(out: Path, truth, n_r: int, thresholds: list[float]) -> None:
    """Brute-force minimum Hamming distance from each pool record to every
    synthetic record, then precision and recall per threshold."""
    report = json.loads((out / "privacy_report.json").read_text())
    train, heldout, synthetic = truth["train"], truth["heldout"], truth["synthetic"]
    ti, hi = report["train_indices"], report["heldout_indices"]
    for idx, pool in ((ti, train), (hi, heldout)):
        expect(len(idx) == n_r and idx == sorted(set(idx))
               and all(0 <= i < len(pool) for i in idx), f"pool indices {idx}")
    pool = np.concatenate([train[ti], heldout[hi]])
    length = pool.shape[1]
    min_dist = [min(int(np.count_nonzero(s != record)) for s in synthetic) / length
                for record in pool]
    expected = []
    for t in thresholds:
        flagged = [i for i, d in enumerate(min_dist) if d <= t]
        tp = sum(i < n_r for i in flagged)
        expected.append({"threshold": t, "precision": tp / len(flagged) if flagged else None,
                         "recall": tp / n_r, "flagged": flagged})
    expect(report["results"] == expected, "privacy results differ from brute force")
    rows = (out / "privacy_curve.tsv").read_text().splitlines()
    expect(rows[0] == "threshold\tprecision\trecall", "curve header")
    parsed = [[float(x) if x else None for x in row.split("\t")] for row in rows[1:]]
    expect(parsed == [[e["threshold"], e["precision"], e["recall"]] for e in expected],
           "privacy curve differs from brute force")


# --- design: plans, analysis and VQ; no corpus --------------------------------

BACKBONES = (planner.CNN, planner.TRANSFORMER)
ATTENTION = {planner.CNN: "full", planner.TRANSFORMER: "linear"}
# flat n_t x d and hierarchical (n_e * n_tpe) x d inputs
SHAPES = tuple((n, d) for n in (N_T, N_E * N_TPE) for d in (64, 128, 256))
PLAN_OUTPUT = "64x8"
GRID, GRID_PLANS = "256:4096", 25  # five latent sizes, five (t, c) shapes each
HIER_ARGS = (N_E, N_TPE, 256, (64, 8))


class Design(Workload):
    """Planner, analyzer and VQ; corpus, vocabulary and streams do nothing."""

    def setup(self, work: Path, seed: int, scale: Scale) -> dict:
        inputs = work / "inputs"
        reset_dir(inputs)
        t, c = scale.latent
        k, w = scale.codebook_size, c // 4
        rng = np.random.default_rng(seed)
        entries = rng.standard_normal((k, w))
        # duplicated codes and latent pieces equal to the higher copy make
        # exact ties, which must break to the lower index
        dup = rng.choice(k // 2, size=max(1, k // 64), replace=False)
        entries[k - 1 - dup] = entries[dup]
        pieces = entries[rng.integers(0, k, 4 * t)] + 0.3 * rng.standard_normal((4 * t, w))
        exact = rng.choice(4 * t, size=max(1, t // 8), replace=False)
        pieces[exact] = entries[k - 1 - dup[rng.integers(0, len(dup), len(exact))]]
        z = pieces.reshape(t, c)
        (inputs / "latent.json").write_text(json.dumps(z.tolist()))
        (inputs / "codebook.json").write_text(json.dumps({
            "size": k, "width": w, "decay": 0.99, "entries": entries.tolist(),
            "ema_counts": np.ones(k).tolist(), "ema_sums": entries.tolist()}))
        np.savez(inputs / "truth.npz", z=z, entries=entries)
        return {}

    @staticmethod
    def plan_ops():
        for backbone in BACKBONES:
            for n, d in SHAPES:
                yield backbone, f"{backbone}_{n}x{d}", f"{n}x{d}"

    def prepare(self, run: Run, out: Path) -> None:
        # quantize --out does not create its directory
        (out / "quantize").mkdir(parents=True, exist_ok=True)
        if "pieces" not in run.data:
            truth = np.load(run.inputs / "truth.npz")
            run.data["pieces"] = truth["z"].reshape(-1, truth["entries"].shape[1])
            run.data["entries"] = truth["entries"]

    def chain(self, run: Run) -> list[Step]:
        out, inputs = run.out, run.inputs
        steps = []
        for backbone in BACKBONES:
            steps.append(cli(run, f"grid_{backbone}",
                             ["plan", "--backbone", backbone, "--grid", GRID,
                              "--out", f"{out}/grid_{backbone}"]))
        for backbone, name, shape in self.plan_ops():
            steps.append(cli(run, f"plan_{name}",
                             ["plan", "--backbone", backbone, "--input", shape,
                              "--output", PLAN_OUTPUT, "--out", f"{out}/plan_{name}"]))
            steps.append(cli(run, f"analyze_{name}",
                             ["analyze", "--plan", f"{out}/plan_{name}/plan.json",
                              "--attention", ATTENTION[backbone]]))
        n_e, n_tpe, d, (t, c) = HIER_ARGS
        for backbone in BACKBONES:
            steps.append(call(f"hier_plan_{backbone}", planner.hierarchical_plan,
                              n_e, n_tpe, d, planner.LatentSpec(t, c), backbone))
        q_path = f"{out}/quantize/q.json"
        steps.append(cli(run, "quantize", ["quantize", "--latent", f"{inputs}/latent.json",
                                           "--codebook", f"{inputs}/codebook.json",
                                           "--beta", "0.25", "--out", q_path]))
        if not steps[-1].ok:
            return steps + [Step("ema_update", 0.0, False, "no quantize output")]
        try:
            indices = np.asarray(json.loads(Path(q_path).read_text())["indices"]).ravel()
        except (OSError, ValueError, KeyError) as exc:
            return steps + [Step("ema_update", 0.0, False, f"unreadable quantize output: {exc}")]
        run.data["indices"] = indices
        assignments = list(zip(indices.tolist(), run.data["pieces"]))
        steps.append(call("ema_update", lambda: vq.ema_update(
            vq.Codebook.load(f"{inputs}/codebook.json"), assignments)))
        return steps

    def check(self, work, seed, scale_name, facts, stdout) -> tuple[dict, dict]:
        out, gold = work / "out", golden()
        failures = OracleFailures()
        for backbone in BACKBONES:
            with failures.op(f"grid_{backbone}"):
                rows = (out / f"grid_{backbone}" / "grid.tsv").read_text().splitlines()
                parsed = [[x if x == backbone else int(x) for x in row.split("\t")]
                          for row in rows[1:]]
                expect(parsed == gold["grid"][backbone], "grid rows differ from the seed commit's")
        for _, name, _ in self.plan_ops():
            want = gold["plans"][name]
            with failures.op(f"plan_{name}"):
                plan = json.loads((out / f"plan_{name}" / "plan.json").read_text())
                expect({k: plan[k] for k in want["plan"]} == want["plan"],
                       "plan differs from the seed commit's")
                report = json.loads((out / f"plan_{name}" / "analysis.json").read_text())
                expect([report["params"], report["flops"]] == want["cost"],
                       "plan's params/FLOPs differ from the seed commit's")
            with failures.op(f"analyze_{name}"):
                report = json.loads(stdout[f"analyze_{name}"])
                expect([report["params"], report["flops"]] == want["cost"],
                       "analysis params/FLOPs differ from the seed commit's")
        with failures.op("quantize"):
            check_quantize(out / "quantize" / "q.json", np.load(work / "inputs" / "truth.npz"))
        return dict(failures), {}

    def check_in_process(self, run: Run, steps: list[Step]) -> dict:
        failures = OracleFailures()
        by_op = {s.op: s for s in steps}
        for backbone in BACKBONES:
            step = by_op[f"hier_plan_{backbone}"]
            if step.ok:
                with failures.op(step.op):
                    hp = step.value
                    got = {"text_plan": planner.plan_to_dict(hp.text_plan),
                           "event_plan": planner.plan_to_dict(hp.event_plan),
                           "intermediate_width": hp.intermediate_width}
                    expect(got == golden()["hier_plans"][backbone],
                           "hierarchical plan differs from the seed commit's")
        step = by_op["ema_update"]
        if step.ok:
            with failures.op("ema_update"):
                check_ema(step.value, run.data["indices"], run.data["pieces"],
                          run.data["entries"])
        return dict(failures)

    def stages(self, steps: list[Step]) -> dict[str, float]:
        plan_seconds = sum(s.seconds for s in steps
                           if s.op.startswith(("grid_", "plan_", "analyze_", "hier_plan_")))
        plans = len(BACKBONES) * (GRID_PLANS + len(SHAPES) + 1)
        return {"plans_per_s": plans / plan_seconds, "quantize_s": _seconds(steps, "quantize")}


def check_quantize(path: Path, truth) -> None:
    """Indices must be the brute-force argmin with lowest-index tie-break."""
    doc = json.loads(path.read_text())
    z, entries = truth["z"], truth["entries"]
    pieces = z.reshape(-1, entries.shape[1])
    expected = np.empty(len(pieces), dtype=np.int64)
    for start in range(0, len(pieces), 64):
        chunk = pieces[start:start + 64]
        d2 = np.sum((chunk[:, None, :] - entries[None, :, :]) ** 2, axis=2)
        expected[start:start + 64] = np.argmin(d2, axis=1)  # first minimum = lowest index
    indices = np.asarray(doc["indices"])
    expect(indices.shape == (z.shape[0], 4) and np.array_equal(indices.ravel(), expected),
           f"{int(np.count_nonzero(indices.ravel() != expected))} indices differ from "
           "brute force")
    z_q = entries[expected].reshape(z.shape)
    expect(np.array_equal(np.asarray(doc["z_q"]), z_q), "z_q is not the chosen codes")
    expect(np.isclose(doc["commitment_distance"], float(np.sum((z - z_q) ** 2)),
                      rtol=1e-12, atol=0), "commitment distance")
    expect(np.isclose(doc["commitment_term"], 0.25 * doc["commitment_distance"],
                      rtol=1e-12, atol=0), "commitment term")


def check_ema(codebook, indices, pieces, entries, decay=0.99) -> None:
    """EMA update recomputed with numpy from N_k = 1, m_k = e_k."""
    counts = np.zeros(len(entries))
    sums = np.zeros_like(entries)
    np.add.at(counts, indices, 1.0)
    np.add.at(sums, indices, pieces)
    touched = counts > 0
    ema_counts = np.ones(len(entries))
    ema_sums = entries.copy()
    ema_counts[touched] = decay * ema_counts[touched] + (1 - decay) * counts[touched]
    ema_sums[touched] = decay * ema_sums[touched] + (1 - decay) * sums[touched]
    expected = entries.copy()
    expected[touched] = ema_sums[touched] / ema_counts[touched, None]
    for name, got, want in (("counts", codebook.ema_counts, ema_counts),
                            ("sums", codebook.ema_sums, ema_sums),
                            ("entries", codebook.entries, expected)):
        expect(np.allclose(got, want, rtol=1e-12, atol=0), f"EMA {name} differ from numpy")


def _seconds(steps: list[Step], op: str) -> float:
    return sum(s.seconds for s in steps if s.op == op)


WORKLOADS = {"prep": Prep(), "score": Score(), "design": Design()}


# --- entry points for the helper process --------------------------------------

def run_setup(name: str, work: str, seed: int, scale: str) -> dict:
    return WORKLOADS[name].setup(Path(work), seed, SCALES[scale])


def run_check(name: str, work: str, seed: int, scale: str, facts: dict,
              stdout: dict) -> tuple[dict, dict]:
    return WORKLOADS[name].check(Path(work), seed, scale, facts, stdout)
