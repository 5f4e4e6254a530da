"""Span tracing for the benchmark's traced passes.

Each public ehrseq function the command chain reaches is wrapped at the
name its caller looks up: module attributes for ``corpus_mod.load_corpus``
style calls, the importing module for from-imports (``cli.write_manifest``,
``serializer.tokenize``, ``audit.tokenize``), the class for class methods.
A span records key, layer, start, end and the index of its parent span.
Spans stay in memory until the pass ends; ``Tracer.metrics`` then turns
them into per-layer numbers.  Nothing here changes what the program does.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("corpus", "vocab", "serializer", "audit", "privacy", "metrics",
          "planner", "analyzer", "vq", "manifest", "cli")
COMMANDS = ("gen", "load", "serialize", "plan", "analyze", "quantize",
            "audit", "privacy", "metrics")


# Counters read the bound arguments of a wrapped call after its span closes.

def _bytes_written(counts, args, result):
    counts["serializer.bytes_written"] += os.path.getsize(args["path"])


def _bytes_read(counts, args, result):
    counts["serializer.bytes_read"] += os.path.getsize(args["path"])


def _cells_compared(counts, args, result):
    synthetic = args["synthetic"]
    width = np.asarray(synthetic[0]).size if len(synthetic) else 0
    counts["privacy.cells_compared"] += 2 * args["config"].n_r * len(synthetic) * width


def _positions_compared(counts, args, result):
    counts["metrics.positions_compared"] += args["reference"].tokens.size


def _plans(counts, args, result):
    counts["planner.plans"] += 1


def _reports(counts, args, result):
    counts["analyzer.reports"] += 1


def _distance_cells(counts, args, result):
    codebook = args["codebook"]
    counts["vq.distance_cells"] += (4 * np.asarray(args["z"]).shape[0]
                                    * codebook.size * codebook.width)


def _bytes_digested(counts, args, result):
    counts["manifest.bytes_digested"] += sum(os.path.getsize(p) for p in args["inputs"])


# (module, attribute, layer, key, counter).  A key names what a span does;
# several attributes share one key when they are the same kind of work.
SPANS = (
    ("ehrseq.corpus", "generate_corpus", "corpus", "corpus.generate", None),
    ("ehrseq.corpus", "save_corpus", "corpus", "corpus.save", None),
    ("ehrseq.corpus", "load_corpus", "corpus", "corpus.load", None),
    ("ehrseq.cli", "build_vocabulary", "vocab", "vocab.build", None),
    ("ehrseq.vocab", "Vocabulary.load", "vocab", "vocab.load", None),
    ("ehrseq.vocab", "Vocabulary.save", "vocab", "vocab.save", None),
    ("ehrseq.serializer", "tokenize", "vocab", "vocab.tokenize", None),
    ("ehrseq.audit", "tokenize", "vocab", "vocab.tokenize", None),
    ("ehrseq.serializer", "detokenize", "vocab", "vocab.detokenize", None),
    ("ehrseq.serializer", "build_hierarchical", "serializer",
     "serializer.build_hierarchical", None),
    ("ehrseq.serializer", "flatten", "serializer", "serializer.flatten", None),
    ("ehrseq.serializer", "save_streams", "serializer", "serializer.save_streams",
     _bytes_written),
    ("ehrseq.serializer", "load_streams", "serializer", "serializer.load_streams",
     _bytes_read),
    ("ehrseq.serializer", "detokenize_events", "serializer",
     "serializer.detokenize_events", None),
    ("ehrseq.audit", "build_triples", "audit", "audit.build_triples", None),
    ("ehrseq.audit", "score", "audit", "audit.score", None),
    ("ehrseq.privacy", "membership_attack", "privacy", "privacy.attack", _cells_compared),
    ("ehrseq.metrics", "token_accuracy", "metrics", "metrics.token_accuracy",
     _positions_compared),
    ("ehrseq.planner", "cnn_plan", "planner", "planner.plan", _plans),
    ("ehrseq.planner", "transformer_plan", "planner", "planner.plan", _plans),
    ("ehrseq.planner", "hierarchical_plan", "planner", "planner.plan", None),
    ("ehrseq.planner", "search_grid", "planner", "planner.grid", None),
    ("ehrseq.planner", "save_plan", "planner", "planner.save", None),
    ("ehrseq.planner", "load_plan", "planner", "planner.load", None),
    ("ehrseq.cli", "analysis_report", "analyzer", "analyzer.report", _reports),
    ("ehrseq.cli", "validate_plan", "analyzer", "analyzer.validate", None),
    ("ehrseq.vq", "Codebook.load", "vq", "vq.codebook_load", None),
    ("ehrseq.vq", "quantize", "vq", "vq.quantize", _distance_cells),
    ("ehrseq.vq", "ema_update", "vq", "vq.ema_update", None),
    ("ehrseq.cli", "write_manifest", "manifest", "manifest.write", _bytes_digested),
)

# keys reported as "<key>_s": inclusive time of the outermost span of that key
TIMED_KEYS = (
    "corpus.generate", "corpus.save", "corpus.load",
    "vocab.build", "vocab.tokenize",
    "serializer.build_hierarchical", "serializer.flatten", "serializer.save_streams",
    "serializer.load_streams", "serializer.detokenize_events",
    "audit.build_triples", "audit.score",
    "privacy.attack", "metrics.token_accuracy",
    "planner.plan", "analyzer.report",
    "vq.codebook_load", "vq.quantize", "vq.ema_update",
    "manifest.write",
)

COUNTS = ("vocab.tokenize_word_calls", "serializer.bytes_written", "serializer.bytes_read",
          "audit.events_checked", "privacy.cells_compared", "metrics.positions_compared",
          "planner.plans", "analyzer.reports", "vq.distance_cells",
          "manifest.bytes_digested")

# measured by the workload's oracle or set-up, not by spans
PROPERTIES = ("serializer.payload_ratio_hier", "serializer.payload_ratio_flat",
              "serializer.events_truncated")

PER_LAYER = (
    [f"{layer}.{what}" for layer in LAYERS for what in ("calls", "self_s")]
    + [f"{key}_s" for key in TIMED_KEYS]
    + list(COUNTS)
    + ["vocab.word_repeat_ratio", "audit.raw_event_share", "privacy.cells_per_s",
       "vq.temp_bytes_computed"]
    + [f"cli.{command}.self_s" for command in COMMANDS]
    + list(PROPERTIES)
    + ["tracing_overhead_s"]
)


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if "ratio" in name or name.endswith("_share"):
        return "ratio"
    return "count"


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans and counts for one pass while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [key, layer, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen_words: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self):
        try:
            for module, attribute, layer, key, counter in SPANS:
                owner, name = _resolve(module, attribute)
                self._patch(owner, name, lambda fn: self._wrap(fn, layer, key, counter))
            owner, name = _resolve("ehrseq.vocab", "tokenize_word")
            self._patch(owner, name, self._count_words)
            owner, name = _resolve("ehrseq.audit", "check_event")
            self._patch(owner, name, self._count_events)
            yield self
        finally:
            for owner, name, original in reversed(self._undo):
                setattr(owner, name, original)
            self._undo.clear()

    def _patch(self, owner, name, make):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._undo.append((owner, name, original))
        setattr(owner, name, replacement)

    @contextmanager
    def span(self, key: str, layer: str):
        record = [key, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = perf_counter()
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def command(self, name: str):
        """Span of one CLI invocation; word repeats are counted per command."""
        self._seen_words.clear()
        return self.span(f"cli.{name}", "cli")

    def _wrap(self, fn, layer, key, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            record = [key, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _count_words(self, fn):
        counts, seen = self.counts, self._seen_words

        def tokenize_word(word, vocab):
            counts["vocab.tokenize_word_calls"] += 1
            if word in seen:
                counts["vocab.tokenize_word_repeats"] += 1
            else:
                seen.add(word)
            return fn(word, vocab)

        return functools.update_wrapper(tokenize_word, fn)

    def _count_events(self, fn):
        counts = self.counts

        def check_event(event, triples, vocab):
            counts["audit.events_checked"] += 1
            if event.words is not None:
                counts["audit.raw_events_checked"] += 1
            return fn(event, triples, vocab)

        return functools.update_wrapper(check_event, fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of the recorded pass (no properties, no overhead).

        A span's self time is its duration minus the time its child spans
        cover; children of one span never overlap, since the chain runs on
        one thread.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        key_s: defaultdict = defaultdict(float)
        for i, (key, layer, start, end, parent) in enumerate(spans):
            calls[layer] += 1
            own = end - start - covered[i]
            self_s[layer] += own
            if layer == "cli":
                self_s[key] += own
            while parent >= 0 and spans[parent][0] != key:
                parent = spans[parent][4]
            if parent < 0:
                key_s[key] += end - start

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for key in TIMED_KEYS:
            out[f"{key}_s"] = key_s[key]
        c = self.counts
        for name in COUNTS:
            out[name] = c[name]
        out["vocab.word_repeat_ratio"] = _ratio(c["vocab.tokenize_word_repeats"],
                                                c["vocab.tokenize_word_calls"])
        out["audit.raw_event_share"] = _ratio(c["audit.raw_events_checked"],
                                              c["audit.events_checked"])
        out["privacy.cells_per_s"] = _ratio(c["privacy.cells_compared"],
                                            out["privacy.attack_s"])
        out["vq.temp_bytes_computed"] = 8 * c["vq.distance_cells"]  # float64 cells
        for command in COMMANDS:
            out[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
