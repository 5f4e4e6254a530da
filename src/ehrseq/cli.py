"""Command-line pipelines: gen, load, serialize, plan, analyze, quantize,
audit, privacy, metrics.  Every run that writes files writes them, and a
manifest next to them, only once its work has succeeded; quality and privacy
scores are report contents, never exit failures.  Bad input or a failed read
or write exits 1 with one `error:` line."""

from __future__ import annotations

import functools
import gc
import itertools
import math
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from . import audit as audit_mod
from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import planner, privacy, serializer, vq
from .analyzer import (FULL_ATTENTION, LINEAR_ATTENTION, CostModel, analysis_report,
                       validate_plan)
from .manifest import json_doc, json_numbers, json_text, reading, write_manifest
from .vocab import Vocabulary, build_vocabulary


def _run(command):
    """The error boundary of a command's body: library errors (all
    ValueError) and failed file operations end the run with `error:
    <message>` and exit 1, as a refused option value (`_Number`) does.

    The cyclic garbage collector is paused while the command runs, and its
    state restored however the command ends: the events, cells, streams and
    memos a command builds hold no reference cycles, so reference counting
    frees them, and the collector would only re-walk them as they grow."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return command(*args, **kwargs)
        except (ValueError, OSError) as exc:
            _refuse(exc)
        finally:
            if collecting:
                gc.enable()
    return run


def _refuse(fault) -> NoReturn:
    """End the run as every refusal does: `error: <fault>`, exit 1."""
    click.echo(f"error: {fault}", err=True)
    sys.exit(1)


def _save(out_dir, files: dict, seed=None) -> None:
    """The one output step of a writing command: make `out_dir`, write each of
    `files` (name -> text, or a function that writes the path it is given) in
    order, then the manifest: the command, as `config` its non-path options as
    given, as `inputs` its path options given but `--out`, `seed`, and exactly
    those files.  A manifest that another command wrote in `out_dir` is
    refused before anything is written."""
    context = click.get_current_context()
    command, params, given = context.command.name, context.command.params, context.params
    out = Path(out_dir)
    manifest = out / "manifest.json"
    if manifest.exists():
        refusal = (f"{manifest} is not a {command} manifest; "
                   f"write {command} outputs to another directory")
        with reading(manifest, lambda _fault: ValueError(refusal)):  # any fault is the refusal
            if json_doc(manifest.read_text()).get("command") != command:
                raise ValueError(refusal)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if callable(content):
            content(out / name)
        else:
            (out / name).write_text(content)
    config = {p.name: given[p.name] for p in params if not isinstance(p.type, click.Path)}
    inputs = [given[p.name] for p in params if isinstance(p.type, click.Path)
              and "--out" not in p.opts and given[p.name] is not None]
    write_manifest(out, command, config, inputs=inputs,
                   outputs=[out / name for name in files], seed=seed)


def _json_number(text: str, kind: type = float) -> int | float:
    """The command line's one number rule: a JSON number, not a bool, with
    nothing around it.  Where an int is meant it must be a JSON int; a float
    must be finite, and is `float` of the text (`-0` is -0.0)."""
    value = json_doc(text)
    if text == text.strip() and type(value) in (int, kind):
        if kind is int:
            return value
        if math.isfinite(float(text)):
            return float(text)
    raise ValueError(f"{text!r} is not a {'JSON int' if kind is int else 'finite JSON number'}")


class _Number(click.ParamType):
    """An int or float option, read by the number rule; a value it refuses
    ends the run as `error: <option> value '<text>': <why>`."""

    def __init__(self, kind: type):
        self.kind, self.name = kind, kind.__name__

    def convert(self, value, param, ctx):
        if not isinstance(value, str):  # a default
            return value
        try:
            with reading(f"{param.opts[0]} value {value!r}", ValueError):
                return _json_number(value, self.kind)
        except ValueError as exc:
            _refuse(exc)


_INT, _FLOAT = _Number(int), _Number(float)


def _parse_pair(text: str, sep: str, form: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split(sep)
        return _json_number(a, int), _json_number(b, int)
    except (ValueError, RecursionError):
        raise ValueError(f"expected {form}, got {text!r}") from None


@click.group()
def main():
    """Deterministic EHR serialization, encoder planning, and audit pipelines."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Generator config JSON; omitted = built-in default config.")
@click.option("--seed", type=_INT, default=None, help="Override the config seed.")
@click.option("--n-patients", type=_INT, default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_run
def gen(config_path, seed, n_patients, out_dir):
    """Generate a deterministic synthetic corpus."""
    config = (corpus_mod.default_config() if config_path is None
              else corpus_mod.load_generator_config(config_path))
    overrides = {"seed": seed, "n_patients": n_patients}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    corpus = corpus_mod.generate_corpus(config)
    _save(out_dir, corpus_mod.corpus_files(corpus), seed=config.seed)
    click.echo(f"wrote corpus with {len(corpus.patients)} patients to {out_dir}")


@main.command()
@click.option("--in", "in_dir", type=click.Path(), required=True)
@_run
def load(in_dir):
    """Load and validate a corpus directory, printing a summary."""
    read = corpus_mod.load_corpus(in_dir, events=False)  # by columns: no event is built
    n_events = sum(len(t.patient_ids) for t in read.tables)  # each table's kept rows
    click.echo(f"{len(read.patient_ids)} patients, {n_events} events, {len(read.schema)} tables")


@main.command()
@click.option("--in", "in_dir", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--vocab", "vocab_path", type=click.Path(), default=None,
              help="Existing vocabulary; built from the corpus when omitted.")
@click.option("--min-count", type=_INT, default=1)
@click.option("--n-e", type=_INT, default=serializer.SerializerConfig.n_e)
@click.option("--n-tpe", type=_INT, default=serializer.SerializerConfig.n_tpe)
@click.option("--n-t", type=_INT, default=serializer.SerializerConfig.n_t)
@_run
def serialize(in_dir, out_dir, vocab_path, min_count, n_e, n_tpe, n_t):
    """Serialize a corpus into hierarchical and flattened token streams."""
    corpus = corpus_mod.load_corpus(in_dir)
    config = serializer.SerializerConfig(n_e=n_e, n_tpe=n_tpe, n_t=n_t)
    if vocab_path:
        vocab = Vocabulary.load(vocab_path)
    else:
        vocab = build_vocabulary(serializer.corpus_texts(corpus), min_count=min_count)
    # one patient's grid and flat stream at a time; only record text is kept
    hier, flat = [], []
    for p in corpus.patients:
        grid = serializer.build_hierarchical(p, vocab, corpus.definitions, config)
        hier.append(serializer.stream_record(grid))
        flat.append(serializer.stream_record(serializer.flatten(grid, n_t=config.n_t)))
    _save(out_dir, {"vocab.txt": vocab.save, "streams_hier.jsonl": "".join(hier),
                    "streams_flat.jsonl": "".join(flat)})
    click.echo(f"serialized {len(hier)} patients to {out_dir}")


@main.command()
@click.option("--backbone", type=click.Choice([planner.CNN, planner.TRANSFORMER]),
              default=planner.CNN)
@click.option("--input", "input_shape", default="8192x256", help="NxD input shape.")
@click.option("--output", "output_shape", default="64x8", help="NxD output shape.")
@click.option("--layers", "n_l", type=_INT, default=4,
              help="Transformer layer count (ignored for CNN).")
@click.option("--grid", default=None, help="LMIN:LMAX latent sweep instead of one plan.")
@click.option("--kernel", type=_INT, default=CostModel.kernel)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_run
def plan(backbone, input_shape, output_shape, n_l, grid, kernel, out_dir):
    """Emit a layer plan (or a latent-grid sweep) with its analysis report."""
    n, d = _parse_pair(input_shape, "x", "NxD shape")
    cost = CostModel(kernel=kernel)
    if grid:
        l_min, l_max = _parse_pair(grid, ":", "LMIN:LMAX")
        rows = ["l\tt\tc\tbackbone\trate\tparams\tflops"]
        for l, specs in planner.search_grid(l_min, l_max):
            rate = planner.compression_rate_flat(n, d, l)
            for spec in specs:
                report = analysis_report(
                    planner.encoder_plan(backbone, n, d, spec.t, spec.c, n_l), cost)
                rows.append(f"{l}\t{spec.t}\t{spec.c}\t{backbone}\t{rate}"
                            f"\t{report['params']}\t{report['flops']}")
        _save(out_dir, {"grid.tsv": "\n".join(rows) + "\n"})
        click.echo(f"wrote grid sweep to {Path(out_dir) / 'grid.tsv'}")
        return
    n_out, d_out = _parse_pair(output_shape, "x", "NxD shape")
    p = planner.encoder_plan(backbone, n, d, n_out, d_out, n_l)
    report = analysis_report(p, cost)
    _save(out_dir, {"plan.json": lambda path: planner.save_plan(p, path),
                    "analysis.json": json_text(report)})
    for step in report["trace"]:
        click.echo(f"layer {step['layer'] + 1}: {step['op']} -> "
                   f"({step['shape'][0]},{step['shape'][1]})")
    click.echo(f"params={report['params']} flops={report['flops']}")


@main.command()
@click.option("--plan", "plan_path", type=click.Path(), required=True)
@click.option("--kernel", type=_INT, default=CostModel.kernel)
@click.option("--attention", type=click.Choice([FULL_ATTENTION, LINEAR_ATTENTION]),
              default=CostModel.attention_variant, help="Attention cost; plan's by default.")
@_run
def analyze(plan_path, kernel, attention):
    """Analyze an existing plan document: shapes and per-layer params and FLOPs."""
    p = planner.load_plan(plan_path)
    defects = validate_plan(p)
    if defects:
        raise planner.PlanError(f"{plan_path}: " + "; ".join(defects))
    report = analysis_report(p, CostModel(kernel=kernel, attention_variant=attention))
    click.echo(json_text(report), nl=False)


@main.command()
@click.option("--latent", "latent_path", type=click.Path(), required=True,
              help="JSON file holding a t x c array.")
@click.option("--codebook", "codebook_path", type=click.Path(), required=True)
@click.option("--beta", type=_FLOAT, default=None,
              help="Commitment weight; when given, the loss terms are reported "
                   "for x = x_tilde = 0.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@_run
def quantize(latent_path, codebook_path, beta, out_path):
    """Nearest-code quantization of a latent array."""
    if beta is not None and beta < 0:
        raise ValueError(f"--beta must be a finite weight >= 0, got {beta}")
    codebook = vq.Codebook.load(codebook_path)
    with reading(latent_path, vq.VQError):
        z = json_numbers("latent", json_doc(Path(latent_path).read_text()))
        result = vq.quantize(z, codebook)
    doc = {
        "indices": result.indices.tolist(),
        "z_q": result.z_q.tolist(),
        "commitment_distance": result.commitment_distance,
    }
    if beta is not None:
        doc["commitment_term"] = beta * result.commitment_distance
    out = Path(out_path)
    _save(out.parent, {out.name: json_text(doc)})
    click.echo(f"quantized {z.shape[0]}x{z.shape[1]} latent -> {out_path}")


@main.command("audit")
@click.option("--real", "real_dir", type=click.Path(), required=True)
@click.option("--generated", "generated_path", type=click.Path(), required=True,
              help="Stream JSONL; one sample per line.")
@click.option("--vocab", "vocab_path", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_run
def audit_cmd(real_dir, generated_path, vocab_path, out_dir):
    """Score generated streams against triples built from a real corpus."""
    real = corpus_mod.load_corpus(real_dir, events=False)  # read by columns: no events
    vocab = Vocabulary.load(vocab_path)
    triples = audit_mod.build_triples(real, vocab)
    del real  # freed before the streams load, so the two never share the peak
    streams = serializer.load_streams(generated_path, ("tokens", "type_labels"))
    # one stream read and one sample's events at a time: each is scored and
    # dropped before the next
    samples = (serializer.detokenize_events(s, vocab) for s in streams)
    text = json_text(asdict(audit_mod.score(samples, triples, vocab)))
    _save(out_dir, {"audit_report.json": text})
    click.echo(text, nl=False)


def _drawn_tokens(path, drawn: list[int], n: int) -> list:
    """A set of n stream records read for its drawn ones alone (`drawn` in
    file order): each drawn record's dense tokens at its position, None at
    every other."""
    rows = [None] * n
    for i, s in zip(drawn, serializer.load_streams(path, ("tokens",), records=set(drawn))):
        rows[i] = s.tokens
    return rows


@main.command("privacy")
@click.option("--train", "train_path", type=click.Path(), required=True)
@click.option("--heldout", "heldout_path", type=click.Path(), required=True)
@click.option("--synthetic", "synthetic_path", type=click.Path(), required=True)
@click.option("--nr", "n_r", type=_INT, default=10)
@click.option("--thresholds", default="0,0.05,0.1,0.2,0.5,1.0")
@click.option("--seed", type=_INT, default=0)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_run
def privacy_cmd(train_path, heldout_path, synthetic_path, n_r, thresholds, seed, out_dir):
    """Membership inference attack; writes per-threshold precision/recall."""
    cuts = []
    for text in thresholds.split(","):
        with reading(f"--thresholds value {text!r}", privacy.PrivacyError):
            cuts.append(_json_number(text))
    config = privacy.AttackConfig(n_r, tuple(cuts), seed)
    paths = (train_path, heldout_path, synthetic_path)
    # train and held-out are read for each record's form alone, no value parsed
    forms = [Counter((s.layout, s.shape) for s in serializer.load_streams(path, ()))
             for path in paths[:2]]
    synthetic = list(serializer.load_streams(synthetic_path, ("tokens",)))
    forms.append(Counter((s.layout, s.shape) for s in synthetic))
    if len(set().union(*forms)) > 1:
        raise privacy.PrivacyError("streams differ in layout or shape: " + "; ".join(
            f"{path}: " + ", ".join(f"{layout} {shape}" for layout, shape in sorted(form))
            for path, form in zip(paths, forms)))
    # the pool's draw depends on the set sizes alone, so only its records' tokens are read
    sizes = tuple(form.total() for form in forms)
    train, heldout = (_drawn_tokens(path, drawn, n) for path, drawn, n
                      in zip(paths, privacy.draw_pool(sizes, config), sizes))
    tokens = np.empty((len(synthetic), *synthetic[0].shape), np.int32)
    for row, s in zip(tokens, synthetic):
        row[...] = s.tokens
    del synthetic
    report = privacy.membership_attack(train, heldout, tokens, config)
    curve = "threshold\tprecision\trecall\n" + "".join(
        f"{t}\t{'' if p is None else p}\t{'' if r is None else r}\n" for t, p, r in report.rows())
    _save(out_dir, {"privacy_curve.tsv": curve, "privacy_report.json": json_text(asdict(report))},
          seed=seed)
    click.echo(curve, nl=False)


@main.command("metrics")
@click.option("--reference", "reference_path", type=click.Path(), default=None)
@click.option("--hypothesis", "hypothesis_path", type=click.Path(), default=None)
@click.option("--include-pads", is_flag=True, default=False)
@click.option("--scores", "scores_path", type=click.Path(), default=None,
              help="TSV of score<TAB>label rows for AUROC.")
@_run
def metrics_cmd(reference_path, hypothesis_path, include_pads, scores_path):
    """Token accuracy between stream files and/or AUROC over scored labels."""
    if (reference_path is None) != (hypothesis_path is None):
        raise metrics_mod.MetricError("--reference needs --hypothesis" if hypothesis_path is None
                                      else "--hypothesis needs --reference")
    if include_pads and reference_path is None:
        raise metrics_mod.MetricError("--include-pads needs --reference and --hypothesis")
    if reference_path is None and not scores_path:
        raise metrics_mod.MetricError(
            "nothing to compute: pass --reference/--hypothesis or --scores")
    if reference_path is not None:
        # one stream pair at a time, tokens only; a pair's fault waits until
        # the stream counts are known to agree
        pairs = itertools.zip_longest(serializer.load_streams(reference_path, ("tokens",)),
                                      serializer.load_streams(hypothesis_path, ("tokens",)))
        values, counts, fault = [], [0, 0], None
        for r, h in pairs:
            counts[0] += r is not None
            counts[1] += h is not None
            if r is None or h is None or fault is not None:
                continue
            try:
                values.append(metrics_mod.token_accuracy(r, h, include_pads))
            except metrics_mod.MetricError as exc:
                fault = metrics_mod.MetricError(f"{reference_path} vs {hypothesis_path}, "
                                                f"patient {r.patient_id!r}: {exc}")
        if counts[0] != counts[1]:
            raise metrics_mod.MetricError(f"{reference_path} vs {hypothesis_path}: stream "
                                          f"counts differ: {counts[0]} vs {counts[1]}")
        if fault is not None:
            raise fault
        defined = [v for v in values if v is not None]
        mean = sum(defined) / len(defined) if defined else None
        click.echo(f"token_accuracy\t{mean}")
    if scores_path:
        scores, labels = [], []
        with reading(scores_path, metrics_mod.MetricError):
            lines = Path(scores_path).read_text().splitlines()
        for row, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                s, lab = line.split("\t")
                score, label = _json_number(s), ("0", "1").index(lab)
            except (ValueError, RecursionError):  # RecursionError: deep JSON
                raise metrics_mod.MetricError(
                    f"{scores_path}:{row}: expected score<TAB>label") from None
            scores.append(score)
            labels.append(label)
        with reading(scores_path, metrics_mod.MetricError):  # a table of one class names it
            click.echo(f"auroc\t{metrics_mod.auroc(scores, labels)}")


if __name__ == "__main__":
    main()
