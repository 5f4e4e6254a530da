"""The benchmark's tracer wraps ehrseq functions at the names their callers
look up.  A renamed or deleted name, a renamed parameter that a counter
reads, or a changed signature of a function the tracer replaces must fail
here, in the tier-1 suite, and not only in the benchmark's own traced runs."""

import importlib
import inspect
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH)]

import tracing  # noqa: E402

PATCHED = ([(module, attribute) for module, attribute, *_ in tracing.SPANS]
           + [("ehrseq.vocab", "tokenize_word"), ("ehrseq.audit", "check_event")])


def _lookup(module, attribute):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


def test_tracer_wraps_every_name_it_patches_and_restores_it():
    originals = {key: _lookup(*key) for key in PATCHED}
    assert ("ehrseq.cli", "analysis_report") in originals
    assert ("ehrseq.serializer", "detokenize") in originals
    with tracing.Tracer().installed():
        assert all(_lookup(*key) is not original for key, original in originals.items())
    assert all(_lookup(*key) is original for key, original in originals.items())


def _parameters(fn, **options):
    fn = getattr(fn, "__func__", fn)  # a classmethod's function
    return list(inspect.signature(fn, **options).parameters)


def test_every_argument_a_counter_reads_is_a_parameter_of_the_function_it_wraps():
    read = {}
    for module, attribute, _, _, counter in tracing.SPANS:
        if counter is not None:
            keys = re.findall(r'args\["(\w+)"\]', inspect.getsource(counter))
            read[attribute] = keys
            assert set(keys) <= set(_parameters(_lookup(module, attribute))), attribute
    assert read["save_streams"] == read["load_streams"] == ["path"]
    assert read["quantize"] == ["codebook", "z"]


def test_replacements_take_the_parameters_of_the_functions_they_replace():
    keys = [("ehrseq.vocab", "tokenize_word"), ("ehrseq.audit", "check_event")]
    originals = [_parameters(_lookup(*key)) for key in keys]
    assert originals == [["word", "vocab"], ["event", "triples", "vocab"]]
    with tracing.Tracer().installed():
        replacements = [_parameters(_lookup(*key), follow_wrapped=False) for key in keys]
    assert replacements == originals
