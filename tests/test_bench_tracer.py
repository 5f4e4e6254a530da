"""The benchmark's tracer wraps ehrseq functions at the names their callers
look up.  A renamed or deleted name must fail here, in the tier-1 suite, and
not only in the benchmark's own traced runs."""

import importlib
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
