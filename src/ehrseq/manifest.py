"""Run manifests: what ran, with which inputs and seed, producing what."""

from __future__ import annotations

import hashlib
import json
import os
import reprlib
from contextlib import contextmanager
from dataclasses import MISSING, fields
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__


def file_digest(path: Path | str) -> str:
    """SHA-256 of a file's bytes; of a directory, over each regular file in it
    but manifest.json, in name order: its name, NUL, size in decimal, NUL, bytes."""
    h, path = hashlib.sha256(), Path(path)
    for member in sorted(path.iterdir()) if path.is_dir() else [path]:
        if member != path:  # a directory's file
            if not member.is_file() or member.name == "manifest.json":
                continue
            h.update(b"%s\0%d\0" % (os.fsencode(member.name), member.stat().st_size))
        with open(member, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    return h.hexdigest()


def json_text(doc) -> str:
    """The one JSON writer: `doc` as one compact line of strict JSON, newline included."""
    return json.dumps(doc, allow_nan=False) + "\n"


def _non_finite(constant: str):
    raise ValueError(f"non-finite number {constant} is not JSON")


# the one JSON document reader, as strict as `json_text`: NaN and Infinity are refused
json_doc = json.JSONDecoder(parse_constant=_non_finite).decode


# The one document rule: a JSON document maps to a dataclass, its keys known and each
# value of its declared JSON type (a number is never a boolean).  A converter is called
# as `convert(key, value)`; the `ValueError` it raises is led by the file in `reading`.

def json_fields(cls, raw, keys: dict) -> dict:
    """`cls`'s fields from a JSON object, each value converted by `keys[key]`; a field's
    key is its `json` metadata or its name.  An absent key takes the field's default, a
    field without one is missing, a known key that is no field keeps its own name."""
    if not isinstance(raw, dict):
        quote = reprlib.Repr()  # bounded: the document's top level, six entries at most
        quote.maxlevel = 1
        raise ValueError(f"expected a JSON object, got {quote.repr(raw)}")
    unknown = [key for key in raw if key not in keys]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    named = {f.metadata.get("json", f.name): f for f in fields(cls)}
    for key, f in named.items():
        if key not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing field {key!r}")
    return {named[key].name if key in named else key: keys[key](key, value)
            for key, value in raw.items()}


class _EntryFault(ValueError):
    """A fault in an entry of a JSON list, led by the entry's place."""


def json_entries(cls, keys: dict):
    """Converter of a JSON list of objects to a tuple of `cls`, each read by `json_fields`.
    A fault in an entry's JSON is led by its place and, when a string, its name or id, as
    in `tables[1] 'lab', columns[2] 'unit': unknown key 'low'`; `cls`'s checks are not."""
    def convert(key, entries):
        out = []
        for i, raw in enumerate(_OBJECTS(key, entries)):
            name = raw.get("name", raw.get("id"))
            where = f"{key}[{i}]" + (f" {name!r}" if isinstance(name, str) else "")
            try:
                values = json_fields(cls, raw, keys)
            except ValueError as exc:  # an entry within this one adds its own place
                sep = ", " if isinstance(exc, _EntryFault) else ": "
                raise _EntryFault(f"{where}{sep}{exc}") from None
            out.append(cls(**values))
        return tuple(out)
    return convert


def json_value(what: str, *kinds: type):
    """Converter of a JSON value of one of `kinds` (a bool is no int) to the first."""
    def convert(key, value):
        if type(value) not in kinds:
            raise ValueError(f"{key} must be a JSON {what}")
        try:
            return kinds[0](value)
        except OverflowError as exc:  # an integer past the float range
            raise ValueError(f"{key}: {exc}") from None
    return convert


def json_list(what: str, kind: type, length: int | None = None):
    """Converter of a JSON list of `kind` values (exactly `length` of them) to a tuple."""
    def convert(key, value):
        if (not isinstance(value, list) or any(type(v) is not kind for v in value)
                or length not in (None, len(value))):
            raise ValueError(f"{key} must be a JSON list of {what}")
        return tuple(value)
    return convert


def json_numbers(key, value) -> np.ndarray:
    """Converter of a JSON number, or a (nested, rectangular) array of them,
    to a numpy array; a string, null or boolean anywhere in it is refused."""
    array, leaves = np.asarray(value), [value]
    for _ in range(array.ndim):
        leaves = chain.from_iterable(leaves)
    if array.dtype.kind not in "iuf" or bool in set(map(type, leaves)):
        raise ValueError(f"{key} must be an array of JSON numbers")
    return array


STRING, INTEGER, NUMBER, OBJECT = (
    json_value("string", str), json_value("integer", int), json_value("number", float, int),
    json_value("object", dict))
STRINGS, _OBJECTS = json_list("strings", str), json_list("objects", dict)


@contextmanager
def reading(where, error):
    """The one read boundary: a fault raised while reading `where` (a file, a
    file and line, or a record's field) ends as `error("<where>: <fault>")`.
    An `OSError` passes through, since it names its file already."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 ({exc.reason} at byte {exc.start + 1})") from exc
    except json.JSONDecodeError as exc:
        at = (f"line {exc.lineno}, column {exc.colno}" if "\n" in exc.doc.rstrip()
              else f"column {exc.pos + 1}")
        raise error(f"{where}: malformed JSON ({exc.msg} at {at})") from exc
    except RecursionError as exc:
        raise error(f"{where}: JSON nested too deeply") from exc
    except KeyError as exc:
        raise error(f"{where}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"{where}: {exc}") from exc


def write_manifest(out_dir: Path | str, command: str, config: dict,
                   inputs: list[Path | str], outputs: list[Path | str],
                   seed: Optional[int] = None) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path = Path(out_dir) / "manifest.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json_text(manifest))
    tmp.rename(path)
    return path
