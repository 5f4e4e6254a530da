"""Run manifests: what ran, with which inputs and seed, producing what."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

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
