"""Run manifests: what ran, with which inputs and seed, producing what."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from . import __version__


def file_digest(path: Path | str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def json_text(doc) -> str:
    """The one JSON writer: `doc` as one compact line of strict JSON, newline included."""
    return json.dumps(doc, allow_nan=False) + "\n"


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
