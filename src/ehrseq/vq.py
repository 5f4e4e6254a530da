"""Vector-quantization mechanics: fiber splitting, nearest-code assignment,
and EMA codebook updates (no training loop)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# Bytes one chunk of the nearest-code search may spend on its float64
# (pieces, K, width) difference array; `quantize` holds at most about twice it.
ASSIGN_BUDGET_BYTES = 32 * 2**20


class VQError(ValueError):
    pass


@dataclass
class Codebook:
    """K code vectors of width c/4 with per-entry EMA accumulators."""

    entries: np.ndarray        # (K, width)
    ema_counts: np.ndarray     # (K,)
    ema_sums: np.ndarray       # (K, width)
    decay: float = 0.99

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2 or 0 in self.entries.shape:
            raise VQError("codebook needs at least one entry vector of width >= 1")
        if not 0.0 < self.decay <= 1.0:
            raise VQError("decay must be in (0, 1]")
        self.ema_counts = np.asarray(self.ema_counts, dtype=np.float64)
        self.ema_sums = np.asarray(self.ema_sums, dtype=np.float64)
        if self.ema_counts.shape != (self.size,) or self.ema_sums.shape != self.entries.shape:
            raise VQError("EMA accumulator shapes do not match entries")
        if not all(np.isfinite(a).all() for a in (self.entries, self.ema_counts, self.ema_sums)):
            raise VQError("codebook holds non-finite values")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def width(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def new(cls, entries: np.ndarray, decay: float = decay) -> "Codebook":  # the field default
        entries = np.asarray(entries, dtype=np.float64)
        # accumulators start at N_k = 1, m_k = e_k so the first update is defined
        return cls(entries, np.ones(entries.shape[0]), entries.copy(), decay)

    def save(self, path: Path | str) -> None:
        doc = {
            "size": self.size,
            "width": self.width,
            "decay": self.decay,
            "entries": self.entries.tolist(),
            "ema_counts": self.ema_counts.tolist(),
            "ema_sums": self.ema_sums.tolist(),
        }
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")

    @classmethod
    def load(cls, path: Path | str) -> "Codebook":
        """Read a saved codebook; malformed content fails naming the file."""
        try:
            doc = json.loads(Path(path).read_text())
            return cls(
                np.asarray(doc["entries"]),
                np.asarray(doc["ema_counts"]),
                np.asarray(doc["ema_sums"]),
                float(doc["decay"]),
            )
        except KeyError as exc:
            raise VQError(f"{path}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise VQError(f"{path}: {exc}") from exc


@dataclass
class QuantizationResult:
    indices: np.ndarray            # (t, 4) code ids
    z_q: np.ndarray                # (t, c)
    commitment_distance: float     # ||z - z_q||^2


def quantize(z: np.ndarray, codebook: Codebook) -> QuantizationResult:
    """Quarter each fiber and replace each piece by its nearest code.

    Ties break to the lowest code index.  The search takes
    `max(1, ASSIGN_BUDGET_BYTES // (8 * K * width))` pieces at a time, so its memory
    stays bounded; where one piece's K x width row exceeds the budget, it takes one.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise VQError("z must be a (t, c) array")
    t, c = z.shape
    if c % 4:
        raise VQError(f"channel dim {c} not divisible by 4")
    if c // 4 != codebook.width:
        raise VQError(f"piece width {c // 4} does not match codebook width {codebook.width}")
    if not np.isfinite(z).all():
        raise VQError("latent holds non-finite values")

    pieces = z.reshape(t * 4, codebook.width)
    step = max(1, ASSIGN_BUDGET_BYTES // (8 * codebook.size * codebook.width))
    indices = np.empty(t * 4, dtype=np.intp)
    for start in range(0, t * 4, step):
        # squared distances via explicit differences so exact ties stay exact;
        # argmin takes the lowest code index on ties
        d2 = np.sum((pieces[start:start + step, None, :] - codebook.entries[None]) ** 2, axis=2)
        indices[start:start + step] = np.argmin(d2, axis=1)
    z_q = codebook.entries[indices].reshape(t, c)
    commitment = float(np.sum((z - z_q) ** 2))
    return QuantizationResult(indices.reshape(t, 4), z_q, commitment)


def ema_update(codebook: Codebook, assignments: list[tuple[int, np.ndarray]]) -> Codebook:
    """Fold assigned vectors into the EMA accumulators and refresh entries.

    Mutates and returns the codebook; callers serialize updates per instance.
    """
    counts = np.zeros(codebook.size)
    sums = np.zeros_like(codebook.ema_sums)
    touched = np.zeros(codebook.size, dtype=bool)
    for code, vec in assignments:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (codebook.width,):
            raise VQError(f"assigned vector width {vec.shape} != {codebook.width}")
        if not 0 <= code < codebook.size:
            raise VQError(f"assigned code {code} outside 0..{codebook.size - 1}")
        counts[code] += 1.0
        sums[code] += vec
        touched[code] = True

    lam = codebook.decay
    codebook.ema_counts[touched] = lam * codebook.ema_counts[touched] + (1 - lam) * counts[touched]
    codebook.ema_sums[touched] = lam * codebook.ema_sums[touched] + (1 - lam) * sums[touched]
    nonzero = touched & (codebook.ema_counts > 0)
    codebook.entries[nonzero] = codebook.ema_sums[nonzero] / codebook.ema_counts[nonzero, None]
    return codebook
