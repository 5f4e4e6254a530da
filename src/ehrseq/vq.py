"""Vector-quantization mechanics: fiber splitting, nearest-code assignment,
and EMA codebook updates (no training loop)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .manifest import INTEGER, NUMBER, json_doc, json_fields, json_numbers, json_text, reading


# Bytes of float64 one step of the nearest-code search may spend: a chunk's
# (pieces, K) distance matrix, or one slice of its near-tie rechecks.
ASSIGN_BUDGET_BYTES = 32 * 2**20


class VQError(ValueError):
    pass


@dataclass
class Codebook:
    """K code vectors of width c/4 with per-entry EMA accumulators: each entry
    is its EMA sum over its EMA count, and every count is > 0."""

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
        if not (self.ema_counts > 0).all():  # checked before the division below
            raise VQError("ema_counts must all be > 0")
        with np.errstate(over="ignore"):  # an overflowing quotient is no entry, and refused
            if not np.array_equal(self.entries, self.ema_sums / self.ema_counts[:, None]):
                raise VQError("entries are not ema_sums / ema_counts")

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
        Path(path).write_text(json_text(doc))

    @classmethod
    def load(cls, path: Path | str) -> "Codebook":
        """Read a saved codebook; malformed content fails naming the file."""
        with reading(path, VQError):
            doc = json_fields(cls, json_doc(Path(path).read_text()), _CODEBOOK_KEYS)
            # every field is popped, so a file without `decay` is refused too
            book = cls(*map(doc.pop, ("entries", "ema_counts", "ema_sums", "decay")))
            for key, value in doc.items():  # `size` and `width`, when given
                if value != getattr(book, key):
                    raise VQError(f"{key} {value!r} does not match entries of shape "
                                  f"{book.entries.shape}")
            return book


_CODEBOOK_KEYS = {"size": INTEGER, "width": INTEGER, "decay": NUMBER, "entries": json_numbers,
                  "ema_counts": json_numbers, "ema_sums": json_numbers}


@dataclass
class QuantizationResult:
    indices: np.ndarray            # (t, 4) code ids
    z_q: np.ndarray                # (t, c)
    commitment_distance: float     # ||z - z_q||^2


def quantize(z: np.ndarray, codebook: Codebook) -> QuantizationResult:
    """Quarter each fiber and replace each piece by its nearest code.

    Nearest means the least explicit sum((p - e)**2), ties to the lowest code index.
    A matrix product gives norm-expanded distances, and only the codes within their
    rounding bound of a piece's minimum are rechecked by explicit differences.
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

    pieces, entries, k, w = z.reshape(t * 4, c // 4), codebook.entries, codebook.size, c // 4
    with np.errstate(over="ignore"):
        p_sq, e_sq = (np.einsum("ij,ij->i", a, a) for a in (pieces, entries))
        reach = (np.sqrt(p_sq) + np.sqrt(e_sq.max())) ** 2  # bounds each piece's distances
        if not np.isfinite(2 * reach.sum()):  # so the commitment distance is finite too
            raise VQError("squared distances between latent pieces and codes overflow float64")
    # p_sq - 2 p.e + e_sq and the explicit sum((p - e)**2) each lie within gamma_{w+2}
    # (|p| + |e|)^2 of the exact distance (FMA only lowers that), so they differ by under
    # tol / 2 (tiny covers underflow): a code at the explicit row minimum is within tol
    # of d2's row minimum.
    tol = 4 * (w + 4) * np.finfo(np.float64).eps * reach + np.finfo(np.float64).tiny
    # pieces per chunk of (pieces, K) distances; candidate pairs (<= 3 rows, 8 ints) per slice
    step, span = (max(1, ASSIGN_BUDGET_BYTES // (8 * n)) for n in (k, 3 * w + 8))
    indices = np.empty(t * 4, dtype=np.intp)
    for lo in range(0, t * 4, step):
        d2 = pieces[lo:lo + step] @ (-2 * entries.T)
        d2 += p_sq[lo:lo + step, None]
        d2 += e_sq
        near = (d2 <= (d2.min(axis=1) + tol[lo:lo + step])[:, None]).ravel()
        del d2
        best = np.full(near.size // k, np.inf)
        # explicit rechecks in row-major slices: a row's lower codes come first
        for a in range(0, near.size, span):
            rows, cols = np.divmod(np.flatnonzero(near[a:a + span]) + a, k)
            exact = np.sum((pieces[lo + rows] - entries[cols]) ** 2, axis=1)
            order = np.lexsort((cols, exact, rows))
            first = order[np.diff(rows[order], prepend=-1) != 0]
            win = first[exact[first] < best[rows[first]]]
            best[rows[win]] = exact[win]
            indices[lo + rows[win]] = cols[win]
    z_q = entries[indices].reshape(t, c)
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
    # counts stay > 0: an update keeps decay > 0 of a touched one and adds a share >= 0
    codebook.entries[touched] = codebook.ema_sums[touched] / codebook.ema_counts[touched, None]
    return codebook
