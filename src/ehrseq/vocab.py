"""Subword vocabulary with greedy longest-match tokenization.

Units are whole words, "##"-prefixed continuation pieces, and single
characters as a total fallback.  Reserved entries (pad/start/end/unk and the
time-gap bucket tokens) occupy the lowest indices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .manifest import reading

PAD = "[pad]"
START = "[start]"
END = "[end]"
UNK = "[unk]"

# Time-gap bucket boundaries in minutes; token i holds gaps in [b_{i-1}, b_i).
TIMEGAP_BOUNDARIES_MIN = (1, 5, 15, 30, 60, 120, 360, 720)
N_TIMEGAP_TOKENS = len(TIMEGAP_BOUNDARIES_MIN) + 1

CONTINUATION = "##"


def timegap_unit(i: int) -> str:
    return f"[tg{i}]"


RESERVED = [PAD, START, END, UNK] + [timegap_unit(i) for i in range(N_TIMEGAP_TOKENS)]

PAD_ID = RESERVED.index(PAD)
UNK_ID = RESERVED.index(UNK)
TIMEGAP_ID0 = RESERVED.index(timegap_unit(0))


def is_timegap_id(token_id):
    """Whether a token id, or each id of an array, is a time-gap token."""
    return (TIMEGAP_ID0 <= token_id) & (token_id < TIMEGAP_ID0 + N_TIMEGAP_TOKENS)


class VocabError(ValueError):
    pass


@dataclass
class Vocabulary:
    """Immutable after construction; unit strings are unique."""

    units: list[str]

    def __post_init__(self):
        if self.units[: len(RESERVED)] != RESERVED:
            raise VocabError("reserved entries must occupy the lowest indices")
        self._index = {u: i for i, u in enumerate(self.units)}
        if len(self._index) != len(self.units):  # a repeated unit maps to its last index
            repeated = next(u for i, u in enumerate(self.units) if self._index[u] != i)
            raise VocabError(f"duplicate vocabulary unit {repeated!r}")
        blank = next((u for u in self.units if u.split() != [u]), None)
        if blank is not None:  # tokenize never emits such a unit; detokenize relies on it
            raise VocabError(f"vocabulary unit {blank!r} is empty or holds whitespace")
        self._max_len = max((len(u.removeprefix(CONTINUATION)) for u in self.units), default=1)
        self._word_units: dict[str, list[str]] = {}  # tokenize's memo of tokenize_word
        self._segments: dict = {}  # the serializer's memo of per-text event segments
        self._runs: dict = {}  # detokenize_events' memo of (label, ids bytes) -> run value

    def __len__(self) -> int:
        return len(self.units)

    def __contains__(self, unit: str) -> bool:
        return unit in self._index

    def encode(self, units: Iterable[str]) -> list[int]:
        return [self._index.get(u, UNK_ID) for u in units]

    def save(self, path: Path | str) -> None:
        Path(path).write_text("".join(u + "\n" for u in self.units))

    @classmethod
    def load(cls, path: Path | str) -> "Vocabulary":
        """Read a saved vocabulary; a malformed one fails naming the file."""
        with reading(path, VocabError):
            return cls([line for line in Path(path).read_text().splitlines() if line])


def build_vocabulary(texts: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Frequency-ranked whole words above min_count, plus character fallbacks.

    Every character observed anywhere is added both as a plain unit and as a
    "##" continuation unit, so tokenization is total and word-internal pieces
    stay distinguishable from word starts.  Each distinct text is split once
    and counts for each of its occurrences.
    """
    word_counts: Counter[str] = Counter()
    chars: set[str] = set()
    for t, n in Counter(texts).items():
        for word in t.casefold().split():
            word_counts[word] += n
            chars.update(word)

    words = [w for w, c in sorted(word_counts.items(), key=lambda kv: (-kv[1], kv[0]))
             if c >= min_count]
    char_units = sorted(chars)
    units = list(RESERVED)
    seen = set(units)
    for u in words + char_units + [CONTINUATION + c for c in char_units]:
        if u not in seen:
            units.append(u)
            seen.add(u)
    return Vocabulary(units)


def tokenize_word(word: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-match over the vocabulary within a single word.

    Plain units match only at the word's start and "##" continuation units
    only after it, so `detokenize` gives the word back whole.  Reserved units
    never match text, so "[pad]" in a word is its characters.  Characters
    without a unit at their position consume one position as [unk].
    """
    index, first_plain = vocab._index, len(RESERVED)  # reserved units hold the lowest ids
    out: list[str] = []
    pos = 0
    while pos < len(word):
        for length in range(min(vocab._max_len, len(word) - pos), 0, -1):
            piece = word[pos:pos + length]
            unit = CONTINUATION + piece if pos else piece
            if index.get(unit, 0) >= first_plain and unit.startswith(CONTINUATION) == (pos > 0):
                break
        else:
            unit, length = UNK, 1
        out.append(unit)
        pos += length
    return out


def tokenize(text: str, vocab: Vocabulary) -> list[str]:
    """Tokenize casefolded text word by word; never fails.

    Each distinct word is tokenized once per vocabulary and remembered.
    """
    units: list[str] = []
    memo = vocab._word_units
    for word in text.casefold().split():
        pieces = memo.get(word)
        if pieces is None:
            pieces = memo[word] = tokenize_word(word, vocab)
        units.extend(pieces)
    return units


def detokenize(units: Iterable[str]) -> str:
    """Rejoin subword units into space-separated words: a "##" unit joins
    the word before it, minus its "##"; a first unit is kept whole."""
    return " ".join(units).replace(" " + CONTINUATION, "")
