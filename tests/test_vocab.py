import random
import re
from collections import Counter

from ehrseq import vocab as vocab_mod
import pytest
from hypothesis import example, given, strategies as st

from ehrseq.vocab import (
    RESERVED,
    UNK,
    UNK_ID,
    VocabError,
    Vocabulary,
    build_vocabulary,
    detokenize,
    tokenize,
    tokenize_word,
)


def fixture_vocab(units):
    return Vocabulary(RESERVED + list(units))


def test_whole_word_in_vocab():
    vocab = fixture_vocab(["atypical"] + sorted(set("atypical")))
    assert tokenize_word("atypical", vocab) == ["atypical"]


def test_greedy_longest_match_two_pieces():
    vocab = fixture_vocab(["lympho", "cytes", "##cytes"] + sorted(set("lymphocytes")))
    assert tokenize_word("lymphocytes", vocab) == ["lympho", "##cytes"]


def test_character_fallback():
    """A plain unit never matches inside a word: without "##q", the second
    and third characters have no unit."""
    vocab = fixture_vocab(["q"])
    assert tokenize_word("qqq", vocab) == ["q", UNK, UNK]


def test_characters_outside_the_vocabulary_become_unk():
    vocab = build_vocabulary(["ab"])
    assert tokenize_word("abz", vocab) == ["ab", UNK]
    assert vocab.encode(tokenize_word("abz", vocab))[-1] == UNK_ID


def test_continuation_units_preferred_mid_word():
    vocab = fixture_vocab(["q", "##q"])
    assert tokenize_word("qqq", vocab) == ["q", "##q", "##q"]
    assert detokenize(["q", "##q", "##q"]) == "qqq"


def test_built_vocab_reserved_prefix(small_vocab):
    assert small_vocab.units[: len(RESERVED)] == RESERVED


def test_tokenize_detokenize_roundtrip_on_corpus_words(small_vocab):
    rng = random.Random(0)
    words = [u for u in small_vocab.units if u.isalpha()]
    for _ in range(200):
        text = " ".join(rng.sample(words, rng.randint(1, 5)))
        units = tokenize(text, small_vocab)
        assert detokenize(units) == text


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789. ", min_size=1, max_size=40))
def test_tokenize_total_and_reconstructs(text):
    vocab = build_vocabulary(["abcdefghijklmnopqrstuvwxyz 0 1 2 3 4 5 6 7 8 9 ."])
    units = tokenize(text, vocab)
    rebuilt = detokenize(units)
    assert rebuilt.split() == text.casefold().split()


@given(st.lists(st.text(alphabet="abAB\u00dfS #.1[]", max_size=10), min_size=1, max_size=6),
       st.integers(1, 4), st.text(alphabet="abAB\u00dfSs #.1[]xz", max_size=12))
@example(["ab", "ab", "abab"], 2, "abab")
@example(["##a b", "a"], 1, "a##a ##a")
@example(["[pad] [UNK]"], 1, "[pad]x")
def test_detokenize_gives_back_the_words_of_tokenize(texts, min_count, other):
    vocab = build_vocabulary(texts, min_count=min_count)
    for text in texts + [other]:
        if all(c in vocab for c in "".join(text.casefold().split())):
            assert detokenize(tokenize(text, vocab)) == " ".join(text.casefold().split())


def test_save_load_roundtrip(tmp_path, small_vocab):
    path = tmp_path / "vocab.txt"
    small_vocab.save(path)
    assert Vocabulary.load(path).units == small_vocab.units


def test_tokenize_runs_tokenize_word_once_per_distinct_word(monkeypatch):
    vocab = fixture_vocab(["lympho", "cytes", "##cytes"] + sorted(set("lymphocytes")))
    calls = []

    def counted(word, v):
        calls.append(word)
        return tokenize_word(word, v)

    monkeypatch.setattr(vocab_mod, "tokenize_word", counted)
    text = "lymphocytes cytes lymphocytes"
    expected = ["lympho", "##cytes", "cytes", "lympho", "##cytes"]
    assert tokenize(text, vocab) == expected
    assert tokenize(text, vocab) == expected
    assert calls == ["lymphocytes", "cytes"]


def build_vocabulary_by_occurrence(texts, min_count):
    """Reference: each occurrence of each text is split and counted in turn."""
    counts, chars = Counter(), set()
    for text in texts:
        for word in text.casefold().split():
            counts[word] += 1
            chars.update(word)
    units = list(RESERVED)
    for unit in ([w for w, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
                  if c >= min_count]
                 + sorted(chars) + ["##" + c for c in sorted(chars)]):
        if unit not in units:
            units.append(unit)
    return units


_CASES = (str, str.upper, str.lower, str.title, str.swapcase)


@given(st.lists(st.one_of(st.text(alphabet="abAB\u00dfS #.1", max_size=8),
                          st.sampled_from(["[pad]", "[UNK] x", "##", "##a b"])),
                min_size=1, max_size=5)
       .flatmap(lambda base: st.lists(st.tuples(st.sampled_from(base), st.sampled_from(_CASES))
                                      .map(lambda pick: pick[1](pick[0])), max_size=30)),
       st.integers(1, 3))
def test_build_vocabulary_matches_a_count_per_occurrence(texts, min_count):
    built = build_vocabulary(iter(texts), min_count=min_count)
    assert built.units == build_vocabulary_by_occurrence(texts, min_count)


def detokenize_by_loop(units):
    """Reference: a "##" unit joins the word before it; a first unit is kept whole."""
    words = []
    for u in units:
        if u.startswith("##") and words:
            words[-1] += u.removeprefix("##")
        else:
            words.append(u)
    return " ".join(words)


@given(st.lists(st.one_of(st.sampled_from(["##", "####", "##a", "a", "#", "[tg0]"]),
                          st.text(alphabet="ab#", min_size=1, max_size=5))))
@example(["##", "a"])
@example(["##a", "##", "####", "b"])
@example(["####", "##"])
def test_detokenize_matches_the_unit_loop(units):
    assert detokenize(units) == detokenize_by_loop(units)


# "\u00df" casefolds to "ss"
@pytest.mark.parametrize("unit", ["", "a b", "##a b", " a", "a\t", "a\u00a0",
                                  "LAB", "Stra\u00dfe", "##A"])
def test_units_that_are_not_one_casefolded_word_are_refused(unit):
    with pytest.raises(VocabError, match=f"^vocabulary unit {re.escape(repr(unit))} "
                                         "is not one casefolded word$"):
        fixture_vocab(["a", unit])


# a line holding one of these was split in two by `str.splitlines`, an empty
# line was dropped, and a CRLF line end was read as LF: in the first two cases
# each later unit's id moved by one
@pytest.mark.parametrize("line", ["x" + sep + "y" for sep in
                                  "\x1c\x1d\x1e\x0b\x0c\x85\u2028\u2029"] + ["", "lab\r"])
def test_load_refuses_a_line_that_is_not_one_unit(tmp_path, line):
    path = tmp_path / "vocab.txt"
    path.write_text("".join(u + "\n" for u in RESERVED + ["a", line, "b"]), newline="")
    with pytest.raises(VocabError, match=f"^{re.escape(str(path))}: vocabulary unit "
                                         f"{re.escape(repr(line))} is not one casefolded word$"):
        Vocabulary.load(path)


@pytest.mark.parametrize("word", RESERVED)
def test_reserved_units_never_come_from_text(word):
    vocab = build_vocabulary([word])
    units = tokenize(word, vocab)
    assert not set(units) & set(RESERVED)
    assert detokenize(units) == word
    assert vocab.encode([word]) == [RESERVED.index(word)]


def tokenize_word_two_branches(word, vocab):
    """Reference: the tokenizer as a word-start branch and a mid-word branch."""
    index, first_plain = vocab._index, len(RESERVED)
    out, pos = [], 0
    while pos < len(word):
        match = None
        for length in range(min(vocab._max_len, len(word) - pos), 0, -1):
            piece = word[pos:pos + length]
            if pos:
                if "##" + piece in index:
                    match = "##" + piece
                    break
            elif index.get(piece, 0) >= first_plain and not piece.startswith("##"):
                match = piece
                break
        if match is None:
            out.append(UNK)
            pos += 1
        else:
            out.append(match)
            pos += len(match.removeprefix("##"))
    return out


# units and words over a few letters and "#", so that "##" units, units that
# start with "##" after it ("####a"), reserved-looking text and words that
# start with "##" all occur
_PIECES = st.text(alphabet="ab#[]", min_size=1, max_size=4)


@given(st.sets(st.one_of(_PIECES, _PIECES.map("##".__add__),
                         st.sampled_from(["##", "###", "[pad]", "#"]))),
       st.lists(st.one_of(_PIECES, _PIECES.map("##".__add__), st.just("[pad]")),
                min_size=1, max_size=4).map("".join))
@example({"##a", "a"}, "##a")
@example({"####a", "##", "a"}, "a##a")
def test_tokenize_word_matches_the_two_branch_reference(units, word):
    vocab = fixture_vocab(sorted(set(units) - set(RESERVED)))
    assert tokenize_word(word, vocab) == tokenize_word_two_branches(word, vocab)
