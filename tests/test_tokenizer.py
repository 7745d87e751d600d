"""Tokenizer behavior: splitting, case folding, round-trip stability."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import oracle_tokenize

from linkrush.tokenizer import fold_case, normalize_phrase, normalize_token, tokenize


def test_whitespace_split_and_lowercase():
    assert tokenize("Grace  Hopper\tled the team") == ["grace", "hopper", "led", "the", "team"]


def test_punctuation_becomes_single_tokens():
    assert tokenize("wait, stop.") == ["wait", ",", "stop", "."]
    assert tokenize("(hello)") == ["(", "hello", ")"]
    assert tokenize("a--b") == ["a", "-", "-", "b"]


def test_inner_apostrophe_kept():
    assert tokenize("I'm here") == ["i'm", "here"]
    assert tokenize("houston's range") == ["houston's", "range"]
    # typographic apostrophe behaves the same
    assert tokenize("it’s fine") == ["it’s", "fine"]


def test_edge_apostrophes_split():
    assert tokenize("engineers' tools") == ["engineers", "'", "tools"]
    assert tokenize("'quoted'") == ["'", "quoted", "'"]


def test_empty_and_whitespace_only():
    assert tokenize("") == []
    assert tokenize("   \n\t ") == []


def test_digits_stay_with_words():
    assert tokenize("nokia 2110 phone") == ["nokia", "2110", "phone"]
    assert tokenize("x1 carbon") == ["x1", "carbon"]


def test_round_trip_stability_random():
    # Re-tokenizing the space-joined output must be a fixed point.
    rng = np.random.default_rng(42)
    alphabet = list("abc XY.,'’()-7 \t")
    for _ in range(500):
        n = int(rng.integers(0, 30))
        text = "".join(rng.choice(alphabet) for _ in range(n))
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


def test_turkish_fold():
    assert fold_case("KAPI", turkish=True) == "kapı"
    assert fold_case("İstanbul", turkish=True) == "istanbul"
    assert tokenize("İstanbul", turkish=True) == ["istanbul"]
    # default folding differs for the dotted capital
    assert tokenize("İstanbul") != ["istanbul"]


def test_normalize_phrase_joins_tokens():
    assert normalize_phrase("  The  Black   Forest ") == "the black forest"


def test_normalize_token_never_splits():
    # CoNLL tokens must keep their shape so tags stay aligned.
    assert normalize_token("U.S.") == "u.s."
    assert normalize_token("I'm") == "i'm"


# Apostrophes, underscores, Turkish I's, combining marks, non-ASCII digits
# and numerals, and the separators str.split treats as whitespace.
_ADVERSARIAL = list("aZ9 '’_-.,IİıiÇç") + [
    "\u0307", "\u0301", "\u0663", "\u00b2", "\u00bd", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", "\u2002", "\u3000", "\t", "\n", "\u65e5", "\u00df", "\u01c5", "\u200b",
]


@pytest.mark.parametrize("turkish", [False, True])
def test_regex_matches_character_loop_on_random_strings(turkish):
    rng = np.random.default_rng(17 + turkish)
    for _ in range(20000):
        n = int(rng.integers(0, 12))
        text = "".join(_ADVERSARIAL[int(i)] for i in rng.integers(0, len(_ADVERSARIAL), size=n))
        assert tokenize(text, turkish=turkish) == oracle_tokenize(text, turkish=turkish), repr(text)


@pytest.mark.parametrize("turkish", [False, True])
def test_regex_matches_character_loop_on_every_code_point(turkish):
    # Each code point of the first three planes next to word characters and
    # apostrophes, one context at a time, all in one text per context.
    code_points = [chr(c) for c in range(0x30000) if not 0xD800 <= c < 0xE000]
    for context in ("{} ", "x{}y ", "a'{}'b ", "{}’1 "):
        text = "".join(context.format(c) for c in code_points)
        assert tokenize(text, turkish=turkish) == oracle_tokenize(text, turkish=turkish), context
