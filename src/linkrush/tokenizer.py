"""Word-level tokenization shared by indexing, matching, and classification.

Every stage that compares text (anchor phrases against sentence tokens,
query terms against postings) goes through this module, so normalization
is consistent end to end.
"""

from __future__ import annotations

import re

# A run of letters and digits, possibly joined by single apostrophes that
# have a letter or digit on both sides; or any other non-space character.
_TOKEN = re.compile(r"[^\W_]+(?:['’][^\W_]+)*|\S")

# Dotted/dotless I handling for Turkish text; applied before lowercasing.
_TURKISH_FOLD = str.maketrans({"I": "ı", "İ": "i"})


def fold_case(text: str, *, turkish: bool = False) -> str:
    """Lowercase `text`, optionally with Turkish I/dotted-I mapping."""
    if turkish:
        text = text.translate(_TURKISH_FOLD)
    return text.lower()


def tokenize(text: str, *, turkish: bool = False) -> list[str]:
    """Split text into lowercased word tokens.

    Whitespace separates tokens; punctuation characters become
    single-character tokens, except apostrophes flanked by word
    characters ("i'm" stays one token). Tokenizing the space-joined
    output of a previous call yields the same token list.
    """
    return _TOKEN.findall(fold_case(text, turkish=turkish))


def normalize_phrase(text: str, *, turkish: bool = False) -> str:
    """Canonical single-string form of a phrase: tokens joined by one space."""
    return " ".join(tokenize(text, turkish=turkish))


def normalize_token(token: str, *, turkish: bool = False) -> str:
    """Normalize one pre-tokenized unit without re-splitting it.

    Used on CoNLL tokens, where the token stream is fixed by the input
    file and must stay aligned with its tag column.
    """
    return fold_case(token, turkish=turkish)
