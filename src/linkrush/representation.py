"""Classifier input assembly: mention in context plus linked page text.

The layout is fixed: [CLS] left-context [SEP] mention [SEP] right-context
[SEP] page-lead [SEP]. When the total exceeds the length budget, the page
text is cut back first, then the right context, then the left context;
the mention segment itself is never truncated.

A `Representation` holds the four runs between the markers, so nothing
downstream has to find them again. `fit_budget` is the cut itself; the
tagging path applies it to a sentence's mentions without building a
Representation (see `ensemble.mention_features`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .mentions import Mention
from .tokenizer import tokenize

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"

DEFAULT_MAX_LEN = 256
MARKER_COUNT = 5


class Segment(Enum):
    CLS = "CLS"
    CTX_L = "CTX_L"
    MENTION = "MENTION"
    CTX_R = "CTX_R"
    WIKI = "WIKI"
    SEP = "SEP"


@dataclass(frozen=True)
class Representation:
    """One mention's classifier input as its four runs: the left context,
    the mention, the right context and the kept prefix of the lead. The
    five markers around them are implied by the layout."""

    ctx_l: tuple[str, ...]
    mention: tuple[str, ...]
    ctx_r: tuple[str, ...]
    wiki: tuple[str, ...]

    @property
    def tokens(self) -> tuple[str, ...]:
        """The delimited sequence, markers included (what
        `perfbench/tracing.py` counts as `representation.tokens`)."""
        return (
            CLS_TOKEN, *self.ctx_l, SEP_TOKEN, *self.mention, SEP_TOKEN,
            *self.ctx_r, SEP_TOKEN, *self.wiki, SEP_TOKEN,
        )

    def __len__(self) -> int:
        return MARKER_COUNT + len(self.ctx_l) + len(self.mention) + len(self.ctx_r) + len(self.wiki)


def fit_budget(
    ctx_l: int, mention: int, ctx_r: int, wiki: int, max_len: int
) -> tuple[int, int, int]:
    """How many tokens of the left context, the right context and the lead
    (given their full lengths) fit in `max_len` with the mention and the
    five markers: the lead is cut from its end first, then the right
    context from its end, then the left context from its front.

    Raises ValueError when the budget cannot hold the mention and its
    five markers.
    """
    if max_len < mention + MARKER_COUNT:
        raise ValueError(
            f"max_len {max_len} cannot hold a {mention}-token "
            f"mention plus {MARKER_COUNT} markers"
        )
    over = max(MARKER_COUNT + ctx_l + mention + ctx_r + wiki - max_len, 0)
    cut_wiki = min(over, wiki)
    cut_r = min(over - cut_wiki, ctx_r)
    cut_l = over - cut_wiki - cut_r  # at most ctx_l, as the mention fits
    return ctx_l - cut_l, ctx_r - cut_r, wiki - cut_wiki


def build_representation(
    sentence_tokens: Sequence[str],
    mention: Mention,
    lead: str,
    max_len: int = DEFAULT_MAX_LEN,
    *,
    turkish: bool = False,
) -> Representation:
    """Assemble the delimited sequence for one mention.

    Raises ValueError for a span outside the sentence, and when the
    budget cannot hold the mention and its five markers.
    """
    start, end = mention.start, mention.end
    if not 0 <= start < end <= len(sentence_tokens):
        raise ValueError(
            f"mention span ({start}, {end}) invalid for "
            f"sentence of length {len(sentence_tokens)}"
        )
    wiki = tokenize(lead, turkish=turkish)
    kept_l, kept_r, kept_wiki = fit_budget(
        start, end - start, len(sentence_tokens) - end, len(wiki), max_len
    )
    return Representation(
        tuple(sentence_tokens[start - kept_l : start]),
        tuple(sentence_tokens[start:end]),
        tuple(sentence_tokens[end : end + kept_r]),
        tuple(wiki[:kept_wiki]),
    )
