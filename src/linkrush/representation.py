"""Classifier input assembly: mention in context plus linked page text.

The layout is fixed: [CLS] left-context [SEP] mention [SEP] right-context
[SEP] page-lead [SEP]. When the total exceeds the length budget, the page
text is cut back first, then the right context, then the left context;
the mention segment itself is never truncated.
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
    tokens: tuple[str, ...]
    segments: tuple[Segment, ...]

    def __len__(self) -> int:
        return len(self.tokens)


def build_representation(
    sentence_tokens: Sequence[str],
    mention: Mention,
    lead: str,
    max_len: int = DEFAULT_MAX_LEN,
    *,
    turkish: bool = False,
) -> Representation:
    """Assemble the delimited sequence for one mention.

    Raises ValueError when the budget cannot hold the mention and its
    five markers.
    """
    if not 0 <= mention.start < mention.end <= len(sentence_tokens):
        raise ValueError(
            f"mention span ({mention.start}, {mention.end}) invalid for "
            f"sentence of length {len(sentence_tokens)}"
        )
    mention_tokens = list(sentence_tokens[mention.start : mention.end])
    if max_len < len(mention_tokens) + MARKER_COUNT:
        raise ValueError(
            f"max_len {max_len} cannot hold a {len(mention_tokens)}-token "
            f"mention plus {MARKER_COUNT} markers"
        )

    ctx_l = list(sentence_tokens[: mention.start])
    ctx_r = list(sentence_tokens[mention.end :])
    wiki = tokenize(lead, turkish=turkish)

    over = MARKER_COUNT + len(ctx_l) + len(mention_tokens) + len(ctx_r) + len(wiki) - max_len
    if over > 0:
        cut = min(over, len(wiki))
        wiki = wiki[: len(wiki) - cut]
        over -= cut
    if over > 0:
        cut = min(over, len(ctx_r))
        ctx_r = ctx_r[: len(ctx_r) - cut]
        over -= cut
    if over > 0:
        ctx_l = ctx_l[over:]

    tokens: list[str] = [CLS_TOKEN]
    segments: list[Segment] = [Segment.CLS]
    for part, segment in (
        (ctx_l, Segment.CTX_L),
        (mention_tokens, Segment.MENTION),
        (ctx_r, Segment.CTX_R),
        (wiki, Segment.WIKI),
    ):
        tokens.extend(part)
        segments.extend([segment] * len(part))
        tokens.append(SEP_TOKEN)
        segments.append(Segment.SEP)

    return Representation(tuple(tokens), tuple(segments))
