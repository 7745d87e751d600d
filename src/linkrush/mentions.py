"""Mention detection: anchor phrases of retrieved documents, matched exactly.

A mention is a sentence span that equals an anchor phrase of a document
in the sentence's candidate pool. Linking looks the sentence's spans up
in the index's anchor table first and retrieves only when one matches;
each hit then keeps the documents the pool holds. The pool is asked
once per sentence, for all hit documents together, which of them some
field's top-k holds and with what pooled score (`Pool.pooled_scores`,
by top-k membership; nothing is ranked). Overlapping matches are
resolved greedily, longest span first, with the pooled relevance score
breaking length ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .index import FIELD_NAMES, CorpusIndex, Hit
from .retrieval import DEFAULT_K, Pool, retrieve_pooled


@dataclass(frozen=True)
class Mention:
    """A sentence token span [start, end) linked to one document."""

    start: int
    end: int
    surface: tuple[str, ...]
    doc_id: int
    pooled_score: float

    def overlaps(self, other: "Mention") -> bool:
        return self.start < other.end and other.start < self.end

    @property
    def length(self) -> int:
        return self.end - self.start


def find_matches(hits: Sequence[Hit], pool: Pool) -> list[Mention]:
    """Every (span, document) pair of the anchor hits whose document is
    pooled, by start, then length, then pooled score descending and
    doc_id ascending.

    All occurrences are reported, overlaps included; resolution happens in
    resolve_overlaps.
    """
    docs = [doc_id for *_, doc_ids in hits for doc_id in doc_ids]
    scores = dict(zip(docs, pool.pooled_scores(docs)))
    matches: list[Mention] = []
    for start, end, surface, doc_ids in hits:
        pooled = [
            (score, doc_id) for doc_id in doc_ids if (score := scores[doc_id]) is not None
        ]
        pooled.sort(key=lambda pair: (-pair[0], pair[1]))
        matches.extend(Mention(start, end, surface, doc_id, score) for score, doc_id in pooled)
    return matches


def resolve_overlaps(matches: list[Mention]) -> list[Mention]:
    """Greedy selection: longest span first, then pooled score, then
    start position and doc_id for determinism. A match is kept iff it
    overlaps no previously kept match. Output is sorted by start.
    """
    ordered = sorted(
        matches, key=lambda m: (-m.length, -m.pooled_score, m.start, m.doc_id)
    )
    kept: list[Mention] = []
    for match in ordered:
        if not any(match.overlaps(k) for k in kept):
            kept.append(match)
    kept.sort(key=lambda m: m.start)
    return kept


def link_sentence(
    sentence_tokens: Sequence[str],
    index: CorpusIndex,
    k: int = DEFAULT_K,
    *,
    fields: tuple[str, ...] | None = None,
) -> list[Mention]:
    """Look up anchors, retrieve, match and resolve: the full
    per-sentence linking pass over `fields` (default: all four). A
    sentence without an anchor phrase is never searched."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = index.anchors.lookup(sentence_tokens)
    if not hits:
        return []
    pool = retrieve_pooled(
        sentence_tokens, index, k, fields=FIELD_NAMES if fields is None else fields
    )
    return resolve_overlaps(find_matches(hits, pool))
