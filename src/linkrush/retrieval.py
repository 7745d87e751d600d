"""Pooled candidate retrieval: one OR query per sentence against each field.

Each field answers with every document's BM25 score; a document is in
the field's result when it is in the field's exact top-k (score
descending, position ascending on ties), and the pool is the union of
the results. A pooled document's score is the sum of its scores over
the fields whose top-k holds it, added in field order.

Nothing is ranked and nothing is built per pooled document: anchor
matching asks the pool only about the few documents whose anchors occur
in the sentence, and `index.top_k_members` answers for those alone. A
document of score s > 0 is in a field's top-k exactly when fewer than k
documents score above s or score s at a lower position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .index import FIELD_NAMES, CorpusIndex, top_k_members

DEFAULT_K = 200


@dataclass(frozen=True)
class Pool:
    """One sentence's pooled retrieval: each field's score vector, in
    field order, and the k of every field's top-k."""

    scores: dict[str, np.ndarray]  # field -> float64 score per document
    k: int

    @property
    def per_field_counts(self) -> dict[str, int]:
        """The size of each field's top-k."""
        return {name: min(self.k, int(np.count_nonzero(s))) for name, s in self.scores.items()}

    @property
    def candidates(self) -> np.ndarray:
        """The pooled document positions, ascending: every document of
        positive score that some field's top-k holds."""
        hits = np.flatnonzero(sum(self.scores.values()))  # no score is negative
        return hits[self._membership(hits)[0]]

    def pooled_scores(self, doc_ids: Sequence[int]) -> list[float | None]:
        """Per document, the sum of its scores over the fields whose top-k
        holds it, added in field order; None outside the pool."""
        pooled, total = self._membership(np.asarray(doc_ids, dtype=np.int64))
        return [score if kept else None for score, kept in zip(total.tolist(), pooled.tolist())]

    def _membership(self, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per document, whether it is pooled, and its pooled score."""
        total = np.zeros(len(docs))
        pooled = np.zeros(len(docs), dtype=bool)
        for scores in self.scores.values():
            member = top_k_members(scores, docs, self.k)
            # Adding 0.0 leaves a float as it is, so this is the sum of
            # the member scores alone, in field order.
            total += np.where(member, scores[docs], 0.0)
            pooled |= member
        return pooled, total


def retrieve_pooled(
    sentence_tokens: Sequence[str],
    index: CorpusIndex,
    k: int = DEFAULT_K,
    *,
    fields: tuple[str, ...] = FIELD_NAMES,
) -> Pool:
    """Run the sentence as an OR query per field, in the given order.

    The pool may be empty when no document shares a token with the
    sentence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return Pool({name: index.search_field(name, sentence_tokens) for name in fields}, k)


def pool_stats(pools: Iterable[Pool]) -> dict:
    """Sentence count, mean pool size, empty-pool count and mean
    per-field result count (fields sorted by name), as a JSON-ready dict.

    Each pool is read once and dropped, so a long input never holds more
    than one sentence's score vectors.
    """
    count = size_total = empty = 0
    field_totals: dict[str, int] = {}
    for pool in pools:
        size = len(pool.candidates)
        count += 1
        size_total += size
        empty += size == 0
        for name, n in pool.per_field_counts.items():
            field_totals[name] = field_totals.get(name, 0) + n
    return {
        "sentence_count": count,
        "avg_pool_size": size_total / count if count else 0.0,
        "empty_pool_count": empty,
        "avg_per_field": {name: field_totals[name] / count for name in sorted(field_totals)},
    }
