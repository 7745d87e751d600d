"""Pooled candidate retrieval: one OR query per sentence against each field.

Each field answers with every document's BM25 score and a mask of its
exact top-k; the pool is the union of the masks. A pooled document's
score is the sum of its scores over the fields whose top-k holds it,
added in field order. Nothing is built per pooled document: anchor
matching asks the pool only about the few documents whose anchors occur
in the sentence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .index import FIELD_NAMES, CorpusIndex

DEFAULT_K = 200


@dataclass(frozen=True)
class PoolMasks:
    """One sentence's pooled retrieval, as per-field columns in field order."""

    scores: dict[str, np.ndarray]  # field -> float64 score per document
    masks: dict[str, np.ndarray]  # field -> bool per document, its top-k

    @property
    def per_field_counts(self) -> dict[str, int]:
        return {name: int(np.count_nonzero(mask)) for name, mask in self.masks.items()}

    @property
    def candidates(self) -> np.ndarray:
        """The pooled document positions, ascending."""
        if not self.masks:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.logical_or.reduce(list(self.masks.values())))

    def pooled_score(self, doc_id: int) -> float | None:
        """The sum of the document's scores over the fields whose top-k
        holds it, added in field order; None outside the pool."""
        total, pooled = 0, False
        for name, mask in self.masks.items():
            if mask[doc_id]:
                total += self.scores[name].item(doc_id)
                pooled = True
        return total if pooled else None


def retrieve_pooled(
    sentence_tokens: Sequence[str],
    index: CorpusIndex,
    k: int = DEFAULT_K,
    *,
    fields: tuple[str, ...] = FIELD_NAMES,
) -> PoolMasks:
    """Run the sentence as an OR query per field, in the given order.

    The pool may be empty when no document shares a token with the
    sentence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for name in fields:
        result = index.search_field(name, sentence_tokens, k)
        scores[name] = result.scores
        masks[name] = result.mask()
    return PoolMasks(scores=scores, masks=masks)


@dataclass
class PoolStats:
    """Aggregate retrieval diagnostics over a batch of sentences."""

    sentence_count: int = 0
    avg_pool_size: float = 0.0
    empty_pool_count: int = 0
    avg_per_field: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "sentence_count": self.sentence_count,
            "avg_pool_size": self.avg_pool_size,
            "empty_pool_count": self.empty_pool_count,
            "avg_per_field": dict(sorted(self.avg_per_field.items())),
        }


def pool_stats(pools: Iterable[PoolMasks]) -> PoolStats:
    """Mean pool size, mean per-field result count, and empty-pool count.

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
    if not count:
        return PoolStats()
    return PoolStats(
        sentence_count=count,
        avg_pool_size=size_total / count,
        empty_pool_count=empty,
        avg_per_field={name: total / count for name, total in field_totals.items()},
    )
