"""Slow reference implementations that the fast paths in `src/` are tested against.

BM25: the dict-of-postings scorer that the columnar index replaced. A
field is a dict term -> [(doc_id, tf)] sorted by doc_id; a query adds
each posting's idf * tf part one at a time, in query-term order, with
the idf and the length normalisation recomputed per posting. The
columnar index must return exactly the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from linkrush.index import B, K1


@dataclass
class OracleFieldIndex:
    """postings maps term -> [(doc_id, term_frequency)] sorted by doc_id;
    doc_lengths has one entry per document (0 for an empty field)."""

    postings: dict[str, list[tuple[int, int]]]
    doc_lengths: list[int]
    avg_doc_length: float
    doc_count: int

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))


def oracle_field_index(token_docs: Sequence[Sequence[str]]) -> OracleFieldIndex:
    """Index pre-tokenized documents; doc_ids are the sequence positions."""
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    for doc_id, tokens in enumerate(token_docs):
        doc_lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((doc_id, tf))
    return OracleFieldIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=sum(doc_lengths) / len(doc_lengths),
        doc_count=len(doc_lengths),
    )


def bm25_score(query_terms: Sequence[str], doc_id: int, field_index: OracleFieldIndex) -> float:
    """BM25 score of one document for an OR query.

    Each distinct query term contributes idf * tf*(k1+1) / (tf + k1*norm);
    terms absent from the document contribute nothing.
    """
    if not 0 <= doc_id < field_index.doc_count:
        raise ValueError(f"unknown doc_id {doc_id}")
    score = 0.0
    for term in _distinct(query_terms):
        tf = _term_frequency(field_index, term, doc_id)
        if tf == 0:
            continue
        score += field_index.idf(term) * _tf_part(tf, field_index, doc_id)
    return score


def oracle_search_tokens(
    field_index: OracleFieldIndex, query_terms: Sequence[str], k: int
) -> list[tuple[int, float]]:
    """Top-k (doc_id, score), score descending and doc_id ascending on ties."""
    scores: dict[int, float] = {}
    for term in _distinct(query_terms):
        postings = field_index.postings.get(term)
        if not postings:
            continue
        idf = field_index.idf(term)
        for doc_id, tf in postings:
            contribution = idf * _tf_part(tf, field_index, doc_id)
            scores[doc_id] = scores.get(doc_id, 0.0) + contribution
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def _distinct(terms: Iterable[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for term in terms:
        if term not in seen:
            seen.add(term)
            out.append(term)
    return out


def _term_frequency(field_index: OracleFieldIndex, term: str, doc_id: int) -> int:
    for posted_id, tf in field_index.postings.get(term, ()):
        if posted_id == doc_id:
            return tf
        if posted_id > doc_id:
            break
    return 0


def _tf_part(tf: int, field_index: OracleFieldIndex, doc_id: int) -> float:
    norm = 1.0 - B + B * field_index.doc_lengths[doc_id] / field_index.avg_doc_length
    return tf * (K1 + 1.0) / (tf + K1 * norm)
