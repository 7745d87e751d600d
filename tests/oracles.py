"""Slow reference implementations that the fast paths in `src/` are tested against.

BM25: the dict-of-postings scorer that the columnar index replaced. A
field is a dict term -> [(doc_id, tf)] sorted by doc_id; a query adds
each posting's idf * tf part one at a time, in query-term order, with
the idf and the length normalisation recomputed per posting. The
columnar index must return exactly the same floats.

Linking: the pool-first linker that anchor-first linking replaced. It
builds one `PooledCandidate` per pooled document, then a phrase map from
every pooled document's anchors, and matches the sentence against it.
`link_sentence` must return exactly the same mentions, pooled-score
floats included.

Tokenizing: the character loop that the one-regex tokenizer replaced.
`tokenize` must return exactly the same tokens.

Also here: helpers with no caller in `src/` that tests still use (the
list form of a field search, the dense batch gradients, representation
accessors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from linkrush.classifier import MentionClassifier, SparseVector, _example_gradients
from linkrush.corpus import IndexedDocument
from linkrush.index import B, FIELD_NAMES, K1, CorpusIndex, FieldIndex, field_top_k
from linkrush.mentions import Mention, resolve_overlaps
from linkrush.representation import Representation, Segment
from linkrush.tokenizer import fold_case, tokenize

_APOSTROPHES = frozenset("'’")


def oracle_tokenize(text: str, *, turkish: bool = False) -> list[str]:
    """Split on whitespace, then walk each chunk character by character."""
    tokens: list[str] = []
    for chunk in fold_case(text, turkish=turkish).split():
        tokens.extend(_split_chunk(chunk))
    return tokens


def _split_chunk(chunk: str) -> list[str]:
    out: list[str] = []
    buf: list[str] = []
    for i, ch in enumerate(chunk):
        if ch.isalnum():
            buf.append(ch)
        elif ch in _APOSTROPHES and buf and i + 1 < len(chunk) and chunk[i + 1].isalnum():
            buf.append(ch)
        else:
            if buf:
                out.append("".join(buf))
                buf = []
            out.append(ch)
    if buf:
        out.append("".join(buf))
    return out


def search_tokens(
    field_index: FieldIndex, query_terms: Sequence[str], k: int
) -> list[tuple[int, float]]:
    """Top-k (doc_id, score) pairs for an OR query of distinct terms,
    score descending and doc_id ascending on ties."""
    return field_top_k(field_index, query_terms, k).ranked()


def segment_of(rep: Representation, position: int) -> Segment:
    return rep.segments[position]


def render_representation(rep: Representation) -> str:
    """Single-string debug form with literal [CLS]/[SEP] markers."""
    return " ".join(rep.tokens)


def batch_loss(
    model: MentionClassifier, features: Sequence[SparseVector], labels: Sequence[object]
) -> float:
    """Mean per-example loss over a batch."""
    total = 0.0
    for x, label in zip(features, labels):
        total += _example_gradients(model, x, label)[0]
    return total / len(features)


def batch_gradients(
    model: MentionClassifier, features: Sequence[SparseVector], labels: Sequence[object]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean batch loss plus dense gradients for every parameter array.

    Dense output exists for verification against finite differences; the
    training loop applies the same per-example terms sparsely.
    """
    n = len(features)
    grads = {
        "W_type": np.zeros_like(model.W_type),
        "b_type": np.zeros_like(model.b_type),
    }
    if not model.single_head:
        grads["W_bin"] = np.zeros_like(model.W_bin)
        grads["b_bin"] = np.zeros_like(model.b_bin)
    total = 0.0
    for x, label in zip(features, labels):
        value, dz_bin, dz_type = _example_gradients(model, x, label)
        total += value
        if dz_bin is not None:
            grads["b_bin"] += dz_bin / n
            if x.nnz:
                grads["W_bin"][:, x.indices] += np.outer(dz_bin, x.values) / n
        if dz_type is not None:
            grads["b_type"] += dz_type / n
            if x.nnz:
                grads["W_type"][:, x.indices] += np.outer(dz_type, x.values) / n
    return total / n, grads


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


def search(
    field_index: FieldIndex, query: str, k: int, *, turkish: bool = False
) -> list[tuple[int, float]]:
    """Top-k documents for a query string, tokenized first."""
    return search_tokens(field_index, tokenize(query, turkish=turkish), k)


@dataclass(frozen=True)
class PooledCandidate:
    doc_id: int
    per_field_scores: dict[str, float]
    pooled_score: float


@dataclass
class CandidatePool:
    sentence_id: str
    candidates: list[PooledCandidate]
    per_field_counts: dict[str, int]

    def score_of(self, doc_id: int) -> float:
        for candidate in self.candidates:
            if candidate.doc_id == doc_id:
                return candidate.pooled_score
        raise KeyError(doc_id)


def oracle_retrieve_pooled(
    sentence_tokens: list[str],
    index: CorpusIndex,
    k: int,
    *,
    fields: tuple[str, ...] = FIELD_NAMES,
    sentence_id: str = "",
) -> CandidatePool:
    """Union of the per-field top-k lists, one object per pooled document,
    sorted by pooled score descending, doc_id ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    per_field_scores: dict[int, dict[str, float]] = {}
    per_field_counts: dict[str, int] = {}
    for name in fields:
        results = search_tokens(index.fields[name], sentence_tokens, k)
        per_field_counts[name] = len(results)
        for doc_id, score in results:
            per_field_scores.setdefault(doc_id, {})[name] = score

    candidates = [
        PooledCandidate(
            doc_id=doc_id,
            per_field_scores=scores,
            pooled_score=sum(scores.values()),
        )
        for doc_id, scores in per_field_scores.items()
    ]
    candidates.sort(key=lambda c: (-c.pooled_score, c.doc_id))
    return CandidatePool(
        sentence_id=sentence_id,
        candidates=candidates,
        per_field_counts=per_field_counts,
    )


def oracle_find_matches(
    sentence_tokens: Sequence[str],
    pool: CandidatePool,
    documents: Sequence[IndexedDocument],
) -> list[Mention]:
    """Every (span, document) pair where an anchor phrase of a pooled
    document equals a contiguous token subsequence of the sentence."""
    # Anchor token sequence -> doc_ids that list it, restricted to the pool.
    phrase_docs: dict[tuple[str, ...], list[int]] = {}
    scores: dict[int, float] = {}
    for candidate in pool.candidates:
        scores[candidate.doc_id] = candidate.pooled_score
        for phrase in documents[candidate.doc_id].referred_by:
            key = tuple(phrase.split(" "))
            phrase_docs.setdefault(key, []).append(candidate.doc_id)

    lengths = sorted({len(key) for key in phrase_docs})
    n = len(sentence_tokens)
    matches: list[Mention] = []
    for start in range(n):
        for length in lengths:
            end = start + length
            if end > n:
                break
            key = tuple(sentence_tokens[start:end])
            for doc_id in phrase_docs.get(key, ()):
                matches.append(
                    Mention(
                        start=start,
                        end=end,
                        surface=key,
                        doc_id=doc_id,
                        pooled_score=scores[doc_id],
                    )
                )
    return matches


def oracle_link_sentence(
    sentence_tokens: Sequence[str],
    index: CorpusIndex,
    k: int,
    *,
    fields: tuple[str, ...] = FIELD_NAMES,
) -> list[Mention]:
    """Retrieve the pool, match its anchors, resolve overlaps."""
    pool = oracle_retrieve_pooled(list(sentence_tokens), index, k, fields=fields)
    return resolve_overlaps(oracle_find_matches(sentence_tokens, pool, index.documents))


def mention_recall(
    gold_spans: Sequence[tuple[int, int]], detected: Sequence[Mention]
) -> float:
    """Fraction of gold spans exactly covered by a detected mention span.

    Type-agnostic; an empty gold set counts as fully recalled.
    """
    if not gold_spans:
        return 1.0
    detected_spans = {(m.start, m.end) for m in detected}
    hit = sum(1 for span in gold_spans if tuple(span) in detected_spans)
    return hit / len(gold_spans)
