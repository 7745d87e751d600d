"""Slow reference implementations that the fast paths in `src/` are tested against.

BM25: the dict-of-postings scorer that the columnar index replaced. A
field is a dict term -> [(doc_id, tf)] sorted by doc_id; a query adds
each posting's idf * tf part one at a time, in query-term order, with
the idf and the length normalisation recomputed per posting. The
columnar index must return exactly the same floats.

Top-k: the ranking that top-k membership replaced. Each field's top-k
is found and sorted (score descending, doc_id ascending on ties), then
kept as a mask over the documents. `index.top_k_members` must say of
every document exactly what the mask says.

Linking: the pool-first linker that anchor-first linking replaced. It
builds one `PooledCandidate` per pooled document, then a phrase map from
every pooled document's anchors, and matches the sentence against it.
`link_sentence` must return exactly the same mentions, pooled-score
floats included.

Feature hashing: `hash_feature` hashes one feature at a time and
`sparse_from_counts` normalizes a dict of counts into one row. Built on them,
`oracle_featurize` hashes every feature of a representation in a loop,
and `oracle_window_features` one position's window; `featurize` and
`ensemble.window_features` must return exactly the same indices and
value bytes.

Mention classification: `oracle_build_representation` is the per-token
builder that laid out every token of a representation with its segment
(`layout` gives a `Representation`'s), and `oracle_tag_el` the
per-mention path that classifying a sentence's mentions together
replaced: per mention a freshly tokenized lead, `oracle_featurize` over
its layout (`oracle_mention_rows`), then one dense `oracle_forward` and
`decide`. `ensemble.mention_features` must give every mention's row
exactly the same bytes, and `tag_el` the same tags.

Window tagging: `oracle_tag_baseline` scores one token at a time, the
loop that scoring a sentence's rows at once replaced: each position's
`oracle_window_features` through `oracle_head_logits` and `decide`.
`ensemble.tag_baseline` must return exactly the same tags.

Dense weights: `dense_model` expands a model's weights to one column per
feature, as model format 1 stored them, and `oracle_head_logits` is the
dense gather `W[:, idx] @ v + b` of one row that the gather through a
compact model's column map replaced. `_rows_logits` must give every row
exactly the same logit bytes.

Forward pass and training: `oracle_forward` scores one row of a dense
model, each head through `oracle_head_logits` and `oracle_softmax` (the
1-D softmax), and `oracle_fit` is the per-example descent loop over
`_example_gradients` that batched training replaced. `forward` must give
each row exactly the same probability bytes, and `_fit` the same
weights, biases and epoch losses, byte for byte.

Tokenizing: the character loop that the one-regex tokenizer replaced.
`tokenize` must return exactly the same tokens.

Index format 1: the JSON index file that format 2 replaced, one record
per document plus every field's postings as `[doc_id, tf]` lists. Its
writer and reader stay here so that format 2 can be checked against it:
a format-2 round trip must load exactly what a format-1 round trip
loads.

Also here: helpers with no caller in `src/` that tests still use (the
list form of a field search, the dense batch gradients, a row on its
own (`one_row`, `split_rows`), representation accessors, and the split
and rejoin of a format-2 index file that the malformed-file tests edit).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from linkrush.classifier import (
    GATE_NE,
    GATE_O,
    TYPE_INDEX,
    GateDecision,
    MentionClassifier,
    SparseRows,
    TrainingConfig,
    _check_dim,
    decide,
    loss,
    loss_single_head,
)
from linkrush.corpus import IndexedDocument
from linkrush.evaluation import TaggedSentence, bio_repair
from linkrush.index import (
    B,
    FIELD_NAMES,
    K1,
    AnchorTable,
    CorpusIndex,
    FieldIndex,
    Leads,
    _doc_to_json,
    _docs_from_json,
    field_scores,
)
from linkrush.mentions import Mention, link_sentence, resolve_overlaps
from linkrush.representation import (
    CLS_TOKEN,
    DEFAULT_MAX_LEN,
    MARKER_COUNT,
    SEP_TOKEN,
    Representation,
    Segment,
)
from linkrush.retrieval import DEFAULT_K
from linkrush.storage import (
    MAGIC_INDEX,
    dump_json,
    load_json,
    read_arrays,
    read_container,
    write_container,
)
from linkrush.tokenizer import fold_case, normalize_token, tokenize

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


def ranked_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The exact top-k of a score vector, ranked: the positions of
    positive score, score descending and position ascending on ties,
    the first k of them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = np.flatnonzero(scores)
    hit_scores = scores[hits]
    if len(hits) > k:
        # Keep every document tied with the k-th score; the sort decides.
        kth = np.partition(hit_scores, len(hits) - k)[len(hits) - k]
        keep = hit_scores >= kth
        hits, hit_scores = hits[keep], hit_scores[keep]
    return hits[np.lexsort((hits, -hit_scores))[:k]]


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """A bool per document: is it in the ranked top-k?"""
    in_top = np.zeros(len(scores), dtype=bool)
    in_top[ranked_top_k(scores, k)] = True
    return in_top


def search_tokens(
    field_index: FieldIndex, query_terms: Sequence[str], k: int
) -> list[tuple[int, float]]:
    """Top-k (doc_id, score) pairs for an OR query of distinct terms,
    score descending and doc_id ascending on ties."""
    scores = field_scores(field_index, query_terms)
    top = ranked_top_k(scores, k)
    return list(zip(top.tolist(), scores[top].tolist()))


def hash_feature(parts: tuple[str, ...], feature_dim: int) -> int:
    """The low bits of the 8-byte blake2b digest, read little-endian, of
    the feature's parts joined by U+001F; feature_dim must be a power of
    two."""
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & (feature_dim - 1)


def one_row(indices: np.ndarray, values: np.ndarray) -> SparseRows:
    """A `SparseRows` of one row."""
    return SparseRows(np.array((0, len(indices))), indices, values)


def split_rows(rows: SparseRows) -> list[SparseRows]:
    """Each row of `rows` alone, its indices and values views of the row's
    slice."""
    bounds = rows.indptr.tolist()
    return [one_row(rows.indices[lo:hi], rows.values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def sparse_from_counts(counts: dict[int, float]) -> SparseRows:
    """One sorted, L2-normalized row (a zero row stays zero)."""
    if not counts:
        return one_row(np.zeros(0, dtype=np.int64), np.zeros(0))
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    norm = math.sqrt(float(values @ values))
    return one_row(indices, values / norm if norm > 0.0 else values)


def oracle_window_features(tokens: Sequence[str], position: int, feature_dim: int) -> SparseRows:
    """Hashed unigram features of the tokens at offsets -3..+3 around one
    position, edge-padded, one `hash_feature` call per feature."""
    counts: dict[int, float] = {}
    for offset in range(-3, 4):
        i = position + offset
        token = tokens[i] if 0 <= i < len(tokens) else "[EDGE]"
        idx = hash_feature((f"w{offset:+d}", token), feature_dim)
        counts[idx] = counts.get(idx, 0.0) + 1.0
    return sparse_from_counts(counts)


def dense_model(model: MentionClassifier) -> MentionClassifier:
    """The model with one weight column per feature (its column map the
    identity): each feature's column read through the model's map."""
    W_bin = None if model.W_bin is None else model.W_bin[:, model.columns]
    return dataclasses.replace(
        model, W_bin=W_bin, W_type=model.W_type[:, model.columns], columns=None
    )


def oracle_head_logits(W: np.ndarray, b: np.ndarray, x: SparseRows) -> np.ndarray:
    """The dense gather of one row: W (one column per feature) at x's
    features, times x's values, plus b."""
    if x.nnz == 0:
        return b.copy()
    return W[:, x.indices] @ x.values + b


def oracle_softmax(logits: np.ndarray) -> np.ndarray:
    """The softmax of one logit vector."""
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


def oracle_forward(
    model: MentionClassifier, x: SparseRows
) -> tuple[np.ndarray | None, np.ndarray]:
    """(p_bin, p_type) of one row of a dense model, each head through
    `oracle_head_logits` and `oracle_softmax`."""
    p_type = oracle_softmax(oracle_head_logits(model.W_type, model.b_type, x))
    if model.single_head:
        return None, p_type
    return oracle_softmax(oracle_head_logits(model.W_bin, model.b_bin, x)), p_type


def oracle_tag_baseline(
    tokens: Sequence[str], sentence_id: str, tagger: MentionClassifier
) -> TaggedSentence:
    """Fold each token as the tagger does, then one dense
    `oracle_head_logits` and one `decide` per position; type-only tags,
    BIO-repaired."""
    dense = dense_model(tagger)
    normalized = [normalize_token(t, turkish=tagger.turkish) for t in tokens]
    raw: list[str] = []
    for position in range(len(normalized)):
        x = oracle_window_features(normalized, position, tagger.feature_dim)
        etype = decide(None, oracle_head_logits(dense.W_type, dense.b_type, x))
        raw.append("O" if etype is None else f"I-{etype.value}")
    return TaggedSentence(sentence_id, tuple(tokens), tuple(bio_repair(raw)))


# A representation as the per-token builder laid it out: every token of
# the delimited sequence with its segment.
Layout = tuple[tuple[str, ...], tuple[Segment, ...]]


def oracle_build_representation(
    sentence_tokens: Sequence[str],
    mention: Mention,
    lead: str,
    max_len: int = DEFAULT_MAX_LEN,
    *,
    turkish: bool = False,
) -> Layout:
    """The per-token builder that representations as runs replaced: cut
    the lead, then the right context, then the left context from its
    front, and lay out every token with its segment."""
    mention_tokens = list(sentence_tokens[mention.start : mention.end])
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
    return _lay_out(ctx_l, mention_tokens, ctx_r, wiki)


def _lay_out(*runs: Sequence[str]) -> Layout:
    tokens: list[str] = [CLS_TOKEN]
    segments: list[Segment] = [Segment.CLS]
    for part, segment in zip(runs, (Segment.CTX_L, Segment.MENTION, Segment.CTX_R, Segment.WIKI)):
        tokens.extend(part)
        segments.extend([segment] * len(part))
        tokens.append(SEP_TOKEN)
        segments.append(Segment.SEP)
    return tuple(tokens), tuple(segments)


def layout(rep: Representation) -> Layout:
    """A representation's delimited tokens, each with its segment."""
    return _lay_out(rep.ctx_l, rep.mention, rep.ctx_r, rep.wiki)


def oracle_featurize(rep: Representation | Layout, feature_dim: int) -> SparseRows:
    """Hashed counts of (segment, token) and (segment, token-bigram) pairs
    within each run of one segment of the layout, found token by token,
    one `hash_feature` call per feature."""
    _check_dim(feature_dim)
    tokens, segments = layout(rep) if isinstance(rep, Representation) else rep
    counts: dict[int, float] = {}
    pos = 0
    n = len(tokens)
    while pos < n:
        segment = segments[pos]
        run_end = pos
        while run_end < n and segments[run_end] is segment:
            run_end += 1
        run = tokens[pos:run_end]
        for token in run:
            idx = hash_feature((segment.value, token), feature_dim)
            counts[idx] = counts.get(idx, 0.0) + 1.0
        for left, right in zip(run, run[1:]):
            idx = hash_feature((segment.value, left, right), feature_dim)
            counts[idx] = counts.get(idx, 0.0) + 1.0
        pos = run_end
    return sparse_from_counts(counts)


def oracle_mention_rows(
    normalized: Sequence[str],
    index: CorpusIndex,
    feature_dim: int,
    *,
    k: int = DEFAULT_K,
    max_len: int = DEFAULT_MAX_LEN,
) -> list[tuple[Mention, SparseRows]]:
    """The per-mention path that building a sentence's rows at once
    replaced: each linked mention that fits the budget, its layout built
    from its freshly tokenized lead, and its row from `oracle_featurize`."""
    return [
        (
            mention,
            oracle_featurize(
                oracle_build_representation(
                    normalized, mention, index.leads[mention.doc_id], max_len, turkish=index.turkish
                ),
                feature_dim,
            ),
        )
        for mention in link_sentence(normalized, index, k)
        if mention.length + MARKER_COUNT <= max_len
    ]


def oracle_tag_el(
    tokens: Sequence[str],
    sentence_id: str,
    index: CorpusIndex,
    model: MentionClassifier,
    *,
    k: int = DEFAULT_K,
    max_len: int = DEFAULT_MAX_LEN,
) -> TaggedSentence:
    """One `oracle_mention_rows` row, one dense `oracle_forward` and one
    `decide` per mention; a vetoed mention leaves its tokens O."""
    dense = dense_model(model)
    normalized = [normalize_token(t, turkish=index.turkish) for t in tokens]
    tags = ["O"] * len(tokens)
    rows = oracle_mention_rows(normalized, index, model.feature_dim, k=k, max_len=max_len)
    for mention, row in rows:
        p_bin, p_type = oracle_forward(dense, row)
        etype = decide(p_bin, p_type)
        if etype is not None:
            tags[mention.start : mention.end] = [f"B-{etype.value}"] + [
                f"I-{etype.value}"
            ] * (mention.length - 1)
    return TaggedSentence(sentence_id, tuple(tokens), tuple(tags))


def segment_of(rep: Representation, position: int) -> Segment:
    return layout(rep)[1][position]


def render_representation(rep: Representation) -> str:
    """Single-string debug form with literal [CLS]/[SEP] markers."""
    return " ".join(rep.tokens)


def _example_gradients(
    model: MentionClassifier, x: SparseRows, label: object
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Per-example loss and d(loss)/d(logits) for each head of a dense
    model; x is one row."""
    p_bin, p_type = oracle_forward(model, x)
    if model.single_head:
        gold_class = int(label)
        dz_type = p_type.copy()
        dz_type[gold_class] -= 1.0
        return loss_single_head(p_type, gold_class), None, dz_type

    gate, etype = label
    value = loss(p_bin, p_type, gate, etype)
    dz_bin = p_bin.copy()
    dz_bin[GATE_NE if gate is GateDecision.NE else GATE_O] -= 1.0
    dz_type = None
    if gate is GateDecision.NE:
        dz_type = p_type.copy()
        dz_type[TYPE_INDEX[etype]] -= 1.0
    return value, dz_bin, dz_type


def oracle_fit(
    model: MentionClassifier,
    features: Sequence[SparseRows],
    labels: Sequence[object],
    config: TrainingConfig,
) -> list[float]:
    """The per-example descent loop: a mini-batch's gradients come from
    its pre-update weights, then each example's updates are applied in
    batch order, to the columns of its features only."""
    rng = np.random.default_rng(config.seed)
    n = len(features)
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            scale = config.learning_rate / len(batch)
            terms = [_example_gradients(model, features[i], labels[i]) for i in batch]
            epoch_total += sum(t[0] for t in terms)
            for i, (_, dz_bin, dz_type) in zip(batch, terms):
                x = features[i]
                if dz_bin is not None:
                    model.b_bin -= scale * dz_bin
                    if x.nnz:
                        model.W_bin[:, x.indices] -= scale * np.outer(dz_bin, x.values)
                if dz_type is not None:
                    model.b_type -= scale * dz_type
                    if x.nnz:
                        model.W_type[:, x.indices] -= scale * np.outer(dz_type, x.values)
        epoch_losses.append(epoch_total / n)
    return epoch_losses


def batch_loss(
    model: MentionClassifier, features: Sequence[SparseRows], labels: Sequence[object]
) -> float:
    """Mean per-example loss over a batch."""
    total = 0.0
    for x, label in zip(features, labels):
        total += _example_gradients(model, x, label)[0]
    return total / len(features)


def batch_gradients(
    model: MentionClassifier, features: Sequence[SparseRows], labels: Sequence[object]
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


def save_index_v1(
    path: str | Path,
    documents: Sequence[IndexedDocument],
    fields: dict[str, FieldIndex],
    *,
    turkish: bool = False,
) -> None:
    """The format-1 index file of `documents` and their `fields`."""

    def field_json(fi: FieldIndex) -> dict:
        pairs = [[d, tf] for d, tf in zip(fi.doc_ids.tolist(), fi.tfs.tolist())]
        bounds = fi.offsets.tolist()
        return {
            "postings": {
                term: pairs[bounds[row] : bounds[row + 1]] for term, row in fi.term_rows.items()
            },
            "doc_lengths": fi.doc_lengths.tolist(),
            "avg_doc_length": fi.avg_doc_length,
            "doc_count": fi.doc_count,
        }

    payload = {
        "turkish": turkish,
        "documents": [_doc_to_json(d) for d in documents],
        "fields": {name: field_json(fi) for name, fi in fields.items()},
    }
    Path(path).write_bytes(MAGIC_INDEX + bytes([1]) + dump_json(payload))


def load_index_v1(path: str | Path) -> CorpusIndex:
    """A format-1 index file, loaded as format-1 loading did: each field's
    postings lists become CSR columns in term order, and the stored
    avg_doc_length and doc_count must equal the ones derived from them."""
    data = Path(path).read_bytes()
    assert data[: len(MAGIC_INDEX) + 1] == MAGIC_INDEX + bytes([1])
    payload = load_json(data[len(MAGIC_INDEX) + 1 :], path)
    documents = _docs_from_json(payload["documents"], path)
    fields = {}
    for name in FIELD_NAMES:
        raw = payload["fields"][name]
        plists = list(raw["postings"].values())
        offsets = np.cumsum([0] + [len(plist) for plist in plists])
        pairs = np.array([pair for plist in plists for pair in plist], dtype=np.int64).reshape(-1, 2)
        fields[name] = FieldIndex.from_columns(
            name, list(raw["postings"]), offsets, pairs[:, 0], pairs[:, 1], raw["doc_lengths"]
        )
        assert fields[name].avg_doc_length == raw["avg_doc_length"]
        assert fields[name].doc_count == raw["doc_count"] == len(documents)
    return CorpusIndex(
        titles=[d.title for d in documents],
        leads=Leads.from_strings(d.lead for d in documents),
        fields=fields,
        anchors=AnchorTable.from_phrases(d.referred_by for d in documents),
        turkish=payload["turkish"],
    )


def _loaded_state(index: CorpusIndex) -> dict:
    """Everything a loaded index holds, in comparable form."""
    state = {
        "titles": index.titles,
        "leads": index.leads,
        "turkish": index.turkish,
        "anchors": list(index.anchors.phrases.items()),
        "anchor_lengths": index.anchors.lengths,
    }
    for name, fi in index.fields.items():
        state[name] = {
            "terms": list(fi.term_rows),
            "impacts": fi.impacts.tobytes(),
            "avg_doc_length": fi.avg_doc_length,
            "doc_count": fi.doc_count,
            **{c: getattr(fi, c).tolist() for c in ("offsets", "doc_ids", "tfs", "doc_lengths")},
        }
    return state


def assert_v2_loads_as_v1(
    documents: Sequence[IndexedDocument], built: CorpusIndex, tmp_path: Path
) -> None:
    """A format-2 round trip of `built` loads exactly what the format-1
    round trip of it and its `documents` loads: term order, columns,
    impact bytes, lengths, titles, leads and the anchor table."""
    v1, v2 = tmp_path / "v1.bin", tmp_path / "v2.bin"
    save_index_v1(v1, documents, built.fields, turkish=built.turkish)
    built.save(v2)
    from_v1, from_v2 = load_index_v1(v1), CorpusIndex.load(v2)
    assert list(from_v2.fields) == list(from_v1.fields) == list(FIELD_NAMES)
    assert _loaded_state(from_v2) == _loaded_state(from_v1)


def index_arrays(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """A format-2 index file's header, without its crc32, and its arrays
    as writable copies, by name."""
    header, blob = index_header(path)
    arrays = read_arrays(blob, 0, header["arrays"], path)
    return header, {name: values.copy() for name, values in arrays.items()}


def index_header(path: str | Path) -> tuple[dict, bytes]:
    """A format-2 index file's header, without its crc32, and its array
    bytes."""
    payload = read_container(path, MAGIC_INDEX)
    sep = payload.index(b"\n")
    header = load_json(payload[:sep], path)
    del header["crc32"]
    return header, payload[sep + 1 :]


def write_index_arrays(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """A format-2 index file of `header` and the `arrays` it lists, the
    counts and crc32 brought up to date, so that an edited file gets past
    the checksum to the check under test. An array missing from `arrays`
    is left out of the layout."""
    layout = [[name, dtype, len(arrays[name])] for name, dtype, _ in header["arrays"] if name in arrays]
    blob = b"".join(np.ascontiguousarray(arrays[name], dtype=dtype).tobytes() for name, dtype, _ in layout)
    write_index_raw(path, {**header, "arrays": layout}, blob)


def write_index_raw(path: str | Path, header: object, blob: bytes) -> None:
    """A format-2 index file of `header` (a dict gets a crc32 of itself
    and `blob`) and the array bytes `blob`, as they are."""
    if isinstance(header, dict):
        header = {**header, "crc32": zlib.crc32(blob, zlib.crc32(dump_json(header)))}
    write_container(path, MAGIC_INDEX, dump_json(header) + b"\n" + blob)


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
    documents: Sequence[IndexedDocument],
    k: int,
    *,
    fields: tuple[str, ...] = FIELD_NAMES,
) -> list[Mention]:
    """Retrieve the pool, match the anchors of its `documents`, resolve
    overlaps."""
    pool = oracle_retrieve_pooled(list(sentence_tokens), index, k, fields=fields)
    return resolve_overlaps(oracle_find_matches(sentence_tokens, pool, documents))


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
