"""Sentence-length routing between two taggers.

Long sentences carry enough context for a conventional per-token tagger;
short ones are handed to the entity-linking path, which brings external
page text to bear. The per-token baseline, the window tagger, is a
single-head `MentionClassifier` (six types plus non-entity) over hashed
features of a ±3 token window; it is stored like the mention classifier,
under its own header kind. `window_features` turns a sentence into one
`SparseRows` (CSR) of its windows' features, with the hash of
`classifier`: each token's seven keys are hashed once into a bounded
memo, and `classifier._feature_rows` builds the rows together.
`tag_baseline` scores all rows with one `_rows_logits` call, and
`train_baseline` stacks all sentences' rows.

The linking path also works a sentence at a time. `mention_features`
builds the rows of all of a sentence's linked mentions at once, each
with the bytes `featurize` gives its representation: the sentence's
context hashes are taken once, and a lead's WIKI hashes come from a
memo of the index keyed by document (`_lead_digests`), so a lead is
decoded and tokenized once while it stays in the memo, not once per
mention. `tag_el` scores the rows with one `forward` and applies the
gate rule per row. Training builds a `Representation` per candidate and
featurizes it alone, which is the same row builder's one-row case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .classifier import (
    DEFAULT_FEATURE_DIM,
    ENTITY_TYPES,
    OTHER_CLASS,
    TYPE_INDEX,
    WINDOW_DIGEST_MEMO_SIZE,
    EntityType,
    GateDecision,
    MentionClassifier,
    SparseRows,
    TrainExample,
    TrainingConfig,
    _KEY_SEP,
    _check_dim,
    _context_digests,
    _feature_digests,
    _feature_rows,
    _fit,
    _mention_digests,
    _rows_logits,
    _wiki_digests,
    decide,
    forward,
    load_window_tagger,
    save_window_tagger,
)
from .index import LEAD_MEMO_SIZE, CorpusIndex
from .mentions import Mention, link_sentence
from .representation import (
    DEFAULT_MAX_LEN,
    MARKER_COUNT,
    Representation,
    build_representation,
    fit_budget,
)
from .retrieval import DEFAULT_K
# Not called here: perfbench/tracing.py patches these two names in this module.
from .storage import dump_json, write_container  # noqa: F401
from .evaluation import TaggedSentence, bio_repair, span_extract
from .tokenizer import normalize_token

DEFAULT_THRESHOLD = 11

WINDOW_RADIUS = 3
_EDGE_TOKEN = "[EDGE]"


class Route(Enum):
    BASELINE = "baseline"
    ENTITY_LINKING = "entity_linking"


@dataclass(frozen=True)
class RouterConfig:
    """Token-count routing rule; threshold None sends everything to the
    entity-linking path (the no-baseline configuration)."""

    threshold: int | None = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if self.threshold is not None and self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")


def route(tokens: Sequence[str], config: RouterConfig) -> Route:
    """Strictly more tokens than the threshold → baseline tagger."""
    if config.threshold is not None and len(tokens) > config.threshold:
        return Route.BASELINE
    return Route.ENTITY_LINKING


@functools.lru_cache(maxsize=WINDOW_DIGEST_MEMO_SIZE)
def _window_digests(token: str) -> bytes:
    """The 64-bit hashes of a token's keys `w{offset:+d}` U+001F token,
    offsets -3..+3 in order, as 7 · 8 little-endian bytes."""
    return _feature_digests(
        [f"w{offset:+d}{_KEY_SEP}{token}" for offset in range(-WINDOW_RADIUS, WINDOW_RADIUS + 1)]
    ).tobytes()


def window_features(tokens: Sequence[str], feature_dim: int) -> SparseRows:
    """Row i: hashed unigram features of the tokens at offsets -3..+3
    around position i, edge-padded, L2-normalized.

    A token's seven hashes come from `_window_digests`, a memo of at most
    WINDOW_DIGEST_MEMO_SIZE tokens, least recently used first out; the
    rows are built by `classifier._feature_rows`. Raises ValueError
    unless len(tokens) · feature_dim fits in 64 bits."""
    _check_dim(feature_dim)
    n = len(tokens)
    padded = [_EDGE_TOKEN] * WINDOW_RADIUS + list(tokens) + [_EDGE_TOKEN] * WINDOW_RADIUS
    width = 2 * WINDOW_RADIUS + 1
    digests = np.frombuffer(b"".join(map(_window_digests, padded)), dtype="<u8")
    # keys[i, j], position i's key at offset index j, is the j-th hash of
    # padded token i + j: digests[(i + j) · width + j].
    keys = digests[np.add.outer(width * np.arange(n), (width + 1) * np.arange(width))]
    return _feature_rows(keys.ravel(), np.full(n, width), feature_dim)


def train_baseline(
    sentences: Sequence[TaggedSentence],
    config: TrainingConfig,
    *,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    turkish: bool = False,
) -> MentionClassifier:
    """Fit the window tagger, a single-head model, on gold BIO data, one
    example (one row) per token."""
    features: list[SparseRows] = []
    labels: list[object] = []
    for sentence in sentences:
        normalized = [normalize_token(t, turkish=turkish) for t in sentence.tokens]
        features.append(window_features(normalized, feature_dim))
        labels += [
            OTHER_CLASS if tag == "O" else TYPE_INDEX[EntityType(tag[2:])] for tag in sentence.tags
        ]
    if not labels:
        raise ValueError("cannot train on zero tokens")
    model = MentionClassifier.zeros(feature_dim, single_head=True)
    model.turkish = turkish
    model.epoch_losses = _fit(model, SparseRows.stack(features), labels, config)
    return model


def _linked_mentions(
    normalized: Sequence[str], index: CorpusIndex, k: int, max_len: int
) -> list[Mention]:
    """The mentions linked in a normalized sentence, less those too long
    to represent within the budget."""
    return [m for m in link_sentence(normalized, index, k) if m.length + MARKER_COUNT <= max_len]


def mention_candidates(
    normalized: Sequence[str],
    index: CorpusIndex,
    *,
    k: int = DEFAULT_K,
    max_len: int = DEFAULT_MAX_LEN,
) -> Iterator[tuple[Mention, Representation]]:
    """Each linked mention of a normalized sentence with its classifier
    input, skipping mentions too long to represent within the budget.

    Training draws its candidates from here, and tagging the same
    mentions through `_linked_mentions`.
    """
    for mention in _linked_mentions(normalized, index, k, max_len):
        yield mention, build_representation(
            normalized,
            mention,
            index.leads[mention.doc_id],
            max_len,
            turkish=index.turkish,
        )


def _lead_digests(index: CorpusIndex, doc_id: int) -> tuple[int, np.ndarray]:
    """The token count of a document's lead and its `_wiki_digests`, from
    the index's `lead_memo`: at most LEAD_MEMO_SIZE documents, least
    recently used first out. Only a miss decodes and tokenizes the lead."""
    memo = index.lead_memo
    entry = memo.pop(doc_id, None)
    if entry is None:
        tokens = index.lead_tokens(doc_id)
        entry = (len(tokens), _wiki_digests(tokens))
    memo[doc_id] = entry  # the most recently used entry is last
    if len(memo) > LEAD_MEMO_SIZE:
        memo.popitem(last=False)
    return entry


def mention_features(
    normalized: Sequence[str],
    mentions: Sequence[Mention],
    index: CorpusIndex,
    max_len: int,
    feature_dim: int,
) -> SparseRows:
    """One row per mention of a normalized sentence, each with the bytes
    of `featurize` of the mention's `build_representation`.

    The sentence's context hashes are taken once for all its mentions,
    each lead's come from `_lead_digests`, and the budget cut of
    `fit_budget` picks each row's slices of them; `_feature_rows` builds
    all rows at once. `mentions` must not be empty.
    """
    _check_dim(feature_dim)
    unigrams, bigrams = _context_digests(normalized)
    parts: list[np.ndarray] = []
    lengths = []
    for mention in mentions:
        start, end = mention.start, mention.end
        lead_count, lead = _lead_digests(index, mention.doc_id)
        kept_l, kept_r, kept_wiki = fit_budget(
            start, end - start, len(normalized) - end, lead_count, max_len
        )
        row = _mention_digests(
            unigrams, bigrams, (start - kept_l, start, end, end + kept_r), lead, kept_wiki
        )
        parts += row
        lengths.append(sum(map(len, row)))
    return _feature_rows(np.concatenate(parts), lengths, feature_dim)


def predict(model: MentionClassifier, rows: SparseRows) -> list[EntityType | None]:
    """The class of each mention row, None for "not an entity": one
    `forward` for all rows, then the gate rule of `decide` per row.
    `classifier.predict` is the same for one representation."""
    p_bin, p_type = forward(model, rows)
    return [decide(None if p_bin is None else p_bin[i], p_type[i]) for i in range(len(rows))]


def build_training_examples(
    sentences: Sequence[TaggedSentence],
    index: CorpusIndex,
    *,
    k: int = DEFAULT_K,
    max_len: int = DEFAULT_MAX_LEN,
) -> list[TrainExample]:
    """Label linker candidates against gold spans.

    Every mention the linker finds becomes one example: an exact gold
    span match supplies the entity type; any other candidate is a
    non-entity example, which is what teaches the gate to veto.
    """
    examples: list[TrainExample] = []
    for sentence in sentences:
        normalized = [
            normalize_token(t, turkish=index.turkish) for t in sentence.tokens
        ]
        gold = {
            (start, end): etype for start, end, etype in span_extract(sentence.tags)
        }
        for mention, rep in mention_candidates(normalized, index, k=k, max_len=max_len):
            etype = gold.get((mention.start, mention.end))
            gate = GateDecision.O if etype is None else GateDecision.NE
            examples.append(TrainExample(rep, gate, etype))
    return examples


# The raw tag of each class of the window tagger, OTHER_CLASS last.
_RAW_TAGS = tuple(f"I-{etype.value}" for etype in ENTITY_TYPES) + ("O",)


def tag_baseline(
    tokens: Sequence[str], sentence_id: str, tagger: MentionClassifier
) -> TaggedSentence:
    """Tag every token independently, then repair the BIO chain.

    The raw per-token outputs are type-only (I-X or O); repair turns each
    run's first tag into B-X. A token's class is the argmax of the single
    head's logits, ties toward the lower index as in `decide`; all of a
    sentence's rows are scored by one `_rows_logits` call.
    """
    if not tagger.single_head:
        raise ValueError("the window tagger must be a single-head model")
    normalized = [normalize_token(t, turkish=tagger.turkish) for t in tokens]
    rows = window_features(normalized, tagger.feature_dim)
    best = np.argmax(_rows_logits(tagger.W_type, tagger.b_type, tagger.columns, rows), axis=1)
    raw = [_RAW_TAGS[c] for c in best.tolist()]
    return TaggedSentence(sentence_id, tuple(tokens), tuple(bio_repair(raw)))


def tag_el(
    tokens: Sequence[str],
    sentence_id: str,
    index: CorpusIndex,
    model: MentionClassifier,
    *,
    k: int = DEFAULT_K,
    max_len: int = DEFAULT_MAX_LEN,
) -> TaggedSentence:
    """Link the sentence, classify its surviving mentions together, emit
    BIO tags.

    All mention rows are scored by one `predict` (one `forward`); a
    sentence with no mention is never scored. Mentions the classifier
    rejects (the gate says non-entity) leave their tokens O, as do
    tokens no mention covers.
    """
    normalized = [normalize_token(t, turkish=index.turkish) for t in tokens]
    tags = ["O"] * len(tokens)
    mentions = _linked_mentions(normalized, index, k, max_len)
    if not mentions:
        return TaggedSentence(sentence_id, tuple(tokens), tuple(tags))
    rows = mention_features(normalized, mentions, index, max_len, model.feature_dim)
    for mention, etype in zip(mentions, predict(model, rows)):
        if etype is None:
            continue
        tags[mention.start] = f"B-{etype.value}"
        for i in range(mention.start + 1, mention.end):
            tags[i] = f"I-{etype.value}"
    return TaggedSentence(sentence_id, tuple(tokens), tuple(tags))


def tag(
    tokens: Sequence[str],
    sentence_id: str,
    router: RouterConfig,
    index: CorpusIndex,
    model: MentionClassifier,
    tagger: MentionClassifier | None,
    *,
    k: int = DEFAULT_K,
    max_len: int = DEFAULT_MAX_LEN,
) -> TaggedSentence:
    """Dispatch one sentence to whichever tagger the router picks."""
    if route(tokens, router) is Route.BASELINE:
        if tagger is None:
            raise ValueError("routed to baseline but no baseline tagger given")
        return tag_baseline(tokens, sentence_id, tagger)
    return tag_el(tokens, sentence_id, index, model, k=k, max_len=max_len)


def tag_sentences(
    sentences: Sequence[TaggedSentence],
    router: RouterConfig,
    index: CorpusIndex,
    model: MentionClassifier,
    tagger: MentionClassifier | None,
    *,
    k: int = DEFAULT_K,
    max_len: int = DEFAULT_MAX_LEN,
) -> list[TaggedSentence]:
    """Tag a batch, ignoring any tags already on the inputs."""
    return [
        tag(s.tokens, s.sentence_id, router, index, model, tagger, k=k, max_len=max_len)
        for s in sentences
    ]
