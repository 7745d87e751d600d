"""Sentence-length routing between two taggers.

Long sentences carry enough context for a conventional per-token tagger;
short ones are handed to the entity-linking path, which brings external
page text to bear. The per-token baseline, the window tagger, is a
single-head `MentionClassifier` (six types plus non-entity) over hashed
features of a ±3 token window; it is stored like the mention classifier,
under its own header kind. `window_features` hashes every window of a
sentence in one pass, with the hash and normalization of `classifier`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .classifier import (
    DEFAULT_FEATURE_DIM,
    OTHER_CLASS,
    TYPE_INDEX,
    EntityType,
    GateDecision,
    MentionClassifier,
    SparseVector,
    TrainExample,
    TrainingConfig,
    _KEY_SEP,
    _check_dim,
    _feature_digests,
    _fit,
    _head_logits,
    _normalized,
    decide,
    load_window_tagger,
    predict,
    save_window_tagger,
)
from .index import CorpusIndex
from .mentions import Mention, link_sentence
from .representation import DEFAULT_MAX_LEN, MARKER_COUNT, Representation, build_representation
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


def window_features(tokens: Sequence[str], feature_dim: int) -> list[SparseVector]:
    """Per position, hashed unigram features of the tokens at offsets
    -3..+3, edge-padded, L2-normalized. All 7·n keys are hashed in one
    call; each masked hash carries its position in the bits above
    `feature_dim`, so one `np.unique` counts them in position order.
    Raises ValueError unless len(tokens) · feature_dim fits in 64 bits."""
    _check_dim(feature_dim)
    n = len(tokens)
    if n * feature_dim > 2**64:
        raise ValueError(f"{n} positions of feature_dim {feature_dim} do not fit in 64 bits")
    padded = [_EDGE_TOKEN] * WINDOW_RADIUS + list(tokens) + [_EDGE_TOKEN] * WINDOW_RADIUS
    keys: list[str] = []
    for j, offset in enumerate(range(-WINDOW_RADIUS, WINDOW_RADIUS + 1)):
        prefix = f"w{offset:+d}{_KEY_SEP}"
        keys += [prefix + token for token in padded[j : j + n]]
    mask, shift = np.uint64(feature_dim - 1), np.uint64(feature_dim.bit_length() - 1)
    positions = np.tile(np.arange(n, dtype=np.uint64), 2 * WINDOW_RADIUS + 1)
    keyed, counts = np.unique(
        (positions << shift) | (_feature_digests(keys) & mask), return_counts=True
    )
    bounds = np.searchsorted(keyed >> shift, np.arange(n + 1, dtype=np.uint64)).tolist()
    indices, values = (keyed & mask).astype(np.int64), counts.astype(np.float64)
    return [
        SparseVector(indices[lo:hi], _normalized(values[lo:hi]))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def train_baseline(
    sentences: Sequence[TaggedSentence],
    config: TrainingConfig,
    *,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    turkish: bool = False,
) -> MentionClassifier:
    """Fit the window tagger, a single-head model, on gold BIO data, one
    example per token."""
    features: list[SparseVector] = []
    labels: list[object] = []
    for sentence in sentences:
        normalized = [normalize_token(t, turkish=turkish) for t in sentence.tokens]
        features += window_features(normalized, feature_dim)
        labels += [
            OTHER_CLASS if tag == "O" else TYPE_INDEX[EntityType(tag[2:])] for tag in sentence.tags
        ]
    if not features:
        raise ValueError("cannot train on zero tokens")
    model = MentionClassifier.zeros(feature_dim, single_head=True)
    model.turkish = turkish
    model.epoch_losses = _fit(model, features, labels, config)
    return model


def mention_candidates(
    normalized: Sequence[str],
    index: CorpusIndex,
    *,
    k: int = DEFAULT_K,
    max_len: int = DEFAULT_MAX_LEN,
) -> Iterator[tuple[Mention, Representation]]:
    """Each linked mention of a normalized sentence with its classifier
    input, skipping mentions too long to represent within the budget.

    Training and tagging both draw their candidates from here.
    """
    for mention in link_sentence(normalized, index, k):
        if mention.length + MARKER_COUNT > max_len:
            continue  # cannot be represented within the budget
        yield mention, build_representation(
            normalized,
            mention,
            index.leads[mention.doc_id],
            max_len,
            turkish=index.turkish,
        )


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


def tag_baseline(
    tokens: Sequence[str], sentence_id: str, tagger: MentionClassifier
) -> TaggedSentence:
    """Tag every token independently, then repair the BIO chain.

    The raw per-token outputs are type-only (I-X or O); repair turns each
    run's first tag into B-X. The class is `decide` over the single
    head's logits: their argmax, ties toward the lower index.
    """
    if not tagger.single_head:
        raise ValueError("the window tagger must be a single-head model")
    normalized = [normalize_token(t, turkish=tagger.turkish) for t in tokens]
    raw: list[str] = []
    for x in window_features(normalized, tagger.feature_dim):
        etype = decide(None, _head_logits(tagger.W_type, tagger.b_type, x))
        raw.append("O" if etype is None else f"I-{etype.value}")
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
    """Link the sentence, classify each surviving mention, emit BIO tags.

    Mentions the classifier rejects (the gate says non-entity) leave
    their tokens O, as do tokens no mention covers.
    """
    normalized = [normalize_token(t, turkish=index.turkish) for t in tokens]
    tags = ["O"] * len(tokens)
    for mention, rep in mention_candidates(normalized, index, k=k, max_len=max_len):
        etype = predict(model, rep)
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
