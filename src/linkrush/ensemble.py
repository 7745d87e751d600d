"""Sentence-length routing between two taggers.

Long sentences carry enough context for a conventional per-token tagger;
short ones are handed to the entity-linking path, which brings external
page text to bear. The per-token baseline is a 7-way linear classifier
over hashed features of a ±3 token window.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .classifier import (
    DEFAULT_FEATURE_DIM,
    ENTITY_TYPES,
    OTHER_CLASS,
    TYPE_INDEX,
    EntityType,
    GateDecision,
    MentionClassifier,
    SparseVector,
    TrainExample,
    TrainingConfig,
    _fit,
    _pack_arrays,
    _read_model_container,
    _unpack_arrays,
    hash_feature,
    predict,
    sparse_from_counts,
)
from .index import CorpusIndex
from .mentions import Mention, link_sentence
from .representation import DEFAULT_MAX_LEN, Representation, build_representation
from .retrieval import DEFAULT_K
from .storage import MAGIC_MODEL, dump_json, write_container
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


@dataclass
class WindowTagger:
    """Per-token 7-way linear tagger (six types plus non-entity)."""

    feature_dim: int
    turkish: bool
    W: np.ndarray  # (7, feature_dim)
    b: np.ndarray  # (7,)


def window_features(
    tokens: Sequence[str], position: int, feature_dim: int
) -> SparseVector:
    """Hashed unigram features of tokens at offsets -3..+3, edge-padded."""
    counts: dict[int, float] = {}
    n = len(tokens)
    for offset in range(-WINDOW_RADIUS, WINDOW_RADIUS + 1):
        i = position + offset
        token = tokens[i] if 0 <= i < n else _EDGE_TOKEN
        idx = hash_feature((f"w{offset:+d}", token), feature_dim)
        counts[idx] = counts.get(idx, 0.0) + 1.0
    return sparse_from_counts(counts)


def train_baseline(
    sentences: Sequence[TaggedSentence],
    config: TrainingConfig,
    *,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    turkish: bool = False,
) -> WindowTagger:
    """Fit the window tagger on gold BIO data, one example per token."""
    features: list[SparseVector] = []
    labels: list[object] = []
    for sentence in sentences:
        normalized = [normalize_token(t, turkish=turkish) for t in sentence.tokens]
        for pos, tag in enumerate(sentence.tags):
            features.append(window_features(normalized, pos, feature_dim))
            labels.append(
                OTHER_CLASS if tag == "O" else TYPE_INDEX[EntityType(tag[2:])]
            )
    if not features:
        raise ValueError("cannot train on zero tokens")
    model = MentionClassifier.zeros(feature_dim, single_head=True)
    _fit(model, features, labels, config)
    return WindowTagger(
        feature_dim=feature_dim, turkish=turkish, W=model.W_type, b=model.b_type
    )


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
        if mention.length + 5 > max_len:
            continue  # cannot be represented within the budget
        yield mention, build_representation(
            normalized,
            mention,
            index.documents[mention.doc_id].lead,
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
    tokens: Sequence[str], sentence_id: str, tagger: WindowTagger
) -> TaggedSentence:
    """Tag every token independently, then repair the BIO chain.

    The raw per-token outputs are type-only (I-X or O); repair turns each
    run's first tag into B-X.
    """
    normalized = [normalize_token(t, turkish=tagger.turkish) for t in tokens]
    raw: list[str] = []
    for pos in range(len(tokens)):
        x = window_features(normalized, pos, tagger.feature_dim)
        logits = tagger.W[:, x.indices] @ x.values + tagger.b
        cls = int(np.argmax(logits))
        raw.append("O" if cls == OTHER_CLASS else f"I-{ENTITY_TYPES[cls].value}")
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
    tagger: WindowTagger | None,
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
    tagger: WindowTagger | None,
    *,
    k: int = DEFAULT_K,
    max_len: int = DEFAULT_MAX_LEN,
) -> list[TaggedSentence]:
    """Tag a batch, ignoring any tags already on the inputs."""
    return [
        tag(s.tokens, s.sentence_id, router, index, model, tagger, k=k, max_len=max_len)
        for s in sentences
    ]


_KIND_WINDOW = "window_tagger"


def save_window_tagger(tagger: WindowTagger, path: str | Path) -> None:
    arrays = [("W", tagger.W), ("b", tagger.b)]
    header = {
        "kind": _KIND_WINDOW,
        "feature_dim": tagger.feature_dim,
        "turkish": tagger.turkish,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    write_container(path, MAGIC_MODEL, dump_json(header) + b"\n" + _pack_arrays(arrays))


def load_window_tagger(path: str | Path) -> WindowTagger:
    header, data = _read_model_container(path, _KIND_WINDOW)
    values = _unpack_arrays(header["arrays"], data, path)
    return WindowTagger(
        feature_dim=int(header["feature_dim"]),
        turkish=bool(header["turkish"]),
        W=values["W"],
        b=values["b"],
    )
