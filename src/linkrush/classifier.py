"""Gated mention-type classification with a trainable linear model.

Two softmax heads share one hashed feature vector: a binary head deciding
whether the candidate mention is a real entity, and a 6-way head for its
type. Training minimizes the sum of the two cross-entropies (the type
head receives no gradient on non-entity examples), and at prediction time
the binary head can veto the type head entirely. A single-head variant
folds the non-entity outcome into a 7th class instead; the per-token
window tagger of `ensemble` is such a single-head model.

Features are hashed (Weinberger et al., 2009) by `_feature_digests`.
Every feature set is one `SparseRows` (CSR) from `_feature_rows`, which
masks each row's hashes, counts them all with one sort keyed by row and
L2-normalizes the rows together. `featurize` builds one
mention's row, `ensemble.mention_features` the rows of all of a
sentence's mentions and `ensemble.window_features` a sentence's window
rows. A token's context hashes come from a bounded memo, and a lead's
from a memo kept per document on its index. A sentence's mentions, a
training mini-batch and a long sentence are each scored by one
`_rows_logits` call, which gathers the weights of all rows' features at
once.

A model's weights are read through `columns`, a map from each of the
`feature_dim` features to the column of `W_bin`/`W_type` that holds its
weights. A model fresh from `zeros` or training is dense and its map is
the identity. A saved model keeps only its touched columns (those where
some head holds a weight whose bits are not all zero), so a loaded model
is compact: those columns plus one trailing zero column that every
untouched feature maps to. `_rows_logits` gathers through the map, so
both kinds give the dense gather's values, in the same shapes, and the
same logit bytes.

Both kinds of model share one file layout (model format 2): a JSON
header line, then the ids of the touched columns as little-endian int32,
strictly increasing, then only those columns of each weight matrix and
the biases as little-endian float64. The header's `kind` keeps a mention
classifier from loading as a window tagger and the reverse; its `crc32`
is the CRC-32 of the header's canonical JSON without that key followed
by the array bytes. The reader validates every header field before it
touches the arrays, then the checksum, then the column ids.
"""

from __future__ import annotations

import functools
import hashlib
import math
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError
from .representation import CLS_TOKEN, MARKER_COUNT, SEP_TOKEN, Representation, Segment
from .storage import (
    MAGIC_MODEL,
    dump_json,
    load_json,
    read_arrays,
    read_container,
    write_container,
)


class EntityType(Enum):
    PER = "PER"
    LOC = "LOC"
    GRP = "GRP"
    CORP = "CORP"
    PROD = "PROD"
    CW = "CW"


ENTITY_TYPES: tuple[EntityType, ...] = tuple(EntityType)
TYPE_INDEX = {etype: i for i, etype in enumerate(ENTITY_TYPES)}


class GateDecision(Enum):
    NE = "NE"
    O = "O"


# Binary head column order; argmax ties resolve toward NE (index 0).
GATE_NE = 0
GATE_O = 1

# 7th class of single-head models and the window tagger: "not an entity".
OTHER_CLASS = len(ENTITY_TYPES)

DEFAULT_FEATURE_DIM = 2**18

_TINY = 1e-300


@dataclass(frozen=True)
class SparseRows:
    """Non-negative sparse feature rows in CSR form: row r holds `indices`
    and `values` [indptr[r]:indptr[r + 1]], its indices strictly
    increasing, and indptr[0] is 0."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @classmethod
    def stack(cls, parts: Sequence["SparseRows"]) -> "SparseRows":
        """The rows of every part, in order; `parts` must not be empty."""
        return cls(
            np.concatenate([[0], *(np.diff(part.indptr) for part in parts)]).cumsum(),
            np.concatenate([part.indices for part in parts]),
            np.concatenate([part.values for part in parts]),
        )

    def take(self, rows: np.ndarray) -> "SparseRows":
        """The given rows, in the given order."""
        starts, lengths = self.indptr[rows], np.diff(self.indptr)[rows]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        picked = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return SparseRows(indptr, self.indices[picked], self.values[picked])


# A feature's key is its parts joined by U+001F; its 64-bit hash is the
# 8-byte blake2b digest of the key's UTF-8, read little-endian.
_KEY_SEP = "\x1f"
_blake2b_64 = functools.partial(hashlib.blake2b, digest_size=8)


def _feature_digests(keys: Sequence[str]) -> np.ndarray:
    """The 64-bit hash of each feature key."""
    digests = [_blake2b_64(key.encode("utf-8")).digest() for key in keys]
    return np.frombuffer(b"".join(digests), dtype="<u8")


# Distinct tokens whose seven window-feature hashes `ensemble.window_features`
# keeps. Sentence words follow a Zipfian law, so a few thousand frequent
# tokens (and the edge padding) make most of every sentence. An entry holds
# the token and its 56 bytes of digests; full, the memo holds about 3.3 MB.
WINDOW_DIGEST_MEMO_SIZE = 2**14

# Distinct tokens and token pairs whose context-feature hashes featurize and
# `ensemble.mention_features` keep. Pairs repeat less than tokens: over
# 20,000 short benchmark sentences read once, 81% of token lookups and 34%
# of pair lookups hit. An entry holds its one or two tokens and 24 bytes
# of digests.
CONTEXT_DIGEST_MEMO_SIZE = 2**14

_CONTEXT_SEGMENTS = (Segment.CTX_L, Segment.MENTION, Segment.CTX_R)


def _run_keys(segment: str, run: Sequence[str]) -> list[str]:
    """The keys of a run's (segment, token) and (segment, left, right)
    features."""
    prefix = segment + _KEY_SEP
    return [prefix + token for token in run] + [
        prefix + left + _KEY_SEP + right for left, right in zip(run, run[1:])
    ]


@functools.lru_cache(maxsize=CONTEXT_DIGEST_MEMO_SIZE)
def _context_key_digests(*tokens: str) -> bytes:
    """The 64-bit hashes of the key segment U+001F tokens (one token, or a
    bigram's two joined by U+001F) for CTX_L, MENTION and CTX_R in order,
    as 3 · 8 little-endian bytes."""
    tail = _KEY_SEP + _KEY_SEP.join(tokens)
    return _feature_digests([segment.value + tail for segment in _CONTEXT_SEGMENTS]).tobytes()


def _context_digests(tokens: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The context-feature hashes of a token sequence, from a memo of at
    most CONTEXT_DIGEST_MEMO_SIZE tokens and pairs, least recently used
    first out: row i of the unigrams is token i's, row i of the bigrams
    the pair i, i + 1's, each row one hash per segment, CTX_L, MENTION
    and CTX_R in order."""
    unigrams = np.frombuffer(b"".join(map(_context_key_digests, tokens)), dtype="<u8")
    bigrams = np.frombuffer(b"".join(map(_context_key_digests, tokens, tokens[1:])), dtype="<u8")
    return unigrams.reshape(-1, 3), bigrams.reshape(-1, 3)


def _wiki_digests(tokens: Sequence[str]) -> np.ndarray:
    """The 64-bit hashes of a lead's WIKI features, read-only: one per
    token, then one per adjacent pair. So the features of the lead's
    first m of n tokens are [:m] and [n:n + m - 1] of them."""
    digests = _feature_digests(_run_keys(Segment.WIKI.value, tokens))
    digests.flags.writeable = False
    return digests


# The markers' hashes: [CLS] and four [SEP], then k [SEP] [SEP] bigrams for
# k = 0, 1, 2. The second and third [SEP] make one run when the right
# context is empty, and the third and fourth when the kept lead is.
_MARKER_DIGESTS = tuple(
    _feature_digests(
        [Segment.CLS.value + _KEY_SEP + CLS_TOKEN]
        + [Segment.SEP.value + _KEY_SEP + SEP_TOKEN] * (MARKER_COUNT - 1)
        + [_KEY_SEP.join((Segment.SEP.value, SEP_TOKEN, SEP_TOKEN))] * pairs
    )
    for pairs in range(3)
)


def _mention_digests(
    unigrams: np.ndarray,
    bigrams: np.ndarray,
    span: tuple[int, int, int, int],
    lead: np.ndarray,
    kept_wiki: int,
) -> list[np.ndarray]:
    """The feature hashes of one mention's representation, in parts.

    `unigrams` and `bigrams` are a sentence's `_context_digests`, and span
    (lo, start, end, hi) places the kept left context at lo:start, the
    mention at start:end and the kept right context at end:hi of it.
    `lead` is the `_wiki_digests` of a lead of which the first `kept_wiki`
    tokens are kept.
    """
    lo, start, end, hi = span
    lead_count = (len(lead) + 1) // 2  # n unigrams, then n - 1 bigrams
    # Only the left context's bigram slice can run from 0 to -1.
    return [
        _MARKER_DIGESTS[(hi == end) + (kept_wiki == 0)],
        unigrams[lo:start, 0],
        bigrams[lo : max(lo, start - 1), 0],
        unigrams[start:end, 1],
        bigrams[start : end - 1, 1],
        unigrams[end:hi, 2],
        bigrams[end : hi - 1, 2],
        lead[:kept_wiki],
        lead[lead_count : lead_count + kept_wiki - 1],
    ]


def _feature_rows(digests: np.ndarray, lengths: Sequence[int], feature_dim: int) -> SparseRows:
    """One L2-normalized row of hashed counts per run of `digests`: row r
    counts the next lengths[r] hashes (at least one), each masked to
    `feature_dim` bits. The mention rows and the window tagger's rows are
    both built here.

    Each masked hash carries its row in the bits above `feature_dim`, so
    one sort counts every row, in row order (`np.unique`'s counting,
    without its overhead). The counts are small integers, so each row's
    sum of squares is exact in any order and its norm is the one the row
    would get alone. Raises ValueError unless len(lengths) · feature_dim
    fits in 64 bits."""
    n = len(lengths)
    if n * feature_dim > 2**64:
        raise ValueError(f"{n} rows of feature_dim {feature_dim} do not fit in 64 bits")
    mask, shift = np.uint64(feature_dim - 1), np.uint64(feature_dim.bit_length() - 1)
    keys = digests & mask
    keys |= np.repeat(np.arange(n, dtype=np.uint64) << shift, lengths)
    keys.sort()
    edges = np.empty(len(keys) + 1, dtype=bool)  # where a run of equal keys starts or ends
    edges[0] = edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    keyed = keys[bounds[:-1]]
    indptr = np.searchsorted(keyed >> shift, np.arange(n + 1, dtype=np.uint64))
    values = (bounds[1:] - bounds[:-1]).astype(np.float64)
    norms = np.sqrt(np.add.reduceat(values * values, indptr[:-1]))
    values /= np.repeat(norms, indptr[1:] - indptr[:-1])
    return SparseRows(indptr, (keyed & mask).astype(np.int64), values)


def featurize(rep: Representation, feature_dim: int = DEFAULT_FEATURE_DIM) -> SparseRows:
    """One row: hashed counts of (segment, token) and (segment,
    token-bigram) pairs within each run of one segment, L2-normalized.

    The context and mention hashes come from the `_context_digests` memo
    and the lead's are hashed afresh; the row is `_feature_rows`' one-row
    case. `ensemble.mention_features` builds the same rows for all of a
    sentence's mentions at once.
    """
    _check_dim(feature_dim)
    sentence = rep.ctx_l + rep.mention + rep.ctx_r
    start = len(rep.ctx_l)
    end = start + len(rep.mention)
    unigrams, bigrams = _context_digests(sentence)
    span = (0, start, end, len(sentence))
    wiki = _wiki_digests(rep.wiki)
    digests = np.concatenate(_mention_digests(unigrams, bigrams, span, wiki, len(rep.wiki)))
    return _feature_rows(digests, [len(digests)], feature_dim)


def _check_dim(feature_dim: int) -> None:
    if feature_dim <= 0 or feature_dim & (feature_dim - 1):
        raise ValueError(f"feature_dim must be a power of two, got {feature_dim}")


@dataclass
class TrainingConfig:
    learning_rate: float = 1.0
    epochs: int = 150
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class MentionClassifier:
    """Linear model behind the two heads (or the 7-way single head).

    `turkish` is the case folding a window tagger applies to the tokens
    it tags; the mention classifier reads already-folded representations.
    `columns` (int32, one entry per feature) gives the column of `W_bin`
    and `W_type` that holds each feature's weights; left out, the model
    is dense and the map is the identity.
    """

    feature_dim: int
    single_head: bool
    W_bin: np.ndarray | None
    b_bin: np.ndarray | None
    W_type: np.ndarray
    b_type: np.ndarray
    epoch_losses: list[float] | None = None
    turkish: bool = False
    columns: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.columns is None:
            self.columns = np.arange(self.feature_dim, dtype=np.int32)

    @classmethod
    def zeros(cls, feature_dim: int, *, single_head: bool = False) -> "MentionClassifier":
        _check_dim(feature_dim)
        n_types = len(ENTITY_TYPES) + (1 if single_head else 0)
        return cls(
            feature_dim=feature_dim,
            single_head=single_head,
            W_bin=None if single_head else np.zeros((2, feature_dim)),
            b_bin=None if single_head else np.zeros(2),
            W_type=np.zeros((n_types, feature_dim)),
            b_type=np.zeros(n_types),
        )


@dataclass(frozen=True)
class TrainExample:
    """A mention representation with its gold gate and type labels."""

    rep: Representation
    gate: GateDecision
    entity_type: EntityType | None

    def __post_init__(self) -> None:
        if self.gate is GateDecision.NE and self.entity_type is None:
            raise ValueError("NE example requires an entity type")
        if self.gate is GateDecision.O and self.entity_type is not None:
            raise ValueError("type label given for a non-entity example")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    exp = np.exp(logits - logits.max(-1, keepdims=True))
    exp /= exp.sum(-1, keepdims=True)
    return exp


def _rows_logits(
    W: np.ndarray, b: np.ndarray, columns: np.ndarray, rows: SparseRows
) -> np.ndarray:
    """One logit row per feature row, each with the bytes of the row's own
    `W[:, columns[idx]] @ v + b`: W's weights of all rows' features are
    gathered through `columns` at once, then each row is one BLAS
    matrix-vector product over its slice of them."""
    gathered = W[:, columns[rows.indices]]
    if len(rows) == 1:
        return (gathered @ rows.values + b)[np.newaxis]
    logits = np.empty((len(rows), len(b)))
    bounds = rows.indptr.tolist()
    for row, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.dot(gathered[:, lo:hi], rows.values[lo:hi], out=logits[row])
    logits += b
    return logits


def forward(model: MentionClassifier, rows: SparseRows) -> tuple[np.ndarray | None, np.ndarray]:
    """Head probabilities, one row per feature row: (p_bin, p_type), p_bin
    None for single-head models, whose p_type covers the six entity types
    plus the non-entity class. A feature index of `feature_dim` or more
    raises ValueError."""
    try:
        p_type = softmax(_rows_logits(model.W_type, model.b_type, model.columns, rows))
        if model.single_head:
            return None, p_type
        return softmax(_rows_logits(model.W_bin, model.b_bin, model.columns, rows)), p_type
    except IndexError:
        raise ValueError("feature index exceeds model dimension") from None


def cross_entropy(probs: np.ndarray, target: int) -> float:
    return -math.log(max(float(probs[target]), _TINY))


def loss(
    p_bin: np.ndarray,
    p_type: np.ndarray,
    gold_gate: GateDecision,
    gold_type: EntityType | None,
) -> float:
    """Summed two-head loss for one example.

    Entity examples pay both cross-entropies; non-entity examples pay only
    the binary head's (the type head is unsupervised there).
    """
    if gold_gate is GateDecision.O:
        if gold_type is not None:
            raise ValueError("gold_type must be absent when the gate label is O")
        return cross_entropy(p_bin, GATE_O)
    if gold_type is None:
        raise ValueError("gold_type required when the gate label is NE")
    return cross_entropy(p_bin, GATE_NE) + cross_entropy(p_type, TYPE_INDEX[gold_type])


def loss_single_head(p_type: np.ndarray, gold_class: int) -> float:
    """Cross-entropy of the 7-way head (six types plus the other class)."""
    return cross_entropy(p_type, gold_class)


def train(
    examples: Sequence[TrainExample],
    config: TrainingConfig,
    *,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    single_head: bool = False,
) -> MentionClassifier:
    """Mini-batch gradient descent on the summed loss, seeded and
    deterministic: the same examples, config, and seed produce bitwise
    identical weights.
    """
    if not examples:
        raise ValueError("cannot train on an empty example list")
    features = SparseRows.stack([featurize(e.rep, feature_dim) for e in examples])
    if single_head:
        labels: list[object] = [
            OTHER_CLASS if e.entity_type is None else TYPE_INDEX[e.entity_type]
            for e in examples
        ]
    else:
        labels = [(e.gate, e.entity_type) for e in examples]
    model = MentionClassifier.zeros(feature_dim, single_head=single_head)
    model.epoch_losses = _fit(model, features, labels, config)
    return model


def _fit(
    model: MentionClassifier,
    features: SparseRows,
    labels: Sequence[object],
    config: TrainingConfig,
) -> list[float]:
    """The descent loop of both model kinds; it updates the weights of a
    dense model (one column per feature) in place. A mini-batch is scored
    by one `forward` of the pre-update weights; then one `np.subtract.at`
    per array, which applies repeated indices in the order given, updates
    each weight by the batch's examples in batch order, `w - scale * (dz * v)`
    each. The type row of a non-entity's dz is 0.0, and `w - 0.0` is `w`."""
    if model.single_head:
        heads = [(model.W_type, model.b_type, np.array(labels, dtype=np.intp), None)]
    else:
        entity = np.array([gate is GateDecision.NE for gate, _ in labels])
        types = np.array([TYPE_INDEX.get(etype, 0) for _, etype in labels])
        heads = [
            (model.W_type, model.b_type, types, entity),
            (model.W_bin, model.b_bin, np.where(entity, GATE_NE, GATE_O), None),
        ]
    dense = np.array_equal(model.columns, np.arange(model.feature_dim))
    if not (dense and all(W.flags.c_contiguous for W, *_ in heads)):
        raise ValueError("only a dense, C-contiguous model can be trained; a loaded one is compact")
    rng = np.random.default_rng(config.seed)
    n = len(features)
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            rows = features.take(batch)
            p_bin, p_type = forward(model, rows)
            if model.single_head:
                losses = [loss_single_head(p, labels[i]) for p, i in zip(p_type, batch)]
            else:
                losses = [loss(pb, pt, *labels[i]) for pb, pt, i in zip(p_bin, p_type, batch)]
            epoch_total += sum(losses)
            scale = config.learning_rate / len(batch)
            owner = np.repeat(np.arange(len(batch)), np.diff(rows.indptr))
            for (W, b, gold, learns), dz in zip(heads, (p_type, p_bin)):
                dz[np.arange(len(batch)), gold[batch]] -= 1.0
                if learns is not None:
                    dz[~learns[batch]] = 0.0
                classes = np.arange(len(b))
                np.subtract.at(b, np.tile(classes, len(batch)), (scale * dz).ravel())
                np.subtract.at(
                    W.reshape(-1),
                    (classes[:, None] * model.feature_dim + rows.indices).ravel(),
                    (scale * (dz[owner].T * rows.values)).ravel(),
                )
        epoch_losses.append(epoch_total / n)
    return epoch_losses


def decide(p_bin: np.ndarray | None, p_type: np.ndarray) -> EntityType | None:
    """The gate rule: a binary-head O verdict overrides the type head.

    Returns None for "not an entity". Binary ties resolve toward NE; type
    ties toward the lower type index.
    """
    if p_bin is not None:
        if int(np.argmax(p_bin)) == GATE_O:
            return None
        return ENTITY_TYPES[int(np.argmax(p_type))]
    best = int(np.argmax(p_type))
    return None if best == OTHER_CLASS else ENTITY_TYPES[best]


def predict(model: MentionClassifier, rep: Representation) -> EntityType | None:
    """Classify one mention representation; None means "not an entity"."""
    p_bin, p_type = forward(model, featurize(rep, model.feature_dim))
    return decide(None if p_bin is None else p_bin[0], p_type[0])


_KIND_MENTION = "mention_classifier"
_KIND_WINDOW = "window_tagger"
_HEADER_KEYS = frozenset(
    {"arrays", "crc32", "epoch_losses", "feature_dim", "kind", "single_head", "turkish"}
)


def save_model(model: MentionClassifier, path: str | Path) -> None:
    _write_model(model, path, _KIND_MENTION)


def load_model(path: str | Path) -> MentionClassifier:
    return _read_model(path, _KIND_MENTION)


def save_window_tagger(tagger: MentionClassifier, path: str | Path) -> None:
    _write_model(tagger, path, _KIND_WINDOW)


def load_window_tagger(path: str | Path) -> MentionClassifier:
    return _read_model(path, _KIND_WINDOW)


def _array_layout(single_head: bool, touched: int) -> list[list]:
    """[name, dtype, shape] of each stored array, in file order, for a
    model of `touched` stored columns."""
    n_types = len(ENTITY_TYPES) + (1 if single_head else 0)
    layout = [["touched", "<i4", [touched]]]
    if not single_head:
        layout += [["W_bin", "<f8", [2, touched]], ["b_bin", "<f8", [2]]]
    return layout + [["W_type", "<f8", [n_types, touched]], ["b_type", "<f8", [n_types]]]


def _write_model(model: MentionClassifier, path: str | Path, kind: str) -> None:
    if kind == _KIND_WINDOW and not model.single_head:
        raise ValueError("a window tagger must be a single-head model")
    heads = [model.W_type] if model.single_head else [model.W_bin, model.W_type]
    # A column is touched when some head holds a nonzero bit pattern in
    # it, so a -0.0 is kept; an untouched column is all +0.0.
    nonzero = np.zeros(model.W_type.shape[1], dtype=bool)
    for W in heads:
        nonzero |= (np.asarray(W, dtype="<f8").view("<u8") != 0).any(axis=0)
    touched = np.flatnonzero(nonzero[model.columns])
    stored = model.columns[touched]
    layout = _array_layout(model.single_head, len(touched))
    values = {"touched": touched}
    for name, _, shape in layout[1:]:
        array = getattr(model, name)
        values[name] = array[:, stored] if len(shape) == 2 else array
    arrays = b"".join(
        np.ascontiguousarray(values[name], dtype=dtype).tobytes() for name, dtype, _ in layout
    )
    header = {
        "kind": kind,
        "feature_dim": model.feature_dim,
        "single_head": model.single_head,
        "turkish": model.turkish,
        "epoch_losses": model.epoch_losses,
        "arrays": layout,
    }
    header["crc32"] = zlib.crc32(arrays, zlib.crc32(dump_json(header)))
    write_container(path, MAGIC_MODEL, dump_json(header) + b"\n" + arrays)


def _read_model(path: str | Path, kind: str) -> MentionClassifier:
    """A compact model: the stored columns plus one trailing zero column,
    and a map sending every untouched feature to that zero column."""
    payload = read_container(path, MAGIC_MODEL)
    sep = payload.find(b"\n")
    if sep < 0:
        raise DataFormatError(f"{path}: model header missing")
    header = load_json(payload[:sep], path)
    layout = _validate_header(header, kind, path)
    arrays = read_arrays(
        payload, sep + 1, [(name, dtype, math.prod(shape)) for name, dtype, shape in layout], path
    )
    crc = header.pop("crc32")
    if zlib.crc32(memoryview(payload)[sep + 1 :], zlib.crc32(dump_json(header))) != crc:
        raise DataFormatError(f"{path}: checksum mismatch: the model file is corrupt")
    dim, touched = header["feature_dim"], arrays["touched"]
    if len(touched) and (touched[0] < 0 or touched[-1] >= dim or (np.diff(touched) <= 0).any()):
        raise DataFormatError(
            f"{path}: touched column ids must increase strictly within [0, {dim})"
        )
    columns = np.full(dim, len(touched), dtype=np.int32)
    columns[touched] = np.arange(len(touched), dtype=np.int32)
    weights = {}
    for name, _, shape in layout[1:]:
        if len(shape) == 2:
            weights[name] = np.zeros((shape[0], shape[1] + 1))
            weights[name][:, :-1] = arrays[name].reshape(shape)
        else:
            weights[name] = arrays[name].copy()
    return MentionClassifier(
        feature_dim=dim,
        single_head=header["single_head"],
        W_bin=weights.get("W_bin"),
        b_bin=weights.get("b_bin"),
        W_type=weights["W_type"],
        b_type=weights["b_type"],
        epoch_losses=header["epoch_losses"],
        turkish=header["turkish"],
        columns=columns,
    )


def _validate_header(header: object, kind: str, path: str | Path) -> list[list]:
    """Check the kind and every other header field; returns the array
    layout the header implies."""
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: malformed model header")
    if header.get("kind") != kind:
        raise DataFormatError(f"{path}: expected a {kind} model, found {header.get('kind')!r}")
    if set(header) != _HEADER_KEYS:
        missing = sorted(_HEADER_KEYS - set(header))
        extra = sorted(set(header) - _HEADER_KEYS)
        raise DataFormatError(f"{path}: model header keys missing {missing}, unexpected {extra}")
    dim = header["feature_dim"]
    if type(dim) is not int or dim <= 0 or dim & (dim - 1):
        raise DataFormatError(f"{path}: feature_dim must be a power of two, got {dim!r}")
    for key in ("single_head", "turkish"):
        if type(header[key]) is not bool:
            raise DataFormatError(f"{path}: {key} must be true or false, got {header[key]!r}")
    if type(header["crc32"]) is not int:
        raise DataFormatError(f"{path}: crc32 must be an integer, got {header['crc32']!r}")
    losses = header["epoch_losses"]
    if losses is not None and not (
        isinstance(losses, list) and all(type(v) in (int, float) for v in losses)
    ):
        raise DataFormatError(f"{path}: epoch_losses must be a list of numbers or null")
    if kind == _KIND_WINDOW and not header["single_head"]:
        raise DataFormatError(f"{path}: a window tagger must be a single-head model")
    arrays = header["arrays"]
    try:
        touched = arrays[0][2][0]  # the count of the leading `touched` ids
    except (IndexError, KeyError, TypeError):
        touched = None
    if type(touched) is not int or not 0 <= touched <= dim:
        raise DataFormatError(
            f"{path}: arrays must start with the ids of at most {dim} touched columns"
        )
    layout = _array_layout(header["single_head"], touched)
    if arrays != layout:
        raise DataFormatError(
            f"{path}: arrays {arrays!r} do not match the "
            f"{'single' if header['single_head'] else 'two'}-head layout {layout!r}"
        )
    return layout
