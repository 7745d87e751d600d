"""Gated mention-type classification with a trainable linear model.

Two softmax heads share one hashed feature vector: a binary head deciding
whether the candidate mention is a real entity, and a 6-way head for its
type. Training minimizes the sum of the two cross-entropies (the type
head receives no gradient on non-entity examples), and at prediction time
the binary head can veto the type head entirely. A single-head variant
folds the non-entity outcome into a 7th class instead; the per-token
window tagger of `ensemble` is such a single-head model.

Features are hashed (Weinberger et al., 2009) by `_feature_digests`, for
`featurize` and the window tagger's `ensemble.window_features` alike.
`featurize` returns one `SparseVector`, L2-normalized by `_normalized`;
`window_features` returns a whole sentence's rows as one `SparseRows`
(CSR), normalized row by row to the same bytes, and `_rows_logits`
scores all of its rows with one weight gather.

A model's weights are read through `columns`, a map from each of the
`feature_dim` features to the column of `W_bin`/`W_type` that holds its
weights. A model fresh from `zeros` or training is dense and its map is
the identity. A saved model keeps only its touched columns (those where
some head holds a weight whose bits are not all zero), so a loaded model
is compact: those columns plus one trailing zero column that every
untouched feature maps to. `_head_logits` and `_rows_logits` gather
through the map, so both kinds give the dense gather's values, in the
same shapes, and the same logit bytes.

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
from typing import Iterator, Sequence

import numpy as np

from .errors import DataFormatError
from .representation import Representation, Segment
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
class SparseVector:
    """Non-negative sparse features: strictly increasing indices."""

    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SparseRows:
    """Sparse feature rows in CSR form: row r holds `indices` and `values`
    [indptr[r]:indptr[r + 1]], its indices strictly increasing. A row is
    read as a `SparseVector` view of that slice."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, row: int) -> SparseVector:
        row = range(len(self))[row]
        lo, hi = int(self.indptr[row]), int(self.indptr[row + 1])
        return SparseVector(self.indices[lo:hi], self.values[lo:hi])

    def __iter__(self) -> Iterator[SparseVector]:
        bounds = self.indptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield SparseVector(self.indices[lo:hi], self.values[lo:hi])


# A feature's key is its parts joined by U+001F; its 64-bit hash is the
# 8-byte blake2b digest of the key's UTF-8, read little-endian.
_KEY_SEP = "\x1f"
_blake2b_64 = functools.partial(hashlib.blake2b, digest_size=8)


def _feature_digests(keys: Sequence[str]) -> np.ndarray:
    """The 64-bit hash of each feature key."""
    digests = [_blake2b_64(key.encode("utf-8")).digest() for key in keys]
    return np.frombuffer(b"".join(digests), dtype="<u8")


def _normalized(values: np.ndarray) -> np.ndarray:
    """values over their L2 norm (a zero vector stays zero)."""
    norm = math.sqrt(float(values @ values))
    return values / norm if norm > 0.0 else values


# Distinct tokens whose seven window-feature hashes `ensemble.window_features`
# keeps. Sentence words follow a Zipfian law, so a few thousand frequent
# tokens (and the edge padding) make most of every sentence. An entry holds
# the token and its 56 bytes of digests; full, the memo holds about 3.3 MB.
WINDOW_DIGEST_MEMO_SIZE = 2**14

# Distinct WIKI runs whose feature hashes featurize keeps. A lead is the same
# for every mention linked to its document, so its run recurs; the other
# segments' runs are a few tokens of one sentence and are hashed afresh.
# An entry holds the run's tokens and 8 bytes per feature (two per token).
WIKI_DIGEST_MEMO_SIZE = 2048


def _run_keys(segment: str, run: Sequence[str]) -> list[str]:
    """The keys of a run's (segment, token) and (segment, left, right)
    features."""
    prefix = segment + _KEY_SEP
    return [prefix + token for token in run] + [
        prefix + left + _KEY_SEP + right for left, right in zip(run, run[1:])
    ]


@functools.lru_cache(maxsize=WIKI_DIGEST_MEMO_SIZE)
def _wiki_digests(run: tuple[str, ...]) -> np.ndarray:
    """The 64-bit hashes of a WIKI run's features, read-only, as every
    caller shares them."""
    digests = _feature_digests(_run_keys(Segment.WIKI.value, run))
    digests.flags.writeable = False
    return digests


def featurize(rep: Representation, feature_dim: int = DEFAULT_FEATURE_DIM) -> SparseVector:
    """Hashed counts of (segment, token) and (segment, token-bigram) pairs
    within each run of one segment, L2-normalized.

    Each feature's 64-bit hash is masked to `feature_dim` bits, the
    masked values are counted with `np.unique` and normalized. The
    hashes of a WIKI run (a lead, or its prefix when the budget cut it)
    come from a memo keyed by the run's tokens and bounded at
    WIKI_DIGEST_MEMO_SIZE runs, least recently used first out.
    """
    _check_dim(feature_dim)
    keys: list[str] = []  # of the runs outside WIKI
    digests: list[np.ndarray] = []
    tokens, segments = rep.tokens, rep.segments
    pos, n = 0, len(tokens)
    while pos < n:
        segment = segments[pos]
        run_end = pos
        while run_end < n and segments[run_end] is segment:
            run_end += 1
        if segment is Segment.WIKI:
            digests.append(_wiki_digests(tokens[pos:run_end]))
        else:
            keys += _run_keys(segment.value, tokens[pos:run_end])
        pos = run_end
    digests.append(_feature_digests(keys))
    indices, counts = np.unique(
        np.concatenate(digests) & np.uint64(feature_dim - 1), return_counts=True
    )
    return SparseVector(indices.astype(np.int64), _normalized(counts.astype(np.float64)))


def _check_dim(feature_dim: int) -> None:
    if feature_dim <= 0 or feature_dim & (feature_dim - 1):
        raise ValueError(f"feature_dim must be a power of two, got {feature_dim}")


@dataclass
class TrainingConfig:
    learning_rate: float = 1.0
    epochs: int = 150
    batch_size: int = 32
    seed: int = 0


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
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


def _head_logits(
    W: np.ndarray, b: np.ndarray, columns: np.ndarray, x: SparseVector
) -> np.ndarray:
    """W's weights of x's features, gathered through `columns`, times
    x's values, plus b."""
    if x.nnz == 0:
        return b.copy()
    return W[:, columns[x.indices]] @ x.values + b


def _rows_logits(
    W: np.ndarray, b: np.ndarray, columns: np.ndarray, rows: SparseRows
) -> np.ndarray:
    """One logit row per feature row, each with the bytes `_head_logits`
    gives that row: the weights of every row's features are gathered
    at once, then each row is the same BLAS matrix-vector product over
    its slice of them, written in place. Every row must have a feature."""
    logits = np.empty((len(rows), len(b)))
    gathered = W[:, columns[rows.indices]]
    bounds = rows.indptr.tolist()
    for row, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.dot(gathered[:, lo:hi], rows.values[lo:hi], out=logits[row])
    logits += b
    return logits


def forward(model: MentionClassifier, features: SparseVector) -> tuple[np.ndarray | None, np.ndarray]:
    """Head probabilities for one feature vector.

    Returns (p_bin, p_type); p_bin is None for single-head models, whose
    p_type covers the six entity types plus the non-entity class.
    """
    if features.nnz and int(features.indices[-1]) >= model.feature_dim:
        raise ValueError("feature index exceeds model dimension")
    p_type = softmax(_head_logits(model.W_type, model.b_type, model.columns, features))
    if model.single_head:
        return None, p_type
    p_bin = softmax(_head_logits(model.W_bin, model.b_bin, model.columns, features))
    return p_bin, p_type


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


def _example_gradients(
    model: MentionClassifier, x: SparseVector, label: object
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Per-example loss and d(loss)/d(logits) for each head."""
    p_bin, p_type = forward(model, x)
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
    features = [featurize(e.rep, feature_dim) for e in examples]
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
    features: Sequence[SparseVector],
    labels: Sequence[object],
    config: TrainingConfig,
) -> list[float]:
    """Shared descent loop; also used by the per-token window tagger. It
    updates the weights of a dense model (one column per feature) in place."""
    if not np.array_equal(model.columns, np.arange(model.feature_dim)):
        raise ValueError("only a dense model can be trained; a loaded model is compact")
    rng = np.random.default_rng(config.seed)
    n = len(features)
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            scale = config.learning_rate / len(batch)
            # Gradients come from the pre-update weights for the whole batch.
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
    return decide(p_bin, p_type)


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
