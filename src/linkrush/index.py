"""Per-field inverted indexes with BM25 ranking over OR queries.

Four fields are indexed for every document: title, referred_by,
interwikies, and all_text. Ranking uses BM25 with k1=1.2, b=0.75 and the
floored idf ln(1 + (N - df + 0.5) / (df + 0.5)), which keeps every term's
contribution positive.

Each field is stored column-wise (compressed sparse rows, one row per
term) with every posting's BM25 contribution precomputed as its impact,
so a query is one weighted `np.bincount` over the rows of its terms
(Anh & Moffat, "Pruned query evaluation using pre-computed impacts",
2006). The saved form is unchanged: JSON postings lists of
`[doc_id, tf]` pairs.

A loaded or built index also holds its anchor table: every referred_by
phrase mapped to the documents that list it, which linking looks up
before it searches.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import IndexedDocument
from .errors import DataFormatError
from .storage import MAGIC_CORPUS, MAGIC_INDEX, dump_json, load_json, read_container, write_container
from .tokenizer import tokenize

K1 = 1.2
B = 0.75

FIELD_NAMES = ("title", "referred_by", "interwikies", "all_text")

_FIELD_KEYS = ("postings", "doc_lengths", "avg_doc_length", "doc_count")


@dataclass
class FieldIndex:
    """Inverted index over one field of the corpus, in CSR columns.

    The postings of term t are the slice offsets[r]:offsets[r + 1] of
    doc_ids (strictly increasing), tfs and impacts, where r =
    term_rows[t]. A posting's impact is idf(t) * tf_part(tf, doc), its
    whole contribution to a document's score. doc_lengths has one entry
    per document (0 for an empty field).
    """

    field_name: str
    term_rows: dict[str, int]
    offsets: np.ndarray  # int64, one more than there are terms
    doc_ids: np.ndarray  # int32
    tfs: np.ndarray  # int32
    impacts: np.ndarray  # float64
    doc_lengths: np.ndarray  # int64
    avg_doc_length: float
    doc_count: int

    @classmethod
    def from_postings(
        cls,
        field_name: str,
        postings: Mapping[str, Sequence[Sequence[int]]],
        doc_lengths: Sequence[int],
        avg_doc_length: float,
        doc_count: int,
    ) -> "FieldIndex":
        """Columns and impacts from term -> [(doc_id, tf), ...] lists.

        Raises DataFormatError unless every posting is an integer pair
        with a doc_id in [0, doc_count), strictly increasing within its
        term, and a tf of at least 1, and there is one length per document.
        """

        def bad(message: str) -> DataFormatError:
            return DataFormatError(f"field {field_name!r}: {message}")

        if not _is_int(doc_count) or doc_count < 0:
            raise bad(f"doc_count must be a non-negative integer, got {doc_count!r}")
        if not _is_number(avg_doc_length):
            raise bad(f"avg_doc_length must be a number, got {avg_doc_length!r}")
        if not isinstance(postings, Mapping):
            raise bad("postings must map terms to lists")
        lengths = _int_array(doc_lengths) if isinstance(doc_lengths, list) else None
        if lengths is None or (lengths < 0).any():
            raise bad("doc_lengths must be a list of non-negative integers")
        if len(lengths) != doc_count:
            raise bad(f"{len(lengths)} doc_lengths for doc_count {doc_count}")

        plists = list(postings.values())
        if not all(isinstance(plist, (list, tuple)) for plist in plists):
            raise bad("every term's postings must be a list")
        offsets = np.zeros(len(plists) + 1, dtype=np.int64)
        np.cumsum([len(plist) for plist in plists], out=offsets[1:])
        pairs = _int_pairs(list(chain.from_iterable(plists)))
        if pairs is None:
            raise bad("every posting must be a [doc_id, tf] pair of integers")
        doc_ids, tfs = pairs[:, 0], pairs[:, 1]
        if ((doc_ids < 0) | (doc_ids >= doc_count)).any():
            raise bad(f"a doc_id is outside [0, {doc_count})")
        if (tfs < 1).any():
            raise bad("a term frequency is below 1")
        if len(doc_ids) and avg_doc_length <= 0:
            raise bad("avg_doc_length must be positive in a field with postings")
        # Within a term, each doc_id must exceed the one before it; a
        # term's first posting has no predecessor.
        increasing = np.diff(doc_ids) > 0
        starts = offsets[1:-1]
        increasing[starts[(starts > 0) & (starts < len(doc_ids))] - 1] = True
        if not increasing.all():
            raise bad("doc_ids do not strictly increase within a term")

        avg_doc_length = float(avg_doc_length)
        # Same operations, in the same order, as scoring one posting at a
        # time: idf through math.log, then idf * tf*(k1+1) / (tf + k1*norm).
        dfs = np.diff(offsets)
        idf = np.array([math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5)) for df in dfs.tolist()])
        tf = tfs.astype(np.float64)
        norm = 1.0 - B + B * lengths[doc_ids] / avg_doc_length
        impacts = np.repeat(idf, dfs) * (tf * (K1 + 1.0) / (tf + K1 * norm))
        return cls(
            field_name=field_name,
            term_rows={term: row for row, term in enumerate(postings)},
            offsets=offsets,
            doc_ids=doc_ids.astype(np.int32),
            tfs=tfs.astype(np.int32),
            impacts=impacts,
            doc_lengths=lengths,
            avg_doc_length=avg_doc_length,
            doc_count=doc_count,
        )

    def to_json(self) -> dict:
        """The saved form: term -> [[doc_id, tf], ...] plus the lengths."""
        pairs = [[d, tf] for d, tf in zip(self.doc_ids.tolist(), self.tfs.tolist())]
        bounds = self.offsets.tolist()
        return {
            "postings": {
                term: pairs[bounds[row] : bounds[row + 1]] for term, row in self.term_rows.items()
            },
            "doc_lengths": self.doc_lengths.tolist(),
            "avg_doc_length": self.avg_doc_length,
            "doc_count": self.doc_count,
        }


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _int_pairs(pairs: list) -> np.ndarray | None:
    """An (n, 2) int64 array of `pairs`, or None unless every one is a
    pair of integers."""
    try:
        if set(map(len, pairs)) - {2}:
            return None
    except TypeError:  # a posting without a length
        return None
    flat = _int_array(chain.from_iterable(pairs))
    return None if flat is None else flat.reshape(-1, 2)


def _int_array(values: Iterable) -> np.ndarray | None:
    """An int64 array of `values`, or None unless every one is an integer."""
    try:
        return np.frombuffer(array("q", values), dtype=np.int64)
    except (TypeError, OverflowError):
        return None


def build_field_index(field_name: str, token_docs: Sequence[Sequence[str]]) -> FieldIndex:
    """Index pre-tokenized documents; doc_ids are the sequence positions."""
    if not token_docs:
        raise ValueError("cannot build an index over zero documents")
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    for doc_id, tokens in enumerate(token_docs):
        doc_lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((doc_id, tf))
    # Appending in doc_id order already yields sorted postings lists.
    return FieldIndex.from_postings(
        field_name,
        postings,
        doc_lengths,
        avg_doc_length=sum(doc_lengths) / len(doc_lengths),
        doc_count=len(doc_lengths),
    )


def field_tokens(doc: IndexedDocument, field_name: str, *, turkish: bool = False) -> list[str]:
    """Token stream a document contributes to one field's index."""
    if field_name == "title":
        return tokenize(doc.title, turkish=turkish)
    if field_name == "referred_by":
        tokens: list[str] = []
        for phrase in doc.referred_by:
            tokens.extend(phrase.split(" "))
        return tokens
    if field_name == "interwikies":
        tokens = []
        for target in doc.interwikies:
            tokens.extend(tokenize(target, turkish=turkish))
        return tokens
    if field_name == "all_text":
        return tokenize(doc.all_text, turkish=turkish)
    raise ValueError(f"unknown field {field_name!r}")


def build_index(
    docs: Sequence[IndexedDocument], *, turkish: bool = False
) -> dict[str, FieldIndex]:
    """Build all four field indexes for a corpus."""
    if not docs:
        raise ValueError("cannot build an index over zero documents")
    return {
        name: build_field_index(name, [field_tokens(d, name, turkish=turkish) for d in docs])
        for name in FIELD_NAMES
    }


@dataclass(frozen=True)
class FieldTopK:
    """One field's answer to an OR query, kept as columns.

    scores holds every document's score (0.0 where no query term occurs);
    top holds the k best document positions, score descending and
    position ascending on ties.
    """

    scores: np.ndarray  # float64, one per document
    top: np.ndarray  # int64

    def ranked(self) -> list[tuple[int, float]]:
        """The top-k as (doc_id, score) pairs of Python scalars."""
        return list(zip(self.top.tolist(), self.scores[self.top].tolist()))

    def mask(self) -> np.ndarray:
        """A bool per document: is it in the top-k?"""
        in_top = np.zeros(len(self.scores), dtype=bool)
        in_top[self.top] = True
        return in_top


def field_top_k(field_index: FieldIndex, query_terms: Sequence[str], k: int) -> FieldTopK:
    """Every document's score for an OR query of distinct terms, and
    the exact top-k.

    Each document's impacts are added in query-term order, as a
    posting-at-a-time loop would add them, so scores are bit-identical
    to such a loop. Every impact is positive: a score is nonzero exactly
    when the document holds a query term.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = [
        field_index.term_rows[term]
        for term in _distinct(query_terms)
        if term in field_index.term_rows
    ]
    if not rows:
        return FieldTopK(np.zeros(field_index.doc_count), np.zeros(0, dtype=np.int64))
    offsets = field_index.offsets
    spans = [slice(offsets[row], offsets[row + 1]) for row in rows]
    scores = np.bincount(
        np.concatenate([field_index.doc_ids[span] for span in spans]),
        weights=np.concatenate([field_index.impacts[span] for span in spans]),
        minlength=field_index.doc_count,
    )
    hits = np.flatnonzero(scores)
    hit_scores = scores[hits]
    if len(hits) > k:
        # Keep every document tied with the k-th score; the sort decides.
        kth = np.partition(hit_scores, len(hits) - k)[len(hits) - k]
        keep = hit_scores >= kth
        hits, hit_scores = hits[keep], hit_scores[keep]
    return FieldTopK(scores, hits[np.lexsort((hits, -hit_scores))[:k]])


def _distinct(terms: Iterable[str]) -> list[str]:
    return list(dict.fromkeys(terms))


Hit = tuple[int, int, tuple[str, ...], tuple[int, ...]]


@dataclass(frozen=True)
class AnchorTable:
    """Every anchor phrase of the corpus, as a token tuple, mapped to the
    positions of the documents that list it: one entry per listing, in
    position order, so a document that lists a phrase twice appears twice.
    """

    phrases: dict[tuple[str, ...], tuple[int, ...]]
    lengths: tuple[int, ...]  # the phrase lengths present, ascending

    @classmethod
    def from_documents(cls, documents: Sequence[IndexedDocument]) -> "AnchorTable":
        phrases: dict[tuple[str, ...], list[int]] = {}
        for position, doc in enumerate(documents):
            for phrase in doc.referred_by:
                phrases.setdefault(tuple(phrase.split(" ")), []).append(position)
        return cls(
            phrases={key: tuple(docs) for key, docs in phrases.items()},
            lengths=tuple(sorted({len(key) for key in phrases})),
        )

    def lookup(self, tokens: Sequence[str]) -> list[Hit]:
        """(start, end, phrase, positions) for every span of `tokens` that
        is an anchor phrase, by start, then length."""
        hits: list[Hit] = []
        n = len(tokens)
        for start in range(n):
            for length in self.lengths:
                end = start + length
                if end > n:
                    break
                key = tuple(tokens[start:end])
                docs = self.phrases.get(key)
                if docs:
                    hits.append((start, end, key, docs))
        return hits


@dataclass
class CorpusIndex:
    """Self-contained search bundle: documents, their four field indexes,
    and the anchor table built from their referred_by phrases."""

    documents: list[IndexedDocument]
    fields: dict[str, FieldIndex]
    turkish: bool = False
    anchors: AnchorTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.anchors = AnchorTable.from_documents(self.documents)

    @classmethod
    def build(cls, documents: Sequence[IndexedDocument], *, turkish: bool = False) -> "CorpusIndex":
        return cls(
            documents=list(documents),
            fields=build_index(documents, turkish=turkish),
            turkish=turkish,
        )

    def search_field(self, field_name: str, query_terms: Sequence[str], k: int) -> FieldTopK:
        return field_top_k(self.fields[field_name], query_terms, k)

    def save(self, path: str | Path) -> None:
        payload = {
            "turkish": self.turkish,
            "documents": [_doc_to_json(d) for d in self.documents],
            "fields": {name: fi.to_json() for name, fi in self.fields.items()},
        }
        write_container(path, MAGIC_INDEX, dump_json(payload))

    @classmethod
    def load(cls, path: str | Path) -> "CorpusIndex":
        payload = load_json(read_container(path, MAGIC_INDEX), path)
        if not isinstance(payload, dict) or not isinstance(payload.get("fields"), dict):
            raise DataFormatError(f"{path}: index payload missing fields section")
        raw_fields = payload["fields"]
        unknown = sorted(set(raw_fields) - set(FIELD_NAMES))
        if unknown:
            raise DataFormatError(f"{path}: unknown index field {unknown[0]!r}")
        documents = _docs_from_json(payload.get("documents"), path)
        fields = {}
        for name in FIELD_NAMES:
            raw = raw_fields.get(name)
            if not isinstance(raw, dict):
                raise DataFormatError(f"{path}: index lacks the {name!r} field")
            for key in _FIELD_KEYS:
                if key not in raw:
                    raise DataFormatError(f"{path}: field {name!r} lacks {key!r}")
            try:
                fields[name] = FieldIndex.from_postings(name, *(raw[key] for key in _FIELD_KEYS))
            except DataFormatError as exc:
                raise DataFormatError(f"{path}: {exc}") from None
            if fields[name].doc_count != len(documents):
                raise DataFormatError(
                    f"{path}: field {name!r} counts {fields[name].doc_count} documents, "
                    f"the index holds {len(documents)}"
                )
        return cls(
            documents=documents,
            fields=fields,
            turkish=bool(payload.get("turkish", False)),
        )


def save_corpus(documents: Sequence[IndexedDocument], path: str | Path, *, turkish: bool = False) -> None:
    payload = {"turkish": turkish, "documents": [_doc_to_json(d) for d in documents]}
    write_container(path, MAGIC_CORPUS, dump_json(payload))


def load_corpus(path: str | Path) -> tuple[list[IndexedDocument], bool]:
    payload = load_json(read_container(path, MAGIC_CORPUS), path)
    if not isinstance(payload, dict) or "documents" not in payload:
        raise DataFormatError(f"{path}: corpus payload missing documents section")
    docs = _docs_from_json(payload["documents"], path)
    return docs, bool(payload.get("turkish", False))


def _doc_to_json(doc: IndexedDocument) -> dict:
    return {
        "doc_id": doc.doc_id,
        "title": doc.title,
        "referred_by": list(doc.referred_by),
        "interwikies": list(doc.interwikies),
        "all_text": doc.all_text,
        "lead": doc.lead,
    }


def _docs_from_json(raw: object, path: str | Path) -> list[IndexedDocument]:
    if not isinstance(raw, list):
        raise DataFormatError(f"{path}: payload lacks a documents list")
    try:
        return [_doc_from_json(d, position) for position, d in enumerate(raw)]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed document record: {exc!r}") from None


def _doc_from_json(raw: dict, position: int) -> IndexedDocument:
    """One document record; documents are addressed by list position, so
    its doc_id must equal that position."""
    if not _is_int(raw["doc_id"]) or raw["doc_id"] != position:
        raise ValueError(f"document {position} has doc_id {raw['doc_id']!r}")
    for key in ("title", "all_text", "lead"):
        if not isinstance(raw[key], str):
            raise TypeError(f"document {position}: {key} must be a string")
    for key in ("referred_by", "interwikies"):
        if not isinstance(raw[key], list) or not all(isinstance(v, str) for v in raw[key]):
            raise TypeError(f"document {position}: {key} must be a list of strings")
    return IndexedDocument(
        doc_id=position,
        title=raw["title"],
        referred_by=tuple(raw["referred_by"]),
        interwikies=tuple(raw["interwikies"]),
        all_text=raw["all_text"],
        lead=raw["lead"],
    )
