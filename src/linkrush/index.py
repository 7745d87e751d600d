"""Per-field inverted indexes with BM25 ranking over OR queries.

Four fields are indexed for every document: title, referred_by,
interwikies, and all_text. Ranking uses BM25 with k1=1.2, b=0.75 and the
floored idf ln(1 + (N - df + 0.5) / (df + 0.5)), which keeps every term's
contribution positive.

Each field is stored column-wise (compressed sparse rows, one row per
term) with every posting's BM25 contribution precomputed as its impact,
so a query is one weighted `np.bincount` over the rows of its terms
(Anh & Moffat, "Pruned query evaluation using pre-computed impacts",
2006).

A search returns every document's score; nothing is ranked. Linking
asks only whether a few documents are in a field's top-k (score
descending, doc_id ascending on ties), and `top_k_members` answers that
from the score vector: a document of score s > 0 is in exactly when
fewer than k documents score above s or score s at a lower doc_id.

A built or loaded index holds only what linking and tagging read: each
document's title and lead, the four fields, and the anchor table (every
referred_by phrase mapped to the documents that list it), which linking
looks up before it searches.

The saved form is format 2: after the container's magic and version byte
comes one canonical JSON header line, then raw little-endian arrays in
the order the header's `arrays` layout lists them as [name, dtype,
count]:

- per field `<name>.offsets` (<i8, one more than there are terms),
  `<name>.doc_ids` and `<name>.tfs` (<i4, one per posting) and
  `<name>.doc_lengths` (<i4, one per document);
- `lead_offsets` (<i8, one more than there are documents) and `leads`
  (u1), the leads as one UTF-8 section.

The header also holds `turkish`, each field's `terms` in row order, the
`titles`, each document's `referred_by` phrases, and `crc32`, the CRC-32
of the header's canonical JSON without that key followed by the array
bytes. Impacts, `avg_doc_length` and `doc_count` are not stored: load
derives them from the columns as build does, in place. The build-only
text (all_text, interwikies) is not stored either; the corpus file keeps
it. A loaded index's columns are read-only views of the one buffer its
file was read into, and so is its lead section: load checks that every
lead is UTF-8 without keeping a decoded copy, and a lead is decoded only
when it is read (`Leads`). What tagging derives from a lead is kept per
document in the index's own bounded `lead_memo`.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import IndexedDocument
from .errors import DataFormatError
from .storage import (
    MAGIC_CORPUS,
    MAGIC_INDEX,
    dump_json,
    load_json,
    read_arrays,
    read_container,
    write_container,
)
from .tokenizer import tokenize

K1 = 1.2
B = 0.75

FIELD_NAMES = ("title", "referred_by", "interwikies", "all_text")

# Each field's saved columns, with their dtypes in the file.
_COLUMNS = (("offsets", "<i8"), ("doc_ids", "<i4"), ("tfs", "<i4"), ("doc_lengths", "<i4"))
_LEAD_ARRAYS = (("lead_offsets", "<i8"), ("leads", "u1"))
_HEADER_KEYS = frozenset({"arrays", "crc32", "referred_by", "terms", "titles", "turkish"})


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
    doc_lengths: np.ndarray  # int32
    avg_doc_length: float
    doc_count: int

    @classmethod
    def from_columns(
        cls,
        field_name: str,
        terms: list[str],
        offsets: Sequence[int],
        doc_ids: Sequence[int],
        tfs: Sequence[int],
        doc_lengths: Sequence[int],
        doc_count: int | None = None,
    ) -> "FieldIndex":
        """A field from its CSR columns, with every posting's impact.

        Term terms[r]'s postings are offsets[r]:offsets[r + 1] of doc_ids
        and tfs; there is one doc_length per document, and doc_count, when
        given, is the number of documents the field must cover. Raises
        DataFormatError unless the terms are distinct strings, the offsets
        run from 0 to len(doc_ids) without decreasing, doc_ids and tfs are
        integer columns of one entry per posting, every doc_id names a
        document and increases strictly within its term, and every tf is
        at least 1 and at most its document's (non-negative) length.
        """

        def bad(message: str) -> DataFormatError:
            return DataFormatError(f"field {field_name!r}: {message}")

        if not isinstance(terms, list) or not all(type(term) is str for term in terms):
            raise bad("terms must be a list of strings")
        term_rows = dict(zip(terms, range(len(terms))))
        if len(term_rows) != len(terms):
            raise bad("terms are not distinct")
        doc_ids, tfs = _int_column(doc_ids, np.int32), _int_column(tfs, np.int32)
        if doc_ids is None or tfs is None or len(doc_ids) != len(tfs):
            raise bad("doc_ids and tfs must be int32 columns with one (doc_id, tf) pair per posting")
        offsets = _int_column(offsets, np.int64)
        if offsets is None or len(offsets) != len(terms) + 1:
            raise bad(f"offsets must be an int64 column of {len(terms) + 1} entries")
        if offsets[0] != 0 or offsets[-1] != len(doc_ids) or (np.diff(offsets) < 0).any():
            raise bad(f"offsets must run from 0 to {len(doc_ids)} without decreasing")
        lengths = _int_column(doc_lengths, np.int32)
        if lengths is None or not len(lengths) or (lengths < 0).any():
            raise bad("doc_lengths must be a non-empty int32 column of non-negative lengths")
        if doc_count is not None and len(lengths) != doc_count:
            raise bad(f"counts {len(lengths)} documents, the index holds {doc_count}")
        doc_count = len(lengths)
        if ((doc_ids < 0) | (doc_ids >= doc_count)).any():
            raise bad(f"a doc_id is outside [0, {doc_count})")
        # Within a term, each doc_id must exceed the one before it; a
        # term's first posting has no predecessor.
        increasing = np.diff(doc_ids) > 0
        starts = offsets[1:-1]
        increasing[starts[(starts > 0) & (starts < len(doc_ids))] - 1] = True
        if not increasing.all():
            raise bad("doc_ids do not strictly increase within a term")
        if (tfs < 1).any():
            raise bad("a term frequency is below 1")
        posting_lengths = lengths[doc_ids]
        if (tfs > posting_lengths).any():
            raise bad("a term frequency exceeds its document's length")

        # Same operations on the same operands, in the same order, as
        # scoring one posting at a time: idf through math.log, norm =
        # 1 - b + b*dl/avgdl, then idf * (tf*(k1+1) / (tf + k1*norm)). The
        # idf depends on df alone, so it is computed once per value. The
        # steps run in place (IEEE + and * commute, so the bytes are the
        # same): two postings-sized float arrays live at once, not five.
        avg_doc_length = int(lengths.sum()) / doc_count
        dfs = np.diff(offsets)
        df_values, df_index = np.unique(dfs, return_inverse=True)
        idf = np.array(
            [math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5)) for df in df_values.tolist()]
        )
        norm = B * posting_lengths
        del posting_lengths
        norm /= avg_doc_length
        norm += 1.0 - B
        norm *= K1
        tf_part = tfs.astype(np.float64)
        norm += tf_part
        tf_part *= K1 + 1.0
        tf_part /= norm
        del norm
        impacts = np.repeat(idf[df_index], dfs)
        impacts *= tf_part
        return cls(
            field_name=field_name,
            term_rows=term_rows,
            offsets=offsets,
            doc_ids=doc_ids,
            tfs=tfs,
            impacts=impacts,
            doc_lengths=lengths,
            avg_doc_length=avg_doc_length,
            doc_count=doc_count,
        )

def _int_column(values: Sequence[int], dtype: type) -> np.ndarray | None:
    """`values` as a 1-D array of `dtype`, or None unless they are
    integers that fit it."""
    try:
        column = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting
        return None
    if column.ndim != 1:
        return None
    if not column.size:
        return column.astype(dtype)
    if column.dtype.kind not in "iu":
        return None
    if not np.can_cast(column.dtype, dtype):
        limits = np.iinfo(dtype)
        if column.min() < limits.min or column.max() > limits.max:
            return None
    return column.astype(dtype, copy=False)


def build_field_index(field_name: str, token_docs: Sequence[Sequence[str]]) -> FieldIndex:
    """Index pre-tokenized documents; doc_ids are the sequence positions.

    Terms get rows in sorted order, as a saved index holds them. Each
    document's distinct terms are counted once under a row of first
    appearance, one permutation moves the rows to sorted order, then one
    stable sort by row groups the postings by term with doc_ids ascending.
    """
    if not token_docs:
        raise ValueError("cannot build an index over zero documents")
    term_rows: dict[str, int] = {}
    rows: list[int] = []
    tfs: list[int] = []
    distinct: list[int] = []
    for tokens in token_docs:
        counts = Counter(tokens)
        rows.extend([term_rows.setdefault(term, len(term_rows)) for term in counts])
        tfs.extend(counts.values())
        distinct.append(len(counts))
    terms = sorted(term_rows)
    sorted_rows = np.empty(len(terms), dtype=np.int64)
    sorted_rows[[term_rows[term] for term in terms]] = np.arange(len(terms))
    row_column = np.array(rows, dtype=np.int64)
    # In place ("wrap" is unbuffered; every row is in range): a second
    # postings-sized array left about 35 MB of heap unreturned after build.
    np.take(sorted_rows, row_column, out=row_column, mode="wrap")
    order = np.argsort(row_column, kind="stable")
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_column, minlength=len(terms)), out=offsets[1:])
    doc_ids = np.repeat(np.arange(len(token_docs), dtype=np.int32), distinct)
    return FieldIndex.from_columns(
        field_name,
        terms,
        offsets,
        doc_ids[order],
        np.array(tfs, dtype=np.int32)[order],
        np.array([len(tokens) for tokens in token_docs], dtype=np.int32),
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


def field_scores(field_index: FieldIndex, query_terms: Sequence[str]) -> np.ndarray:
    """Every document's score for an OR query of distinct terms, 0.0
    where no query term occurs.

    Each document's impacts are added in query-term order, as a
    posting-at-a-time loop would add them, so scores are bit-identical
    to such a loop. Every impact is positive: a score is nonzero exactly
    when the document holds a query term.
    """
    rows = [
        field_index.term_rows[term]
        for term in _distinct(query_terms)
        if term in field_index.term_rows
    ]
    if not rows:
        return np.zeros(field_index.doc_count)
    offsets = field_index.offsets
    spans = [slice(offsets[row], offsets[row + 1]) for row in rows]
    return np.bincount(
        np.concatenate([field_index.doc_ids[span] for span in spans]),
        weights=np.concatenate([field_index.impacts[span] for span in spans]),
        minlength=field_index.doc_count,
    )


def top_k_members(scores: np.ndarray, docs: np.ndarray, k: int) -> np.ndarray:
    """A bool per entry of `docs` (document positions, repeats allowed):
    is that document in the exact top-k of `scores`?

    The top-k ranks the documents of positive score by score, highest
    first, then by position, lowest first, and keeps the first k. So a
    document of score s > 0 is in it exactly when fewer than k documents
    score above s or score s at a lower position; a document of score 0
    never is. Nothing is ranked. When at most k documents score at least
    the lowest positive score among `docs`, every positive one is in.
    Otherwise the k-th highest score, selected from those documents,
    decides: above it a document is in, and of the documents tied at it
    the first k - (the number above it) by position are in.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    docs = np.asarray(docs, dtype=np.int64)
    hit = scores[docs]
    member = hit > 0.0
    if not member.any():
        return member
    contenders = scores >= hit[member].min()
    if np.count_nonzero(contenders) <= k:
        return member
    # More than k contenders: the top-k lies among them.
    top = np.flatnonzero(contenders)
    top_scores = scores[top]
    kth = np.partition(top_scores, -k)[-k]
    above = np.count_nonzero(top_scores > kth)
    last_tie = top[top_scores == kth][k - above - 1]
    return (hit > kth) | ((hit == kth) & (docs <= last_tie))


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
    def from_phrases(cls, referred_by: Iterable[Sequence[str]]) -> "AnchorTable":
        """The table of each document's referred_by phrases, in position order."""
        phrases: dict[tuple[str, ...], list[int]] = {}
        for position, doc_phrases in enumerate(referred_by):
            for phrase in doc_phrases:
                phrases.setdefault(tuple(phrase.split(" ")), []).append(position)
        return cls(
            phrases={key: tuple(docs) for key, docs in phrases.items()},
            lengths=tuple(sorted({len(key) for key in phrases})),
        )

    def phrase_lists(self, doc_count: int) -> list[list[str]]:
        """Each document's phrases, in table order, so that `from_phrases`
        rebuilds this table exactly, its order included."""
        lists: list[list[str]] = [[] for _ in range(doc_count)]
        for key, positions in self.phrases.items():
            phrase = " ".join(key)
            for position in positions:
                lists[position].append(phrase)
        return lists

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


@dataclass(frozen=True, eq=False)
class Leads(Sequence[str]):
    """Each document's lead, by position, kept as one UTF-8 section: lead
    i is bytes offsets[i]:offsets[i + 1] of it, decoded when read. Two
    Leads are equal when their offsets and sections are."""

    offsets: np.ndarray  # int64, one more than there are documents
    section: np.ndarray  # uint8

    @classmethod
    def from_strings(cls, leads: Iterable[str]) -> "Leads":
        encoded = [lead.encode("utf-8") for lead in leads]
        return cls(
            np.cumsum([0] + [len(lead) for lead in encoded], dtype=np.int64),
            np.frombuffer(b"".join(encoded), dtype=np.uint8),
        )

    @classmethod
    def from_section(
        cls, offsets: np.ndarray, section: np.ndarray, doc_count: int, path: str | Path
    ) -> "Leads":
        """The leads of a loaded index, every one checked, none decoded
        into a string that outlives the check.

        Raises DataFormatError unless the offsets run from 0 to the
        section's end without decreasing over `doc_count` leads and every
        lead is UTF-8. The section is decoded in chunks of about
        _LEAD_CHECK_CHUNK bytes cut at lead boundaries, and no lead may
        start on a continuation byte: then no chunk splits a character,
        and every lead of a valid chunk is valid. When either check fails,
        the leads are decoded one by one to name the first bad one.
        """
        if (
            len(offsets) != doc_count + 1
            or offsets[0] != 0
            or offsets[-1] != len(section)
            or (np.diff(offsets) < 0).any()
        ):
            raise DataFormatError(
                f"{path}: lead_offsets must run from 0 to {len(section)} over {doc_count} leads"
            )
        text = memoryview(section)  # no bytes copy of the section
        starts = offsets[:-1][offsets[:-1] < len(section)]
        marks = np.arange(0, len(section), _LEAD_CHECK_CHUNK)
        cuts = np.unique(offsets[np.searchsorted(offsets, marks)])  # the next lead boundary
        chunks = zip(cuts.tolist(), [*cuts[1:].tolist(), len(section)])
        if ((section[starts] & 0xC0) == 0x80).any() or not all(
            _is_utf8(text[start:end]) for start, end in chunks
        ):
            bounds = offsets.tolist()
            for position, (start, end) in enumerate(zip(bounds, bounds[1:])):
                try:
                    str(text[start:end], "utf-8")
                except UnicodeDecodeError as exc:
                    raise DataFormatError(
                        f"{path}: lead {position} is not valid UTF-8: {exc}"
                    ) from None
        return cls(offsets, section)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, position: int) -> str:  # type: ignore[override]
        position = range(len(self))[position]  # IndexError out of range
        start, end = self.offsets[position : position + 2].tolist()
        return str(memoryview(self.section)[start:end], "utf-8")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Leads):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.section, other.section
        )


# Bytes of the lead section that load decodes at once to check it.
_LEAD_CHECK_CHUNK = 2**20


def _is_utf8(data: memoryview) -> bool:
    try:
        str(data, "utf-8")
    except UnicodeDecodeError:
        return False
    return True


# Documents whose lead-derived features an index keeps in its `lead_memo`.
LEAD_MEMO_SIZE = 2048


@dataclass
class CorpusIndex:
    """Self-contained search bundle: per document its title and lead (by
    position), the four field indexes, and the anchor table.

    `lead_memo` holds what tagging derives from a lead, by doc_id, for at
    most LEAD_MEMO_SIZE documents (see `ensemble._lead_digests`). It lives
    on the index because a doc_id names a lead only within one index.
    """

    titles: list[str]
    leads: Leads
    fields: dict[str, FieldIndex]
    anchors: AnchorTable
    turkish: bool = False
    lead_memo: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    @classmethod
    def build(cls, documents: Sequence[IndexedDocument], *, turkish: bool = False) -> "CorpusIndex":
        return cls(
            titles=[doc.title for doc in documents],
            leads=Leads.from_strings(doc.lead for doc in documents),
            fields=build_index(documents, turkish=turkish),
            anchors=AnchorTable.from_phrases(doc.referred_by for doc in documents),
            turkish=turkish,
        )

    def search_field(self, field_name: str, query_terms: Sequence[str]) -> np.ndarray:
        """Every document's score in one field for an OR query."""
        return field_scores(self.fields[field_name], query_terms)

    def lead_tokens(self, doc_id: int) -> list[str]:
        """A document's lead, decoded and tokenized."""
        return tokenize(self.leads[doc_id], turkish=self.turkish)

    def save(self, path: str | Path) -> None:
        terms, columns = {}, []
        for name in FIELD_NAMES:
            index = self.fields[name]
            terms[name] = list(index.term_rows)
            values = (index.offsets, index.doc_ids, index.tfs, index.doc_lengths)
            columns += [(f"{name}.{c}", dtype, v) for (c, dtype), v in zip(_COLUMNS, values)]
        columns.append(("lead_offsets", "<i8", self.leads.offsets))
        columns.append(("leads", "u1", self.leads.section))
        header = {
            "turkish": self.turkish,
            "terms": terms,
            "titles": self.titles,
            "referred_by": self.anchors.phrase_lists(len(self.titles)),
            "arrays": [[name, dtype, len(values)] for name, dtype, values in columns],
        }
        arrays = b"".join(np.ascontiguousarray(v, dtype=dtype).tobytes() for _, dtype, v in columns)
        header["crc32"] = zlib.crc32(arrays, zlib.crc32(dump_json(header)))
        write_container(path, MAGIC_INDEX, dump_json(header) + b"\n" + arrays)

    @classmethod
    def load(cls, path: str | Path) -> "CorpusIndex":
        payload = read_container(path, MAGIC_INDEX)
        sep = payload.find(b"\n")
        if sep < 0:
            raise DataFormatError(f"{path}: index header missing")
        header = load_json(payload[:sep], path)
        _check_header(header, path)
        crc = header.pop("crc32")
        if zlib.crc32(memoryview(payload)[sep + 1 :], zlib.crc32(dump_json(header))) != crc:
            raise DataFormatError(f"{path}: checksum mismatch: the index file is corrupt")
        arrays = read_arrays(payload, sep + 1, header["arrays"], path)
        titles = header["titles"]
        fields = {}
        for name in FIELD_NAMES:
            columns = (arrays[f"{name}.{column}"] for column, _ in _COLUMNS)
            try:
                fields[name] = FieldIndex.from_columns(
                    name, header["terms"][name], *columns, doc_count=len(titles)
                )
            except DataFormatError as exc:
                raise DataFormatError(f"{path}: {exc}") from None
        return cls(
            titles=titles,
            leads=Leads.from_section(arrays["lead_offsets"], arrays["leads"], len(titles), path),
            fields=fields,
            anchors=AnchorTable.from_phrases(header["referred_by"]),
            turkish=header["turkish"],
        )


def _check_header(header: object, path: str | Path) -> None:
    """Every key of an index header present, of its type, with the array
    layout of format 2; the columns themselves are checked on use."""
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: malformed index header")
    missing, extra = sorted(_HEADER_KEYS - set(header)), sorted(set(header) - _HEADER_KEYS)
    if missing or extra:
        raise DataFormatError(f"{path}: index header keys missing {missing}, unexpected {extra}")
    if type(header["turkish"]) is not bool or type(header["crc32"]) is not int:
        raise DataFormatError(f"{path}: turkish must be true or false and crc32 an integer")
    titles, referred_by = header["titles"], header["referred_by"]
    if not isinstance(titles, list) or not all(type(title) is str for title in titles):
        raise DataFormatError(f"{path}: titles must be a list of strings")
    if not isinstance(referred_by, list) or len(referred_by) != len(titles):
        raise DataFormatError(f"{path}: referred_by must hold one list per document")
    for position, phrases in enumerate(referred_by):
        if not isinstance(phrases, list) or not all(type(p) is str for p in phrases):
            raise DataFormatError(
                f"{path}: document {position}: referred_by must be a list of strings"
            )
    terms = header["terms"]
    if not isinstance(terms, dict):
        raise DataFormatError(f"{path}: terms must map each field to its terms")
    missing, extra = sorted(set(FIELD_NAMES) - set(terms)), sorted(set(terms) - set(FIELD_NAMES))
    if missing or extra:
        raise DataFormatError(f"{path}: index fields missing {missing}, unexpected {extra}")
    expected = [
        *([f"{name}.{column}", dtype] for name in FIELD_NAMES for column, dtype in _COLUMNS),
        *([name, dtype] for name, dtype in _LEAD_ARRAYS),
    ]
    layout = header["arrays"]
    if not isinstance(layout, list) or not all(
        isinstance(entry, list) and len(entry) == 3 for entry in layout
    ):
        raise DataFormatError(f"{path}: arrays must list [name, dtype, count] triples")
    names = [entry[0] for entry in layout]
    for name, _ in expected:
        if name not in names:
            raise DataFormatError(f"{path}: index lacks the {name!r} array")
    if [entry[:2] for entry in layout] != expected:
        raise DataFormatError(f"{path}: array layout {layout!r} is not format 2's {expected!r}")


def save_corpus(documents: Sequence[IndexedDocument], path: str | Path, *, turkish: bool = False) -> None:
    payload = {"turkish": turkish, "documents": [_doc_to_json(d) for d in documents]}
    write_container(path, MAGIC_CORPUS, dump_json(payload))


def load_corpus(path: str | Path) -> tuple[list[IndexedDocument], bool]:
    payload = load_json(read_container(path, MAGIC_CORPUS), path)
    if not isinstance(payload, dict) or set(payload) != {"documents", "turkish"}:
        raise DataFormatError(f"{path}: corpus payload must hold exactly documents and turkish")
    if type(payload["turkish"]) is not bool:
        raise DataFormatError(f"{path}: turkish must be true or false")
    return _docs_from_json(payload["documents"], path), payload["turkish"]


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
    if type(raw["doc_id"]) is not int or raw["doc_id"] != position:
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
