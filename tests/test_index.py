"""BM25 scoring against analytic values, an exhaustive oracle and the
dict-of-postings scorer in `oracles`; index loading and validation."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import zlib

import numpy as np
import pytest
from oracles import (
    _tf_part,
    assert_v2_loads_as_v1,
    bm25_score,
    index_arrays,
    index_header,
    load_index_v1,
    oracle_field_index,
    oracle_search_tokens,
    ranked_top_k,
    save_index_v1,
    search,
    search_tokens,
    top_k_mask,
    write_index_arrays,
    write_index_raw,
)

from linkrush.corpus import IndexedDocument
from linkrush.errors import DataFormatError
from linkrush.index import (
    B,
    FIELD_NAMES,
    K1,
    CorpusIndex,
    FieldIndex,
    Leads,
    build_field_index,
    build_index,
    field_tokens,
    load_corpus,
    save_corpus,
    top_k_members,
)
from linkrush import index as index_module
from linkrush.storage import MAGIC_INDEX, dump_json, load_json, read_container, write_container


def oracle_scores(token_docs, query_terms):
    """Independent exhaustive BM25: recomputed from raw token lists."""
    n = len(token_docs)
    lengths = [len(d) for d in token_docs]
    avg = sum(lengths) / n
    seen = []
    for term in query_terms:
        if term not in seen:
            seen.append(term)
    scores = {}
    for doc_id, doc in enumerate(token_docs):
        total = 0.0
        for term in seen:
            tf = doc.count(term)
            if tf == 0:
                continue
            df = sum(1 for d in token_docs if term in d)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            norm = 1.0 - B + B * lengths[doc_id] / avg
            total += idf * tf * (K1 + 1.0) / (tf + K1 * norm)
        if total > 0.0:
            scores[doc_id] = total
    return scores


class TestAnalyticValues:
    def test_single_doc_single_term(self):
        # One document, one matching term: idf = ln(1 + 0.5/1.5) = ln(4/3)
        # and the tf part is exactly 1, so the score is ln(4/3).
        index = oracle_field_index([["hello", "world"]])
        score = bm25_score(["hello"], 0, index)
        assert score == pytest.approx(math.log(4.0 / 3.0), abs=1e-15)
        assert score == pytest.approx(0.2876820724517809, abs=1e-15)
        assert search_tokens(build_field_index("text", [["hello", "world"]]), ["hello"], 1) == [
            (0, score)
        ]

    def test_idf_positive_even_when_term_everywhere(self):
        index = oracle_field_index([["a"], ["a"], ["a"]])
        assert index.idf("a") == pytest.approx(math.log(1.0 + 0.5 / 3.5), abs=1e-15)
        assert index.idf("a") > 0.0

    def test_absent_terms_contribute_nothing(self):
        index = oracle_field_index([["a", "b"]])
        assert bm25_score(["zzz"], 0, index) == 0.0
        assert bm25_score(["a", "zzz"], 0, index) == bm25_score(["a"], 0, index)

    def test_repeated_query_terms_count_once(self):
        index = oracle_field_index([["a", "b"], ["b"]])
        assert bm25_score(["a", "a", "a"], 0, index) == bm25_score(["a"], 0, index)


class TestSearch:
    def test_matches_random_oracle(self):
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(25)]
        for _ in range(30):
            n_docs = int(rng.integers(2, 20))
            docs = [
                [vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(1, 15)))]
                for _ in range(n_docs)
            ]
            index = build_field_index("text", docs)
            terms = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(1, 5)))]
            expected = oracle_scores(docs, terms)
            got = dict(search_tokens(index, terms, n_docs))
            assert set(got) == set(expected)
            for doc_id, score in got.items():
                assert score == pytest.approx(expected[doc_id], abs=1e-9)

    def test_search_scores_equal_bm25_score_bitwise(self):
        # Both paths accumulate per-term contributions in query order, so
        # the floats must agree exactly, not just approximately.
        rng = np.random.default_rng(3)
        docs = [["a", "b", "c", "a"], ["b", "c"], ["c", "c", "d"], ["e"]]
        index = build_field_index("text", docs)
        oracle = oracle_field_index(docs)
        for _ in range(50):
            terms = [str(t) for t in rng.choice(["a", "b", "c", "d", "e"], size=3)]
            for doc_id, score in search_tokens(index, terms, 10):
                assert score == bm25_score(terms, doc_id, oracle)

    def test_ranking_and_ties(self):
        # identical docs tie on score and fall back to doc_id order
        index = build_field_index("text", [["a"], ["a"], ["b"]])
        results = search_tokens(index, ["a"], 10)
        assert [doc_id for doc_id, _ in results] == [0, 1]
        assert results[0][1] == results[1][1]

    def test_k_truncates(self):
        index = build_field_index("text", [["a"], ["a"], ["a"]])
        assert len(search_tokens(index, ["a"], 2)) == 2

    def test_k_must_be_positive(self):
        index = build_field_index("text", [["a"]])
        with pytest.raises(ValueError):
            search(index, "a", 0)

    def test_unknown_doc_id_rejected(self):
        index = oracle_field_index([["a"]])
        with pytest.raises(ValueError):
            bm25_score(["a"], 5, index)

    def test_empty_query_returns_nothing(self):
        index = build_field_index("text", [["a"]])
        assert search(index, "", 5) == []

    def test_query_permutation_changes_scores_negligibly(self):
        index = build_field_index("text", [["a", "b", "c"], ["b", "c", "c"]])
        forward = dict(search_tokens(index, ["a", "b", "c"], 5))
        backward = dict(search_tokens(index, ["c", "b", "a"], 5))
        assert set(forward) == set(backward)
        for doc_id in forward:
            assert forward[doc_id] == pytest.approx(backward[doc_id], rel=1e-12)


def _zipf_corpus(rng, n_docs, vocab_size=300, exponent=1.1):
    """Documents over a Zipfian vocabulary, with blocks of identical
    documents so that many queries tie at some rank."""
    vocab = [f"t{i}" for i in range(vocab_size)]
    weights = 1.0 / np.arange(1, vocab_size + 1) ** exponent
    p = weights / weights.sum()
    docs = []
    while len(docs) < n_docs:
        doc = [vocab[int(i)] for i in rng.choice(vocab_size, size=int(rng.integers(1, 40)), p=p)]
        docs.extend([doc] * int(rng.choice([1, 1, 1, 2, 3, 5])))
    return vocab, p, docs[:n_docs]


class TestColumnarMatchesOracle:
    """Columnar `search_tokens` against the dict-loop `oracle_search_tokens`:
    the same (doc_id, score) lists, floats compared with ==."""

    def _check(self, index, oracle, terms, k):
        got = search_tokens(index, terms, k)
        assert got == oracle_search_tokens(oracle, terms, k)
        assert all(type(d) is int and type(s) is float for d, s in got)
        return got

    def test_random_zipfian_corpora(self):
        rng = np.random.default_rng(2006)
        straddling = 0
        for _ in range(6):
            vocab, p, docs = _zipf_corpus(rng, int(rng.integers(200, 400)))
            index, oracle = build_field_index("text", docs), oracle_field_index(docs)
            for _ in range(60):
                terms = [vocab[int(i)] for i in rng.choice(len(vocab), size=int(rng.integers(1, 8)), p=p)]
                if rng.random() < 0.3:
                    terms += terms[: int(rng.integers(1, len(terms) + 1))]  # repeated terms
                if rng.random() < 0.2:
                    terms.insert(int(rng.integers(0, len(terms) + 1)), "absent-term")
                ranked = oracle_search_tokens(oracle, terms, len(docs))
                # Cut inside a run of tied scores, so ties straddle the k-th rank.
                cuts = [i for i in range(1, len(ranked)) if ranked[i - 1][1] == ranked[i][1]]
                ks = {1, 5, len(ranked) + 7}
                if cuts:
                    ks.add(cuts[int(rng.integers(0, len(cuts)))])
                    straddling += 1
                for k in ks:
                    self._check(index, oracle, terms, k)
        assert straddling > 50

    def test_single_term_and_tie_sized_k(self):
        docs = [["a", "b"], ["a", "b"], ["a", "b"], ["a"], ["b", "c", "a"]]
        index, oracle = build_field_index("text", docs), oracle_field_index(docs)
        for k in (1, 2, 3, 4, 10):
            got = self._check(index, oracle, ["a"], k)
            assert len(got) == min(k, 5)
        # docs 0-2 tie on every query; k = 3 keeps exactly the tie
        got = self._check(index, oracle, ["b"], 3)
        assert [d for d, _ in got] == [0, 1, 2]
        assert got[0][1] == got[1][1] == got[2][1]

    def test_absent_and_repeated_terms(self):
        docs = [["a", "b", "a"], ["b"], ["c"]]
        index, oracle = build_field_index("text", docs), oracle_field_index(docs)
        assert self._check(index, oracle, ["zzz"], 5) == []
        assert self._check(index, oracle, ["a", "a", "zzz", "b", "a"], 5) == search_tokens(
            index, ["a", "b"], 5
        )

    def test_build_columns_equal_oracle(self):
        # The same seeded corpora as test_random_zipfian_corpora: rows in
        # sorted term order, postings by doc_id, impacts bit-exact.
        rng = np.random.default_rng(2006)
        for _ in range(6):
            _, _, docs = _zipf_corpus(rng, int(rng.integers(200, 400)))
            index, oracle = build_field_index("text", docs), oracle_field_index(docs)
            terms = sorted(oracle.postings)
            assert list(index.term_rows) == terms
            assert list(index.term_rows.values()) == list(range(len(terms)))
            plists = [oracle.postings[term] for term in terms]
            assert index.offsets.tolist() == np.cumsum([0] + [len(pl) for pl in plists]).tolist()
            assert index.doc_ids.tolist() == [d for pl in plists for d, _ in pl]
            assert index.tfs.tolist() == [tf for pl in plists for _, tf in pl]
            assert index.doc_lengths.tolist() == oracle.doc_lengths
            assert (index.avg_doc_length, index.doc_count) == (oracle.avg_doc_length, oracle.doc_count)
            impacts = [
                oracle.idf(term) * _tf_part(tf, oracle, d)
                for term in terms
                for d, tf in oracle.postings[term]
            ]
            assert index.impacts.tobytes() == np.array(impacts).tobytes()

    def test_all_empty_field(self):
        docs = [[], [], []]
        index, oracle = build_field_index("interwikies", docs), oracle_field_index(docs)
        assert self._check(index, oracle, ["a", "b"], 3) == []


class TestTopKMembers:
    """`top_k_members` against the ranked top-k of `oracles.top_k_mask`,
    on score vectors built to tie: few distinct values, zero scores, and
    k cutting through a run of equal scores."""

    def _check(self, scores, docs, k):
        docs = np.asarray(docs, dtype=np.int64)
        got = top_k_members(scores, docs, k)
        assert got.dtype == bool and got.tolist() == top_k_mask(scores, k)[docs].tolist()
        return got

    def test_seeded_tied_vectors(self):
        rng = np.random.default_rng(19)
        selected = straddling = 0
        for _ in range(400):
            n = int(rng.integers(1, 80))
            values = rng.choice([0.5, 1.25, 2.0, 3.5, 7.0], size=int(rng.integers(1, 4)), replace=False)
            scores = np.where(rng.random(n) < rng.random(), 0.0, rng.choice(values, size=n))
            ranked = ranked_top_k(scores, n)
            ks = {1, n, n + 3, int(rng.integers(1, n + 1))}
            # k = i ends the top-k between two tied documents.
            cuts = [i for i in range(1, len(ranked)) if scores[ranked[i - 1]] == scores[ranked[i]]]
            if cuts:
                ks.add(cuts[int(rng.integers(0, len(cuts)))])
                straddling += 1
            for k in sorted(ks):
                hits = rng.integers(0, n, size=int(rng.integers(1, 11)))
                positive = scores[hits][scores[hits] > 0]
                selected += bool(len(positive)) and np.count_nonzero(scores >= positive.min()) > k
                self._check(scores, hits, k)
                self._check(scores, np.arange(n), k)
                self._check(scores, np.flatnonzero(scores), k)
        assert selected > 300 and straddling > 200

    def test_tie_at_the_kth_score(self):
        # Documents 1, 2, 3 and 5 tie at 2.0; k = 3 keeps 1, 2 and 3 only,
        # so the cut falls between tied documents 3 and 5.
        scores = np.array([1.0, 2.0, 2.0, 2.0, 0.0, 2.0, 1.0, 3.0])
        assert self._check(scores, [3, 5], 4).tolist() == [True, False]
        assert self._check(scores, [7, 1, 2, 3, 5, 0, 6, 4], 4).tolist() == [
            True, True, True, True, False, False, False, False
        ]
        assert self._check(scores, [5, 0], 5).tolist() == [True, False]
        assert self._check(scores, [0, 6], 6).tolist() == [True, False]

    def test_k_of_one_n_and_beyond(self):
        scores = np.array([2.0, 0.0, 2.0, 1.0, 2.0])
        every = np.arange(5)
        assert self._check(scores, every, 1).tolist() == [True, False, False, False, False]
        for k in (5, 6, 100):
            assert self._check(scores, every, k).tolist() == [True, False, True, True, True]
        assert not self._check(np.zeros(4), np.arange(4), 2).any()
        assert self._check(scores, np.zeros(0, dtype=np.int64), 1).tolist() == []

    def test_document_listed_twice(self):
        scores = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
        got = self._check(scores, [4, 1, 4, 3, 1, 0], 2)
        assert got.tolist() == [False, True, False, False, True, True]

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            top_k_members(np.ones(3), np.arange(3), 0)


class TestFromPostingsValidation:
    """`FieldIndex.from_columns`, the one constructor that build and load
    share, on malformed postings columns. Each case is the column form of
    a malformed format-1 postings list or field value."""

    DOCS = [["a", "b"], ["b"], ["b", "c", "c"]]

    def _raw(self):
        fi = build_field_index("title", self.DOCS)
        raw = {"terms": list(fi.term_rows)}
        for column in ("offsets", "doc_ids", "tfs", "doc_lengths"):
            raw[column] = getattr(fi, column).tolist()
        return raw

    def _load(self, raw):
        return FieldIndex.from_columns("title", **raw)

    def test_round_trip_is_exact(self):
        raw = self._raw()
        rebuilt = self._load(raw)
        assert list(rebuilt.term_rows) == raw["terms"] == ["a", "b", "c"]
        for column in ("offsets", "doc_ids", "tfs", "doc_lengths"):
            assert getattr(rebuilt, column).tolist() == raw[column]
        original = build_field_index("title", self.DOCS)
        assert rebuilt.impacts.tobytes() == original.impacts.tobytes()
        assert (rebuilt.avg_doc_length, rebuilt.doc_count) == (2.0, 3)

    # One term, "a", over three documents of lengths 2, 1 and 3; each case
    # replaces some of its columns (format 1's list in the comment).
    @pytest.mark.parametrize(
        "postings, message",
        [
            ({"doc_ids": [0], "tfs": [1, 2]}, "pair"),  # [[0, 1, 2]]
            ({"doc_ids": [0], "tfs": []}, "pair"),  # [[0]]
            ({"doc_ids": [[0, 1]], "tfs": [[0, 1]]}, "pair"),  # [0, 1]
            ({"doc_ids": [0], "tfs": [1.5]}, "pair"),  # [[0, 1.5]]
            ({"doc_ids": ["0"], "tfs": [1]}, "pair"),  # [["0", 1]]
            ({"doc_ids": [0], "tfs": [None]}, "pair"),  # [[0, None]]
            ({"doc_ids": [0, 1], "tfs": [1]}, "pair"),  # [[0, 1], [1]]
            ({"terms": "a"}, "list"),  # "0 1"
            ({"doc_ids": [3]}, "outside"),
            ({"doc_ids": [-1]}, "outside"),
            ({"doc_ids": [1, 0], "tfs": [1, 1]}, "increase"),
            ({"doc_ids": [1, 1], "tfs": [1, 2]}, "increase"),
            ({"tfs": [0]}, "below 1"),
        ],
    )
    def test_bad_postings_rejected(self, postings, message):
        raw = {"terms": ["a"], "doc_ids": [0], "tfs": [1], "doc_lengths": [2, 1, 3], **postings}
        raw["offsets"] = [0, len(raw["doc_ids"])]
        with pytest.raises(DataFormatError, match=message):
            self._load(raw)

    def test_doc_ids_may_restart_at_each_term(self):
        raw = {**self._raw(), "offsets": [0, 2, 3, 3], "doc_ids": [1, 2, 0], "tfs": [1, 1, 2]}
        assert self._load(raw).doc_ids.tolist() == [1, 2, 0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("doc_lengths", [2, 1]),
            ("doc_lengths", [2, 1, -3]),
            ("doc_lengths", "2 1 3"),
            ("doc_lengths", [0, 0, 0]),  # format 1: avg_doc_length 0.0 under postings
            ("doc_lengths", [2, 1, 1]),  # "c" occurs twice in a one-token document
            ("doc_lengths", []),
            ("terms", ["a", "b"]),
            ("terms", [["a"], "b", "c"]),  # format 1: postings not a mapping
            ("terms", ["a", "b", "b"]),
            ("offsets", [1, 1, 4, 5]),
            ("offsets", [0, 4, 1, 5]),
            ("offsets", [0, 1, 4, 4]),
            ("offsets", [0, 1, 4]),
            ("offsets", [0.0, 1.0, 4.0, 5.0]),
            ("doc_count", 4),  # three doc_lengths for an index of four documents
        ],
    )
    def test_bad_field_values_rejected(self, key, value):
        raw = {**self._raw(), key: value}
        with pytest.raises(DataFormatError):
            self._load(raw)


class TestLoadValidation:
    """Malformed format-2 index files. Each case edits a good file and
    writes it back with its checksum brought up to date, so the check
    under test is the one that fires."""

    def _parts(self, fixture_index, tmp_path):
        path = tmp_path / "good.bin"
        fixture_index.save(path)
        return index_arrays(path)

    def _header(self, fixture_index, tmp_path):
        path = tmp_path / "good.bin"
        fixture_index.save(path)
        return index_header(path)

    def _load(self, tmp_path, header, arrays):
        path = tmp_path / "i.bin"
        write_index_arrays(path, header, arrays)
        return CorpusIndex.load(path)

    def _load_raw(self, tmp_path, header, blob):
        path = tmp_path / "i.bin"
        write_index_raw(path, header, blob)
        return CorpusIndex.load(path)

    def test_missing_postings_key(self, fixture_index, tmp_path):
        header, arrays = self._parts(fixture_index, tmp_path)
        for column in ("offsets", "doc_ids", "tfs"):
            del arrays[f"title.{column}"]
        with pytest.raises(DataFormatError, match="'title.offsets'"):
            self._load(tmp_path, header, arrays)

    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_missing_field(self, fixture_index, tmp_path, name):
        header, arrays = self._parts(fixture_index, tmp_path)
        del header["terms"][name]
        with pytest.raises(DataFormatError, match=name):
            self._load(tmp_path, header, arrays)

    @pytest.mark.parametrize("key", ["offsets", "doc_ids", "tfs", "doc_lengths"])
    def test_missing_field_key(self, fixture_index, tmp_path, key):
        header, arrays = self._parts(fixture_index, tmp_path)
        del arrays[f"all_text.{key}"]
        with pytest.raises(DataFormatError, match=key):
            self._load(tmp_path, header, arrays)

    def test_bad_posting_names_file_and_field(self, fixture_index, tmp_path):
        header, arrays = self._parts(fixture_index, tmp_path)
        arrays["referred_by.doc_ids"][0] = 10**6
        with pytest.raises(DataFormatError, match=r"i\.bin: field 'referred_by'"):
            self._load(tmp_path, header, arrays)

    def test_doc_count_must_match_documents(self, fixture_index, tmp_path):
        header, arrays = self._parts(fixture_index, tmp_path)
        header["titles"].pop()
        header["referred_by"].pop()
        with pytest.raises(DataFormatError, match="documents"):
            self._load(tmp_path, header, arrays)

    def test_malformed_document_record(self, fixture_index, tmp_path):
        header, arrays = self._parts(fixture_index, tmp_path)
        header["referred_by"][0] = "abc"
        with pytest.raises(DataFormatError, match="document 0"):
            self._load(tmp_path, header, arrays)

    def test_unknown_field(self, fixture_index, tmp_path):
        header, arrays = self._parts(fixture_index, tmp_path)
        header["terms"]["body"] = header["terms"]["title"]
        with pytest.raises(DataFormatError, match="body"):
            self._load(tmp_path, header, arrays)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("turkish", None, "turkish"),
            ("titles", ["a", 5], "titles"),
            ("titles", "abc", "titles"),
            ("referred_by", [], "one list per document"),
            ("terms", ["title"], "terms"),
            ("arrays", "title.offsets", "arrays"),
            ("arrays", [["title.offsets", "<i8"]], "arrays"),
            ("extra", 1, "unexpected \\['extra'\\]"),
        ],
    )
    def test_bad_header_value(self, fixture_index, tmp_path, key, value, message):
        header, blob = self._header(fixture_index, tmp_path)
        header[key] = value
        with pytest.raises(DataFormatError, match=message):
            self._load_raw(tmp_path, header, blob)

    def _edit_raw_header(self, fixture_index, tmp_path, edit):
        """The saved fixture index with `edit` applied to its header as
        written, crc32 included."""
        path = tmp_path / "i.bin"
        fixture_index.save(path)
        payload = read_container(path, MAGIC_INDEX)
        sep = payload.index(b"\n")
        header = load_json(payload[:sep], path)
        edit(header)
        write_container(path, MAGIC_INDEX, dump_json(header) + payload[sep:])
        return path

    def test_crc32_must_be_an_integer(self, fixture_index, tmp_path):
        path = self._edit_raw_header(
            fixture_index, tmp_path, lambda h: h.update(crc32=str(h["crc32"]))
        )
        with pytest.raises(DataFormatError, match="crc32"):
            CorpusIndex.load(path)

    @pytest.mark.parametrize(
        "key", ["arrays", "crc32", "referred_by", "terms", "titles", "turkish"]
    )
    def test_missing_header_key(self, fixture_index, tmp_path, key):
        path = self._edit_raw_header(fixture_index, tmp_path, lambda h: h.pop(key))
        with pytest.raises(DataFormatError, match=f"missing \\['{key}'\\]"):
            CorpusIndex.load(path)

    def test_array_of_another_dtype(self, fixture_index, tmp_path):
        header, arrays = self._parts(fixture_index, tmp_path)
        header["arrays"][2][1] = "<f4"  # title.tfs
        assert header["arrays"][2][0] == "title.tfs"
        with pytest.raises(DataFormatError, match="layout"):
            self._load(tmp_path, header, arrays)

    @pytest.mark.parametrize(
        "offsets", [[1, 1], [0, -1], [0, 10**9], [0, 5, 3], "drop-one"]
    )
    def test_bad_lead_offsets(self, fixture_index, tmp_path, offsets):
        header, arrays = self._parts(fixture_index, tmp_path)
        good = arrays["lead_offsets"]
        if offsets == "drop-one":
            arrays["lead_offsets"] = good[:-1]
        else:
            arrays["lead_offsets"] = good.copy()
            arrays["lead_offsets"][: len(offsets)] = offsets
        with pytest.raises(DataFormatError, match="lead_offsets"):
            self._load(tmp_path, header, arrays)

    def test_lead_not_utf8(self, fixture_index, tmp_path):
        header, arrays = self._parts(fixture_index, tmp_path)
        first = int(np.flatnonzero(np.diff(arrays["lead_offsets"]))[0])
        arrays["leads"][arrays["lead_offsets"][first]] = 0xFF
        with pytest.raises(DataFormatError, match=f"lead {first} is not valid UTF-8"):
            self._load(tmp_path, header, arrays)

    def _parts_with_leads(self, fixture_index, tmp_path, leads):
        """A good file of the fixture index with its first leads replaced."""
        leads = leads + [""] * (len(fixture_index.leads) - len(leads))
        index = dataclasses.replace(fixture_index, leads=Leads.from_strings(leads))
        return self._parts(index, tmp_path)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 2**20])
    def test_multi_byte_leads_load_at_any_chunk_size(self, fixture_index, tmp_path, monkeypatch, chunk):
        leads = ["é", "", "ab", "日本語", "x€y", "İstanbul"]
        header, arrays = self._parts_with_leads(fixture_index, tmp_path, leads)
        monkeypatch.setattr(index_module, "_LEAD_CHECK_CHUNK", chunk)
        loaded = self._load(tmp_path, header, arrays)
        assert list(loaded.leads)[: len(leads)] == leads

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 2**20])
    def test_lead_offset_inside_a_character(self, fixture_index, tmp_path, monkeypatch, chunk):
        """Lead 0's end moved into its two-byte character: the section is
        still UTF-8 as a whole, but lead 0 ends and lead 1 starts inside
        the character."""
        header, arrays = self._parts_with_leads(fixture_index, tmp_path, ["é", "ab"])
        arrays["lead_offsets"][1] = 1
        monkeypatch.setattr(index_module, "_LEAD_CHECK_CHUNK", chunk)
        with pytest.raises(DataFormatError, match="lead 0 is not valid UTF-8"):
            self._load(tmp_path, header, arrays)

    @pytest.mark.parametrize("chunk", [1, 3, 2**20])
    def test_last_lead_not_utf8(self, fixture_index, tmp_path, monkeypatch, chunk):
        """Load checks every lead, though tagging reads only linked ones."""
        header, arrays = self._parts(fixture_index, tmp_path)
        last = int(np.flatnonzero(np.diff(arrays["lead_offsets"]))[-1])
        arrays["leads"][-1] = 0xC3  # a lead byte with no continuation
        monkeypatch.setattr(index_module, "_LEAD_CHECK_CHUNK", chunk)
        with pytest.raises(DataFormatError, match=f"lead {last} is not valid UTF-8"):
            self._load(tmp_path, header, arrays)

    def test_checksum_catches_a_changed_byte(self, fixture_index, tmp_path):
        path = tmp_path / "i.bin"
        fixture_index.save(path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="checksum"):
            CorpusIndex.load(path)

    def test_trailing_bytes(self, fixture_index, tmp_path):
        header, blob = self._header(fixture_index, tmp_path)
        with pytest.raises(DataFormatError, match="8 trailing bytes"):
            self._load_raw(tmp_path, header, blob + bytes(8))

    def test_layout_longer_than_the_arrays(self, fixture_index, tmp_path):
        header, blob = self._header(fixture_index, tmp_path)
        header["arrays"][-1][2] += 1  # one more lead byte than there is
        with pytest.raises(DataFormatError, match="truncated: array 'leads'"):
            self._load_raw(tmp_path, header, blob)

    def test_format_1_file_names_the_rebuild(self, fixture_index, fixture_documents, tmp_path):
        path = tmp_path / "v1.bin"
        save_index_v1(path, fixture_documents, fixture_index.fields)
        with pytest.raises(DataFormatError, match="version 1.*`linkrush index`"):
            CorpusIndex.load(path)


class TestFormat2MatchesFormat1:
    def test_fixture(self, fixture_documents, fixture_index, tmp_path):
        assert_v2_loads_as_v1(fixture_documents, fixture_index, tmp_path)

    def test_zipfian_corpus_with_shared_and_repeated_phrases(self, tmp_path):
        rng = np.random.default_rng(18)
        vocab, _, token_docs = _zipf_corpus(rng, 300)
        docs = [
            IndexedDocument(
                i, " ".join(tokens[:2]), (" ".join(tokens[:2]), tokens[0], tokens[0]),
                (" ".join(tokens[-2:]),), " ".join(tokens), " ".join(tokens[:5]) + " ünïcödé",
            )
            for i, tokens in enumerate(token_docs)
        ]
        assert_v2_loads_as_v1(docs, CorpusIndex.build(docs, turkish=True), tmp_path)

    def test_built_index_equals_its_loaded_copy(self, fixture_index, tmp_path):
        # Build holds each field as save writes it: the same columns, the
        # same term rows, in the same order.
        path = tmp_path / "idx.bin"
        fixture_index.save(path)
        loaded = CorpusIndex.load(path)
        for name in FIELD_NAMES:
            built, copy = fixture_index.fields[name], loaded.fields[name]
            assert list(built.term_rows.items()) == list(copy.term_rows.items())
            assert list(built.term_rows) == sorted(built.term_rows)
            for column in ("offsets", "doc_ids", "tfs", "impacts", "doc_lengths"):
                got, want = getattr(copy, column), getattr(built, column)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (copy.avg_doc_length, copy.doc_count) == (built.avg_doc_length, built.doc_count)

    def test_save_of_a_loaded_index_is_the_same_file(self, fixture_index, tmp_path):
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        fixture_index.save(first)
        CorpusIndex.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()


class TestLoadMemory:
    """A load reads its file once, into one buffer, and the loaded columns
    are read-only views of that buffer, not copies."""

    def test_read_container_allocates_one_payload(self, tmp_path):
        payload = np.random.default_rng(22).integers(0, 256, 4 << 20, dtype=np.uint8).tobytes()
        path = tmp_path / "c.bin"
        write_container(path, MAGIC_INDEX, payload)
        tracemalloc.start()
        try:
            got = read_container(path, MAGIC_INDEX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == payload
        # Slicing the payload out of a whole-file read would allocate 2x.
        assert len(payload) <= peak < 1.25 * len(payload)

    def test_loaded_columns_are_read_only_views_of_one_buffer(self, fixture_index, tmp_path):
        path = tmp_path / "idx.bin"
        fixture_index.save(path)
        loaded = CorpusIndex.load(path)
        buffers = set()
        for field in loaded.fields.values():
            for column in (field.offsets, field.doc_ids, field.tfs, field.doc_lengths):
                assert column.size and not column.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 0
                buffers.add(id(column.base.obj))
        assert len(buffers) == 1


    def test_leads_are_a_view_of_the_same_buffer(self, fixture_index, tmp_path):
        path = tmp_path / "idx.bin"
        fixture_index.save(path)
        loaded = CorpusIndex.load(path)
        section, offsets = loaded.leads.section, loaded.leads.offsets
        assert not section.flags.writeable and not offsets.flags.writeable
        assert section.base.obj is loaded.fields["title"].doc_ids.base.obj

    def test_lead_check_decodes_in_chunks(self):
        """Checking an 8 MB section never holds a string of all of it."""
        leads = Leads.from_strings(["ab" * 50 + "é"] * 80_000)
        assert len(leads.section) > 8_000_000
        tracemalloc.start()
        try:
            Leads.from_section(leads.offsets, leads.section, len(leads), "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * index_module._LEAD_CHECK_CHUNK


class TestLeads:
    LEADS = ["", "stone mill", "é", "", "x€y"]

    def test_reads_each_lead_back(self):
        leads = Leads.from_strings(self.LEADS)
        assert len(leads) == 5
        assert list(leads) == self.LEADS
        assert [leads[i] for i in range(-5, 5)] == self.LEADS * 2
        for position in (5, -6):
            with pytest.raises(IndexError):
                leads[position]

    def test_equal_when_every_lead_is(self):
        leads = Leads.from_strings(self.LEADS)
        assert leads == Leads.from_strings(list(self.LEADS))
        assert leads != Leads.from_strings(self.LEADS[:-1] + ["x€z"])
        assert leads != Leads.from_strings(["", "stone", " mill", "é", "", "x€y"])
        assert leads != self.LEADS


class TestFieldTokens:
    def _doc(self):
        return IndexedDocument(
            doc_id=0,
            title="alpha station",
            referred_by=("the old station", "alpha station"),
            interwikies=("beta yard",),
            all_text="alpha station\nbody text",
            lead="body text",
        )

    def test_title_tokenized(self):
        assert field_tokens(self._doc(), "title") == ["alpha", "station"]

    def test_referred_by_splits_phrases(self):
        assert field_tokens(self._doc(), "referred_by") == [
            "the", "old", "station", "alpha", "station",
        ]

    def test_interwikies_tokenized(self):
        assert field_tokens(self._doc(), "interwikies") == ["beta", "yard"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            field_tokens(self._doc(), "nope")


class TestCorpusIndexBundle:
    def test_builds_all_four_fields(self, fixture_documents):
        fields = build_index(fixture_documents)
        assert tuple(fields) == FIELD_NAMES
        for index in fields.values():
            assert index.doc_count == len(fixture_documents)

    def test_zero_documents_rejected(self):
        with pytest.raises(ValueError):
            build_index([])

    def test_all_empty_field_searchable(self):
        # documents with no links leave the interwikies field empty
        docs = [
            IndexedDocument(0, "a", ("a",), (), "a", ""),
            IndexedDocument(1, "b", ("b",), (), "b", ""),
        ]
        bundle = CorpusIndex.build(docs)
        assert search_tokens(bundle.fields["interwikies"], ["a"], 5) == []

    def test_save_load_identical_results(self, fixture_index, tmp_path):
        path = tmp_path / "idx.bin"
        fixture_index.save(path)
        loaded = CorpusIndex.load(path)
        queries = [["nokia", "2010"], ["the", "boss"], ["granite"], ["houston"]]
        for terms in queries:
            for name in FIELD_NAMES:
                assert search_tokens(loaded.fields[name], terms, 50) == (
                    search_tokens(fixture_index.fields[name], terms, 50)
                )
        assert loaded.titles == fixture_index.titles
        assert loaded.leads == fixture_index.leads

    def test_save_is_deterministic(self, fixture_index, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        fixture_index.save(a)
        fixture_index.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_magic_rejected(self, fixture_documents, tmp_path):
        path = tmp_path / "c.bin"
        save_corpus(fixture_documents, path)
        with pytest.raises(DataFormatError, match="magic"):
            CorpusIndex.load(path)

    def test_corpus_round_trip(self, fixture_documents, tmp_path):
        path = tmp_path / "c.bin"
        save_corpus(fixture_documents, path, turkish=False)
        docs, turkish = load_corpus(path)
        assert docs == fixture_documents
        assert turkish is False
