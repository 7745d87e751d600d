"""BM25 scoring against analytic values, an exhaustive oracle and the
dict-of-postings scorer in `oracles`; index loading and validation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracles import bm25_score, oracle_field_index, oracle_search_tokens, search

from linkrush.corpus import IndexedDocument
from linkrush.errors import DataFormatError
from linkrush.index import (
    B,
    FIELD_NAMES,
    K1,
    CorpusIndex,
    FieldIndex,
    build_field_index,
    build_index,
    field_tokens,
    load_corpus,
    save_corpus,
    search_tokens,
)
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

    def test_all_empty_field(self):
        docs = [[], [], []]
        index, oracle = build_field_index("interwikies", docs), oracle_field_index(docs)
        assert self._check(index, oracle, ["a", "b"], 3) == []


class TestFromPostingsValidation:
    def _raw(self):
        return build_field_index("title", [["a", "b"], ["b"], ["b", "c", "c"]]).to_json()

    def _load(self, raw):
        return FieldIndex.from_postings(
            "title", raw["postings"], raw["doc_lengths"], raw["avg_doc_length"], raw["doc_count"]
        )

    def test_round_trip_is_exact(self):
        raw = self._raw()
        rebuilt = self._load(raw)
        assert rebuilt.to_json() == raw
        original = build_field_index("title", [["a", "b"], ["b"], ["b", "c", "c"]])
        assert rebuilt.impacts.tolist() == original.impacts.tolist()

    @pytest.mark.parametrize(
        "postings, message",
        [
            ({"a": [[0, 1, 2]]}, "pair"),
            ({"a": [[0]]}, "pair"),
            ({"a": [0, 1]}, "pair"),
            ({"a": [[0, 1.5]]}, "pair"),
            ({"a": [["0", 1]]}, "pair"),
            ({"a": [[0, None]]}, "pair"),
            ({"a": [[0, 1], [1]]}, "pair"),
            ({"a": "0 1"}, "list"),
            ({"a": [[3, 1]]}, "outside"),
            ({"a": [[-1, 1]]}, "outside"),
            ({"a": [[1, 1], [0, 1]]}, "increase"),
            ({"a": [[1, 1], [1, 2]]}, "increase"),
            ({"a": [[0, 0]]}, "below 1"),
        ],
    )
    def test_bad_postings_rejected(self, postings, message):
        raw = {**self._raw(), "postings": postings}
        with pytest.raises(DataFormatError, match=message):
            self._load(raw)

    def test_doc_ids_may_restart_at_each_term(self):
        raw = {**self._raw(), "postings": {"a": [[1, 1], [2, 1]], "b": [[0, 2]], "c": []}}
        assert self._load(raw).doc_ids.tolist() == [1, 2, 0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("doc_lengths", [2, 1]),
            ("doc_lengths", [2, 1, -3]),
            ("doc_lengths", "2 1 3"),
            ("doc_count", "3"),
            ("doc_count", 4),
            ("avg_doc_length", None),
            ("avg_doc_length", 0.0),
            ("postings", [["a", [[0, 1]]]]),
        ],
    )
    def test_bad_field_values_rejected(self, key, value):
        raw = {**self._raw(), key: value}
        with pytest.raises(DataFormatError):
            self._load(raw)


class TestLoadValidation:
    def _write(self, path, payload):
        write_container(path, MAGIC_INDEX, dump_json(payload))
        return path

    def _payload(self, fixture_index, tmp_path):
        path = tmp_path / "good.bin"
        fixture_index.save(path)
        return load_json(read_container(path, MAGIC_INDEX), path)

    def test_missing_postings_key(self, tmp_path):
        path = self._write(tmp_path / "i.bin", {"fields": {"title": {}}, "documents": []})
        with pytest.raises(DataFormatError):
            CorpusIndex.load(path)

    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_missing_field(self, fixture_index, tmp_path, name):
        payload = self._payload(fixture_index, tmp_path)
        del payload["fields"][name]
        with pytest.raises(DataFormatError, match=name):
            CorpusIndex.load(self._write(tmp_path / "i.bin", payload))

    @pytest.mark.parametrize("key", ["postings", "doc_lengths", "avg_doc_length", "doc_count"])
    def test_missing_field_key(self, fixture_index, tmp_path, key):
        payload = self._payload(fixture_index, tmp_path)
        del payload["fields"]["all_text"][key]
        with pytest.raises(DataFormatError, match=key):
            CorpusIndex.load(self._write(tmp_path / "i.bin", payload))

    def test_bad_posting_names_file_and_field(self, fixture_index, tmp_path):
        payload = self._payload(fixture_index, tmp_path)
        postings = payload["fields"]["referred_by"]["postings"]
        term = sorted(postings)[0]
        postings[term] = [[10**6, 1]]
        path = self._write(tmp_path / "i.bin", payload)
        with pytest.raises(DataFormatError, match=r"i\.bin: field 'referred_by'"):
            CorpusIndex.load(path)

    def test_doc_count_must_match_documents(self, fixture_index, tmp_path):
        payload = self._payload(fixture_index, tmp_path)
        payload["documents"] = payload["documents"][:-1]
        with pytest.raises(DataFormatError, match="documents"):
            CorpusIndex.load(self._write(tmp_path / "i.bin", payload))

    def test_malformed_document_record(self, fixture_index, tmp_path):
        payload = self._payload(fixture_index, tmp_path)
        del payload["documents"][0]["lead"]
        with pytest.raises(DataFormatError, match="document"):
            CorpusIndex.load(self._write(tmp_path / "i.bin", payload))

    def test_unknown_field(self, fixture_index, tmp_path):
        payload = self._payload(fixture_index, tmp_path)
        payload["fields"]["body"] = payload["fields"]["title"]
        with pytest.raises(DataFormatError, match="body"):
            CorpusIndex.load(self._write(tmp_path / "i.bin", payload))


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
        assert bundle.search_field("interwikies", ["a"], 5).ranked() == []

    def test_save_load_identical_results(self, fixture_index, tmp_path):
        path = tmp_path / "idx.bin"
        fixture_index.save(path)
        loaded = CorpusIndex.load(path)
        queries = [["nokia", "2010"], ["the", "boss"], ["granite"], ["houston"]]
        for terms in queries:
            for name in FIELD_NAMES:
                assert loaded.search_field(name, terms, 50).ranked() == (
                    fixture_index.search_field(name, terms, 50).ranked()
                )
        assert [d.title for d in loaded.documents] == [
            d.title for d in fixture_index.documents
        ]

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
