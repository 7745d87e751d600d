"""Candidate pooling: union membership, score summation, diagnostics.

`TestRetrievePooled` pins the pool-first oracle; `TestPoolMasks` checks
the pool of score vectors, asked through top-k membership, against it.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import oracle_retrieve_pooled as retrieve_pooled
from oracles import search_tokens, top_k_mask

from linkrush.corpus import IndexedDocument
from linkrush.index import FIELD_NAMES, CorpusIndex, top_k_members
from linkrush.retrieval import Pool, pool_stats
from linkrush.retrieval import retrieve_pooled as retrieve_masks


@pytest.fixture(scope="module")
def small_index():
    docs = [
        IndexedDocument(0, "red gate", ("red gate",), ("blue mill",), "red gate\nan old gate", ""),
        IndexedDocument(1, "blue mill", ("blue mill", "the mill"), (), "blue mill\nby the river", ""),
        IndexedDocument(2, "green barn", ("green barn",), (), "green barn\nhay inside", ""),
    ]
    return CorpusIndex.build(docs)


class TestRetrievePooled:
    def test_pool_is_union_of_field_results(self, small_index):
        tokens = ["the", "mill", "gate"]
        pool = retrieve_pooled(tokens, small_index, 10)
        pooled_ids = {c.doc_id for c in pool.candidates}
        union = set()
        for name in FIELD_NAMES:
            union |= {doc_id for doc_id, _ in search_tokens(small_index.fields[name], tokens, 10)}
        assert pooled_ids == union

    def test_pooled_score_is_sum_of_field_scores(self, small_index):
        pool = retrieve_pooled(["blue", "mill"], small_index, 10)
        for candidate in pool.candidates:
            assert candidate.pooled_score == sum(candidate.per_field_scores.values())
            # a field appears only when it actually retrieved the document
            for name, score in candidate.per_field_scores.items():
                field_hits = dict(search_tokens(small_index.fields[name], ["blue", "mill"], 10))
                assert field_hits[candidate.doc_id] == score

    def test_candidates_sorted_by_pooled_score(self, small_index):
        pool = retrieve_pooled(["the", "mill", "gate", "red"], small_index, 10)
        scores = [c.pooled_score for c in pool.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_small_k_limits_each_field(self, small_index):
        # k=1 keeps only each field's best hit; the pool is their union.
        pool = retrieve_pooled(["gate", "mill", "barn"], small_index, 1)
        for name, count in pool.per_field_counts.items():
            assert count <= 1

    def test_no_shared_tokens_gives_empty_pool(self, small_index):
        pool = retrieve_pooled(["zzz", "qqq"], small_index, 10)
        assert pool.candidates == []

    def test_k_validation(self, small_index):
        with pytest.raises(ValueError):
            retrieve_pooled(["a"], small_index, 0)

    def test_deterministic(self, small_index):
        a = retrieve_pooled(["the", "mill"], small_index, 10)
        b = retrieve_pooled(["the", "mill"], small_index, 10)
        assert a == b

    def test_score_of(self, small_index):
        pool = retrieve_pooled(["mill"], small_index, 10)
        top = pool.candidates[0]
        assert pool.score_of(top.doc_id) == top.pooled_score
        with pytest.raises(KeyError):
            pool.score_of(999)


class TestPoolStats:
    def test_hand_tally(self, small_index):
        pools = [
            retrieve_pooled(["mill"], small_index, 10, sentence_id="a"),
            retrieve_pooled(["zzz"], small_index, 10, sentence_id="b"),
        ]
        stats = pool_stats(pools)
        assert stats["sentence_count"] == 2
        assert stats["empty_pool_count"] == 1
        expected_avg = (len(pools[0].candidates) + 0) / 2
        assert stats["avg_pool_size"] == expected_avg

    def test_empty_input(self):
        stats = pool_stats([])
        assert stats["sentence_count"] == 0
        assert stats["avg_pool_size"] == 0.0
        assert stats["empty_pool_count"] == 0
        assert stats["avg_per_field"] == {}

    def test_fixture_pools_never_empty(self, fixture_index, gold_sentences):
        pools = [
            retrieve_pooled(list(s.tokens), fixture_index, 200, sentence_id=s.sentence_id)
            for s in gold_sentences
        ]
        stats = pool_stats(pools)
        assert stats["sentence_count"] == len(gold_sentences)
        assert stats["empty_pool_count"] == 0
        assert stats["avg_pool_size"] > 0
        assert list(stats["avg_per_field"]) == sorted(FIELD_NAMES)


def _masks_match_oracle(tokens, index, k, fields=FIELD_NAMES):
    """The pool holds the oracle's documents, per-field counts and
    pooled-score floats, and nothing else."""
    pool = retrieve_masks(tokens, index, k, fields=fields)
    oracle = retrieve_pooled(tokens, index, k, fields=fields)
    assert pool.candidates.tolist() == sorted(c.doc_id for c in oracle.candidates)
    assert pool.per_field_counts == oracle.per_field_counts
    assert list(pool.scores) == list(fields)
    expected = {c.doc_id: c.pooled_score for c in oracle.candidates}
    for doc_id, score in enumerate(pool.pooled_scores(range(len(index.titles)))):
        if doc_id in expected:
            assert type(score) is float and score == expected[doc_id]
        else:
            assert score is None


class TestPoolMasks:
    def test_matches_oracle_on_small_index(self, small_index):
        for tokens in (["the", "mill", "gate"], ["blue", "mill"], ["zzz"], ["the", "the"]):
            for k in (1, 2, 10):
                _masks_match_oracle(tokens, small_index, k)

    def test_matches_oracle_on_fixture(self, fixture_index, gold_sentences):
        for sentence in gold_sentences:
            for k in (1, 3, 200):
                _masks_match_oracle(list(sentence.tokens), fixture_index, k)

    def test_field_subsets(self, fixture_index, gold_sentences):
        for sentence in gold_sentences[:8]:
            for fields in [(name,) for name in FIELD_NAMES] + [FIELD_NAMES[::-1], ()]:
                _masks_match_oracle(list(sentence.tokens), fixture_index, 5, fields)

    def test_no_shared_tokens_gives_empty_pool(self, small_index):
        pool = retrieve_masks(["zzz", "qqq"], small_index, 10)
        assert isinstance(pool, Pool)
        assert len(pool.candidates) == 0
        assert pool.per_field_counts == {name: 0 for name in FIELD_NAMES}

    def test_k_validation(self, small_index):
        with pytest.raises(ValueError):
            retrieve_masks(["a"], small_index, 0)

    def test_stats_equal_oracle_stats(self, fixture_index, gold_sentences):
        tokens = [list(s.tokens) for s in gold_sentences] + [["zzz"]]
        for k in (1, 200):
            new = pool_stats(retrieve_masks(t, fixture_index, k) for t in tokens)
            old = pool_stats([retrieve_pooled(t, fixture_index, k) for t in tokens])
            assert new == old
            assert new["empty_pool_count"] == 1

    def test_mask_is_exact_top_k_under_ties(self):
        # Six identical documents tie on every score: the top-k is the
        # k lowest doc_ids, and exactly those are members.
        docs = [IndexedDocument(i, "mill", ("mill",), (), "mill", "") for i in range(6)]
        index = CorpusIndex.build(docs)
        every = np.arange(6)
        for k in range(1, 8):
            pool = retrieve_masks(["mill"], index, k)
            for name in ("title", "referred_by", "all_text"):
                member = top_k_members(pool.scores[name], every, k)
                assert np.flatnonzero(member).tolist() == list(range(min(k, 6)))
            assert not top_k_members(pool.scores["interwikies"], every, k).any()

    def test_counts_equal_oracle_masks(self, fixture_index, gold_sentences):
        # perfbench/tracing.py counts `candidates` and `per_field_counts`
        # of every pool `retrieve_pooled` returns; both must be what the
        # ranked top-k masks give.
        for sentence in gold_sentences:
            tokens = [t.lower() for t in sentence.tokens]
            for k in (1, 3, 200):
                pool = retrieve_masks(tokens, fixture_index, k)
                masks = {name: top_k_mask(scores, k) for name, scores in pool.scores.items()}
                union = np.logical_or.reduce(list(masks.values()))
                assert pool.candidates.tolist() == np.flatnonzero(union).tolist()
                assert pool.per_field_counts == {n: int(m.sum()) for n, m in masks.items()}
