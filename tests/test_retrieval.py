"""Candidate pooling: union membership, score summation, diagnostics.

`TestRetrievePooled` pins the pool-first oracle; `TestPoolMasks` checks
the columnar pool against it.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import oracle_retrieve_pooled as retrieve_pooled

from linkrush.corpus import IndexedDocument
from linkrush.index import FIELD_NAMES, CorpusIndex
from linkrush.retrieval import PoolMasks, pool_stats
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
            union |= {doc_id for doc_id, _ in small_index.search_field(name, tokens, 10).ranked()}
        assert pooled_ids == union

    def test_pooled_score_is_sum_of_field_scores(self, small_index):
        pool = retrieve_pooled(["blue", "mill"], small_index, 10)
        for candidate in pool.candidates:
            assert candidate.pooled_score == sum(candidate.per_field_scores.values())
            # a field appears only when it actually retrieved the document
            for name, score in candidate.per_field_scores.items():
                field_hits = dict(small_index.search_field(name, ["blue", "mill"], 10).ranked())
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
        assert stats.sentence_count == 2
        assert stats.empty_pool_count == 1
        expected_avg = (len(pools[0].candidates) + 0) / 2
        assert stats.avg_pool_size == expected_avg
        assert stats.as_dict()["sentence_count"] == 2

    def test_empty_input(self):
        stats = pool_stats([])
        assert stats.sentence_count == 0
        assert stats.avg_pool_size == 0.0
        assert stats.empty_pool_count == 0

    def test_fixture_pools_never_empty(self, fixture_index, gold_sentences):
        pools = [
            retrieve_pooled(list(s.tokens), fixture_index, 200, sentence_id=s.sentence_id)
            for s in gold_sentences
        ]
        stats = pool_stats(pools)
        assert stats.sentence_count == len(gold_sentences)
        assert stats.empty_pool_count == 0
        assert stats.avg_pool_size > 0


def _masks_match_oracle(tokens, index, k, fields=FIELD_NAMES):
    """The columnar pool holds the oracle's documents, per-field counts
    and pooled-score floats, and nothing else."""
    masks = retrieve_masks(tokens, index, k, fields=fields)
    oracle = retrieve_pooled(tokens, index, k, fields=fields)
    assert masks.candidates.tolist() == sorted(c.doc_id for c in oracle.candidates)
    assert masks.per_field_counts == oracle.per_field_counts
    assert list(masks.masks) == list(fields)
    for candidate in oracle.candidates:
        score = masks.pooled_score(candidate.doc_id)
        assert type(score) is float and score == candidate.pooled_score
    pooled = set(masks.candidates.tolist())
    for doc_id in range(len(index.titles)):
        if doc_id not in pooled:
            assert masks.pooled_score(doc_id) is None


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
        assert isinstance(pool, PoolMasks)
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
            assert new.empty_pool_count == 1

    def test_mask_is_exact_top_k_under_ties(self):
        # Six identical documents tie on every score: the top-k is the
        # k lowest doc_ids, and the mask holds exactly those.
        docs = [IndexedDocument(i, "mill", ("mill",), (), "mill", "") for i in range(6)]
        index = CorpusIndex.build(docs)
        for k in range(1, 8):
            pool = retrieve_masks(["mill"], index, k)
            for name in ("title", "referred_by", "all_text"):
                assert np.flatnonzero(pool.masks[name]).tolist() == list(range(min(k, 6)))
            assert not pool.masks["interwikies"].any()
