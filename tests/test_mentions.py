"""Anchor matching and longest-match overlap resolution.

`TestFindMatches` pins the pool-first oracle; `TestAnchorFirstMatchesOracle`
checks the anchor-first linker against it with `==` on mention lists.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import mention_recall, oracle_find_matches, oracle_link_sentence
from oracles import oracle_retrieve_pooled as retrieve_pooled

from linkrush.corpus import IndexedDocument
from linkrush.index import CorpusIndex, FIELD_NAMES
from linkrush.mentions import Mention, find_matches, link_sentence, resolve_overlaps
from linkrush.retrieval import retrieve_pooled as retrieve_masks


def naive_matches(sentence_tokens, pool, documents):
    """Quadratic reference matcher: try every span against every anchor."""
    found = set()
    n = len(sentence_tokens)
    for candidate in pool.candidates:
        for phrase in documents[candidate.doc_id].referred_by:
            words = phrase.split(" ")
            for start in range(n - len(words) + 1):
                if sentence_tokens[start : start + len(words)] == words:
                    found.add((start, start + len(words), candidate.doc_id))
    return found


def _mention(start, end, score=1.0, doc_id=0):
    return Mention(start, end, tuple(f"t{i}" for i in range(start, end)), doc_id, score)


@pytest.fixture(scope="module")
def tiny_index():
    docs = [
        IndexedDocument(0, "red gate", ("the red gate", "red gate"), (), "red gate", ""),
        IndexedDocument(1, "gate", ("gate",), (), "gate", ""),
        IndexedDocument(2, "red", ("red",), (), "red", ""),
    ]
    return CorpusIndex.build(docs)


class TestFindMatches:
    def test_reports_all_occurrences_and_overlaps(self, tiny_index):
        tokens = ["the", "red", "gate", "and", "red", "gate"]
        pool = retrieve_pooled(tokens, tiny_index, 10)
        matches = oracle_find_matches(tokens, pool, tiny_index.documents)
        spans = {(m.start, m.end, m.doc_id) for m in matches}
        assert (0, 3, 0) in spans  # the red gate
        assert (1, 3, 0) in spans  # red gate (first)
        assert (4, 6, 0) in spans  # red gate (second)
        assert (2, 3, 1) in spans and (5, 6, 1) in spans  # gate twice
        assert (1, 2, 2) in spans and (4, 5, 2) in spans  # red twice

    def test_matches_carry_pool_scores(self, tiny_index):
        tokens = ["red", "gate"]
        pool = retrieve_pooled(tokens, tiny_index, 10)
        for m in oracle_find_matches(tokens, pool, tiny_index.documents):
            assert m.pooled_score == pool.score_of(m.doc_id)

    def test_equals_naive_oracle_on_random_sentences(self, tiny_index):
        rng = np.random.default_rng(5)
        words = ["the", "red", "gate", "and", "blue", "old"]
        for _ in range(200):
            tokens = [words[int(i)] for i in rng.integers(0, len(words), size=int(rng.integers(1, 10)))]
            pool = retrieve_pooled(tokens, tiny_index, 10)
            got = {(m.start, m.end, m.doc_id) for m in oracle_find_matches(tokens, pool, tiny_index.documents)}
            assert got == naive_matches(tokens, pool, tiny_index.documents)

    def test_empty_pool_no_matches(self, tiny_index):
        pool = retrieve_pooled(["zzz"], tiny_index, 10)
        assert oracle_find_matches(["zzz"], pool, tiny_index.documents) == []


class TestResolveOverlaps:
    def test_longest_wins(self):
        short = _mention(1, 2, score=99.0)
        long = _mention(1, 3, score=1.0)
        assert resolve_overlaps([short, long]) == [long]

    def test_score_breaks_length_ties(self):
        low = _mention(0, 2, score=1.0, doc_id=1)
        high = _mention(1, 3, score=2.0, doc_id=2)
        assert resolve_overlaps([low, high]) == [high]

    def test_non_overlapping_all_kept_in_position_order(self):
        a = _mention(4, 6)
        b = _mention(0, 2)
        assert resolve_overlaps([a, b]) == [b, a]

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(17)
        mentions = [
            _mention(0, 3, 5.0, 1),
            _mention(2, 4, 7.0, 2),
            _mention(4, 6, 7.0, 3),
            _mention(5, 8, 2.0, 4),
            _mention(1, 2, 9.0, 5),
        ]
        expected = resolve_overlaps(mentions)
        for _ in range(20):
            shuffled = [mentions[int(i)] for i in rng.permutation(len(mentions))]
            assert resolve_overlaps(shuffled) == expected

    def test_greedy_invariants_random(self):
        # kept spans never overlap; every dropped span overlaps a kept one
        # that precedes it in the (length, score) order
        rng = np.random.default_rng(23)
        for _ in range(300):
            mentions = []
            seen = set()
            for doc_id in range(int(rng.integers(1, 12))):
                start = int(rng.integers(0, 10))
                end = start + int(rng.integers(1, 4))
                key = (start, end, doc_id)
                if key in seen:
                    continue
                seen.add(key)
                score = float(rng.integers(1, 4))  # few values to force ties
                mentions.append(Mention(start, end, ("x",) * (end - start), doc_id, score))
            kept = resolve_overlaps(mentions)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    assert not a.overlaps(b)
            order_key = lambda m: (-m.length, -m.pooled_score, m.start, m.doc_id)
            for dropped in set(mentions) - set(kept):
                blockers = [
                    k for k in kept
                    if k.overlaps(dropped) and order_key(k) < order_key(dropped)
                ]
                assert blockers, f"{dropped} dropped with no earlier overlapping keeper"

    def test_empty(self):
        assert resolve_overlaps([]) == []


class TestLinkSentence:
    def test_longer_product_name_beats_maker(self, fixture_index):
        tokens = ["the", "nokia", "2010", "sold", "well", "in", "stores"]
        mentions = link_sentence(tokens, fixture_index, 200)
        spans = {(m.start, m.end): fixture_index.documents[m.doc_id].title for m in mentions}
        assert spans[(1, 3)] == "nokia 2010"
        assert (1, 2) not in spans  # the bare company match lost the overlap

    def test_sibling_products_do_not_collide(self, fixture_index):
        tokens = ["the", "nokia", "2110", "added", "text", "messaging"]
        mentions = link_sentence(tokens, fixture_index, 200)
        spans = {(m.start, m.end): fixture_index.documents[m.doc_id].title for m in mentions}
        assert spans[(1, 3)] == "nokia 2110"

    def test_multi_mention_sentence(self, fixture_index):
        tokens = ["houston", "released", "i'm", "your", "baby", "tonight"]
        mentions = link_sentence(tokens, fixture_index, 200)
        spans = {(m.start, m.end): fixture_index.documents[m.doc_id].title for m in mentions}
        assert spans[(0, 1)] == "whitney houston"
        assert spans[(2, 6)] == "i'm your baby tonight"

    def test_output_sorted_and_disjoint(self, fixture_index, gold_sentences):
        for sentence in gold_sentences:
            mentions = link_sentence(list(sentence.tokens), fixture_index, 200)
            starts = [m.start for m in mentions]
            assert starts == sorted(starts)
            for a, b in zip(mentions, mentions[1:]):
                assert a.end <= b.start

    def test_pooled_matches_superset_of_single_field(self, fixture_index, gold_sentences):
        # Candidate spans found with all four fields pooled must include
        # every span found through any single field alone.
        for sentence in gold_sentences[:8]:
            tokens = list(sentence.tokens)
            pooled = retrieve_pooled(tokens, fixture_index, 200)
            pooled_spans = {
                (m.start, m.end, m.doc_id)
                for m in oracle_find_matches(tokens, pooled, fixture_index.documents)
            }
            for name in FIELD_NAMES:
                single = retrieve_pooled(tokens, fixture_index, 200, fields=(name,))
                single_spans = {
                    (m.start, m.end, m.doc_id)
                    for m in oracle_find_matches(tokens, single, fixture_index.documents)
                }
                assert single_spans <= pooled_spans


def _zipf_world(rng, n_docs):
    """A seeded corpus with a Zipfian vocabulary and anchor phrases of 1-4
    tokens drawn from a small Zipfian phrase list, so phrases are shared
    by several documents. Documents come in blocks of identical copies,
    so scores tie, and some list a phrase twice."""
    vocab = [f"w{i}" for i in range(300)]
    p = 1.0 / np.arange(1, len(vocab) + 1)
    p /= p.sum()
    words = lambda n: [vocab[int(i)] for i in rng.choice(len(vocab), size=n, p=p)]
    phrases = [" ".join(words(int(rng.integers(1, 5)))) for _ in range(120)]
    q = 1.0 / np.arange(1, len(phrases) + 1)
    q /= q.sum()
    docs = []
    while len(docs) < n_docs:
        anchors = [phrases[int(i)] for i in rng.choice(len(phrases), size=int(rng.integers(1, 5)), p=q)]
        if rng.random() < 0.2:
            anchors.append(anchors[0])  # the same phrase listed twice
        title = " ".join(words(int(rng.integers(1, 3))))
        interwikies = tuple(" ".join(words(2)) for _ in range(int(rng.integers(0, 2))))
        body = " ".join(words(int(rng.integers(3, 30))))
        for _ in range(int(rng.choice([1, 1, 1, 2, 3]))):
            docs.append(
                IndexedDocument(
                    len(docs), title, tuple(anchors), interwikies, f"{title}\n{body}", body
                )
            )
    return CorpusIndex.build(docs[:n_docs]), vocab, p, phrases


def _sentence(rng, vocab, p, phrases):
    tokens = [vocab[int(i)] for i in rng.choice(len(vocab), size=int(rng.integers(1, 9)), p=p)]
    for _ in range(int(rng.integers(0, 3))):
        at = int(rng.integers(0, len(tokens) + 1))
        tokens[at:at] = phrases[int(rng.integers(0, len(phrases)))].split(" ")
    return tokens


class TestAnchorFirstMatchesOracle:
    """`link_sentence` against the pool-first oracle, `==` on mention
    lists, pooled-score floats included."""

    def _check(self, tokens, index, k, fields=FIELD_NAMES):
        got = link_sentence(tokens, index, k, fields=fields)
        assert got == oracle_link_sentence(tokens, index, k, fields=fields)
        assert all(type(m.pooled_score) is float and type(m.doc_id) is int for m in got)
        hits = index.anchors.lookup(tokens)
        if hits:
            pool = retrieve_masks(tokens, index, k, fields=fields)
            oracle_pool = retrieve_pooled(tokens, index, k, fields=fields)
            assert find_matches(hits, pool) == oracle_find_matches(
                tokens, oracle_pool, index.documents
            )
        return got

    def test_seeded_zipfian_corpora(self):
        rng = np.random.default_rng(16)
        straddling = no_hit = shared = linked = 0
        for _ in range(3):
            index, vocab, p, phrases = _zipf_world(rng, int(rng.integers(200, 300)))
            for _ in range(25):
                tokens = _sentence(rng, vocab, p, phrases)
                hits = index.anchors.lookup(tokens)
                no_hit += not hits
                shared += any(len(set(doc_ids)) > 1 for *_, doc_ids in hits)
                ks = {1, 3, 50, len(index.documents) + 1}
                for name in FIELD_NAMES:
                    ranked = index.search_field(name, tokens, len(index.documents)).ranked()
                    # Cut inside a run of tied scores, so ties straddle the k-th rank.
                    cuts = [i for i in range(1, len(ranked)) if ranked[i - 1][1] == ranked[i][1]]
                    if cuts:
                        ks.add(cuts[int(rng.integers(0, len(cuts)))])
                        straddling += 1
                for k in sorted(ks):
                    linked += bool(self._check(tokens, index, k))
                    for name in FIELD_NAMES:
                        self._check(tokens, index, k, (name,))
        assert straddling > 50 and no_hit > 3 and shared > 20 and linked > 100

    def test_phrase_listed_twice_and_shared(self):
        docs = [
            IndexedDocument(0, "red gate", ("red gate", "red gate", "gate"), (), "red gate", ""),
            IndexedDocument(1, "gate", ("gate", "red gate"), (), "gate", ""),
            IndexedDocument(2, "gate", ("gate", "red gate"), (), "gate", ""),
            IndexedDocument(3, "old mill", ("mill",), (), "old mill", ""),
        ]
        index = CorpusIndex.build(docs)
        assert index.anchors.phrases[("red", "gate")] == (0, 0, 1, 2)
        tokens = ["the", "red", "gate", "and", "gate"]
        for k in (1, 2, 3, 10):
            for fields in [FIELD_NAMES] + [(name,) for name in FIELD_NAMES]:
                self._check(tokens, index, k, fields)
        pool = retrieve_masks(tokens, index, 10)
        raw = find_matches(index.anchors.lookup(tokens), pool)
        assert [(m.start, m.doc_id) for m in raw if m.length == 2].count((1, 0)) == 2

    def test_no_anchor_hit_returns_nothing_without_search(self, fixture_index, monkeypatch):
        import linkrush.mentions as mentions

        def refuse(*args, **kwargs):
            raise AssertionError("searched a sentence without anchor hits")

        monkeypatch.setattr(mentions, "retrieve_pooled", refuse)
        assert link_sentence(["zzz", "qqq"], fixture_index, 200) == []
        assert link_sentence([], fixture_index, 200) == []

    def test_k_below_one_raises_even_without_hits(self, fixture_index):
        for tokens in (["zzz"], [], ["nokia"]):
            with pytest.raises(ValueError):
                link_sentence(tokens, fixture_index, 0)

    def test_fixture_sentences(self, fixture_index, gold_sentences):
        for sentence in gold_sentences:
            tokens = [t.lower() for t in sentence.tokens]
            for k in (1, 5, 200):
                for fields in [FIELD_NAMES] + [(name,) for name in FIELD_NAMES]:
                    self._check(tokens, fixture_index, k, fields)


class TestMentionRecall:
    def test_empty_gold_fully_recalled(self):
        assert mention_recall([], []) == 1.0

    def test_partial(self):
        detected = [_mention(0, 2), _mention(4, 5)]
        assert mention_recall([(0, 2), (3, 4)], detected) == 0.5

    def test_exact_spans_required(self):
        detected = [_mention(0, 3)]
        assert mention_recall([(0, 2)], detected) == 0.0
