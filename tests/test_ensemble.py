"""Router, window tagger, and the combined tagging pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import (
    dense_model,
    oracle_head_logits,
    oracle_tag_baseline,
    oracle_window_features,
    split_rows,
)

from linkrush import ensemble
from linkrush.classifier import (
    WINDOW_DIGEST_MEMO_SIZE,
    GateDecision,
    MentionClassifier,
    SparseRows,
    TrainingConfig,
    _rows_logits,
)
from linkrush.ensemble import (
    Route,
    RouterConfig,
    build_training_examples,
    load_window_tagger,
    route,
    save_window_tagger,
    tag,
    tag_baseline,
    tag_el,
    tag_sentences,
    train_baseline,
    window_features,
)
from linkrush.errors import DataFormatError
from linkrush.evaluation import TaggedSentence, bio_repair, span_extract
from linkrush.tokenizer import normalize_token

DIM = 2**10


class TestRoute:
    def test_long_sentence_goes_to_baseline(self):
        assert route(["w"] * 12, RouterConfig(11)) is Route.BASELINE

    def test_at_threshold_goes_to_linking(self):
        assert route(["w"] * 11, RouterConfig(11)) is Route.ENTITY_LINKING

    def test_short_sentence_goes_to_linking(self):
        assert route(["w"] * 5, RouterConfig(11)) is Route.ENTITY_LINKING

    def test_threshold_zero_sends_everything_to_baseline(self):
        config = RouterConfig(0)
        for n in (1, 5, 40):
            assert route(["w"] * n, config) is Route.BASELINE

    def test_none_threshold_sends_everything_to_linking(self):
        config = RouterConfig(None)
        for n in (1, 11, 12, 100):
            assert route(["w"] * n, config) is Route.ENTITY_LINKING

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(-1)

    def test_depends_only_on_length(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(15)]
        base = route(words, RouterConfig(11))
        for _ in range(10):
            shuffled = [words[i] for i in rng.permutation(len(words))]
            assert route(shuffled, RouterConfig(11)) is base

    def test_default_threshold(self):
        config = RouterConfig()
        assert route(["w"] * 12, config) is Route.BASELINE
        assert route(["w"] * 11, config) is Route.ENTITY_LINKING


class TestWindowFeatures:
    def test_edge_padding(self):
        [vec] = split_rows(window_features(["solo"], DIM))
        # one real token plus six edge markers still yields a unit vector
        assert float(vec.values @ vec.values) == pytest.approx(1.0, abs=1e-12)

    def test_position_sensitivity(self):
        # same bag of tokens, different focus position -> different features
        tokens = ["a", "b", "c", "d", "e", "f", "g"]
        vectors = split_rows(window_features(tokens, DIM))
        left, right = vectors[1], vectors[5]
        assert not np.array_equal(left.indices, right.indices)

    def test_deterministic(self):
        tokens = ["the", "red", "mill"]
        a = split_rows(window_features(tokens, DIM))[1]
        b = split_rows(window_features(tokens, DIM))[1]
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)


def assert_rows_equal_oracle(tokens, dim):
    rows = window_features(tokens, dim)
    assert len(rows) == len(tokens)
    assert rows.indptr[0] == 0 and rows.indptr[-1] == len(rows.indices) == len(rows.values)
    for position, got in enumerate(split_rows(rows)):
        want = oracle_window_features(tokens, position, dim)
        assert got.indices.dtype == want.indices.dtype == np.int64
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.values.dtype == want.values.dtype == np.float64
        assert got.values.tobytes() == want.values.tobytes()


class TestWindowFeaturesMatchOracle:
    """The whole-sentence `window_features` against the per-position
    `hash_feature` loop of `oracles.oracle_window_features`: the same
    index and value bytes at every position."""

    def test_seeded_sentences(self):
        rng = np.random.default_rng(20)
        vocab = [f"w{i}" for i in range(40)] + ["[EDGE]", "the", "the"]
        for _ in range(150):
            n = int(rng.integers(1, 31))
            tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=n)]
            # At 8 and 2 features a row's seven keys must collide.
            for dim in (2**18, 8, 2):
                assert_rows_equal_oracle(tokens, dim)

    def test_short_and_special_sentences(self):
        turkish = [normalize_token(t, turkish=True) for t in ("İSTANBUL", "IŞIK", "Iğdır")]
        assert turkish[0] == "istanbul"
        for tokens in ([], ["solo"], turkish, ["zürich", "東京", "naïve", "é"], ["a"] * 9):
            for dim in (2**18, 8, 2):
                assert_rows_equal_oracle(tokens, dim)
        empty = window_features([], DIM)
        assert len(empty) == 0 and split_rows(empty) == []
        assert empty.indptr.tolist() == [0]
        assert empty.indices.size == empty.values.size == 0

    def test_rows_index_like_a_sequence(self):
        """`take` picks rows by position, in the order asked, repeats
        included; a row past the end raises IndexError."""
        rows = window_features(["a", "b", "c"], DIM)
        listed = split_rows(rows)
        positions = np.array([2, 0, 1, 1])
        taken = rows.take(positions)
        assert len(taken) == len(positions)
        for got, position in zip(split_rows(taken), positions):
            assert got.indices.tobytes() == listed[position].indices.tobytes()
            assert got.values.tobytes() == listed[position].values.tobytes()
        with pytest.raises(IndexError):
            rows.take(np.array([3]))

    def test_row_numbers_must_fit_in_64_bits(self):
        assert len(window_features(["a"], 2**64)) == 1
        assert_rows_equal_oracle(["a", "b"], 2**63)
        for tokens, dim in ((["a", "b"], 2**64), (["a"] * 3, 2**63), (["a"] * 5, 2**62)):
            with pytest.raises(ValueError, match="64 bits"):
                window_features(tokens, dim)

    def test_dim_must_be_a_power_of_two(self):
        with pytest.raises(ValueError):
            window_features(["a"], 12)


SENTENCE_VOCAB = [f"w{i}" for i in range(40)] + ["[EDGE]", "the", "the", "İSTANBUL", "Oslo"]


def seeded_sentences(seed, count):
    """Token lists of 1-30 tokens drawn from SENTENCE_VOCAB."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(count):
        n = int(rng.integers(1, 31))
        sentences.append([SENTENCE_VOCAB[int(i)] for i in rng.integers(0, len(SENTENCE_VOCAB), size=n)])
    return sentences


def random_taggers(dim, seed):
    """Single-head models with Gaussian weights, and with weights in
    {-1, 0, 1} and a zero bias, whose logits tie often at small dims;
    the second folds case the Turkish way."""
    rng = np.random.default_rng(seed)
    gaussian = MentionClassifier.zeros(dim, single_head=True)
    gaussian.W_type = rng.standard_normal(gaussian.W_type.shape)
    gaussian.b_type = rng.standard_normal(gaussian.b_type.shape)
    ternary = MentionClassifier.zeros(dim, single_head=True)
    ternary.W_type = rng.integers(-1, 2, size=ternary.W_type.shape).astype(np.float64)
    ternary.turkish = True
    return gaussian, ternary


def person_tagger():
    """A window tagger whose bias alone makes every token a PER."""
    tagger = MentionClassifier.zeros(DIM, single_head=True)
    tagger.b_type[0] = 1.0
    return tagger


class TestTagBaselineMatchesOracle:
    """`tag_baseline` scores a sentence's rows at once; the per-token
    loop of `oracles.oracle_tag_baseline` must give the same tags, and
    each row's logits must have the bytes the dense one-row gather
    `oracles.oracle_head_logits` gives it."""

    def test_seeded_sentences(self):
        sentences = seeded_sentences(21, 60)
        for dim in (2**18, 8, 2):
            for tagger in random_taggers(dim, dim):
                for i, tokens in enumerate(sentences):
                    got = tag_baseline(tokens, f"s{i}", tagger)
                    assert got == oracle_tag_baseline(tokens, f"s{i}", tagger)

    def test_row_logits_equal_per_row_logits(self):
        sentences = seeded_sentences(22, 60)
        for dim in (2**18, 8, 2):
            for tagger in random_taggers(dim, dim + 1):
                W, b, columns = tagger.W_type, tagger.b_type, tagger.columns
                for tokens in sentences:
                    rows = window_features(tokens, dim)
                    logits = _rows_logits(W, b, columns, rows)
                    assert logits.shape == (len(tokens), len(b))
                    for got, row in zip(logits, split_rows(rows)):
                        assert got.tobytes() == oracle_head_logits(W, b, row).tobytes()

    def test_no_rows_no_logits(self):
        tagger = random_taggers(DIM, 0)[0]
        logits = _rows_logits(
            tagger.W_type, tagger.b_type, tagger.columns, window_features([], DIM)
        )
        assert logits.shape == (0, len(tagger.b_type))


class TestWindowDigestMemo:
    def test_cold_and_warm_give_the_same_bytes(self):
        sentences = seeded_sentences(23, 20)
        ensemble._window_digests.cache_clear()
        cold = [window_features(tokens, 2**18) for tokens in sentences]
        assert ensemble._window_digests.cache_info().hits > 0
        warm = [window_features(tokens, 2**18) for tokens in sentences]
        for a, b in zip(cold, warm):
            for name in ("indptr", "indices", "values"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_bounded_by_the_named_size(self):
        assert ensemble._window_digests.cache_info().maxsize == WINDOW_DIGEST_MEMO_SIZE

    def test_repeated_token_is_hashed_once(self, monkeypatch):
        hashed = []

        def counting(keys):
            hashed.append(keys[0].split("\x1f", 1)[1])
            return real(keys)

        real = ensemble._feature_digests
        ensemble._window_digests.cache_clear()
        monkeypatch.setattr(ensemble, "_feature_digests", counting)
        rows = window_features(["x", "y", "x", "x"], DIM)
        assert sorted(hashed) == ["[EDGE]", "x", "y"]
        for position, row in enumerate(split_rows(rows)):
            want = oracle_window_features(["x", "y", "x", "x"], position, DIM)
            assert row.indices.tobytes() == want.indices.tobytes()
            assert row.values.tobytes() == want.values.tobytes()

    def test_literal_edge_token_hashes_like_padding(self):
        # Position 0 of ["x", "[EDGE]"] sees the same seven tokens as
        # position 0 of ["x"], whose right neighbour is padding.
        for dim in (2**18, 8):
            padded = split_rows(window_features(["x"], dim))[0]
            literal = split_rows(window_features(["x", "[EDGE]"], dim))[0]
            assert literal.indices.tobytes() == padded.indices.tobytes()
            assert literal.values.tobytes() == padded.values.tobytes()
            want = oracle_window_features(["x", "[EDGE]"], 0, dim)
            assert literal.indices.tobytes() == want.indices.tobytes()


def per_token_fixture():
    """Sentences where each token's own surface decides its tag."""
    rows = [
        (["anna", "sang", "loudly"], ["B-PER", "O", "O"]),
        (["visit", "oslo", "today"], ["O", "B-LOC", "O"]),
        (["anna", "left", "oslo"], ["B-PER", "O", "B-LOC"]),
        (["the", "band", "quartz", "played"], ["O", "O", "B-GRP", "O"]),
        (["omega", "shipped", "new", "widgetron"], ["B-CORP", "O", "O", "B-PROD"]),
        (["she", "read", "saga"], ["O", "O", "B-CW"]),
        (["quartz", "and", "anna", "met"], ["B-GRP", "O", "B-PER", "O"]),
        (["widgetron", "sold", "out"], ["B-PROD", "O", "O"]),
        (["omega", "opened", "in", "oslo"], ["B-CORP", "O", "O", "B-LOC"]),
        (["saga", "won", "awards"], ["B-CW", "O", "O"]),
    ]
    return [TaggedSentence(f"t{i:02d}", tuple(t), tuple(g)) for i, (t, g) in enumerate(rows)]


class TestWindowTagger:
    def test_training_memorizes_per_token_fixture(self):
        sentences = per_token_fixture()
        tagger = train_baseline(sentences, TrainingConfig(epochs=120), feature_dim=DIM)
        for sentence in sentences:
            tagged = tag_baseline(sentence.tokens, sentence.sentence_id, tagger)
            assert tagged.tags == sentence.tags

    def test_same_seed_bitwise_identical(self):
        sentences = per_token_fixture()
        config = TrainingConfig(epochs=15, seed=4)
        a = train_baseline(sentences, config, feature_dim=DIM)
        b = train_baseline(sentences, config, feature_dim=DIM)
        assert np.array_equal(a.W_type, b.W_type)
        assert np.array_equal(a.b_type, b.b_type)

    def test_output_is_valid_bio(self):
        sentences = per_token_fixture()
        tagger = train_baseline(sentences, TrainingConfig(epochs=5), feature_dim=DIM)
        tagged = tag_baseline(["quartz", "quartz", "quartz", "oslo", "oslo"], "x", tagger)
        assert list(tagged.tags) == bio_repair(list(tagged.tags))

    def test_empty_and_one_token_sentences(self):
        tagger = train_baseline(per_token_fixture(), TrainingConfig(epochs=120), feature_dim=DIM)
        assert tag_baseline([], "e", tagger) == TaggedSentence("e", (), ())
        for token in ("anna", "oslo", "zzz"):
            assert tag_baseline([token], "one", tagger) == oracle_tag_baseline([token], "one", tagger)
        assert tag_baseline(["anna"], "one", person_tagger()).tags == ("B-PER",)

    def test_one_window_features_call_and_no_vector_per_sentence(self, monkeypatch):
        """A sentence is one `SparseRows`, never one feature object per
        token."""
        tagger = train_baseline(per_token_fixture(), TrainingConfig(epochs=5), feature_dim=DIM)
        calls = {"window_features": 0, "SparseRows": 0}

        def counting_window_features(*args):
            calls["window_features"] += 1
            return real_window_features(*args)

        def counting_init(self, *args):
            calls["SparseRows"] += 1
            real_init(self, *args)

        real_window_features, real_init = ensemble.window_features, SparseRows.__init__
        monkeypatch.setattr(ensemble, "window_features", counting_window_features)
        monkeypatch.setattr(SparseRows, "__init__", counting_init)
        sentences = per_token_fixture()
        for sentence in sentences:
            tag_baseline(sentence.tokens, sentence.sentence_id, tagger)
        assert calls == {"window_features": len(sentences), "SparseRows": len(sentences)}

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            train_baseline([], TrainingConfig())

    def test_round_trip_bitwise(self, tmp_path):
        tagger = train_baseline(per_token_fixture(), TrainingConfig(epochs=5), feature_dim=DIM)
        path = tmp_path / "t.bin"
        save_window_tagger(tagger, path)
        loaded = dense_model(load_window_tagger(path))
        assert loaded.feature_dim == tagger.feature_dim
        assert loaded.turkish == tagger.turkish
        assert np.array_equal(loaded.W_type, tagger.W_type)
        assert np.array_equal(loaded.b_type, tagger.b_type)

    def test_loss_curve_and_folding_round_trip(self, tmp_path):
        tagger = train_baseline(
            per_token_fixture(), TrainingConfig(epochs=5), feature_dim=DIM, turkish=True
        )
        assert tagger.single_head and tagger.W_bin is None
        assert len(tagger.epoch_losses) == 5
        path = tmp_path / "t.bin"
        save_window_tagger(tagger, path)
        loaded = load_window_tagger(path)
        assert loaded.epoch_losses == tagger.epoch_losses
        assert loaded.turkish is True

    def test_wrong_container_kind_rejected(self, tmp_path):
        from linkrush.classifier import MentionClassifier, save_model

        # A single-head mention classifier has the window tagger's arrays;
        # only the header kind tells them apart.
        for single_head in (False, True):
            path = tmp_path / f"m{int(single_head)}.bin"
            save_model(MentionClassifier.zeros(DIM, single_head=single_head), path)
            with pytest.raises(DataFormatError, match="expected a window_tagger"):
                load_window_tagger(path)

    def test_two_head_model_is_not_a_window_tagger(self, tmp_path):
        from linkrush.classifier import MentionClassifier, save_model
        from linkrush.storage import MAGIC_MODEL, read_container, write_container

        two_head = MentionClassifier.zeros(DIM)
        with pytest.raises(ValueError):
            save_window_tagger(two_head, tmp_path / "t.bin")
        with pytest.raises(ValueError):
            tag_baseline(["a", "b"], "x", two_head)
        # A two-head file relabelled as a window tagger is rejected on load.
        path = tmp_path / "m.bin"
        save_model(two_head, path)
        payload = read_container(path, MAGIC_MODEL)
        write_container(path, MAGIC_MODEL, payload.replace(b"mention_classifier", b"window_tagger", 1))
        with pytest.raises(DataFormatError, match="single-head"):
            load_window_tagger(path)


class TestBuildTrainingExamples:
    def test_fixture_counts(self, fixture_index, gold_sentences):
        examples = build_training_examples(gold_sentences, fixture_index)
        assert len(examples) == 40
        positives = [e for e in examples if e.gate is GateDecision.NE]
        negatives = [e for e in examples if e.gate is GateDecision.O]
        assert len(positives) == 33
        assert len(negatives) == 7

    def test_positive_labels_match_gold(self, fixture_index, gold_sentences):
        examples = build_training_examples(gold_sentences, fixture_index)
        gold_types = set()
        for sentence in gold_sentences:
            for _, _, etype in span_extract(list(sentence.tags)):
                gold_types.add(etype)
        example_types = {e.entity_type for e in examples if e.entity_type is not None}
        assert example_types == gold_types

    def test_deterministic(self, fixture_index, gold_sentences):
        a = build_training_examples(gold_sentences, fixture_index)
        b = build_training_examples(gold_sentences, fixture_index)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.gate is y.gate and x.entity_type is y.entity_type
            assert x.rep == y.rep


class TestTagEl:
    def test_no_anchor_sentence_is_all_o(self, fixture_index, trained_model):
        tagged = tag_el(["zzz", "qqq", "vvv"], "x", fixture_index, trained_model)
        assert tagged.tags == ("O", "O", "O")

    def test_distractor_sentence_stays_o(self, fixture_index, trained_model, gold_sentences):
        distractor = next(s for s in gold_sentences if set(s.tags) == {"O"})
        tagged = tag_el(
            distractor.tokens, distractor.sentence_id, fixture_index, trained_model
        )
        assert tagged.tags == ("O",) * len(distractor)

    def test_recovers_gold_spans(self, fixture_index, trained_model, gold_sentences):
        hits = 0
        for sentence in gold_sentences[:6]:
            tagged = tag_el(
                sentence.tokens, sentence.sentence_id, fixture_index, trained_model
            )
            if tagged.tags == sentence.tags:
                hits += 1
        assert hits == 6

    def test_output_length_matches_input(self, fixture_index, trained_model):
        tokens = ["nokia", "made", "the", "nokia", "2010"]
        tagged = tag_el(tokens, "x", fixture_index, trained_model)
        assert len(tagged.tags) == len(tokens)
        assert tagged.tokens == tuple(tokens)


class TestTagDispatch:
    def test_long_sentence_uses_baseline(self, fixture_index, trained_model):
        tagger = train_baseline(per_token_fixture(), TrainingConfig(epochs=120), feature_dim=DIM)
        tokens = ["anna"] + ["filler"] * 11  # 12 tokens -> length route
        tagged = tag(tokens, "x", RouterConfig(11), fixture_index, trained_model, tagger)
        assert tagged.tags[0] == "B-PER"

    def test_threshold_zero_tags_one_token_with_baseline(self, fixture_index, trained_model):
        tagger = person_tagger()
        # "anna" is unknown to the index, so only the baseline tags it.
        tagged = tag(["anna"], "x", RouterConfig(threshold=0), fixture_index, trained_model, tagger)
        assert tagged.tags == ("B-PER",)
        assert tag(["anna"], "x", RouterConfig(11), fixture_index, trained_model, tagger).tags == ("O",)

    def test_short_sentence_uses_linking(self, fixture_index, trained_model):
        tagger = train_baseline(per_token_fixture(), TrainingConfig(epochs=120), feature_dim=DIM)
        # "anna" is a baseline-known PER but unknown to the index: the
        # linking path must be the one that runs here, leaving it O.
        tagged = tag(["anna", "sang"], "x", RouterConfig(11), fixture_index, trained_model, tagger)
        assert tagged.tags == ("O", "O")

    def test_baseline_route_without_tagger_rejected(self, fixture_index, trained_model):
        with pytest.raises(ValueError):
            tag(["w"] * 12, "x", RouterConfig(11), fixture_index, trained_model, None)

    def test_none_threshold_never_needs_tagger(self, fixture_index, trained_model):
        tagged = tag(["w"] * 30, "x", RouterConfig(None), fixture_index, trained_model, None)
        assert tagged.tags == ("O",) * 30

    def test_tag_sentences_alignment(self, fixture_index, trained_model, gold_sentences):
        subset = gold_sentences[:4]
        tagged = tag_sentences(subset, RouterConfig(None), fixture_index, trained_model, None)
        assert [t.sentence_id for t in tagged] == [s.sentence_id for s in subset]
        for out, src in zip(tagged, subset):
            assert out.tokens == src.tokens
            assert len(out.tags) == len(src.tokens)
