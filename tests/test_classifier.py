"""The gated two-head model: features, loss, gradients, training, persistence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracles import (
    batch_gradients,
    batch_loss,
    dense_model,
    hash_feature,
    one_row,
    oracle_featurize,
    oracle_fit,
    oracle_forward,
    oracle_head_logits,
    oracle_softmax,
    split_rows,
)

from linkrush.classifier import (
    ENTITY_TYPES,
    GATE_O,
    OTHER_CLASS,
    EntityType,
    GateDecision,
    MentionClassifier,
    SparseRows,
    TrainExample,
    TrainingConfig,
    WIKI_DIGEST_MEMO_SIZE,
    _KEY_SEP,
    _feature_digests,
    _fit,
    _rows_logits,
    _wiki_digests,
    decide,
    featurize,
    forward,
    load_model,
    loss,
    loss_single_head,
    predict,
    save_model,
    softmax,
    train,
)
from linkrush.errors import DataFormatError
from linkrush.mentions import Mention
from linkrush.representation import Representation, Segment, build_representation
from linkrush.tokenizer import normalize_token

DIM = 2**6  # small space keeps gradient loops cheap; collisions are fine


def make_rep(sentence, start, end, lead, max_len=64):
    mention = Mention(start, end, tuple(sentence[start:end]), 0, 1.0)
    return build_representation(sentence, mention, lead, max_len)


def random_rep(rng, vocab=("mill", "gate", "red", "old", "by", "the", "river")):
    n = int(rng.integers(2, 7))
    sentence = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=n)]
    start = int(rng.integers(0, n))
    end = int(rng.integers(start + 1, n + 1))
    lead = " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(0, 6))))
    return make_rep(sentence, start, end, lead)


def randomize(model, rng, scale=0.5):
    if model.W_bin is not None:
        model.W_bin[:] = rng.normal(0, scale, model.W_bin.shape)
        model.b_bin[:] = rng.normal(0, scale, model.b_bin.shape)
    model.W_type[:] = rng.normal(0, scale, model.W_type.shape)
    model.b_type[:] = rng.normal(0, scale, model.b_type.shape)
    return model


class TestFeaturize:
    def test_deterministic(self):
        rep = make_rep(["the", "red", "gate"], 1, 3, "an iron gate")
        a, b = featurize(rep, DIM), featurize(rep, DIM)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_unit_norm(self):
        rep = make_rep(["the", "red", "gate"], 1, 3, "an iron gate")
        vec = featurize(rep, DIM)
        assert float(vec.values @ vec.values) == pytest.approx(1.0, abs=1e-12)

    def test_indices_sorted_and_bounded(self):
        rep = make_rep(["a", "b", "c", "d"], 1, 2, "x y z")
        vec = featurize(rep, DIM)
        assert list(vec.indices) == sorted(set(int(i) for i in vec.indices))
        assert int(vec.indices[-1]) < DIM

    def test_page_text_changes_features(self):
        with_lead = featurize(make_rep(["a", "b"], 0, 1, "stone mill"), DIM)
        without = featurize(make_rep(["a", "b"], 0, 1, ""), DIM)
        assert not (
            np.array_equal(with_lead.indices, without.indices)
            and np.array_equal(with_lead.values, without.values)
        )

    def test_segment_matters(self):
        # same surface token as mention vs as context must hash apart
        a = featurize(make_rep(["x", "y"], 0, 1, ""), DIM)
        b = featurize(make_rep(["x", "y"], 1, 2, ""), DIM)
        assert not np.array_equal(a.indices, b.indices)

    def test_dim_must_be_power_of_two(self):
        rep = make_rep(["a"], 0, 1, "")
        with pytest.raises(ValueError):
            featurize(rep, 100)


# Feature keys and their hashes, at 64 bits and at the default 2**18.
# Saved models index their weights by these values: a change to any of
# them (or to a Segment's string value) makes every saved model wrong.
HASH_PINS = [
    (("CLS", "[CLS]"), 2857469377363809864, 235080),
    (("CTX_L", "the"), 2118519864010423175, 211847),
    (("MENTION", "nokia"), 9974452447188207871, 116991),
    (("CTX_R", "river"), 2076542076208431079, 147431),
    (("WIKI", "company"), 12640123069685321502, 20254),
    (("SEP", "[SEP]"), 5360444218687503275, 146347),
    (("WIKI", "mobile", "phones"), 3941525753244179880, 23976),
    (("w-3", "[EDGE]"), 8502421697107990300, 136988),
    (("WIKI", "istanbul"), 11019767919271557053, 79805),
    (("MENTION", "zürich"), 14968068078130680272, 250320),
]


class TestFeatureHashPins:
    def test_segment_values(self):
        assert {s.name: s.value for s in Segment} == {
            "CLS": "CLS", "CTX_L": "CTX_L", "MENTION": "MENTION",
            "CTX_R": "CTX_R", "WIKI": "WIKI", "SEP": "SEP",
        }

    def test_hash_feature_values(self):
        assert normalize_token("İSTANBUL", turkish=True) == "istanbul"
        for parts, full, default in HASH_PINS:
            assert hash_feature(parts, 2**64) == full
            assert hash_feature(parts, 2**18) == default == full & (2**18 - 1)

    def test_feature_digests_values(self):
        digests = _feature_digests([_KEY_SEP.join(parts) for parts, _, _ in HASH_PINS])
        assert digests.dtype == np.dtype("<u8")
        assert digests.tolist() == [full for _, full, _ in HASH_PINS]
        masked = digests & np.uint64(2**18 - 1)
        assert masked.tolist() == [default for _, _, default in HASH_PINS]


def assert_same_vector(got, want):
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.values.dtype == want.values.dtype == np.float64
    assert got.values.tobytes() == want.values.tobytes()


class TestFeaturizeMatchesOracle:
    """`featurize` (memoised WIKI digests, one `np.unique`) against the
    per-feature `hash_feature` loop of `oracles.oracle_featurize`: the same
    index and value bytes."""

    def test_random_reps_and_dims(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            rep = random_rep(rng)
            for dim in (2**3, DIM, 2**18):
                assert_same_vector(featurize(rep, dim), oracle_featurize(rep, dim))

    def test_edge_cases(self):
        lead = "an old stone mill by the river , with a gate"
        truncated = make_rep(["the", "mill", "stands"], 1, 2, lead, max_len=12)
        assert 0 < truncated.segments.count(Segment.WIKI) < 11
        empty_lead = make_rep(["the", "mill"], 1, 2, "")
        no_wiki = Representation(
            ("[CLS]", "the", "[SEP]", "mill", "[SEP]"),
            (Segment.CLS, Segment.CTX_L, Segment.SEP, Segment.MENTION, Segment.SEP),
        )
        nothing = Representation((), ())
        for rep in (truncated, make_rep(["the", "mill"], 1, 2, lead), empty_lead, no_wiki, nothing):
            for dim in (2**3, 2**18):
                assert_same_vector(featurize(rep, dim), oracle_featurize(rep, dim))
        assert Segment.WIKI not in empty_lead.segments

    def test_memo_is_bounded_and_read_only(self):
        _wiki_digests.cache_clear()
        assert _wiki_digests.cache_info().maxsize == WIKI_DIGEST_MEMO_SIZE
        first = make_rep(["a", "b"], 0, 1, "lead 0 words")
        want = oracle_featurize(first, DIM)
        for i in range(WIKI_DIGEST_MEMO_SIZE + 50):
            featurize(make_rep(["a", "b"], 0, 1, f"lead {i} words"), DIM)
            assert _wiki_digests.cache_info().currsize <= WIKI_DIGEST_MEMO_SIZE
        assert _wiki_digests.cache_info().currsize == WIKI_DIGEST_MEMO_SIZE
        # The first lead was evicted; hashing it again gives the same vector.
        assert_same_vector(featurize(first, DIM), want)
        digests = _wiki_digests(("lead", "0", "words"))
        assert not digests.flags.writeable
        with pytest.raises(ValueError):
            digests[0] = 0


class TestForward:
    def test_zero_weights_give_uniform_heads(self):
        model = MentionClassifier.zeros(DIM)
        rep = make_rep(["a", "b"], 0, 1, "c")
        p_bin, p_type = forward(model, featurize(rep, DIM))
        assert p_bin.shape == (1, 2) and p_type.shape == (1, 6)
        assert p_bin[0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert p_type[0] == pytest.approx([1 / 6] * 6, abs=1e-12)

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            model = randomize(MentionClassifier.zeros(DIM), rng, scale=2.0)
            p_bin, p_type = forward(model, featurize(random_rep(rng), DIM))
            assert float(p_bin.sum()) == pytest.approx(1.0, abs=1e-9)
            assert float(p_type.sum()) == pytest.approx(1.0, abs=1e-9)
            assert (p_bin >= 0).all() and (p_type >= 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        model = randomize(MentionClassifier.zeros(DIM), rng)
        x = featurize(random_rep(rng), DIM)
        p_bin, p_type = forward(model, x)
        model.b_type += 7.5  # constant shift of every type logit
        _, shifted = forward(model, x)
        assert shifted == pytest.approx(p_type, abs=1e-12)

    def test_single_head_shape(self):
        model = MentionClassifier.zeros(DIM, single_head=True)
        p_bin, p_type = forward(model, featurize(make_rep(["a"], 0, 1, ""), DIM))
        assert p_bin is None
        assert p_type.shape == (1, 7)
        assert p_type[0] == pytest.approx([1 / 7] * 7, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = MentionClassifier.zeros(DIM)
        big = featurize(make_rep(["a"], 0, 1, ""), 2**10)
        assert int(big.indices[-1]) >= DIM
        with pytest.raises(ValueError, match="exceeds model dimension"):
            forward(model, big)
        rows = SparseRows.stack([featurize(make_rep(["a"], 0, 1, ""), DIM), big])
        with pytest.raises(ValueError, match="exceeds model dimension"):
            forward(model, rows)

    def test_rows_score_like_one_row_each(self):
        """A stack of rows gets, row for row, the probability bytes of the
        dense one-row oracle: the batched softmax is the 1-D one."""
        rng = np.random.default_rng(14)
        for single_head in (False, True):
            model = randomize(MentionClassifier.zeros(DIM, single_head=single_head), rng, 3.0)
            singles = [featurize(random_rep(rng), DIM) for _ in range(40)]
            p_bin, p_type = forward(model, SparseRows.stack(singles))
            assert p_type.shape == (40, 7 if single_head else 6)
            for row, x in enumerate(singles):
                want_bin, want_type = oracle_forward(model, x)
                assert p_type[row].tobytes() == want_type.tobytes()
                if single_head:
                    assert p_bin is None
                else:
                    assert p_bin[row].tobytes() == want_bin.tobytes()

    def test_softmax_rows_equal_the_one_dimensional_form(self):
        rng = np.random.default_rng(15)
        for width in (2, 6, 7):
            logits = rng.normal(0.0, 8.0, (2000, width))
            got = softmax(logits)
            for row, want in zip(got, logits):
                assert row.tobytes() == oracle_softmax(want).tobytes()
            assert softmax(logits[0]).tobytes() == got[0].tobytes()


class TestLoss:
    def test_uniform_two_head_analytic_value(self):
        p_bin = np.array([0.5, 0.5])
        p_type = np.full(6, 1 / 6)
        value = loss(p_bin, p_type, GateDecision.NE, EntityType.PER)
        assert value == pytest.approx(math.log(2) + math.log(6), abs=1e-6)

    def test_correct_one_hot_is_free(self):
        p_bin = np.array([0.0, 1.0])  # certain O
        value = loss(p_bin, np.full(6, 1 / 6), GateDecision.O, None)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_additivity_on_entities(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p_bin = rng.dirichlet([1, 1])
            p_type = rng.dirichlet([1] * 6)
            etype = ENTITY_TYPES[int(rng.integers(0, 6))]
            total = loss(p_bin, p_type, GateDecision.NE, etype)
            parts = -math.log(p_bin[0]) + -math.log(p_type[ENTITY_TYPES.index(etype)])
            assert total == pytest.approx(parts, abs=1e-12)

    def test_non_entity_ignores_type_head(self):
        p_bin = np.array([0.3, 0.7])
        a = loss(p_bin, np.array([1.0, 0, 0, 0, 0, 0]), GateDecision.O, None)
        b = loss(p_bin, np.full(6, 1 / 6), GateDecision.O, None)
        assert a == b

    def test_label_validation(self):
        p_bin, p_type = np.array([0.5, 0.5]), np.full(6, 1 / 6)
        with pytest.raises(ValueError):
            loss(p_bin, p_type, GateDecision.O, EntityType.PER)
        with pytest.raises(ValueError):
            loss(p_bin, p_type, GateDecision.NE, None)

    def test_single_head_uniform_is_ln7(self):
        assert loss_single_head(np.full(7, 1 / 7), 3) == pytest.approx(
            math.log(7), abs=1e-6
        )


class TestGradients:
    @staticmethod
    def fd_check(model, feats, labels, rng, step=1e-6, tol=1e-5, sample=40):
        value, grads = batch_gradients(model, feats, labels)
        arrays = {"W_type": model.W_type, "b_type": model.b_type}
        if not model.single_head:
            arrays.update(W_bin=model.W_bin, b_bin=model.b_bin)
        for name, arr in arrays.items():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            nonzero = np.flatnonzero(gflat)
            zero = np.setdiff1d(np.arange(flat.size), nonzero)
            picks = list(nonzero[:sample]) + list(zero[:5])
            for i in picks:
                original = flat[i]
                flat[i] = original + step
                up = batch_loss(model, feats, labels)
                flat[i] = original - step
                down = batch_loss(model, feats, labels)
                flat[i] = original
                fd = (up - down) / (2 * step)
                scale = max(abs(fd), abs(gflat[i]), 1e-8)
                assert abs(fd - gflat[i]) / scale <= tol, (name, i, fd, gflat[i])

    def test_two_head_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            model = randomize(MentionClassifier.zeros(DIM), rng)
            feats, labels = [], []
            for _ in range(3):
                feats.append(featurize(random_rep(rng), DIM))
                if rng.random() < 0.4:
                    labels.append((GateDecision.O, None))
                else:
                    labels.append((GateDecision.NE, ENTITY_TYPES[int(rng.integers(0, 6))]))
            self.fd_check(model, feats, labels, rng)

    def test_single_head_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            model = randomize(MentionClassifier.zeros(DIM, single_head=True), rng)
            feats = [featurize(random_rep(rng), DIM) for _ in range(3)]
            labels = [int(rng.integers(0, 7)) for _ in range(3)]
            self.fd_check(model, feats, labels, rng)


def separable_examples():
    """Twelve mentions whose surface token alone decides the label."""
    examples = []
    surfaces = {
        "alpha": EntityType.PER, "bravo": EntityType.LOC, "carol": EntityType.GRP,
        "delta": EntityType.CORP, "echo": EntityType.PROD, "frank": EntityType.CW,
    }
    for i, (word, etype) in enumerate(surfaces.items()):
        sentence = ["the", word, "appeared", f"ctx{i}"]
        examples.append(
            TrainExample(make_rep(sentence, 1, 2, f"page about {word}"), GateDecision.NE, etype)
        )
    for i, word in enumerate(["gravel", "hay", "ice", "jam", "kelp", "loam"]):
        sentence = ["some", word, "remained", f"ctx{i + 6}"]
        examples.append(
            TrainExample(make_rep(sentence, 1, 2, f"notes on {word}"), GateDecision.O, None)
        )
    return examples


class TestTrain:
    def test_memorizes_separable_fixture(self):
        examples = separable_examples()
        model = train(examples, TrainingConfig(epochs=200), feature_dim=2**12)
        for example in examples:
            assert predict(model, example.rep) == example.entity_type
        assert model.epoch_losses[-1] <= model.epoch_losses[0]

    def test_single_head_memorizes_too(self):
        examples = separable_examples()
        model = train(
            examples, TrainingConfig(epochs=200), feature_dim=2**12, single_head=True
        )
        assert model.single_head
        for example in examples:
            assert predict(model, example.rep) == example.entity_type

    def test_same_seed_bitwise_identical(self):
        examples = separable_examples()
        config = TrainingConfig(epochs=20, seed=9)
        a = train(examples, config, feature_dim=DIM)
        b = train(examples, config, feature_dim=DIM)
        assert np.array_equal(a.W_bin, b.W_bin)
        assert np.array_equal(a.b_bin, b.b_bin)
        assert np.array_equal(a.W_type, b.W_type)
        assert np.array_equal(a.b_type, b.b_type)

    def test_different_seed_differs(self):
        examples = separable_examples()
        a = train(examples, TrainingConfig(epochs=20, seed=1), feature_dim=DIM)
        b = train(examples, TrainingConfig(epochs=20, seed=2), feature_dim=DIM)
        assert not np.array_equal(a.W_type, b.W_type)

    def test_zero_learning_rate_is_identity(self):
        examples = separable_examples()
        model = train(examples, TrainingConfig(learning_rate=0.0, epochs=5), feature_dim=DIM)
        assert not model.W_type.any()
        assert not model.b_type.any()
        assert not model.W_bin.any()

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainingConfig())

    def test_weights_stay_finite(self):
        examples = separable_examples()
        model = train(examples, TrainingConfig(epochs=50, learning_rate=5.0), feature_dim=DIM)
        assert np.isfinite(model.W_type).all()
        assert np.isfinite(model.W_bin).all()


def random_training_problem(rng, dim, single_head, tie_prone):
    """20 to 120 one-row feature sets of up to 29 features, normalized
    counts in {1, 2, 3} when `tie_prone` (so rows repeat values and
    columns), and their labels: 7-way classes, or gate and type labels
    with about 40% non-entities."""
    rows = []
    for _ in range(int(rng.integers(20, 121))):
        indices = np.unique(rng.integers(0, dim, int(rng.integers(1, min(dim, 30)))))
        if tie_prone:
            counts = rng.integers(1, 4, len(indices)).astype(np.float64)
        else:
            counts = rng.random(len(indices)) + 0.01
        rows.append(one_row(indices.astype(np.int64), counts / math.sqrt(float(counts @ counts))))
    if single_head:
        return rows, [int(c) for c in rng.integers(0, 7, len(rows))]
    labels = [
        (GateDecision.O, None) if rng.random() < 0.4
        else (GateDecision.NE, ENTITY_TYPES[int(rng.integers(0, 6))])
        for _ in rows
    ]
    return rows, labels


def assert_fit_equals_oracle(rows, labels, config, dim, single_head):
    fast = MentionClassifier.zeros(dim, single_head=single_head)
    slow = MentionClassifier.zeros(dim, single_head=single_head)
    got = _fit(fast, SparseRows.stack(rows), labels, config)
    want = oracle_fit(slow, rows, labels, config)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    for name in ("W_type", "b_type") + (() if single_head else ("W_bin", "b_bin")):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name


class TestFitMatchesOracle:
    """`_fit` scores a mini-batch with one `forward` and applies its
    updates with `np.subtract.at`; `oracles.oracle_fit`, the per-example
    loop, must give the same weight, bias and epoch-loss bytes."""

    def test_seeded_grid(self):
        rng = np.random.default_rng(16)
        problems = 0
        for dim in (8, 64, 4096):
            for batch_size in (1, 3, 32, 1000):
                for single_head in (False, True):
                    for learning_rate in (0.1, 1.0, 3.0):
                        for tie_prone in (False, True):
                            rows, labels = random_training_problem(rng, dim, single_head, tie_prone)
                            config = TrainingConfig(
                                learning_rate=learning_rate, epochs=3, batch_size=batch_size,
                                seed=int(rng.integers(1000)),
                            )
                            assert_fit_equals_oracle(rows, labels, config, dim, single_head)
                            problems += 1
        assert problems == 144

    def test_featurized_examples(self):
        examples = separable_examples()
        rows = [featurize(e.rep, DIM) for e in examples]
        for single_head in (False, True):
            if single_head:
                labels = [OTHER_CLASS if e.entity_type is None else ENTITY_TYPES.index(e.entity_type)
                          for e in examples]
            else:
                labels = [(e.gate, e.entity_type) for e in examples]
            for batch_size in (1, 5, 32):
                config = TrainingConfig(epochs=6, batch_size=batch_size, seed=batch_size)
                assert_fit_equals_oracle(rows, labels, config, DIM, single_head)

    def test_non_entity_leaves_type_head_alone(self):
        """Only non-entities: the type head, -0.0 weights included, keeps
        its bits, while the gate head learns."""
        model = MentionClassifier.zeros(DIM)
        model.W_type[:] = -0.0
        model.b_type[:] = -0.0
        rows = [featurize(e.rep, DIM) for e in separable_examples()]
        _fit(model, SparseRows.stack(rows), [(GateDecision.O, None)] * len(rows),
             TrainingConfig(epochs=3, batch_size=4))
        assert model.W_type.view("<u8").tobytes() == np.full_like(model.W_type, -0.0).view("<u8").tobytes()
        assert model.b_type.view("<u8").tobytes() == np.full(6, -0.0).view("<u8").tobytes()
        assert model.W_bin.any()


class TestSparseRows:
    def test_stack_and_take(self):
        rng = np.random.default_rng(17)
        singles = [featurize(random_rep(rng), DIM) for _ in range(12)]
        stacked = SparseRows.stack(singles)
        assert len(stacked) == 12 and stacked.nnz == sum(x.nnz for x in singles)
        assert stacked.indptr.tolist() == np.cumsum([0] + [x.nnz for x in singles]).tolist()
        for got, want in zip(split_rows(stacked), singles):
            assert_same_vector(got, want)
        order = np.array([5, 0, 11, 5, 3])
        taken = stacked.take(order)
        assert len(taken) == len(order)
        for got, i in zip(split_rows(taken), order):
            assert_same_vector(got, singles[i])
        assert len(stacked.take(np.array([], dtype=np.int64))) == 0

    def test_featurize_returns_one_row(self):
        x = featurize(make_rep(["a", "b"], 0, 1, "c d"), DIM)
        assert len(x) == 1 and x.indptr.tolist() == [0, x.nnz] and x.nnz == len(x.values)


class TestGate:
    def test_gate_vetoes_type_head(self):
        p_bin = np.array([0.1, 0.9])  # O wins
        p_type = np.zeros(6)
        p_type[ENTITY_TYPES.index(EntityType.PER)] = 1.0
        assert decide(p_bin, p_type) is None

    def test_pass_through_when_entity(self):
        p_bin = np.array([0.9, 0.1])
        p_type = np.zeros(6)
        p_type[ENTITY_TYPES.index(EntityType.CW)] = 1.0
        assert decide(p_bin, p_type) is EntityType.CW

    def test_random_property(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            p_bin = rng.dirichlet([1.0, 1.0])
            p_type = rng.dirichlet([1.0] * 6)
            result = decide(p_bin, p_type)
            if int(np.argmax(p_bin)) == GATE_O:
                assert result is None
            else:
                assert result is ENTITY_TYPES[int(np.argmax(p_type))]

    def test_exact_tie_resolves_to_entity(self):
        p_bin = np.array([0.5, 0.5])
        p_type = np.full(6, 1 / 6)
        assert decide(p_bin, p_type) is EntityType.PER  # lowest type index

    def test_single_head_other_class(self):
        p = np.zeros(7)
        p[OTHER_CLASS] = 1.0
        assert decide(None, p) is None
        p = np.zeros(7)
        p[2] = 1.0
        assert decide(None, p) is ENTITY_TYPES[2]

    def test_predict_consistent_with_decide(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            model = randomize(MentionClassifier.zeros(DIM), rng, scale=2.0)
            rep = random_rep(rng)
            p_bin, p_type = forward(model, featurize(rep, DIM))
            assert predict(model, rep) == decide(p_bin[0], p_type[0])


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(10)
        model = randomize(MentionClassifier.zeros(DIM), rng)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = dense_model(load_model(path))
        assert loaded.feature_dim == DIM
        assert loaded.single_head is False
        assert np.array_equal(loaded.W_bin, model.W_bin)
        assert np.array_equal(loaded.b_bin, model.b_bin)
        assert np.array_equal(loaded.W_type, model.W_type)
        assert np.array_equal(loaded.b_type, model.b_type)

    def test_variant_flag_persists(self, tmp_path):
        model = MentionClassifier.zeros(DIM, single_head=True)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.single_head is True
        assert loaded.W_bin is None
        assert dense_model(loaded).W_type.shape == (7, DIM)

    def test_save_deterministic(self, tmp_path):
        model = MentionClassifier.zeros(DIM)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        model = MentionClassifier.zeros(DIM)
        path = tmp_path / "m.bin"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(DataFormatError, match="truncated"):
            load_model(path)

    def test_loss_curve_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        examples = [
            TrainExample(random_rep(rng), GateDecision.NE, ENTITY_TYPES[i % 6]) for i in range(8)
        ] + [TrainExample(random_rep(rng), GateDecision.O, None) for _ in range(3)]
        for single_head in (False, True):
            model = train(examples, TrainingConfig(epochs=4), feature_dim=DIM, single_head=single_head)
            path = tmp_path / f"m{int(single_head)}.bin"
            save_model(model, path)
            loaded = load_model(path)
            assert len(model.epoch_losses) == 4
            assert loaded.epoch_losses == model.epoch_losses
            assert loaded.turkish is False

    def test_wrong_container_kind_rejected(self, tmp_path):
        from linkrush.classifier import save_window_tagger

        path = tmp_path / "t.bin"
        save_window_tagger(MentionClassifier.zeros(DIM, single_head=True), path)
        with pytest.raises(DataFormatError, match="expected a mention_classifier"):
            load_model(path)

    def test_prediction_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(12)
        model = randomize(MentionClassifier.zeros(DIM), rng)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(20):
            rep = random_rep(rng)
            assert predict(model, rep) == predict(loaded, rep)


def compact_prone_model(rng, kind, dim, single_head):
    """A model whose weights are zero outside a third of its columns:
    Gaussian, tie-prone {-1, 0, 1} with zero biases, or Gaussian with
    -0.0 in place of a third of the weights, in every weight of a quarter
    of those columns and in the biases."""
    model = MentionClassifier.zeros(dim, single_head=single_head)
    used = rng.choice(dim, size=max(2, min(dim // 3, 400)), replace=False)
    for W, b in [(model.W_type, model.b_type), (model.W_bin, model.b_bin)][: 1 if single_head else 2]:
        if kind == "ternary":
            W[:, used] = rng.integers(-1, 2, size=(len(W), len(used)))
            continue
        values = rng.standard_normal((len(W), len(used)))
        b[:] = rng.standard_normal(len(b))
        if kind == "negative-zero":
            values[rng.random(values.shape) < 1 / 3] = -0.0
            values[:, : len(used) // 4] = -0.0
            b[:] = -0.0
        W[:, used] = values
    return model


def random_features(rng, dim, count, touched=()):
    """`count` one-row `SparseRows` of one to twelve positive values, at
    columns drawn uniformly from all `dim` or, half the time when given,
    from `touched`."""
    vectors = []
    for _ in range(count):
        size = int(rng.integers(1, 13))
        indices = rng.integers(0, dim, size=size)
        if len(touched):
            indices = np.where(rng.random(size) < 0.5, rng.choice(touched, size=size), indices)
        indices = np.unique(indices)
        vectors.append(one_row(indices.astype(np.int64), rng.random(len(indices)) + 0.01))
    return vectors


class TestCompactModels:
    """A saved model keeps only its touched columns, and a loaded one
    gathers through its column map into a compact matrix. Its logits must
    have the bytes of the dense gather `oracles.oracle_head_logits` over
    the weights that were saved, through `forward` and through every
    `_rows_logits` row, for features of touched and untouched columns."""

    KINDS = ("gaussian", "ternary", "negative-zero")

    def test_loaded_logits_equal_dense_oracle(self, tmp_path):
        rng = np.random.default_rng(22)
        path = tmp_path / "m.bin"
        for dim in (2**18, 8):
            for kind in self.KINDS:
                for single_head in (False, True):
                    model = compact_prone_model(rng, kind, dim, single_head)
                    save_model(model, path)
                    loaded = load_model(path)
                    heads = [("W_type", "b_type")] + ([] if single_head else [("W_bin", "b_bin")])
                    touched = np.zeros(dim, dtype=bool)
                    for W_name, _ in heads:
                        touched |= (getattr(model, W_name).view("<u8") != 0).any(axis=0)
                    assert loaded.W_type.shape == (len(model.b_type), touched.sum() + 1)
                    assert (loaded.columns[~touched] == touched.sum()).all()
                    vectors = random_features(rng, dim, 40, np.flatnonzero(touched))
                    rows = SparseRows.stack(vectors)
                    hit = loaded.columns[rows.indices]
                    assert (hit == touched.sum()).any() and (hit < touched.sum()).any()
                    for W_name, b_name in heads:
                        W, b = getattr(model, W_name), getattr(model, b_name)
                        args = getattr(loaded, W_name), getattr(loaded, b_name), loaded.columns
                        want = [oracle_head_logits(W, b, x) for x in vectors]
                        for x, logits in zip(vectors, want):
                            assert _rows_logits(*args, x).tobytes() == logits[None].tobytes()
                        assert _rows_logits(*args, rows).tobytes() == np.stack(want).tobytes()
                    for x in vectors:
                        p_bin, p_type = forward(loaded, x)
                        want = oracle_softmax(oracle_head_logits(model.W_type, model.b_type, x))
                        assert p_type.tobytes() == want[None].tobytes()
                        if single_head:
                            assert p_bin is None
                        else:
                            want = oracle_softmax(oracle_head_logits(model.W_bin, model.b_bin, x))
                            assert p_bin.tobytes() == want[None].tobytes()

    def test_weight_bits_round_trip(self, tmp_path):
        """Every weight comes back with its bits, -0.0 included, and an
        all-zero model stores no column."""
        rng = np.random.default_rng(23)
        path = tmp_path / "m.bin"
        models = [compact_prone_model(rng, kind, 64, False) for kind in self.KINDS]
        for model in models + [MentionClassifier.zeros(64)]:
            save_model(model, path)
            loaded = dense_model(load_model(path))
            for name in ("W_bin", "b_bin", "W_type", "b_type"):
                want = getattr(model, name)
                assert getattr(loaded, name).view("<u8").tobytes() == want.view("<u8").tobytes()
        assert load_model(path).W_type.shape == (6, 1)

    def test_every_column_touched_round_trips(self, tmp_path):
        rng = np.random.default_rng(24)
        path = tmp_path / "m.bin"
        for dim in (8, DIM):
            model = randomize(MentionClassifier.zeros(dim), rng)
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.W_type.shape == (6, dim + 1)
            assert np.array_equal(loaded.columns, np.arange(dim))
            dense = dense_model(loaded)
            for name in ("W_bin", "b_bin", "W_type", "b_type"):
                assert getattr(dense, name).tobytes() == getattr(model, name).tobytes()
            for x in random_features(rng, dim, 20):
                for got, want in zip(forward(loaded, x), forward(model, x)):
                    assert got.tobytes() == want.tobytes()

    def test_a_loaded_model_is_not_trained(self, tmp_path):
        """Training updates columns in place, so it takes a dense model
        only: in a compact one, the untouched features share a column."""
        path = tmp_path / "m.bin"
        save_model(compact_prone_model(np.random.default_rng(25), "gaussian", DIM, False), path)
        x = featurize(random_rep(np.random.default_rng(26)), DIM)
        with pytest.raises(ValueError, match="dense"):
            _fit(load_model(path), x, [(GateDecision.NE, EntityType.PER)], TrainingConfig(epochs=1))


def test_train_example_validation():
    rep = make_rep(["a"], 0, 1, "")
    with pytest.raises(ValueError):
        TrainExample(rep, GateDecision.NE, None)
    with pytest.raises(ValueError):
        TrainExample(rep, GateDecision.O, EntityType.PER)
