"""Acceptance gate: ten pinned criteria, each reporting one pass/fail line.

Every criterion prints `PASS`/`FAIL criterion N: ...` in the terminal
summary (see conftest.pytest_terminal_summary). Tolerances here are the
contract; they must not be loosened.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import conftest
from linkrush.classifier import (
    ENTITY_TYPES,
    GATE_O,
    EntityType,
    GateDecision,
    MentionClassifier,
    TrainingConfig,
    batch_gradients,
    batch_loss,
    decide,
    featurize,
    forward,
    load_model,
    loss,
    predict,
    train,
)
from linkrush.cli import main as cli_main
from linkrush.ensemble import (
    Route,
    RouterConfig,
    load_window_tagger,
    route,
    train_baseline,
)
from linkrush.evaluation import (
    TaggedSentence,
    evaluate,
    read_conll,
    span_extract,
    write_conll,
)
from linkrush.index import FIELD_NAMES, CorpusIndex, build_field_index, search_tokens
from linkrush.mentions import Mention, link_sentence, resolve_overlaps
from linkrush.representation import build_representation
from linkrush.tokenizer import normalize_token

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, label: str):
    """Record one acceptance line; failures re-raise after being logged."""
    detail = {"text": label}
    try:
        yield detail
    except BaseException as exc:
        conftest.ACCEPTANCE_LINES.append(
            f"FAIL criterion {number:2d}: {detail['text']} [{type(exc).__name__}]"
        )
        raise
    conftest.ACCEPTANCE_LINES.append(f"PASS criterion {number:2d}: {detail['text']}")


# --------------------------------------------------------------------------
# 1. ranking matches an independent exhaustive scorer


def oracle_search(token_docs, query_terms, k):
    """Reference ranker: score every document directly from first principles."""
    n = len(token_docs)
    lengths = [len(d) for d in token_docs]
    avg = sum(lengths) / n
    counters = [Counter(d) for d in token_docs]
    distinct: list[str] = []
    for term in query_terms:
        if term not in distinct:
            distinct.append(term)
    df = {t: sum(1 for c in counters if t in c) for t in distinct}
    results = []
    for doc_id in range(n):
        score = 0.0
        for term in distinct:
            tf = counters[doc_id].get(term, 0)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            norm = 1.0 - 0.75 + 0.75 * (lengths[doc_id] / avg)
            score += idf * tf * (1.2 + 1.0) / (tf + 1.2 * norm)
        if score > 0.0:
            results.append((doc_id, score))
    results.sort(key=lambda pair: (-pair[1], pair[0]))
    return results[:k]


def test_criterion_01_ranking_matches_exhaustive_scorer():
    with criterion(1, "ranking matches an exhaustive scorer") as detail:
        rng = np.random.default_rng(101)
        vocab = [f"w{i:02d}" for i in range(12)]
        started = time.monotonic()
        max_diff = 0.0
        queries_run = 0
        for _ in range(20):
            n_docs = int(rng.integers(2, 51))
            # distinct lengths rule out accidental exact score ties
            lengths = rng.choice(np.arange(1, 3 * n_docs + 10), size=n_docs, replace=False)
            token_docs = [
                [vocab[int(j)] for j in rng.integers(0, len(vocab), size=int(length))]
                for length in lengths
            ]
            field = build_field_index("all_text", token_docs)
            for _ in range(100):
                terms = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=int(rng.integers(1, 6)))]
                if rng.random() < 0.2:
                    terms.append("absent-term")
                k = int(rng.choice([1, 3, n_docs, 2 * n_docs]))
                got = search_tokens(field, terms, k)
                want = oracle_search(token_docs, terms, k)
                assert [d for d, _ in got] == [d for d, _ in want]
                for (_, gs), (_, ws) in zip(got, want):
                    diff = abs(gs - ws)
                    max_diff = max(max_diff, diff)
                    assert diff <= 1e-9
                queries_run += 1
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        detail["text"] = (
            f"ranking matches an exhaustive scorer on {queries_run} queries "
            f"(max score diff {max_diff:.2e}, {elapsed:.1f}s)"
        )


# --------------------------------------------------------------------------
# 2. pooling never loses recall relative to any single field


def _dataset_recall(gold_sentences, index, fields):
    total = 0
    hits = 0
    for sentence in gold_sentences:
        gold_spans = {(s, e) for s, e, _ in span_extract(sentence.tags)}
        if not gold_spans:
            continue
        normalized = [normalize_token(t) for t in sentence.tokens]
        detected = {
            (m.start, m.end)
            for m in link_sentence(normalized, index, fields=fields)
        }
        total += len(gold_spans)
        hits += len(gold_spans & detected)
    return hits / total


def test_criterion_02_pooling_recall_dominates_single_fields(
    fixture_index, gold_sentences
):
    with criterion(2, "pooled recall dominates every single field") as detail:
        pooled = _dataset_recall(gold_sentences, fixture_index, None)
        singles = {
            name: _dataset_recall(gold_sentences, fixture_index, (name,))
            for name in FIELD_NAMES
        }
        for name, value in singles.items():
            assert pooled >= value, (name, value, pooled)
        parts = ", ".join(f"{name} {value:.3f}" for name, value in singles.items())
        detail["text"] = (
            f"pooled recall {pooled:.3f} >= every single field ({parts})"
        )


# --------------------------------------------------------------------------
# 3. overlap resolution: non-overlapping, order-independent, maximal


def test_criterion_03_overlap_resolution_properties():
    with criterion(3, "overlap resolution properties") as detail:
        rng = np.random.default_rng(103)
        cases = 1200
        for _ in range(cases):
            n = int(rng.integers(0, 13))
            matches = []
            for _ in range(n):
                start = int(rng.integers(0, 16))
                length = int(rng.integers(1, 5))
                score = round(float(rng.uniform(0, 5)), 1)  # coarse -> real ties
                doc_id = int(rng.integers(0, 6))
                surface = tuple(f"t{start + j}" for j in range(length))
                matches.append(Mention(start, start + length, surface, doc_id, score))
            kept = resolve_overlaps(list(matches))

            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    assert not a.overlaps(b)

            shuffled = [matches[int(i)] for i in rng.permutation(len(matches))]
            assert resolve_overlaps(shuffled) == kept

            order = sorted(
                matches, key=lambda m: (-m.length, -m.pooled_score, m.start, m.doc_id)
            )
            kept_set = set(kept)
            for position, m in enumerate(order):
                if m in kept_set:
                    continue
                blockers = [
                    other
                    for other in order[:position]
                    if other in kept_set and other.overlaps(m)
                ]
                assert blockers, f"dropped with no higher-priority blocker: {m}"
        detail["text"] = (
            f"overlap resolution on {cases} random cases: non-overlapping, "
            "order-independent, greedily maximal"
        )


# --------------------------------------------------------------------------
# 4. analytic gradients match central finite differences


def _random_instance(rng, feature_dim):
    model = MentionClassifier.zeros(feature_dim)
    model.W_bin[:] = rng.normal(0, 0.7, model.W_bin.shape)
    model.b_bin[:] = rng.normal(0, 0.7, model.b_bin.shape)
    model.W_type[:] = rng.normal(0, 0.7, model.W_type.shape)
    model.b_type[:] = rng.normal(0, 0.7, model.b_type.shape)
    vocab = ["mill", "gate", "red", "old", "inn", "by", "the"]
    feats, labels = [], []
    for _ in range(int(rng.integers(2, 5))):
        n = int(rng.integers(2, 6))
        sentence = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=n)]
        start = int(rng.integers(0, n))
        end = int(rng.integers(start + 1, n + 1))
        lead = " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=3))
        mention = Mention(start, end, tuple(sentence[start:end]), 0, 1.0)
        rep = build_representation(sentence, mention, lead, 64)
        feats.append(featurize(rep, feature_dim))
        if rng.random() < 0.4:
            labels.append((GateDecision.O, None))
        else:
            labels.append((GateDecision.NE, ENTITY_TYPES[int(rng.integers(0, 6))]))
    return model, feats, labels


def test_criterion_04_gradients_match_finite_differences():
    with criterion(4, "gradient finite-difference check") as detail:
        rng = np.random.default_rng(104)
        feature_dim = 32
        step = 1e-6
        worst = 0.0
        for _ in range(50):
            model, feats, labels = _random_instance(rng, feature_dim)
            _, grads = batch_gradients(model, feats, labels)
            touched = sorted({int(i) for f in feats for i in f.indices})
            spot_checks = {
                "W_bin": (model.W_bin, touched + [0, feature_dim - 1]),
                "b_bin": (model.b_bin, range(2)),
                "W_type": (model.W_type, touched + [0, feature_dim - 1]),
                "b_type": (model.b_type, range(6)),
            }
            for name, (arr, cols) in spot_checks.items():
                grad = grads[name]
                if arr.ndim == 1:
                    coords = [(i,) for i in cols]
                else:
                    coords = [(r, c) for r in range(arr.shape[0]) for c in cols]
                for coord in coords:
                    original = arr[coord]
                    arr[coord] = original + step
                    up = batch_loss(model, feats, labels)
                    arr[coord] = original - step
                    down = batch_loss(model, feats, labels)
                    arr[coord] = original
                    fd = (up - down) / (2 * step)
                    analytic = grad[coord]
                    rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8)
                    worst = max(worst, rel)
                    assert rel <= 1e-5, (name, coord, fd, analytic)
        detail["text"] = (
            f"gradients match central differences on 50 instances "
            f"(worst relative error {worst:.2e})"
        )


# --------------------------------------------------------------------------
# 5. the binary gate alone decides whether a mention is an entity


def test_criterion_05_gate_rule():
    with criterion(5, "binary gate vetoes the type head") as detail:
        rng = np.random.default_rng(105)
        for _ in range(1000):
            p_bin = rng.dirichlet([1.0, 1.0])
            p_type = rng.dirichlet([1.0] * 6)
            result = decide(p_bin, p_type)
            if int(np.argmax(p_bin)) == GATE_O:
                assert result is None
            else:
                assert result is ENTITY_TYPES[int(np.argmax(p_type))]
        # same rule through the public prediction path
        vocab = ["mill", "gate", "red", "old"]
        for _ in range(100):
            model = MentionClassifier.zeros(32)
            model.W_bin[:] = rng.normal(0, 2.0, model.W_bin.shape)
            model.b_bin[:] = rng.normal(0, 2.0, 2)
            model.W_type[:] = rng.normal(0, 2.0, model.W_type.shape)
            n = int(rng.integers(1, 5))
            sentence = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=n)]
            mention = Mention(0, 1, (sentence[0],), 0, 1.0)
            rep = build_representation(sentence, mention, "", 64)
            p_bin, p_type = forward(model, featurize(rep, 32))
            expected = None if int(np.argmax(p_bin)) == GATE_O else ENTITY_TYPES[int(np.argmax(p_type))]
            assert predict(model, rep) == expected
        detail["text"] = (
            "prediction is non-entity iff the binary head says so "
            "(1000 random outputs + 100 full predictions)"
        )


# --------------------------------------------------------------------------
# 6. analytic loss value at the uniform point


def test_criterion_06_uniform_loss_value():
    with criterion(6, "uniform two-head loss equals ln 2 + ln 6") as detail:
        value = loss(
            np.array([0.5, 0.5]), np.full(6, 1 / 6), GateDecision.NE, EntityType.PER
        )
        assert abs(value - 2.484907) <= 1e-6
        detail["text"] = (
            f"uniform two-head loss {value:.6f} = ln 2 + ln 6 within 1e-6"
        )


# --------------------------------------------------------------------------
# 7. sentence-length routing


def test_criterion_07_routing():
    with criterion(7, "sentence-length routing") as detail:
        config = RouterConfig(11)
        assert route(["w"] * 12, config) is Route.BASELINE
        assert route(["w"] * 11, config) is Route.ENTITY_LINKING
        assert route(["w"] * 5, config) is Route.ENTITY_LINKING
        zero = RouterConfig(0)
        for n in range(1, 41):
            assert route(["w"] * n, zero) is Route.BASELINE
        detail["text"] = (
            "threshold 11 routes lengths 12/11/5 to baseline/linking/linking; "
            "threshold 0 routes all lengths to baseline"
        )


# --------------------------------------------------------------------------
# 8. end-to-end pipeline on the bundled fixture


def test_criterion_08_end_to_end(tmp_path):
    with criterion(8, "end-to-end pipeline") as detail:
        started = time.monotonic()
        paths = {name: tmp_path / name for name in (
            "corpus.bin", "index.bin", "model.bin", "window.bin",
            "pred.conll", "report.json",
        )}
        gold = str(FIXTURES / "gold.conll")
        steps = [
            ["ingest", "--dump", str(FIXTURES / "articles.jsonl"),
             "--out", str(paths["corpus.bin"])],
            ["index", "--corpus", str(paths["corpus.bin"]),
             "--out", str(paths["index.bin"])],
            ["train", "--data", gold, "--corpus", str(paths["index.bin"]),
             "--out", str(paths["model.bin"])],
            ["train", "--kind", "window", "--data", gold,
             "--out", str(paths["window.bin"])],
            ["tag", "--input", gold, "--index", str(paths["index.bin"]),
             "--model", str(paths["model.bin"]),
             "--baseline", str(paths["window.bin"]), "--threshold", "11",
             "--out", str(paths["pred.conll"])],
            ["eval", "--gold", gold, "--pred", str(paths["pred.conll"]),
             "--json", str(paths["report.json"])],
        ]
        for argv in steps:
            assert cli_main(argv) == 0, argv

        report = json.loads(paths["report.json"].read_text(encoding="utf-8"))
        assert report["macro_f1"] == 1.0
        assert report["macro_precision"] == 1.0
        assert report["macro_recall"] == 1.0

        index = CorpusIndex.load(paths["index.bin"])
        total = hits = 0
        for sentence in read_conll(gold):
            gold_spans = {(s, e) for s, e, _ in span_extract(sentence.tags)}
            normalized = [normalize_token(t) for t in sentence.tokens]
            detected = {(m.start, m.end) for m in link_sentence(normalized, index)}
            total += len(gold_spans)
            hits += len(gold_spans & detected)
        recall = hits / total
        assert recall == 1.0

        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        detail["text"] = (
            f"end-to-end pipeline: mention recall {recall:.1f}, "
            f"macro F1 {report['macro_f1']:.1f} ({elapsed:.1f}s)"
        )


# --------------------------------------------------------------------------
# 9. span scoring matches a hand-worked confusion table


def test_criterion_09_scoring_matches_hand_confusion():
    with criterion(9, "scoring matches a hand-worked confusion table") as detail:
        gold = [
            TaggedSentence("s1", ("a", "b", "c"), ("B-PER", "B-PER", "B-PER")),
            TaggedSentence("s2", ("d", "e"), ("B-LOC", "B-GRP")),
            TaggedSentence("s3", ("f", "g"), ("B-CORP", "B-PROD")),
        ]
        pred = [
            TaggedSentence("s1", ("a", "b", "c"), ("B-PER", "B-PER", "B-GRP")),
            TaggedSentence("s2", ("d", "e"), ("B-LOC", "B-PER")),
            TaggedSentence("s3", ("f", "g"), ("B-PROD", "B-PROD")),
        ]
        report = evaluate(gold, pred)

        # hand counts: PER tp=2 fp=1 fn=1; LOC tp=1; GRP fp=1 fn=1;
        # CORP fn=1; PROD tp=1 fp=1; CW absent from both sides.
        p_per, r_per = 2 / 3, 2 / 3
        f1_per = 2.0 * p_per * r_per / (p_per + r_per)
        p_prod, r_prod = 1 / 2, 1.0
        f1_prod = 2.0 * p_prod * r_prod / (p_prod + r_prod)

        per = report.per_class
        assert per[EntityType.PER].precision == p_per
        assert per[EntityType.PER].recall == r_per
        assert per[EntityType.PER].f1 == f1_per
        assert per[EntityType.LOC].f1 == 1.0
        assert per[EntityType.GRP].precision == 0.0
        assert per[EntityType.GRP].f1 == 0.0
        assert per[EntityType.CORP].recall == 0.0
        assert per[EntityType.CORP].f1 == 0.0
        assert per[EntityType.PROD].precision == p_prod
        assert per[EntityType.PROD].recall == r_prod
        assert per[EntityType.PROD].f1 == f1_prod
        assert report.scored_classes == ("PER", "LOC", "GRP", "CORP", "PROD")
        assert report.macro_f1 == sum([f1_per, 1.0, 0.0, 0.0, f1_prod]) / 5
        assert report.macro_precision == sum([p_per, 1.0, 0.0, 0.0, p_prod]) / 5
        assert report.macro_recall == sum([r_per, 1.0, 0.0, 0.0, r_prod]) / 5
        detail["text"] = (
            "per-class and macro scores equal the hand-worked confusion "
            "table exactly (PER P=R=F1=2/3, PROD P=1/2 R=1, CW excluded)"
        )


# --------------------------------------------------------------------------
# 10. round-trips are lossless and deterministic


def test_criterion_10_round_trips(
    tmp_path, fixture_index, gold_sentences, training_examples
):
    with criterion(10, "round-trips") as detail:
        # index: identical bytes, identical search results
        index_a = tmp_path / "a.idx"
        index_b = tmp_path / "b.idx"
        fixture_index.save(index_a)
        fixture_index.save(index_b)
        assert index_a.read_bytes() == index_b.read_bytes()
        reloaded = CorpusIndex.load(index_a)
        for sentence in gold_sentences:
            terms = [normalize_token(t) for t in sentence.tokens]
            for name in FIELD_NAMES:
                assert reloaded.search_field(name, terms, 50).ranked() == (
                    fixture_index.search_field(name, terms, 50).ranked()
                )

        # tagged data: re-serialized bytes equal the bundled file
        copy = tmp_path / "copy.conll"
        write_conll(gold_sentences, copy)
        assert copy.read_bytes() == (FIXTURES / "gold.conll").read_bytes()

        # training: one seed, one model, down to the bits
        config = TrainingConfig(epochs=25, seed=3)
        model_a = train(training_examples, config)
        model_b = train(training_examples, config)
        for name in ("W_bin", "b_bin", "W_type", "b_type"):
            assert np.array_equal(getattr(model_a, name), getattr(model_b, name))
        model_path = tmp_path / "model.bin"
        from linkrush.classifier import save_model

        save_model(model_a, model_path)
        restored = load_model(model_path)
        assert np.array_equal(restored.W_type, model_a.W_type)
        assert np.array_equal(restored.W_bin, model_a.W_bin)

        tagger_a = train_baseline(gold_sentences, TrainingConfig(epochs=10, seed=3))
        tagger_b = train_baseline(gold_sentences, TrainingConfig(epochs=10, seed=3))
        assert np.array_equal(tagger_a.W, tagger_b.W)
        assert np.array_equal(tagger_a.b, tagger_b.b)
        tagger_path = tmp_path / "tagger.bin"
        from linkrush.ensemble import save_window_tagger

        save_window_tagger(tagger_a, tagger_path)
        restored_tagger = load_window_tagger(tagger_path)
        assert np.array_equal(restored_tagger.W, tagger_a.W)

        detail["text"] = (
            "index bytes and search results, tagged-data files, and "
            "same-seed models all round-trip bit-exactly"
        )
