"""Golden hashes: a seeded 1000-article world, built, trained and tagged.

The benchmark's generator (`perfbench/synth.py`) writes a 1000-article
corpus with its training sentences and a stream of sentences to tag. The
test runs the whole pipeline on it in process (ingest, index build and
save, training examples, the mention model and the window tagger, then
tagging a short and a long stream with the saved artifacts loaded back)
and pins the SHA-256 of the index bytes, of both model files and of both
prediction texts, so a refactor that changes any byte of these outputs
at a realistic scale fails here even when the fixture tests pass.

The pins hold for one NumPy version's random streams and float
behaviour; a failure names the version in use. A change that alters
floats on purpose re-pins them and says why. The `models` pin was
re-pinned once when both model kinds moved to one header layout (with
`turkish` and `epoch_losses`); the weight bytes after each header did
not change. It was re-pinned a second time when models moved to format
2, which stores only the touched weight columns, their ids and a
CRC-32; the stored weights are the same floats, and both prediction
pins did not move. The `index` pin was re-pinned once when the index moved to
format 2 (binary columns behind a JSON header); the format-1 bytes are
still pinned as `FORMAT_1_INDEX`, through the format-1 writer kept as a
test oracle, and a format-2 round trip must load what format 1 loads.

On the same world, linking, featurizing and the window tagger's features
are also compared with their oracles in `oracles.py` (the pool-first
linker over ranked top-k lists, and the per-feature hashing loops),
mention for mention and byte for byte.

The gate path is not pinned: at 1000 articles the training sentences
yield no non-entity candidates, and the binary head vetoes none of the
246 mentions linked in the short stream.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    assert_v2_loads_as_v1,
    _tf_part,
    oracle_featurize,
    oracle_field_index,
    oracle_link_sentence,
    oracle_window_features,
    save_index_v1,
    split_rows,
)

from linkrush.classifier import TrainingConfig, featurize, load_model, save_model, train
from linkrush.corpus import ingest
from linkrush.ensemble import (
    RouterConfig,
    build_training_examples,
    load_window_tagger,
    mention_candidates,
    save_window_tagger,
    tag_sentences,
    train_baseline,
    window_features,
)
from linkrush.evaluation import format_conll, read_conll
from linkrush.index import FIELD_NAMES, CorpusIndex, field_tokens
from linkrush.mentions import link_sentence
from linkrush.tokenizer import normalize_token

ROOT = Path(__file__).resolve().parents[1]

ARTICLES = 1000
STREAM_SEED = 1
SHORT_COUNT = 150
LONG_COUNT = 150
EPOCHS = 10

GOLDEN = {
    "index": "dee45585ee8585a0ddd98d7bc29224f18aa5447adb81a26fe9df85458fee2f9b",
    "models": "c922e4444da1ee386bb6ee9334f7726df5af55d72c271d9253f6df6e02b8abcf",
    "short_predictions": "4ebc8474ef5e9030ef7f724fd40efeae268c2a3443b3eb4bd2e5f5d0e671d99d",
    "long_predictions": "3a23cc0d89315686567dc3ac03abe13988a48090bb66da83b387cf08bcbe1f84",
}

# The index as format 1 wrote it, which `oracles.save_index_v1` must still write.
FORMAT_1_INDEX = "4ab408689bd27ca1181729d5539e638ab08f17321754f71d387aedc22c70b6e5"


def _synth():
    spec = importlib.util.spec_from_file_location("synth", ROOT / "perfbench" / "synth.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    synth = _synth()
    root = tmp_path_factory.mktemp("golden")
    short_dir, long_dir = root / "short", root / "long"
    for out, stream, count in ((short_dir, "short", SHORT_COUNT), (long_dir, "long", LONG_COUNT)):
        synth.write_inputs(
            out, corpus_seed=0, seed=STREAM_SEED, stream=stream, count=count, articles=ARTICLES
        )

    with open(short_dir / "articles.jsonl", encoding="utf-8") as dump:
        documents = ingest(dump)
    index_path = root / "index.bin"
    built = CorpusIndex.build(documents)
    built.save(index_path)

    config = TrainingConfig(epochs=EPOCHS)
    examples = build_training_examples(read_conll(short_dir / "train_short.conll"), built)
    model_path, window_path = root / "model.bin", root / "window.bin"
    save_model(train(examples, config), model_path)
    save_window_tagger(train_baseline(read_conll(short_dir / "train_long.conll"), config), window_path)

    index, model, tagger = (
        CorpusIndex.load(index_path), load_model(model_path), load_window_tagger(window_path)
    )
    router = RouterConfig()
    predictions = {
        name: format_conll(
            tag_sentences(read_conll(out / "stream.conll"), router, index, model, tagger)
        )
        for name, out in (("short_predictions", short_dir), ("long_predictions", long_dir))
    }
    return {
        "documents": documents,
        "built": built,
        "loaded": index,
        "short_stream": read_conll(short_dir / "stream.conll"),
        "long_stream": read_conll(long_dir / "stream.conll"),
        "index": _sha256(index_path.read_bytes()),
        "models": _sha256(model_path.read_bytes() + window_path.read_bytes()),
        **{name: _sha256(text.encode("utf-8")) for name, text in predictions.items()},
    }


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_golden_hash(golden_run, artifact):
    assert golden_run[artifact] == GOLDEN[artifact], (
        f"{artifact} SHA-256 changed (NumPy {np.__version__}); "
        "the pins were computed with NumPy 2.4.6"
    )


def test_format_1_oracle_and_format_2_agree(golden_run, tmp_path):
    """The format-1 writer in `oracles` still writes the bytes format 1
    was pinned at, and a format-2 round trip loads what a format-1 round
    trip loads."""
    documents, built = golden_run["documents"], golden_run["built"]
    v1 = tmp_path / "v1.bin"
    save_index_v1(v1, documents, built.fields)
    assert _sha256(v1.read_bytes()) == FORMAT_1_INDEX
    assert_v2_loads_as_v1(documents, built, tmp_path)


def test_impacts_equal_per_posting_oracle(golden_run):
    """Every posting's impact, in all four fields of the built and of the
    loaded index, has the bytes of the scalar BM25 of `oracles`: idf
    through math.log times the tf part, one posting at a time. The
    impacts are computed in place, step by step; a step taken in another
    order changes some of these bytes."""
    documents = golden_run["documents"]
    for name in FIELD_NAMES:
        oracle = oracle_field_index([field_tokens(doc, name) for doc in documents])
        impacts = np.array(
            [
                oracle.idf(term) * _tf_part(tf, oracle, doc_id)
                for term in sorted(oracle.postings)
                for doc_id, tf in oracle.postings[term]
            ]
        )
        assert len(impacts) > 1000
        for index in (golden_run["built"], golden_run["loaded"]):
            assert index.fields[name].impacts.tobytes() == impacts.tobytes()


def test_linking_equals_pool_first_oracle(golden_run):
    """Anchor-first linking with top-k membership finds the mentions of
    the pool-first linker with ranked top-k lists, pooled-score floats
    included, on every sentence of the short stream."""
    index, documents = golden_run["built"], golden_run["documents"]
    linked = 0
    for sentence in golden_run["short_stream"]:
        tokens = [normalize_token(t) for t in sentence.tokens]
        for k in (1, 20, 200):
            got = link_sentence(tokens, index, k)
            assert got == oracle_link_sentence(tokens, index, documents, k)
            linked += len(got)
    assert linked > 300


def test_featurize_equals_per_feature_loop(golden_run):
    """Every representation of the short stream featurizes to the index
    and value bytes of the per-feature `hash_feature` loop."""
    index = golden_run["built"]
    reps = [
        rep
        for sentence in golden_run["short_stream"]
        for _, rep in mention_candidates([normalize_token(t) for t in sentence.tokens], index)
    ]
    assert len(reps) > 200
    for rep in reps:
        for dim in (2**6, 2**18):
            got, want = featurize(rep, dim), oracle_featurize(rep, dim)
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.values.tobytes() == want.values.tobytes()


def test_window_features_equal_per_position_loop(golden_run):
    """Every position of the long stream gets the index and value bytes
    of the per-position `hash_feature` loop."""
    positions = 0
    for sentence in golden_run["long_stream"]:
        tokens = [normalize_token(t) for t in sentence.tokens]
        for dim in (2**6, 2**18):
            rows = window_features(tokens, dim)
            assert len(rows) == len(tokens)
            for position, got in enumerate(split_rows(rows)):
                want = oracle_window_features(tokens, position, dim)
                assert got.indices.tobytes() == want.indices.tobytes()
                assert got.values.tobytes() == want.values.tobytes()
        positions += len(tokens)
    assert positions > 1000
