"""Tests of the benchmark's input generator and tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import synth  # noqa: E402
import tracing  # noqa: E402
from linkrush.corpus import ingest  # noqa: E402
from linkrush.evaluation import read_conll, span_extract  # noqa: E402
from linkrush.tokenizer import normalize_phrase  # noqa: E402

SMALL = dict(articles=400, train_short=30, train_long=20)


def _write(tmp_path: Path, name: str, *, corpus_seed=3, seed=5, stream="short") -> Path:
    out = tmp_path / name
    synth.write_inputs(out, corpus_seed=corpus_seed, seed=seed, stream=stream, count=60, **SMALL)
    return out


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_same_seeds_give_same_bytes(tmp_path):
    assert _files(_write(tmp_path, "a")) == _files(_write(tmp_path, "b"))


def test_workload_seed_changes_only_the_stream(tmp_path):
    a = _files(_write(tmp_path, "a", seed=5))
    b = _files(_write(tmp_path, "b", seed=6))
    assert a["stream.conll"] != b["stream.conll"]
    assert {k: v for k, v in a.items() if k != "stream.conll"} == {
        k: v for k, v in b.items() if k != "stream.conll"
    }


def test_corpus_seed_changes_the_corpus(tmp_path):
    a = _files(_write(tmp_path, "a", corpus_seed=3))
    b = _files(_write(tmp_path, "b", corpus_seed=4))
    assert a["articles.jsonl"] != b["articles.jsonl"]


def test_dump_has_typed_titles_and_anchors_beyond_titles(tmp_path):
    world = synth.World(synth.CorpusSpec(articles=SMALL["articles"]), 3)
    assert {e.etype for e in world.entities} == set(synth.TYPES)
    documents = ingest(world.dump_lines)
    assert len(documents) == SMALL["articles"]
    assert sum(len(d.referred_by) > 1 for d in documents) > len(documents) // 10


@pytest.mark.parametrize("stream", ["short", "long"])
def test_gold_mentions_are_anchors_of_an_article_of_their_type(tmp_path, stream):
    out = _write(tmp_path, "a", stream=stream)
    world = synth.World(synth.CorpusSpec(articles=SMALL["articles"]), 3)
    types: dict[str, set[str]] = {}
    for entity, doc in zip(world.entities, ingest(world.dump_lines)):
        for phrase in doc.referred_by:
            types.setdefault(phrase, set()).add(entity.etype)
    sentences = read_conll(out / "stream.conll")
    assert len(sentences) == 60
    mentions = 0
    for sentence in sentences:
        if stream == "short":
            assert len(sentence) <= synth.SHORT_MAX_TOKENS
        else:
            assert len(sentence) > synth.SHORT_MAX_TOKENS
        for start, end, etype in span_extract(sentence.tags):
            phrase = normalize_phrase(" ".join(sentence.tokens[start:end]))
            assert etype.value in types.get(phrase, set()), phrase
            mentions += 1
    assert mentions >= len(sentences)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    seconds, calls = tracer.self_times()
    assert calls == {"outer": 1, "inner": 2}
    total = (tracer.end[0] - tracer.start[0]) / 1e9
    assert seconds["outer"] + seconds["inner"] == pytest.approx(total)
    assert list(tracer.parent) == [-1, 0, 0]


def test_install_finds_every_wrapped_name():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer.unpatched == []
    finally:
        _unpatch()


def _unpatch():
    """Put back the functions `install` replaced, so later tests see linkrush as is."""
    from linkrush import classifier, corpus, ensemble, evaluation, index, mentions, representation

    for owner in (classifier, corpus, ensemble, evaluation, index, mentions, representation):
        for name, value in list(vars(owner).items()):
            if hasattr(value, "__wrapped__"):
                setattr(owner, name, value.__wrapped__)
    for name, value in list(vars(index.CorpusIndex).items()):
        func = value.__func__ if isinstance(value, classmethod) else value
        if hasattr(func, "__wrapped__"):
            wrapped = func.__wrapped__
            setattr(index.CorpusIndex, name, classmethod(wrapped) if isinstance(value, classmethod) else wrapped)
