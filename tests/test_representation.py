"""Classifier input layout and the three-stage truncation policy."""

from __future__ import annotations

import pytest
from oracles import render_representation, segment_of

from linkrush.mentions import Mention
from linkrush.representation import (
    CLS_TOKEN,
    SEP_TOKEN,
    Representation,
    Segment,
    build_representation,
)


def _mention(start, end, tokens):
    return Mention(start, end, tuple(tokens[start:end]), doc_id=0, pooled_score=1.0)


SENTENCE = ["the", "old", "mill", "burned", "down", "fast"]


def test_layout_and_segments():
    rep = build_representation(SENTENCE, _mention(1, 3, SENTENCE), "a stone building")
    assert rep.tokens == (
        CLS_TOKEN, "the", SEP_TOKEN, "old", "mill", SEP_TOKEN,
        "burned", "down", "fast", SEP_TOKEN, "a", "stone", "building", SEP_TOKEN,
    )
    assert rep.segments[0] is Segment.CLS
    assert segment_of(rep, 1) is Segment.CTX_L
    assert rep.segments[3] is Segment.MENTION and rep.segments[4] is Segment.MENTION
    assert rep.segments[6] is Segment.CTX_R
    assert rep.segments[10] is Segment.WIKI
    assert rep.segments[-1] is Segment.SEP
    assert len(rep.tokens) == len(rep.segments)


def test_marker_count_always_five():
    rep = build_representation(SENTENCE, _mention(0, 1, SENTENCE), "")
    markers = [t for t in rep.tokens if t in (CLS_TOKEN, SEP_TOKEN)]
    assert len(markers) == 5
    # empty lead keeps its delimiters but contributes no tokens
    assert Segment.WIKI not in rep.segments


def test_mention_at_sentence_edges():
    rep = build_representation(SENTENCE, _mention(0, 2, SENTENCE), "x")
    assert Segment.CTX_L not in rep.segments
    rep = build_representation(SENTENCE, _mention(4, 6, SENTENCE), "x")
    assert Segment.CTX_R not in rep.segments


def test_page_text_cut_first():
    lead = " ".join(f"w{i}" for i in range(300))
    # ten sentence tokens + five markers leaves room for exactly 241
    # lead tokens inside a 256 budget
    sentence = [f"s{i}" for i in range(10)]
    rep = build_representation(sentence, _mention(2, 5, sentence), lead, max_len=256)
    assert len(rep) == 256
    wiki = [t for t, s in zip(rep.tokens, rep.segments) if s is Segment.WIKI]
    assert wiki == [f"w{i}" for i in range(241)]
    # sentence context is fully intact
    assert sum(1 for s in rep.segments if s is Segment.CTX_L) == 2
    assert sum(1 for s in rep.segments if s is Segment.CTX_R) == 5


def test_right_context_cut_after_page_text():
    sentence = ["l1", "l2", "m", "r1", "r2", "r3"]
    lead = "w1 w2 w3"
    # budget: 5 markers + mention(1) + ctx (5) = 11; max_len 10 forces the
    # whole lead out and one token off the right context's tail
    rep = build_representation(sentence, _mention(2, 3, sentence), lead, max_len=10)
    assert [t for t, s in zip(rep.tokens, rep.segments) if s is Segment.WIKI] == []
    assert [t for t, s in zip(rep.tokens, rep.segments) if s is Segment.CTX_R] == ["r1", "r2"]
    assert [t for t, s in zip(rep.tokens, rep.segments) if s is Segment.CTX_L] == ["l1", "l2"]


def test_left_context_cut_last_from_the_front():
    sentence = ["l1", "l2", "m", "r1"]
    rep = build_representation(sentence, _mention(2, 3, sentence), "w1", max_len=7)
    # 5 markers + mention = 6; one slot left, kept for the newest left token
    assert [t for t, s in zip(rep.tokens, rep.segments) if s is Segment.CTX_R] == []
    assert [t for t, s in zip(rep.tokens, rep.segments) if s is Segment.CTX_L] == ["l2"]


def test_mention_never_truncated():
    sentence = ["a", "b", "c", "d", "e"]
    rep = build_representation(sentence, _mention(1, 4, sentence), "w " * 50, max_len=8)
    mention = [t for t, s in zip(rep.tokens, rep.segments) if s is Segment.MENTION]
    assert mention == ["b", "c", "d"]
    assert len(rep) == 8


def test_budget_too_small_for_mention():
    sentence = ["a", "b", "c"]
    with pytest.raises(ValueError, match="max_len"):
        build_representation(sentence, _mention(0, 3, sentence), "", max_len=7)


def test_invalid_span_rejected():
    with pytest.raises(ValueError, match="span"):
        build_representation(["a"], _mention(0, 2, ["a", "b"]), "")


def test_lead_is_tokenized():
    rep = build_representation(["a"], _mention(0, 1, ["a"]), "Stone Mill, 1885.")
    wiki = [t for t, s in zip(rep.tokens, rep.segments) if s is Segment.WIKI]
    assert wiki == ["stone", "mill", ",", "1885", "."]


def test_render_joins_tokens():
    rep = build_representation(["a", "b"], _mention(0, 1, ["a", "b"]), "")
    assert render_representation(rep) == "[CLS] [SEP] a [SEP] b [SEP] [SEP]"


def test_within_budget_unchanged():
    rep = build_representation(SENTENCE, _mention(1, 3, SENTENCE), "tiny lead", max_len=256)
    assert len(rep) == 5 + len(SENTENCE) + 2


def test_frozen_value_object():
    rep = build_representation(["a"], _mention(0, 1, ["a"]), "")
    same = build_representation(["a"], _mention(0, 1, ["a"]), "")
    assert rep == same
    with pytest.raises(AttributeError):
        rep.tokens = ()
