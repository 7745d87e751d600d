"""Classifier input layout and the three-stage truncation policy."""

from __future__ import annotations

import pytest
import numpy as np
from oracles import layout, oracle_build_representation, render_representation, segment_of

from linkrush.mentions import Mention
from linkrush.representation import (
    CLS_TOKEN,
    SEP_TOKEN,
    MARKER_COUNT,
    Segment,
    build_representation,
    fit_budget,
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
    assert (rep.ctx_l, rep.mention, rep.ctx_r) == (("the",), ("old", "mill"), ("burned", "down", "fast"))
    assert rep.wiki == ("a", "stone", "building")
    segments = layout(rep)[1]
    assert segments[0] is Segment.CLS
    assert segment_of(rep, 1) is Segment.CTX_L
    assert segments[3] is Segment.MENTION and segments[4] is Segment.MENTION
    assert segments[6] is Segment.CTX_R
    assert segments[10] is Segment.WIKI
    assert segments[-1] is Segment.SEP
    assert len(rep.tokens) == len(segments) == len(rep)


def test_marker_count_always_five():
    rep = build_representation(SENTENCE, _mention(0, 1, SENTENCE), "")
    markers = [t for t in rep.tokens if t in (CLS_TOKEN, SEP_TOKEN)]
    assert len(markers) == 5
    # empty lead keeps its delimiters but contributes no tokens
    assert rep.wiki == ()
    assert Segment.WIKI not in layout(rep)[1]


def test_mention_at_sentence_edges():
    rep = build_representation(SENTENCE, _mention(0, 2, SENTENCE), "x")
    assert rep.ctx_l == () and Segment.CTX_L not in layout(rep)[1]
    rep = build_representation(SENTENCE, _mention(4, 6, SENTENCE), "x")
    assert rep.ctx_r == () and Segment.CTX_R not in layout(rep)[1]


def test_page_text_cut_first():
    lead = " ".join(f"w{i}" for i in range(300))
    # ten sentence tokens + five markers leaves room for exactly 241
    # lead tokens inside a 256 budget
    sentence = [f"s{i}" for i in range(10)]
    rep = build_representation(sentence, _mention(2, 5, sentence), lead, max_len=256)
    assert len(rep) == 256
    assert rep.wiki == tuple(f"w{i}" for i in range(241))
    # sentence context is fully intact
    assert len(rep.ctx_l) == 2
    assert len(rep.ctx_r) == 5


def test_right_context_cut_after_page_text():
    sentence = ["l1", "l2", "m", "r1", "r2", "r3"]
    lead = "w1 w2 w3"
    # budget: 5 markers + mention(1) + ctx (5) = 11; max_len 10 forces the
    # whole lead out and one token off the right context's tail
    rep = build_representation(sentence, _mention(2, 3, sentence), lead, max_len=10)
    assert rep.wiki == ()
    assert rep.ctx_r == ("r1", "r2")
    assert rep.ctx_l == ("l1", "l2")


def test_left_context_cut_last_from_the_front():
    sentence = ["l1", "l2", "m", "r1"]
    rep = build_representation(sentence, _mention(2, 3, sentence), "w1", max_len=7)
    # 5 markers + mention = 6; one slot left, kept for the newest left token
    assert rep.ctx_r == ()
    assert rep.ctx_l == ("l2",)


def test_mention_never_truncated():
    sentence = ["a", "b", "c", "d", "e"]
    rep = build_representation(sentence, _mention(1, 4, sentence), "w " * 50, max_len=8)
    assert rep.mention == ("b", "c", "d")
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
    assert rep.wiki == ("stone", "mill", ",", "1885", ".")


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


def test_runs_lay_out_as_the_per_token_builder():
    """Seeded sentences, mentions, leads and budgets (every cut, down to
    the mention plus its markers): the runs lay out token for token and
    segment for segment as the per-token builder of `oracles` did."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        sentence = [f"s{int(i)}" for i in rng.integers(0, 5, size=n)]
        start = int(rng.integers(0, n))
        end = int(rng.integers(start + 1, n + 1))
        lead = " ".join(f"w{int(i)}" for i in rng.integers(0, 5, size=int(rng.integers(0, 8))))
        max_len = int(rng.integers(end - start + MARKER_COUNT, n + 15))
        mention = _mention(start, end, sentence)
        rep = build_representation(sentence, mention, lead, max_len)
        assert layout(rep) == oracle_build_representation(sentence, mention, lead, max_len)
        assert len(rep) <= max_len


def test_fit_budget_cuts_lead_then_right_then_left():
    assert fit_budget(2, 1, 3, 4, 15) == (2, 3, 4)  # everything fits
    assert fit_budget(2, 1, 3, 4, 12) == (2, 3, 1)
    assert fit_budget(2, 1, 3, 4, 10) == (2, 2, 0)
    assert fit_budget(2, 1, 3, 4, 7) == (1, 0, 0)
    assert fit_budget(2, 1, 3, 4, 6) == (0, 0, 0)  # the mention at max_len - 5
    with pytest.raises(ValueError, match="max_len"):
        fit_budget(2, 1, 3, 4, 5)
