"""CoNLL reading/writing, BIO repair, span extraction, and span-level scoring."""

from __future__ import annotations

import pytest

from linkrush.classifier import EntityType
from linkrush.errors import DataFormatError
from linkrush.evaluation import (
    TaggedSentence,
    bio_repair,
    evaluate,
    format_conll,
    parse_conll,
    read_conll,
    span_extract,
    write_conll,
)


def sent(sid, tokens, tags):
    return TaggedSentence(sid, tuple(tokens), tuple(tags))


class TestTaggedSentence:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 tokens"):
            TaggedSentence("s", ("a", "b"), ("O",))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="invalid tag"):
            TaggedSentence("s", ("a",), ("B-XYZ",))

    def test_dangling_continuation_allowed(self):
        # chain repair is a separate concern; construction accepts it
        s = TaggedSentence("s", ("a", "b"), ("O", "I-PER"))
        assert s.tags == ("O", "I-PER")

    def test_len(self):
        assert len(sent("s", ["a", "b", "c"], ["O", "O", "O"])) == 3


class TestParseConll:
    def test_basic_with_ids(self):
        text = "# id s01\nanna _ _ B-PER\nsang _ _ O\n\n# id s02\noslo _ _ B-LOC\n"
        sentences = parse_conll(text.splitlines())
        assert [s.sentence_id for s in sentences] == ["s01", "s02"]
        assert sentences[0].tokens == ("anna", "sang")
        assert sentences[0].tags == ("B-PER", "O")

    def test_empty_input(self):
        assert parse_conll([]) == []
        assert parse_conll(["", "   ", ""]) == []

    def test_plain_comments_skipped(self):
        text = "# generated by hand\nanna _ _ B-PER\n"
        sentences = parse_conll(text.splitlines())
        assert len(sentences) == 1
        assert sentences[0].sentence_id == ""

    def test_two_column_lines_accepted(self):
        sentences = parse_conll(["anna B-PER", "sang O"])
        assert sentences[0].tags == ("B-PER", "O")

    def test_tag_read_from_last_column(self):
        sentences = parse_conll(["anna X Y Z B-PER"])
        assert sentences[0].tokens == ("anna",)
        assert sentences[0].tags == ("B-PER",)

    def test_bad_tag_reports_line_number(self):
        lines = ["anna _ _ B-PER", "sang _ _ B-VERB"]
        with pytest.raises(DataFormatError, match="line 2"):
            parse_conll(lines, source_name="bad.conll")

    def test_missing_tag_column_reports_line_number(self):
        with pytest.raises(DataFormatError, match="line 1.*no tag column"):
            parse_conll(["loneword"])

    def test_missing_trailing_blank_line_ok(self):
        sentences = parse_conll(["anna _ _ B-PER"])
        assert len(sentences) == 1


class TestRoundTrip:
    def test_format_parse_identity(self):
        sentences = [
            sent("a1", ["new", "york", "wins"], ["B-LOC", "I-LOC", "O"]),
            sent("a2", ["hello"], ["O"]),
        ]
        text = format_conll(sentences)
        assert parse_conll(text.splitlines()) == sentences

    def test_rewrite_is_byte_identical(self, tmp_path):
        sentences = [
            sent("a1", ["new", "york"], ["B-LOC", "I-LOC"]),
            sent("", ["x"], ["O"]),
        ]
        first = tmp_path / "first.conll"
        second = tmp_path / "second.conll"
        write_conll(sentences, first)
        write_conll(read_conll(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bundled_gold_round_trips(self, tmp_path):
        source = read_conll("tests/fixtures/gold.conll")
        out = tmp_path / "copy.conll"
        write_conll(source, out)
        assert out.read_text(encoding="utf-8") == open(
            "tests/fixtures/gold.conll", encoding="utf-8"
        ).read()

    def test_empty_list_formats_to_empty_string(self):
        assert format_conll([]) == ""


class TestBioRepair:
    def test_orphan_start_becomes_b(self):
        assert bio_repair(["I-PER", "I-PER"]) == ["B-PER", "I-PER"]

    def test_type_switch_restarts_span(self):
        assert bio_repair(["B-PER", "I-LOC"]) == ["B-PER", "B-LOC"]

    def test_after_o_restarts_span(self):
        assert bio_repair(["O", "I-CW", "I-CW", "O"]) == ["O", "B-CW", "I-CW", "O"]

    def test_well_formed_unchanged(self):
        tags = ["B-LOC", "I-LOC", "O", "B-PER"]
        assert bio_repair(tags) == tags

    def test_empty(self):
        assert bio_repair([]) == []


class TestSpanExtract:
    def test_adjacent_b_tags_are_two_spans(self):
        assert span_extract(["B-LOC", "B-LOC"]) == {
            (0, 1, EntityType.LOC),
            (1, 2, EntityType.LOC),
        }

    def test_trailing_span_closed(self):
        assert span_extract(["O", "B-PER", "I-PER"]) == {(1, 3, EntityType.PER)}

    def test_all_o(self):
        assert span_extract(["O", "O", "O"]) == set()

    def test_repair_applied_first(self):
        assert span_extract(["I-GRP", "I-GRP"]) == {(0, 2, EntityType.GRP)}

    def test_mixed_sentence(self):
        tags = ["B-PER", "O", "B-CORP", "I-CORP", "O", "B-CW"]
        assert span_extract(tags) == {
            (0, 1, EntityType.PER),
            (2, 4, EntityType.CORP),
            (5, 6, EntityType.CW),
        }


class TestEvaluate:
    def test_identity_scores_one(self):
        gold = [
            sent("s1", ["anna", "sang"], ["B-PER", "O"]),
            sent("s2", ["in", "oslo"], ["O", "B-LOC"]),
        ]
        report = evaluate(gold, gold)
        assert report.macro_f1 == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.scored_classes == ("PER", "LOC")

    def test_all_o_predictions_score_zero(self):
        gold = [sent("s1", ["anna"], ["B-PER"])]
        pred = [sent("s1", ["anna"], ["O"])]
        report = evaluate(gold, pred)
        assert report.macro_f1 == 0.0
        assert report.per_class[EntityType.PER].recall == 0.0

    def test_hand_confusion_matrix(self):
        # PER: tp=2 fp=1 fn=1; LOC: tp=1; GRP: fp=1 fn=1; CORP: fn=1;
        # PROD: tp=1 fp=1; CW absent from both sides -> excluded.
        gold = [
            sent("s1", ["a", "b", "c"], ["B-PER", "B-PER", "B-PER"]),
            sent("s2", ["d", "e"], ["B-LOC", "B-GRP"]),
            sent("s3", ["f", "g"], ["B-CORP", "B-PROD"]),
        ]
        pred = [
            sent("s1", ["a", "b", "c"], ["B-PER", "B-PER", "B-GRP"]),
            sent("s2", ["d", "e"], ["B-LOC", "B-PER"]),
            sent("s3", ["f", "g"], ["B-PROD", "B-PROD"]),
        ]
        report = evaluate(gold, pred)
        per = report.per_class
        assert per[EntityType.PER].precision == pytest.approx(2 / 3)
        assert per[EntityType.PER].recall == pytest.approx(2 / 3)
        assert per[EntityType.PER].f1 == pytest.approx(2 / 3)
        assert per[EntityType.LOC].f1 == 1.0
        assert per[EntityType.GRP].f1 == 0.0
        assert per[EntityType.CORP].f1 == 0.0
        assert per[EntityType.CORP].recall == 0.0
        assert per[EntityType.PROD].precision == pytest.approx(1 / 2)
        assert per[EntityType.PROD].recall == 1.0
        assert per[EntityType.PROD].f1 == pytest.approx(2 / 3)
        assert "CW" not in report.scored_classes
        assert len(report.scored_classes) == 5
        expected_macro_f1 = (2 / 3 + 1.0 + 0.0 + 0.0 + 2 / 3) / 5
        assert report.macro_f1 == pytest.approx(expected_macro_f1, abs=1e-12)
        assert report.support[EntityType.PER] == 3
        assert report.support[EntityType.CW] == 0

    def test_swapping_sides_swaps_precision_and_recall(self):
        gold = [sent("s1", ["a", "b", "c"], ["B-PER", "B-PER", "O"])]
        pred = [sent("s1", ["a", "b", "c"], ["B-PER", "O", "B-PER"])]
        fwd = evaluate(gold, pred)
        rev = evaluate(pred, gold)
        assert fwd.per_class[EntityType.PER].precision == rev.per_class[EntityType.PER].recall
        assert fwd.per_class[EntityType.PER].recall == rev.per_class[EntityType.PER].precision
        assert fwd.macro_f1 == rev.macro_f1

    def test_exact_boundaries_required(self):
        gold = [sent("s1", ["new", "york", "city"], ["B-LOC", "I-LOC", "I-LOC"])]
        pred = [sent("s1", ["new", "york", "city"], ["B-LOC", "I-LOC", "O"])]
        report = evaluate(gold, pred)
        assert report.per_class[EntityType.LOC].f1 == 0.0

    def test_length_mismatch_rejected(self):
        gold = [sent("s1", ["a"], ["O"]), sent("s2", ["b"], ["O"])]
        with pytest.raises(DataFormatError, match="2 sentences"):
            evaluate(gold, gold[:1])

    def test_id_mismatch_rejected(self):
        gold = [sent("s1", ["a"], ["O"])]
        pred = [sent("s9", ["a"], ["O"])]
        with pytest.raises(DataFormatError, match="s1.*s9"):
            evaluate(gold, pred)

    def test_token_count_mismatch_names_sentence(self):
        gold = [sent("s7", ["a", "b"], ["O", "O"])]
        pred = [sent("s7", ["a"], ["O"])]
        with pytest.raises(DataFormatError, match="s7"):
            evaluate(gold, pred)

    def test_order_insensitive_totals(self):
        gold = [
            sent("s1", ["anna"], ["B-PER"]),
            sent("s2", ["oslo"], ["B-LOC"]),
        ]
        pred = [
            sent("s1", ["anna"], ["B-PER"]),
            sent("s2", ["oslo"], ["O"]),
        ]
        a = evaluate(gold, pred)
        b = evaluate(list(reversed(gold)), list(reversed(pred)))
        assert a.macro_f1 == b.macro_f1
        assert a.support == b.support

    def test_repaired_tag_count(self):
        gold = [sent("s1", ["a", "b"], ["I-PER", "I-PER"])]  # repair flips 1 tag
        pred = [sent("s1", ["a", "b"], ["B-PER", "I-PER"])]  # already well formed
        report = evaluate(gold, pred)
        assert report.repaired_tag_count == 1
        assert report.macro_f1 == 1.0  # repair makes the two sides agree

    def test_as_dict_shape(self):
        gold = [sent("s1", ["anna"], ["B-PER"])]
        payload = evaluate(gold, gold).as_dict()
        assert payload["macro_f1"] == 1.0
        assert payload["per_class"]["PER"]["f1"] == 1.0
        assert payload["scored_classes"] == ["PER"]
        assert payload["support"]["LOC"] == 0
