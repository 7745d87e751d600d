"""Ingestion: link extraction, field derivation, and error reporting."""

from __future__ import annotations

import json

import pytest

from linkrush.corpus import (
    Article,
    build_documents,
    build_referred_by,
    extract_links,
    ingest,
    lead_paragraphs,
    parse_corpus,
)
from linkrush import corpus as corpus_module
from linkrush.errors import DataFormatError


def _record(title, text="", links=None, categories=None):
    record = {"title": title, "text": text}
    if links is not None:
        record["links"] = links
    if categories is not None:
        record["categories"] = categories
    return json.dumps(record)


class TestExtractLinks:
    def test_plain_and_aliased(self):
        markup = "see [[alpha station]] and [[beta yard|the yard]]."
        assert extract_links(markup) == [
            ("alpha station", "alpha station"),
            ("beta yard", "the yard"),
        ]

    def test_empty_target_skipped(self):
        assert extract_links("[[|dangling]] and [[ |x]]") == []

    def test_empty_anchor_falls_back_to_target(self):
        assert extract_links("[[alpha station|]]") == [("alpha station", "alpha station")]

    def test_no_links(self):
        assert extract_links("plain text [single] brackets") == []

    def test_order_preserved(self):
        markup = "[[b]] then [[a]] then [[b]]"
        assert extract_links(markup) == [("b", "b"), ("a", "a"), ("b", "b")]


class TestParseCorpus:
    def test_valid_records(self):
        lines = [_record("alpha station", "text one"), _record("beta yard", "text two")]
        articles = parse_corpus(lines)
        assert [a.title for a in articles] == ["alpha station", "beta yard"]

    def test_blank_lines_skipped(self):
        articles = parse_corpus(["", _record("alpha station"), "   "])
        assert len(articles) == 1

    def test_invalid_json_names_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_corpus([_record("alpha station"), "{not json"])

    def test_non_object_record(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_corpus(['["a", "b"]'])

    def test_missing_title(self):
        with pytest.raises(DataFormatError, match="title"):
            parse_corpus(['{"text": "body"}'])

    def test_duplicate_titles_all_reported(self):
        lines = [
            _record("alpha station"),
            _record("Alpha  Station"),  # same after normalization
            _record("beta yard"),
            _record("beta yard"),
        ]
        with pytest.raises(DataFormatError) as excinfo:
            parse_corpus(lines)
        message = str(excinfo.value)
        assert "lines 1 and 2" in message
        assert "lines 3 and 4" in message

    def test_explicit_links_used_over_markup(self):
        line = _record("alpha station", "[[ignored]]", links=[{"target": "beta yard"}])
        (article,) = parse_corpus([line])
        assert article.links == (("beta yard", "beta yard"),)

    def test_markup_links_extracted_when_field_absent(self):
        (article,) = parse_corpus([_record("alpha station", "near [[beta yard|the yard]]")])
        assert article.links == (("beta yard", "the yard"),)

    def test_bad_categories(self):
        with pytest.raises(DataFormatError, match="categories"):
            parse_corpus(['{"title": "a", "text": "", "categories": [1]}'])

    def test_malformed_link_entry(self):
        with pytest.raises(DataFormatError, match="link"):
            parse_corpus(['{"title": "a", "text": "", "links": [{"anchor": "x"}]}'])


class TestReferredBy:
    def test_anchors_collected_longest_first(self):
        # Hand-derived: alpha station is linked as "the old station" (3 tokens)
        # and "alpha" (1); with its own title that sorts to
        # [the old station, alpha station, alpha].
        articles = [
            Article("alpha station", "", (), ()),
            Article("beta yard", "", (("alpha station", "the old station"),), ()),
            Article("gamma line", "", (("alpha station", "alpha"),), ()),
        ]
        referred = build_referred_by(articles)
        assert referred["alpha station"] == ["the old station", "alpha station", "alpha"]

    def test_ties_sort_lexicographically(self):
        articles = [
            Article("hub", "", (), ()),
            Article("a", "", (("hub", "main hub"), ("hub", "big hub")), ()),
        ]
        assert build_referred_by(articles)["hub"] == ["big hub", "main hub", "hub"]

    def test_self_links_excluded(self):
        articles = [Article("alpha station", "", (("alpha station", "the station"),), ())]
        assert build_referred_by(articles)["alpha station"] == ["alpha station"]

    def test_dangling_targets_ignored(self):
        articles = [
            Article("alpha station", "", (("nowhere", "ghost"),), ()),
        ]
        referred = build_referred_by(articles)
        assert referred == {"alpha station": ["alpha station"]}

    def test_anchors_normalized_and_deduped(self):
        articles = [
            Article("alpha station", "", (), ()),
            Article("b", "", (("alpha station", "The  Halt"),), ()),
            Article("c", "", (("Alpha Station", "the halt"),), ()),
        ]
        referred = build_referred_by(articles)
        assert referred["alpha station"] == ["alpha station", "the halt"]


def test_lead_paragraphs():
    body = "first paragraph.\n\nsecond one.\n\n\nthird."
    assert lead_paragraphs(body) == "first paragraph.\n\nsecond one."
    assert lead_paragraphs("only one") == "only one"
    assert lead_paragraphs("") == ""


class TestBuildDocuments:
    def test_doc_ids_and_fields(self):
        articles = [
            Article("alpha station", "body a [[beta yard]]", (("beta yard", "beta yard"),), ("cat1",)),
            Article("beta yard", "body b", (("alpha station", "the halt"),), ()),
        ]
        referred = build_referred_by(articles)
        docs = build_documents(articles, referred)
        assert [d.doc_id for d in docs] == [0, 1]
        # both phrases have two tokens; the tie falls back to lexicographic
        assert docs[0].referred_by == ("alpha station", "the halt")
        assert docs[0].interwikies == ("beta yard",)
        # all_text carries every field's content
        assert "body a" in docs[0].all_text
        assert "the halt" in docs[0].all_text
        assert "cat1" in docs[0].all_text
        assert docs[0].all_text.startswith("alpha station\n")

    def test_interwikies_deduped_in_order(self):
        articles = [
            Article("a", "", (("b", "b"), ("c", "c"), ("b", "x")), ()),
            Article("b", "", (), ()),
            Article("c", "", (), ()),
        ]
        docs = build_documents(articles, build_referred_by(articles))
        assert docs[0].interwikies == ("b", "c")

    def test_dangling_interwiki_kept(self):
        # The link field preserves what the article pointed at, resolvable
        # or not; only referred_by requires a real target.
        articles = [Article("a", "", (("ghost town", "ghost town"),), ())]
        docs = build_documents(articles, build_referred_by(articles))
        assert docs[0].interwikies == ("ghost town",)


def test_ingest_bundled_fixture(fixture_documents):
    assert len(fixture_documents) == 35
    by_title = {d.title: d for d in fixture_documents}
    # aliases created by other articles' links
    assert "houston" in by_title["whitney houston"].referred_by
    assert "the boss" in by_title["bruce springsteen"].referred_by
    assert "gm" in by_title["general motors"].referred_by
    # longest-first ordering within an entry
    houston = by_title["whitney houston"].referred_by
    assert houston[0] == "whitney houston"
    assert list(houston) == sorted(houston, key=lambda p: (-len(p.split(" ")), p))
    # every document lists its own normalized title
    for doc in fixture_documents:
        assert doc.title in doc.referred_by


def test_ingest_normalizes_each_distinct_string_once(monkeypatch):
    # Titles, link targets and anchors repeat across a corpus; one ingest
    # normalizes each distinct string once, through the module's
    # normalize_phrase, and derives the documents that normalizing every
    # occurrence gives.
    lines = [
        _record("Alpha Station", "x", [{"target": "Beta Yard", "anchor": "the yard"}]),
        _record("Beta Yard", "y", [{"target": "Alpha Station"}, {"target": "beta yard"}]),
        _record("Gamma", "z", [{"target": "Beta Yard", "anchor": "the yard"}]),
    ]
    unmemoized = build_documents(parse_corpus(lines), build_referred_by(parse_corpus(lines)))
    calls = []
    normalize_phrase = corpus_module.normalize_phrase

    def counting(text, **kwargs):
        calls.append(text)
        return normalize_phrase(text, **kwargs)

    monkeypatch.setattr(corpus_module, "normalize_phrase", counting)
    assert ingest(lines) == unmemoized
    assert sorted(calls) == sorted(
        {"Alpha Station", "Beta Yard", "Gamma", "the yard", "beta yard"}
    )
