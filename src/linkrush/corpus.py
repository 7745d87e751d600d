"""Corpus ingestion: parse article records and derive the four indexable fields.

Input is a JSON-lines stream, one article object per line:

    {"title": str, "text": str, "links": [{"target": str, "anchor": str}],
     "categories": [str]}

`links` may be omitted, in which case `[[Target]]` / `[[Target|anchor]]`
spans are extracted from `text`. Each article becomes an IndexedDocument
carrying the four searchable fields (title, referred_by, interwikies,
all_text) plus the lead paragraphs used later as classifier context.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable

from .errors import DataFormatError
from .tokenizer import normalize_phrase

_LINK_RE = re.compile(r"\[\[([^\[\]]*?)\]\]")

# Paragraphs are separated by one or more blank lines; a document's lead
# is its first LEAD_PARAGRAPHS of them.
_PARAGRAPH_RE = re.compile(r"\n\s*\n")
LEAD_PARAGRAPHS = 2


@dataclass(frozen=True)
class Article:
    """One raw corpus unit before field derivation."""

    title: str
    body: str
    links: tuple[tuple[str, str], ...]  # (target_title, anchor) pairs
    categories: tuple[str, ...]


@dataclass(frozen=True)
class IndexedDocument:
    """An article reshaped into its searchable fields.

    referred_by holds every anchor phrase (plus the title itself) in
    normalized form, longest token count first; all_text concatenates
    title, body, interwikies, referred_by, and categories in that order.
    """

    doc_id: int
    title: str
    referred_by: tuple[str, ...]
    interwikies: tuple[str, ...]
    all_text: str
    lead: str


def extract_links(markup: str) -> list[tuple[str, str]]:
    """Pull (target, anchor) pairs out of [[...]] spans, in order.

    `[[Target]]` yields anchor == target. Unclosed or nested spans are
    skipped rather than treated as errors.
    """
    links: list[tuple[str, str]] = []
    for match in _LINK_RE.finditer(markup):
        inner = match.group(1)
        target, _, anchor = inner.partition("|")
        if not target.strip():
            continue
        links.append((target, anchor if anchor.strip() else target))
    return links


def parse_corpus(
    source: Iterable[str], *, normalize: Callable[[str], str] = normalize_phrase
) -> list[Article]:
    """Parse a JSON-lines article stream into Articles, preserving order.

    Raises DataFormatError with the offending line number on malformed
    records, and one error naming every duplicated title (titles are
    compared in the form `normalize` gives).
    """
    articles: list[Article] = []
    seen: dict[str, int] = {}
    duplicates: list[str] = []
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"line {lineno}: invalid JSON record: {exc}") from exc
        article = _record_to_article(record, lineno)
        key = normalize(article.title)
        if not key:
            raise DataFormatError(f"line {lineno}: article title has no tokens")
        if key in seen:
            duplicates.append(
                f"duplicate title {article.title!r} on lines {seen[key]} and {lineno}"
            )
        else:
            seen[key] = lineno
        articles.append(article)
    if duplicates:
        raise DataFormatError("; ".join(duplicates))
    return articles


def _record_to_article(record: object, lineno: int) -> Article:
    if not isinstance(record, dict):
        raise DataFormatError(f"line {lineno}: record is not a JSON object")
    title = record.get("title")
    if not isinstance(title, str) or not title.strip():
        raise DataFormatError(f"line {lineno}: missing or empty 'title'")
    body = record.get("text", "")
    if not isinstance(body, str):
        raise DataFormatError(f"line {lineno}: 'text' must be a string")

    if "links" in record:
        raw_links = record["links"]
        if not isinstance(raw_links, list):
            raise DataFormatError(f"line {lineno}: 'links' must be a list")
        links = []
        for entry in raw_links:
            if not isinstance(entry, dict) or "target" not in entry:
                raise DataFormatError(f"line {lineno}: malformed link entry {entry!r}")
            target = entry["target"]
            anchor = entry.get("anchor", "")
            if not isinstance(target, str) or not isinstance(anchor, str):
                raise DataFormatError(f"line {lineno}: link fields must be strings")
            # Empty anchors fall back to the target title.
            links.append((target, anchor if anchor.strip() else target))
    else:
        links = extract_links(body)

    categories = record.get("categories", [])
    if not isinstance(categories, list) or any(not isinstance(c, str) for c in categories):
        raise DataFormatError(f"line {lineno}: 'categories' must be a list of strings")
    return Article(title=title, body=body, links=tuple(links), categories=tuple(categories))


def build_referred_by(
    articles: list[Article], *, normalize: Callable[[str], str] = normalize_phrase
) -> dict[str, list[str]]:
    """Collect, per article, every anchor other articles use to link to it.

    The article's own title is always included. Anchors are normalized
    by `normalize`, de-duplicated, and sorted longest token count first
    (lexicographic on ties). Link targets that match no article produce
    no entry.
    """
    by_norm_title: dict[str, str] = {}
    for article in articles:
        by_norm_title[normalize(article.title)] = article.title

    anchors: dict[str, set[str]] = {article.title: set() for article in articles}
    for article in articles:
        for target, anchor in article.links:
            owner = by_norm_title.get(normalize(target))
            if owner is None or owner == article.title:
                continue
            normalized = normalize(anchor)
            if normalized:
                anchors[owner].add(normalized)

    referred_by: dict[str, list[str]] = {}
    for article in articles:
        phrases = anchors[article.title]
        phrases.add(normalize(article.title))
        referred_by[article.title] = sorted(
            phrases, key=lambda p: (-len(p.split(" ")), p)
        )
    return referred_by


def lead_paragraphs(body: str) -> str:
    """First `LEAD_PARAGRAPHS` paragraphs of a body, joined by one blank line."""
    paragraphs = [p for p in _PARAGRAPH_RE.split(body) if p.strip()]
    return "\n\n".join(paragraphs[:LEAD_PARAGRAPHS])


def build_documents(
    articles: list[Article],
    referred_by: dict[str, list[str]],
) -> list[IndexedDocument]:
    """Derive one IndexedDocument per article, doc_ids 0..n-1 in input order."""
    documents: list[IndexedDocument] = []
    for doc_id, article in enumerate(articles):
        phrases = tuple(referred_by[article.title])
        interwikies = _unique(target for target, _ in article.links)
        all_text = "\n".join(
            [
                article.title,
                article.body,
                "\n".join(interwikies),
                "\n".join(phrases),
                "\n".join(article.categories),
            ]
        )
        documents.append(
            IndexedDocument(
                doc_id=doc_id,
                title=article.title,
                referred_by=phrases,
                interwikies=interwikies,
                all_text=all_text,
                lead=lead_paragraphs(article.body),
            )
        )
    return documents


def ingest(source: Iterable[str], *, turkish: bool = False) -> list[IndexedDocument]:
    """Full ingestion pass: parse, collect anchors, derive documents,
    normalizing each distinct title, link target and anchor once."""
    normalize = cache(partial(normalize_phrase, turkish=turkish))
    articles = parse_corpus(source, normalize=normalize)
    referred_by = build_referred_by(articles, normalize=normalize)
    return build_documents(articles, referred_by)


def _unique(items: Iterable[str]) -> tuple[str, ...]:
    seen: set[str] = set()
    out: list[str] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return tuple(out)
