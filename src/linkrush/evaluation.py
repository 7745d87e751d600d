"""CoNLL-style tagged-sentence I/O and exact-span scoring.

Scoring is strict: a predicted span counts only when its boundaries and
type both match a gold span. Per-class precision/recall/F1 are macro
averaged, unweighted, over the classes that actually occur in the gold
or predicted data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .classifier import ENTITY_TYPES, EntityType
from .errors import DataFormatError

VALID_TAGS = frozenset(
    {"O"} | {f"{prefix}-{etype.value}" for prefix in "BI" for etype in ENTITY_TYPES}
)

_ID_PREFIX = "# id"


@dataclass(frozen=True)
class TaggedSentence:
    """Tokens with one BIO label each.

    Tags are validated against the label vocabulary; chain well-formedness
    (I-X following B-X/I-X) is not enforced here because files read from
    disk may legitimately violate it — bio_repair normalizes such tags.
    """

    sentence_id: str
    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"sentence {self.sentence_id!r}: {len(self.tokens)} tokens "
                f"but {len(self.tags)} tags"
            )
        for tag in self.tags:
            if tag not in VALID_TAGS:
                raise ValueError(f"sentence {self.sentence_id!r}: invalid tag {tag!r}")

    def __len__(self) -> int:
        return len(self.tokens)


def parse_conll(lines: Iterable[str], *, source_name: str = "<conll>") -> list[TaggedSentence]:
    """Parse CoNLL text: blank-line-separated sentences, `#` comments.

    A `# id ...` comment names the sentence that follows it. Data lines
    carry the token in the first column and the BIO tag in the last;
    middle columns are ignored. Dangling I-X tags are accepted as read;
    scoring repairs them and `EvalReport.repaired_tag_count` counts them.
    """
    sentences: list[TaggedSentence] = []
    sentence_id = ""
    tokens: list[str] = []
    tags: list[str] = []

    def flush() -> None:
        nonlocal sentence_id, tokens, tags
        if tokens:
            sentences.append(TaggedSentence(sentence_id, tuple(tokens), tuple(tags)))
        sentence_id = ""
        tokens = []
        tags = []

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            if line.startswith(_ID_PREFIX):
                sentence_id = line[len(_ID_PREFIX) :].strip()
            continue
        parts = line.split()
        if len(parts) < 2:
            raise DataFormatError(
                f"{source_name} line {lineno}: data line has no tag column: {line!r}"
            )
        token, tag = parts[0], parts[-1]
        if tag not in VALID_TAGS:
            raise DataFormatError(
                f"{source_name} line {lineno}: invalid tag {tag!r}"
            )
        tokens.append(token)
        tags.append(tag)
    flush()
    return sentences


def read_conll(path: str | Path) -> list[TaggedSentence]:
    text = Path(path).read_text(encoding="utf-8")
    return parse_conll(text.splitlines(), source_name=str(path))


def format_conll(sentences: Sequence[TaggedSentence]) -> str:
    """Canonical 4-column rendering: `token _ _ tag`, one blank line
    between sentences, `# id` comments only for named sentences.

    Reading this text back and re-rendering it is byte-identical.
    """
    blocks: list[str] = []
    for sentence in sentences:
        lines: list[str] = []
        if sentence.sentence_id:
            lines.append(f"{_ID_PREFIX} {sentence.sentence_id}")
        lines.extend(
            f"{token} _ _ {tag}" for token, tag in zip(sentence.tokens, sentence.tags)
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def write_conll(sentences: Sequence[TaggedSentence], path: str | Path) -> None:
    Path(path).write_text(format_conll(sentences), encoding="utf-8")


def bio_repair(tags: Sequence[str]) -> list[str]:
    """Turn every I-X that does not continue an X span into B-X."""
    repaired: list[str] = []
    prev_type: str | None = None
    for tag in tags:
        if tag.startswith("I-") and tag[2:] != prev_type:
            tag = "B-" + tag[2:]
        repaired.append(tag)
        prev_type = tag[2:] if tag != "O" else None
    return repaired


def span_extract(tags: Sequence[str]) -> set[tuple[int, int, EntityType]]:
    """Typed (start, end) spans of maximal B/I runs; repairs first."""
    return _spans(bio_repair(tags))


def _spans(tags: Sequence[str]) -> set[tuple[int, int, EntityType]]:
    spans: set[tuple[int, int, EntityType]] = set()
    start: int | None = None
    span_type: str | None = None
    for i, tag in enumerate(tags):
        continues = tag.startswith("I-") and tag[2:] == span_type
        if start is not None and not continues:
            spans.add((start, i, EntityType(span_type)))
            start = None
            span_type = None
        if tag.startswith("B-"):
            start = i
            span_type = tag[2:]
    if start is not None:
        spans.add((start, len(tags), EntityType(span_type)))
    return spans


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float


@dataclass
class EvalReport:
    """Per-class and macro scores over exact span matches."""

    per_class: dict[EntityType, ClassScore]
    support: dict[EntityType, int]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    scored_classes: tuple[str, ...]
    repaired_tag_count: int

    def as_dict(self) -> dict:
        return {
            "per_class": {
                etype.value: {
                    "precision": score.precision,
                    "recall": score.recall,
                    "f1": score.f1,
                }
                for etype, score in self.per_class.items()
            },
            "support": {etype.value: n for etype, n in self.support.items()},
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "scored_classes": list(self.scored_classes),
            "repaired_tag_count": self.repaired_tag_count,
        }


def evaluate(
    gold: Sequence[TaggedSentence], pred: Sequence[TaggedSentence]
) -> EvalReport:
    """Score predictions against gold, both repaired before extraction.

    Classes absent from both sides are left out of the macro average;
    the classes that did count are listed in scored_classes. Misaligned
    inputs (different ids or token counts) are rejected.
    """
    if len(gold) != len(pred):
        raise DataFormatError(
            f"gold has {len(gold)} sentences but predictions have {len(pred)}"
        )
    tp = {etype: 0 for etype in ENTITY_TYPES}
    fp = {etype: 0 for etype in ENTITY_TYPES}
    fn = {etype: 0 for etype in ENTITY_TYPES}
    repaired_count = 0
    for g, p in zip(gold, pred):
        if g.sentence_id != p.sentence_id:
            raise DataFormatError(
                f"sentence id mismatch: gold {g.sentence_id!r} vs "
                f"predicted {p.sentence_id!r}"
            )
        if len(g.tokens) != len(p.tokens):
            raise DataFormatError(
                f"sentence {g.sentence_id!r}: gold has {len(g.tokens)} tokens "
                f"but prediction has {len(p.tokens)}"
            )
        g_tags = bio_repair(g.tags)
        p_tags = bio_repair(p.tags)
        repaired_count += sum(a != b for a, b in zip(g_tags, g.tags))
        repaired_count += sum(a != b for a, b in zip(p_tags, p.tags))
        g_spans = _spans(g_tags)
        p_spans = _spans(p_tags)
        for _, _, etype in g_spans & p_spans:
            tp[etype] += 1
        for _, _, etype in p_spans - g_spans:
            fp[etype] += 1
        for _, _, etype in g_spans - p_spans:
            fn[etype] += 1

    per_class: dict[EntityType, ClassScore] = {}
    for etype in ENTITY_TYPES:
        per_class[etype] = ClassScore(
            precision=_ratio(tp[etype], tp[etype] + fp[etype]),
            recall=_ratio(tp[etype], tp[etype] + fn[etype]),
            f1=_f1(tp[etype], fp[etype], fn[etype]),
        )
    scored = [
        etype for etype in ENTITY_TYPES if tp[etype] + fp[etype] + fn[etype] > 0
    ]
    return EvalReport(
        per_class=per_class,
        support={etype: tp[etype] + fn[etype] for etype in ENTITY_TYPES},
        macro_precision=_mean([per_class[t].precision for t in scored]),
        macro_recall=_mean([per_class[t].recall for t in scored]),
        macro_f1=_mean([per_class[t].f1 for t in scored]),
        scored_classes=tuple(etype.value for etype in scored),
        repaired_tag_count=repaired_count,
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
