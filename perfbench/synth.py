"""Seeded synthetic inputs for the linkrush benchmark.

Everything here is a pure function of a seed and a size: the same seed
and size give the same bytes on every machine with the same NumPy.

- An article dump (JSON lines) with a Zipfian common vocabulary, typed
  titles covering all six entity types, a Zipfian link graph (a few
  popular articles receive most links) and anchors that often differ
  from the target's title, so `referred_by` holds more than the title.
- Gold CoNLL sentences whose mentions are anchors actually used to link
  to their target article. Short sentences have at most
  `SHORT_MAX_TOKENS` tokens (the router threshold), long ones more.

Filler words in sentences come from the same Zipfian distribution as
article text, so query terms hit long postings lists. A few articles
have a common word as an alias; filler occurrences of such a word become
non-entity candidates, which exercises the classifier's gate.

Run as a script to write the files of the benchmark's corpus (20k
articles from corpus seed 0) with the sentences to tag drawn from `--seed`:

    python3 perfbench/synth.py --out DIR --seed 1 --stream short|long --count 1000
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from linkrush.ensemble import DEFAULT_THRESHOLD  # noqa: E402

TYPES = ("PER", "LOC", "GRP", "CORP", "PROD", "CW")

CORPUS_SEED = 0
SHORT_MAX_TOKENS = DEFAULT_THRESHOLD  # short sentences all take the linking path
LONG_TOKENS = (14, 30)

_SUFFIXES = {
    "LOC": ("River", "Valley", "Island", "Harbor", "Province", "Peak"),
    "GRP": ("Party", "Brigade", "Union", "Ensemble", "League", "Quartet"),
    "CORP": ("Inc", "Corporation", "Holdings", "Systems", "Motors", "Labs"),
    "CW": ("Saga", "Chronicle", "Symphony", "Ballad", "Tales", "Canticle"),
}
_ONSETS = "b c d f g h j k l m n p r s t v z br dr gr kr pl st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "th", "x"]


@dataclass(frozen=True)
class CorpusSpec:
    articles: int = 20_000
    vocabulary: int = 30_000
    zipf_exponent: float = 1.05
    cue_words_per_type: int = 6
    common_alias_share: float = 0.03


@dataclass(frozen=True)
class Entity:
    title: tuple[str, ...]
    etype: str
    aliases: tuple[tuple[str, ...], ...]


class World:
    """The generated corpus plus what sentence generation needs from it."""

    def __init__(self, spec: CorpusSpec, seed: int) -> None:
        self.spec = spec
        rng = np.random.default_rng([seed, 0])
        words = _unique_words(rng, spec.vocabulary + 6 * spec.cue_words_per_type + 6000)
        self.common = words[: spec.vocabulary]
        rest = words[spec.vocabulary :]
        n_cue = spec.cue_words_per_type
        self.cues = {t: rest[i * n_cue : (i + 1) * n_cue] for i, t in enumerate(TYPES)}
        self.names = [w.capitalize() for w in rest[6 * n_cue :]]
        self._common_cdf = _zipf_cdf(spec.vocabulary, spec.zipf_exponent)
        self.entities = _make_entities(rng, spec, self.names, self.common)
        # Link popularity: Zipfian over a seeded permutation of articles.
        self._popular = rng.permutation(spec.articles)
        self._article_cdf = _zipf_cdf(spec.articles, 1.0)
        self.anchors_used: list[set[tuple[str, ...]]] = [{e.title} for e in self.entities]
        self.dump_lines = self._make_dump(rng)

    def common_words(self, rng: np.random.Generator, n: int) -> list[str]:
        ranks = np.searchsorted(self._common_cdf, rng.random(n), side="right")
        return [self.common[r] for r in ranks]

    def popular_articles(self, rng: np.random.Generator, n: int) -> list[int]:
        ranks = np.searchsorted(self._article_cdf, rng.random(n), side="right")
        return [int(self._popular[r]) for r in ranks]

    def _make_dump(self, rng: np.random.Generator) -> list[str]:
        lines = []
        for i, entity in enumerate(self.entities):
            cues = self.cues[entity.etype]
            paragraphs = []
            for p, (lo, hi, links) in enumerate(((12, 22, 1), (14, 28, 2), (18, 36, 2))):
                words = self.common_words(rng, int(rng.integers(lo, hi)))
                if p == 0:
                    words[0:0] = [*entity.title, "is", "a", *_pick(rng, cues, 2)]
                else:
                    words.insert(int(rng.integers(0, len(words))), _pick(rng, cues, 1)[0])
                for target in self.popular_articles(rng, int(rng.integers(0, links + 1))):
                    if target == i:
                        continue
                    words.insert(int(rng.integers(1, len(words))), self._link(rng, target))
                paragraphs.append(" ".join(words) + " .")
            categories = [f"{_pick(rng, cues, 1)[0]} {w}" for w in self.common_words(rng, 2)]
            record = {
                "title": " ".join(entity.title),
                "text": "\n\n".join(paragraphs),
                "categories": categories,
            }
            lines.append(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        return lines

    def _link(self, rng: np.random.Generator, target: int) -> str:
        entity = self.entities[target]
        title = " ".join(entity.title)
        if not entity.aliases or rng.random() < 0.45:
            return f"[[{title}]]"
        alias = entity.aliases[int(rng.integers(0, len(entity.aliases)))]
        self.anchors_used[target].add(alias)
        return f"[[{title}|{' '.join(alias)}]]"

    def sentences(self, seed: int, count: int, *, long: bool, purpose: str) -> str:
        """`count` gold CoNLL sentences, short or long, drawn from `seed`.

        `purpose` names the set and salts its random stream, so training
        and workload sentences differ even when their seeds are equal.
        """
        salt = int.from_bytes(purpose.encode("utf-8"), "little")
        rng = np.random.default_rng([seed, salt, int(long)])
        prefix = f"{purpose}-{seed}-"
        blocks = []
        for n in range(count):
            if long:
                length = int(rng.integers(LONG_TOKENS[0], LONG_TOKENS[1] + 1))
                n_mentions = int(rng.integers(1, 5))
            else:
                length = int(rng.integers(5, SHORT_MAX_TOKENS + 1))
                n_mentions = 1 if rng.random() < 0.3 else 2
            limit = LONG_TOKENS[1] + 10 if long else SHORT_MAX_TOKENS
            rows = self._sentence(rng, length, n_mentions, limit)
            body = "\n".join(f"{tok} _ _ {tag}" for tok, tag in rows)
            blocks.append(f"# id {prefix}{n}\n{body}")
        return "\n\n".join(blocks) + "\n"

    def _sentence(
        self, rng: np.random.Generator, length: int, n_mentions: int, limit: int
    ) -> list[tuple[str, str]]:
        mentions = []
        for target in self.popular_articles(rng, n_mentions):
            entity = self.entities[target]
            anchors = sorted(self.anchors_used[target])
            anchor = anchors[int(rng.integers(0, len(anchors)))]
            rows = [(tok, f"{'B' if j == 0 else 'I'}-{entity.etype}") for j, tok in enumerate(anchor)]
            if rng.random() < 0.7:
                rows.append((_pick(rng, self.cues[entity.etype], 1)[0], "O"))
            mentions.append(rows)
        while len(mentions) > 1 and sum(map(len, mentions)) + len(mentions) > limit:
            mentions.pop()
        used = sum(len(m) for m in mentions)
        n_mentions = len(mentions)
        # Each mention is followed by at least one filler token, so spans never touch.
        filler = self.common_words(rng, max(length - used, n_mentions))
        slots = sorted(rng.choice(len(filler), size=n_mentions, replace=False).tolist())
        rows: list[tuple[str, str]] = []
        for pos, word in enumerate(filler):
            if slots and pos == slots[0]:
                slots.pop(0)
                rows.extend(mentions.pop(0))
            rows.append((word, "O"))
        return rows


def _unique_words(rng: np.random.Generator, count: int) -> list[str]:
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < count:
        syllables = int(rng.integers(1, 4))
        word = "".join(
            _ONSETS[int(rng.integers(0, len(_ONSETS)))]
            + _VOWELS[int(rng.integers(0, len(_VOWELS)))]
            + _CODAS[int(rng.integers(0, len(_CODAS)))]
            for _ in range(syllables)
        )
        if len(word) > 2 and word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf[-1] = 2.0  # searchsorted never runs past the end
    return cdf


def _pick(rng: np.random.Generator, items, n: int) -> list[str]:
    return [items[int(i)] for i in rng.integers(0, len(items), size=n)]


def _make_entities(
    rng: np.random.Generator, spec: CorpusSpec, names: list[str], common: list[str]
) -> list[Entity]:
    taken: set[tuple[str, ...]] = set()
    entities: list[Entity] = []
    first_names = names[:400]
    while len(entities) < spec.articles:
        # Equally common types keep every class of the macro F1 well populated.
        etype = TYPES[int(rng.integers(0, len(TYPES)))]
        name = names[int(rng.integers(400, len(names)))]
        other = names[int(rng.integers(400, len(names)))]
        aliases: list[tuple[str, ...]] = []
        if etype == "PER":
            title = (_pick(rng, first_names, 1)[0], name)
            aliases.append((name,))
        elif etype == "PROD":
            title = (name, str(int(rng.integers(2, 100)) * 10))
            aliases.append((name,))
        elif etype == "CW" and rng.random() < 0.5:
            title = ("The", name, "of", other)
            aliases.append((name, "of", other))
        else:
            title = (name, _pick(rng, _SUFFIXES[etype], 1)[0])
            aliases.append((name,))
            if etype == "GRP":
                aliases.append(("the", name, title[1]))
        if rng.random() < spec.common_alias_share:
            aliases.append((common[int(rng.integers(50, 2000))],))
        key = tuple(t.lower() for t in title)
        if key in taken:
            continue
        taken.add(key)
        entities.append(Entity(title, etype, tuple(aliases)))
    return entities


def write_inputs(
    out: Path,
    *,
    corpus_seed: int,
    seed: int,
    stream: str,
    count: int,
    articles: int = CorpusSpec.articles,
    train_short: int = 80,
    train_long: int = 40,
) -> None:
    """The corpus and training sets come from `corpus_seed`; the
    sentences to tag (`stream.conll`, `stream` is short or long) from `seed`."""
    world = World(CorpusSpec(articles=articles), corpus_seed)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "articles.jsonl": "".join(world.dump_lines),
        "train_short.conll": world.sentences(corpus_seed, train_short, long=False, purpose="train"),
        "train_long.conll": world.sentences(corpus_seed, train_long, long=True, purpose="train"),
        "stream.conll": world.sentences(seed, count, long=stream == "long", purpose="stream"),
    }
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--stream", required=True, choices=("short", "long"))
    parser.add_argument("--count", required=True, type=int)
    args = parser.parse_args()
    write_inputs(
        args.out, corpus_seed=CORPUS_SEED, seed=args.seed, stream=args.stream, count=args.count
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
