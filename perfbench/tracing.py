"""Span tracing of linkrush from outside the library.

`install` replaces names in the linkrush modules with wrappers that
record a span per call: a name, a start, an end and the enclosing span.
Each wrapper replaces the name in the module that *calls* the function
(for example `mentions.retrieve_pooled`, which `link_sentence` calls),
so the library's own files stay untouched. Spans live in flat arrays in
memory and are written out once, at the end of a run.

`hash_feature` is deliberately not wrapped: it runs once per feature
occurrence and timing it would swamp the trace; `features_nnz` counts
that work instead.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

FIELDS = ("title", "referred_by", "interwikies", "all_text")

_HOOK = "trace.hook"


class Tracer:
    """Spans in parallel arrays; span i's parent is an earlier index or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.group = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_group = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.unpatched: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.group.append(self.current_group)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def next_group(self) -> None:
        """Later spans belong to a new group: one sentence, or one build stage."""
        self.current_group += 1

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple], str],
        count: Callable[[dict, tuple, object], None] | None = None,
    ) -> Callable:
        """`fn` recording one span per call, then `count(counts, args, result)`.

        The count hook runs inside its own `trace.hook` span so that its
        cost is not charged to the caller's self time.
        """
        fixed = self.name_id(name) if isinstance(name, str) else None
        hook = self.name_id(_HOOK)

        def traced(*args, **kwargs):
            i = self.open(fixed if fixed is not None else self.name_id(name(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                h = self.open(hook)
                count(self.counts, args, result)
                self.close(h)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name, count=None) -> None:
        """Replace `owner.attr` (a function, method or classmethod) by a wrapper."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.unpatched.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, count)))
        else:
            setattr(owner, attr, self.wrap(raw, name, count))

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time in seconds, and call count.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because there is one thread.
        """
        n = len(self.end)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            label = self.names[self.name[i]]
            seconds[label] += (self.end[i] - self.start[i] - child[i]) / 1e9
            calls[label] += 1
        return seconds, calls

    def write(self, path: Path) -> None:
        """All spans as one JSON object of columns; times in ns."""
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "group": self.group.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "counts": dict(self.counts),
            "unpatched": self.unpatched,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def _add(key: str, amount: Callable[[tuple, object], float]):
    def count(counts: dict, args: tuple, result: object) -> None:
        counts[key] += amount(args, result)

    return count


def _count_pool(counts: dict, args: tuple, pool) -> None:
    counts["retrieval.query_terms"] += len(set(args[0]))
    counts["retrieval.pool_size"] += len(pool.candidates)
    for field, n in pool.per_field_counts.items():
        counts[f"retrieval.results.{field}"] += n


def _count_postings(counts: dict, args: tuple, result) -> None:
    # One posting per distinct (document, term) pair, whatever the index layout.
    counts[f"index.postings.{args[0]}"] += sum(len(set(doc)) for doc in args[1])


def _count_predict(counts: dict, args: tuple, etype) -> None:
    counts["classifier.gate_vetoes"] += etype is None


def _count_route(counts: dict, args: tuple, route) -> None:
    counts["ensemble.route.baseline" if route.value == "baseline" else "ensemble.route.el"] += 1


def _count_ingest(counts: dict, args: tuple, documents) -> None:
    counts["corpus.articles"] += len(documents)
    counts["corpus.anchors"] += sum(len(d.referred_by) for d in documents)


def _count_written(counts: dict, args: tuple, result) -> None:
    counts["storage.bytes_written"] += len(args[2])


def _count_read(counts: dict, args: tuple, payload) -> None:
    counts["storage.bytes_read"] += len(payload)


def install(tracer: Tracer) -> None:
    """Wrap every measured linkrush call; names that no longer exist are
    listed in `tracer.unpatched` and their metrics read 0."""
    from linkrush import classifier, corpus, ensemble, evaluation, index, mentions, representation

    p = tracer.patch
    # Entry points the benchmark itself calls.
    p(corpus, "ingest", "corpus.ingest", _count_ingest)
    p(index.CorpusIndex, "build", "index.build")
    p(index.CorpusIndex, "save", "index.save")
    p(index.CorpusIndex, "load", "index.load")
    p(ensemble, "build_training_examples", "ensemble.build_training_examples")
    p(classifier, "train", "classifier.train", _add("classifier.examples", lambda a, r: len(a[0])))
    p(ensemble, "train_baseline", "ensemble.train_baseline")
    p(classifier, "save_model", "classifier.save_model")
    p(classifier, "load_model", "classifier.load_model")
    p(ensemble, "save_window_tagger", "ensemble.save_window_tagger")
    p(ensemble, "load_window_tagger", "ensemble.load_window_tagger")
    p(ensemble, "tag", "ensemble.tag")
    for name in ("read_conll", "write_conll", "evaluate"):
        p(evaluation, name, f"evaluation.{name}")
    # Calls inside the library, patched where the caller looks them up.
    p(corpus, "normalize_phrase", "tokenizer.normalize_phrase")
    p(index, "tokenize", "tokenizer.tokenize")
    p(representation, "tokenize", "tokenizer.tokenize")
    p(index, "build_field_index", lambda a: f"index.build_field.{a[0]}", _count_postings)
    p(index.CorpusIndex, "search_field", lambda a: f"index.search.{a[1]}")
    for module in (index, classifier, ensemble):
        p(module, "dump_json", "storage.dump_json")
        p(module, "write_container", "storage.write_container", _count_written)
    for module in (index, classifier):
        p(module, "load_json", "storage.load_json")
        p(module, "read_container", "storage.read_container", _count_read)
    p(ensemble, "route", "ensemble.route", _count_route)
    p(ensemble, "tag_el", "ensemble.tag_el")
    p(ensemble, "tag_baseline", "ensemble.tag_baseline")
    p(ensemble, "window_features", "ensemble.window_features")
    p(ensemble, "link_sentence", "mentions.link_sentence")
    p(mentions, "retrieve_pooled", "retrieval.retrieve_pooled", _count_pool)
    p(mentions, "find_matches", "mentions.find_matches",
      _add("mentions.raw_matches", lambda a, r: len(r)))
    p(mentions, "resolve_overlaps", "mentions.resolve_overlaps",
      _add("mentions.kept_matches", lambda a, r: len(r)))
    p(ensemble, "build_representation", "representation.build_representation",
      _add("representation.tokens", lambda a, r: len(r.tokens)))
    p(ensemble, "predict", "classifier.predict", _count_predict)
    p(classifier, "featurize", "classifier.featurize",
      _add("classifier.features_nnz", lambda a, r: r.nnz))
    p(classifier, "_fit", "classifier.fit")
    p(ensemble, "_fit", "classifier.fit")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer figure this tracer can give, keyed by metric name."""
    seconds, calls = tracer.self_times()
    counts = tracer.counts

    def s(*names: str) -> float:
        return sum(seconds.get(n, 0.0) for n in names)

    def c(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    tok = ("tokenizer.tokenize", "tokenizer.normalize_phrase")
    m: dict[str, float] = {
        "tokenizer.tokenize_s": s(*tok),
        "tokenizer.tokenize_calls": c(*tok),
        "corpus.ingest_s": s("corpus.ingest"),
        "corpus.articles": counts["corpus.articles"],
        "corpus.anchors": counts["corpus.anchors"],
        "index.field_tokens_s": s("index.build"),
        "index.save_s": s("index.save"),
        "index.load_s": s("index.load"),
        "retrieval.merge_s": s("retrieval.retrieve_pooled"),
        "retrieval.query_terms": counts["retrieval.query_terms"],
        "retrieval.pool_size": counts["retrieval.pool_size"],
        "mentions.find_matches_s": s("mentions.find_matches"),
        "mentions.resolve_overlaps_s": s("mentions.resolve_overlaps"),
        "mentions.raw_matches": counts["mentions.raw_matches"],
        "mentions.kept_matches": counts["mentions.kept_matches"],
        "mentions.kept_ratio": ratio(counts["mentions.kept_matches"], counts["mentions.raw_matches"]),
        "representation.build_s": s("representation.build_representation"),
        "representation.calls": c("representation.build_representation"),
        "representation.tokens": counts["representation.tokens"],
        "classifier.featurize_s": s("classifier.featurize"),
        "classifier.features_nnz": counts["classifier.features_nnz"],
        "classifier.predict_s": s("classifier.predict"),
        "classifier.mentions": c("classifier.predict"),
        "classifier.gate_vetoes": counts["classifier.gate_vetoes"],
        "classifier.veto_ratio": ratio(counts["classifier.gate_vetoes"], c("classifier.predict")),
        "classifier.train_s": s("classifier.train", "classifier.fit"),
        "classifier.examples": counts["classifier.examples"],
        "classifier.save_model_s": s("classifier.save_model"),
        "classifier.load_model_s": s("classifier.load_model"),
        "ensemble.tag_s": s("ensemble.tag", "ensemble.route"),
        "ensemble.route.el": counts["ensemble.route.el"],
        "ensemble.route.baseline": counts["ensemble.route.baseline"],
        "ensemble.tag_el_s": s("ensemble.tag_el"),
        "ensemble.tag_baseline_s": s("ensemble.tag_baseline"),
        "ensemble.window_features_s": s("ensemble.window_features"),
        "ensemble.window_features_calls": c("ensemble.window_features"),
        "ensemble.build_training_examples_s": s("ensemble.build_training_examples"),
        "ensemble.train_baseline_s": s("ensemble.train_baseline"),
        "ensemble.save_window_tagger_s": s("ensemble.save_window_tagger"),
        "ensemble.load_window_tagger_s": s("ensemble.load_window_tagger"),
        "evaluation.read_conll_s": s("evaluation.read_conll"),
        "evaluation.write_conll_s": s("evaluation.write_conll"),
        "evaluation.evaluate_s": s("evaluation.evaluate"),
        "storage.encode_s": s("storage.dump_json"),
        "storage.decode_s": s("storage.load_json"),
        "storage.write_s": s("storage.write_container"),
        "storage.read_s": s("storage.read_container"),
        "storage.bytes_written": counts["storage.bytes_written"],
        "storage.bytes_read": counts["storage.bytes_read"],
    }
    for field in FIELDS:
        m[f"index.build_s.{field}"] = s(f"index.build_field.{field}")
        m[f"index.postings.{field}"] = counts[f"index.postings.{field}"]
        m[f"index.search_s.{field}"] = s(f"index.search.{field}")
        m[f"index.search_calls.{field}"] = c(f"index.search.{field}")
        m[f"retrieval.results.{field}"] = counts[f"retrieval.results.{field}"]
    return m
