"""One measured step of the benchmark, in a process of its own.

    python3 perfbench/measure.py build --work DIR --artifacts DIR --out OUT.json [--trace]
    python3 perfbench/measure.py tag --work DIR --artifacts DIR --out OUT.json \
        --seconds N --route el|baseline --eval-count N --probe-sha SHA [--trace]

`build` is what `linkrush ingest`, `index` and `train` do: dump ->
ingest -> index build -> index save (timed as `build_s`), then training
examples, the mention model, the window tagger and both model saves
(`train_s`). `tag` is what `linkrush tag` does: load the index and both
models (`setup_s`), then tag the sentence stream as one closed-loop
caller for `--seconds`, and at least its first `--eval-count` sentences.

Each step writes its figures, output hashes and checks to `--out`; `tag`
also writes every sentence's latency, which `run.py` pools over rounds. With
`--trace`, spans are recorded through `tracing.install` and per-layer
figures are added; `tag` then tags exactly the first `--eval-count`
sentences, so traced figures cover a fixed amount of work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROBE_SENTENCES = 20

sys.path.insert(0, str(ROOT / "src"))

import linkrush  # noqa: E402
import tracing  # noqa: E402
from linkrush import classifier, corpus, ensemble, evaluation, index  # noqa: E402


class Operations:
    """Attempted and failed operations; a failure never ends the step."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: str, fn, *args):
        """(True, result) or, when `fn` raises, (False, None) and a failure."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # counted and reported; the run goes on
            self.fail(label, f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return False, None

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {reason}")


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tag_all(sentences, corpus_index, model, tagger) -> str:
    """Canonical CoNLL of `sentences` tagged by the ensemble."""
    return evaluation.format_conll(
        ensemble.tag_sentences(sentences, ensemble.RouterConfig(), corpus_index, model, tagger)
    )


def _probe(work: Path) -> list:
    """A few training sentences of each length, tagged to check the
    saved artifacts against the in-memory ones."""
    return (
        evaluation.read_conll(work / "train_short.conll")[:PROBE_SENTENCES]
        + evaluation.read_conll(work / "train_long.conll")[:PROBE_SENTENCES]
    )


def build_step(args, tracer) -> dict:
    work: Path = args.work
    art = args.artifacts
    art.mkdir(parents=True, exist_ok=True)
    ops = Operations()
    group = tracer.next_group if tracer else _no_group

    index_path, model_path, window_path = art / "index.bin", art / "model.bin", art / "window.bin"

    def build_once():
        with open(work / "articles.jsonl", encoding="utf-8") as dump:
            documents = corpus.ingest(dump)
        built = index.CorpusIndex.build(documents)
        built.save(index_path)
        return built

    def train_once():
        short = evaluation.read_conll(work / "train_short.conll")
        long = evaluation.read_conll(work / "train_long.conll")
        examples = ensemble.build_training_examples(short, built)
        model = classifier.train(examples, classifier.TrainingConfig())
        tagger = ensemble.train_baseline(long, classifier.TrainingConfig())
        classifier.save_model(model, model_path)
        ensemble.save_window_tagger(tagger, window_path)
        return model, tagger

    result = {"metrics": {}, "sha": {}, "checks": {}}
    group()
    build_s, built = _timed(ops, "build", build_once)
    if built is None:
        return _finish(result, ops, tracer)
    group()
    train_s, trained = _timed(ops, "train", train_once)
    if trained is None:
        return _finish(result, ops, tracer)
    result["metrics"].update(
        build_s=build_s,
        train_s=train_s,
        index_bytes=index_path.stat().st_size,
        model_bytes=model_path.stat().st_size + window_path.stat().st_size,
        build_peak_rss_mb=_peak_rss_mb(),
    )
    result["sha"] = {"index": _sha256(index_path), "models": _sha256(model_path, window_path)}
    if tracer is None:  # traced runs compare their hashes with the untraced run's
        ok, text = ops.run("tag probe", _tag_all, _probe(work), built, *trained)
        if ok:
            result["sha"]["probe"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return _finish(result, ops, tracer)


def _timed(ops: Operations, label: str, fn) -> tuple[float, object]:
    """Seconds `fn` took and its result (None when it raised)."""
    t0 = time.perf_counter()
    _, value = ops.run(label, fn)
    return time.perf_counter() - t0, value


def tag_step(args, tracer) -> dict:
    art = args.artifacts
    ops = Operations()
    result = {"metrics": {}, "sha": {}, "checks": {}}

    stream = evaluation.read_conll(args.work / "stream.conll")
    # The workload is chosen so that the router sends every sentence one way.
    result["checks"]["stream_takes_one_route"] = all(
        (len(s) > ensemble.DEFAULT_THRESHOLD) == (args.route == "baseline") for s in stream
    )

    def setup():
        return (
            index.CorpusIndex.load(art / "index.bin"),
            classifier.load_model(art / "model.bin"),
            ensemble.load_window_tagger(art / "window.bin"),
        )

    setup_s, loaded = _timed(ops, "setup", setup)
    if loaded is None:
        return _finish(result, ops, tracer)
    index_obj, model, tagger = loaded
    result["metrics"]["setup_s"] = setup_s

    if tracer is None:
        # Saved artifacts must predict what the in-memory ones predicted.
        ok, text = ops.run("tag probe", _tag_all, _probe(args.work), index_obj, model, tagger)
        result["checks"]["probe_matches_build"] = ok and (
            hashlib.sha256(text.encode("utf-8")).hexdigest() == args.probe_sha
        )

    router = ensemble.RouterConfig()
    n = len(stream)
    preds: list = [None] * args.eval_count
    latencies: list[float] = []
    misaligned = 0
    group = tracer.next_group if tracer else _no_group
    i = 0
    t_start = time.perf_counter()
    while True:
        s = stream[i % n]
        group()
        t0 = time.perf_counter()
        ops.attempted += 1
        try:
            pred = ensemble.tag(s.tokens, s.sentence_id, router, index_obj, model, tagger)
        except Exception as exc:  # counted as a failure that misses every latency figure
            pred = None
            ops.fail(f"tag {s.sentence_id}", f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        latencies.append(t1 - t0 if pred is not None else math.inf)
        if pred is not None and (pred.sentence_id, pred.tokens) != (s.sentence_id, s.tokens):
            misaligned += 1
        if i < args.eval_count:
            preds[i] = pred
        i += 1
        if i >= args.eval_count and (tracer or t1 - t_start >= args.seconds):
            break
    tagged = sum(1 for lat in latencies if lat != math.inf)

    result["checks"]["aligned_with_input"] = misaligned == 0

    gold = stream[: args.eval_count]
    preds = [
        p if p is not None else evaluation.TaggedSentence(g.sentence_id, g.tokens, ("O",) * len(g))
        for g, p in zip(gold, preds)
    ]
    pred_path = args.artifacts / "predictions.conll"
    evaluation.write_conll(preds, pred_path)
    result["sha"]["predictions"] = _sha256(pred_path)
    report = evaluation.evaluate(gold, preds)

    result["metrics"].update(
        tag_sents_per_s=tagged / (t1 - t_start),
        macro_f1=report.macro_f1,
        peak_rss_mb=_peak_rss_mb(),
    )
    result["tag_s"] = t1 - t_start
    result["latencies"] = latencies
    result["sentences"] = i
    return _finish(result, ops, tracer)


def _no_group() -> None:
    pass


def _finish(result: dict, ops: Operations, tracer) -> dict:
    result.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["unpatched"] = tracer.unpatched
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("step", choices=("build", "tag"))
    parser.add_argument("--work", type=Path, required=True, help="generated inputs")
    parser.add_argument("--artifacts", type=Path, required=True, help="index and models")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--eval-count", type=int, default=1)
    parser.add_argument("--route", choices=("el", "baseline"), default="el")
    parser.add_argument("--probe-sha", default="")
    args = parser.parse_args()

    origin = Path(linkrush.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        parser.error(f"linkrush imported from {origin}, not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    step = build_step if args.step == "build" else tag_step
    result = step(args, tracer)
    if tracer is not None:
        tracer.write(args.artifacts / f"spans-{args.step}.json")
    args.out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
