"""Command-line front end for the linking pipeline.

Subcommands: ingest, index, link, train, tag, eval, stats. Every flag can
also be supplied through an environment variable named LINKRUSH_<FLAG>
(uppercased, dashes to underscores); an explicit flag wins. Exit codes:
0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .classifier import (
    DEFAULT_FEATURE_DIM,
    TrainingConfig,
    load_model,
    save_model,
    train,
)
from .corpus import ingest
from .ensemble import (
    DEFAULT_THRESHOLD,
    RouterConfig,
    build_training_examples,
    load_window_tagger,
    save_window_tagger,
    tag_sentences,
    train_baseline,
)
from .errors import PipelineError
from .evaluation import TaggedSentence, evaluate, read_conll, write_conll
from .index import CorpusIndex, load_corpus, save_corpus
from .mentions import link_sentence
from .representation import DEFAULT_MAX_LEN
from .retrieval import DEFAULT_K, pool_stats, retrieve_pooled
from .storage import FORMAT_VERSIONS, MAGIC_CORPUS, MAGIC_INDEX, MAGIC_MODEL
from .tokenizer import normalize_token, tokenize

_ENV_PREFIX = "LINKRUSH_"

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


class UsageError(Exception):
    """Bad invocation: reported with usage text, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _env_name(flag: str) -> str:
    return _ENV_PREFIX + flag.lstrip("-").upper().replace("-", "_")


def _env_value(flag: str, cast: Callable[[str], object]) -> object | None:
    raw = os.environ.get(_env_name(flag))
    if raw is None:
        return None
    try:
        return cast(raw)
    except ValueError as exc:
        raise UsageError(f"invalid value for {_env_name(flag)}: {raw!r}") from exc


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ValueError(raw)


def _add_option(
    parser: argparse.ArgumentParser,
    flag: str,
    *,
    cast: Callable[[str], object] = str,
    default: object | None = None,
    required: bool = False,
    choices: Sequence[str] | None = None,
    help: str = "",
) -> None:
    """Register a flag whose default may come from the environment."""
    env = _env_value(flag, cast)
    parser.add_argument(
        flag,
        type=cast,
        default=env if env is not None else default,
        required=required and env is None,
        choices=choices,
        help=help,
    )


def _add_flag(parser: argparse.ArgumentParser, flag: str, *, help: str = "") -> None:
    env = _env_value(flag, _parse_bool)
    parser.add_argument(
        flag, action="store_true", default=bool(env) if env is not None else False, help=help
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="linkrush",
        description="Entity-linking NER pipeline over a wiki-style corpus.",
        epilog="Flags may be set via LINKRUSH_<FLAG> environment variables; "
        "explicit flags win.",
    )
    parser.add_argument(
        "--version", action="store_true", help="print version information and exit"
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse a JSON-lines article dump into a corpus file")
    _add_option(p, "--dump", required=True, help="JSON-lines article dump")
    _add_option(p, "--out", required=True, help="corpus file to write")
    _add_flag(p, "--turkish", help="apply Turkish dotted/dotless-I case folding")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("index", help="build the four field indexes from a corpus file")
    _add_option(p, "--corpus", required=True, help="corpus file from ingest")
    _add_option(p, "--out", required=True, help="index file to write")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("link", help="detect and link mentions, one JSON object per sentence")
    _add_option(p, "--index", required=True, help="index file")
    _add_option(p, "--input", required=True, help="sentences to link")
    _add_option(p, "--format", default="text", choices=("text", "conll"),
                help="input format (default: text, one sentence per line)")
    _add_option(p, "--k", cast=int, default=DEFAULT_K,
                help=f"per-field candidates (default {DEFAULT_K})")
    _add_option(p, "--out", help="write JSON lines here instead of stdout")
    p.set_defaults(handler=_cmd_link)

    p = sub.add_parser("train", help="train a model on gold CoNLL data")
    _add_option(p, "--data", required=True, help="gold CoNLL training data")
    _add_option(p, "--out", required=True, help="model file to write")
    _add_option(p, "--kind", default="mention", choices=("mention", "window"),
                help="mention classifier (default) or per-token window tagger")
    _add_option(p, "--corpus", help="index file (required for --kind mention)")
    _add_option(p, "--epochs", cast=int, default=TrainingConfig.epochs)
    _add_option(p, "--lr", cast=float, default=TrainingConfig.learning_rate)
    _add_option(p, "--seed", cast=int, default=TrainingConfig.seed)
    _add_option(p, "--batch-size", cast=int, default=TrainingConfig.batch_size)
    _add_option(p, "--feature-dim", cast=int, default=DEFAULT_FEATURE_DIM)
    _add_option(p, "--k", cast=int, default=DEFAULT_K)
    _add_option(p, "--max-len", cast=int, default=DEFAULT_MAX_LEN)
    _add_flag(p, "--single-head", help="fold the entity gate into a 7th type class")
    _add_flag(p, "--turkish", help="Turkish case folding for --kind window")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("tag", help="tag CoNLL sentences with the tagger ensemble")
    _add_option(p, "--input", required=True, help="CoNLL sentences to tag")
    _add_option(p, "--index", required=True, help="index file")
    _add_option(p, "--model", required=True, help="mention classifier model")
    _add_option(p, "--baseline", help="window tagger model for long sentences")
    _add_option(p, "--threshold", cast=int, default=DEFAULT_THRESHOLD,
                help=f"token count above which the baseline tags (default {DEFAULT_THRESHOLD})")
    _add_option(p, "--k", cast=int, default=DEFAULT_K)
    _add_option(p, "--max-len", cast=int, default=DEFAULT_MAX_LEN)
    _add_option(p, "--out", required=True, help="predicted CoNLL file to write")
    p.set_defaults(handler=_cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold CoNLL data")
    _add_option(p, "--gold", required=True, help="gold CoNLL file")
    _add_option(p, "--pred", required=True, help="predicted CoNLL file")
    _add_option(p, "--json", help="also write the report as JSON here")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("stats", help="candidate-pool diagnostics as a JSON summary")
    _add_option(p, "--index", required=True, help="index file")
    _add_option(p, "--input", required=True, help="sentences to analyze")
    _add_option(p, "--format", default="text", choices=("text", "conll"))
    _add_option(p, "--k", cast=int, default=DEFAULT_K)
    p.set_defaults(handler=_cmd_stats)

    return parser


def _read_input(path: str, fmt: str, *, turkish: bool) -> list[TaggedSentence]:
    if fmt == "conll":
        return read_conll(path)
    sentences: list[TaggedSentence] = []
    count = 0
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        count += 1
        tokens = tuple(tokenize(line, turkish=turkish))
        sentences.append(TaggedSentence(str(count), tokens, ("O",) * len(tokens)))
    return sentences


def _cmd_ingest(args: argparse.Namespace) -> int:
    with open(args.dump, encoding="utf-8") as handle:
        documents = ingest(handle, turkish=args.turkish)
    save_corpus(documents, args.out, turkish=args.turkish)
    print(f"ingested {len(documents)} articles -> {args.out}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    documents, turkish = load_corpus(args.corpus)
    index = CorpusIndex.build(documents, turkish=turkish)
    index.save(args.out)
    print(f"indexed {len(documents)} documents over 4 fields -> {args.out}")
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    index = CorpusIndex.load(args.index)
    sentences = _read_input(args.input, args.format, turkish=index.turkish)
    lines: list[str] = []
    for sentence in sentences:
        normalized = [normalize_token(t, turkish=index.turkish) for t in sentence.tokens]
        mentions = link_sentence(normalized, index, args.k)
        record = {
            "id": sentence.sentence_id,
            "tokens": list(sentence.tokens),
            "mentions": [
                {
                    "start": m.start,
                    "end": m.end,
                    "title": index.titles[m.doc_id],
                    "score": m.pooled_score,
                }
                for m in mentions
            ],
        }
        lines.append(json.dumps(record, ensure_ascii=False, sort_keys=True))
    text = "".join(line + "\n" for line in lines)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    sentences = read_conll(args.data)
    config = TrainingConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    if args.kind == "window":
        if args.single_head:
            raise UsageError("--single-head applies only to --kind mention")
        tagger = train_baseline(
            sentences, config, feature_dim=args.feature_dim, turkish=args.turkish
        )
        save_window_tagger(tagger, args.out)
        print(f"trained window tagger on {len(sentences)} sentences -> {args.out}")
        return 0
    if args.turkish:
        raise UsageError("--turkish applies only to --kind window")
    if not args.corpus:
        raise UsageError("--corpus is required for --kind mention")
    index = CorpusIndex.load(args.corpus)
    examples = build_training_examples(sentences, index, k=args.k, max_len=args.max_len)
    model = train(
        examples, config, feature_dim=args.feature_dim, single_head=args.single_head
    )
    save_model(model, args.out)
    final_loss = model.epoch_losses[-1] if model.epoch_losses else float("nan")
    print(
        f"trained mention classifier on {len(examples)} candidates "
        f"(final epoch loss {final_loss:.4f}) -> {args.out}"
    )
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    index = CorpusIndex.load(args.index)
    model = load_model(args.model)
    tagger = load_window_tagger(args.baseline) if args.baseline else None
    router = RouterConfig(args.threshold if tagger is not None else None)
    sentences = read_conll(args.input)
    predictions = tag_sentences(
        sentences, router, index, model, tagger, k=args.k, max_len=args.max_len
    )
    write_conll(predictions, args.out)
    print(f"tagged {len(predictions)} sentences -> {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    gold = read_conll(args.gold)
    pred = read_conll(args.pred)
    report = evaluate(gold, pred)
    for etype, score in report.per_class.items():
        print(
            f"{etype.value:<5} precision {score.precision:.4f}  "
            f"recall {score.recall:.4f}  f1 {score.f1:.4f}  "
            f"support {report.support[etype]}"
        )
    print(
        f"macro precision {report.macro_precision:.4f}  "
        f"recall {report.macro_recall:.4f}  f1 {report.macro_f1:.4f}"
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    index = CorpusIndex.load(args.index)
    sentences = _read_input(args.input, args.format, turkish=index.turkish)
    normalized = ([normalize_token(t, turkish=index.turkish) for t in s.tokens] for s in sentences)
    stats = pool_stats(retrieve_pooled(tokens, index, args.k) for tokens in normalized)
    print(json.dumps(stats, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.version:
        corpus, index, model = (FORMAT_VERSIONS[m] for m in (MAGIC_CORPUS, MAGIC_INDEX, MAGIC_MODEL))
        print(f"linkrush {__version__} (file formats: corpus {corpus}, index {index}, model {model})")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return int(args.handler(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PipelineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
