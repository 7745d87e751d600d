"""Entity-linking NER over a wiki-style corpus.

The pipeline: ingest articles into four searchable fields, look each
sentence's spans up among the corpus anchor phrases, keep the matches
whose documents the sentence's pooled BM25 retrieval holds, classify
each surviving mention with a gated two-head linear model, and route
long sentences to a per-token baseline tagger instead.
"""

__version__ = "0.1.0"

from .classifier import (
    EntityType,
    GateDecision,
    MentionClassifier,
    TrainExample,
    TrainingConfig,
    featurize,
    forward,
    load_model,
    loss,
    predict,
    save_model,
    train,
)
from .corpus import Article, IndexedDocument, build_referred_by, extract_links, ingest
from .ensemble import (
    Route,
    RouterConfig,
    WindowTagger,
    build_training_examples,
    load_window_tagger,
    route,
    save_window_tagger,
    tag,
    tag_baseline,
    tag_el,
    tag_sentences,
    train_baseline,
)
from .errors import DataFormatError, PipelineError
from .evaluation import (
    EvalReport,
    TaggedSentence,
    bio_repair,
    evaluate,
    read_conll,
    span_extract,
    write_conll,
)
from .index import CorpusIndex, load_corpus, save_corpus
from .mentions import Mention, find_matches, link_sentence, resolve_overlaps
from .representation import Representation, Segment, build_representation
from .retrieval import PoolMasks, pool_stats, retrieve_pooled
from .tokenizer import normalize_phrase, normalize_token, tokenize

__all__ = [
    "Article",
    "CorpusIndex",
    "DataFormatError",
    "EntityType",
    "EvalReport",
    "GateDecision",
    "IndexedDocument",
    "Mention",
    "MentionClassifier",
    "PipelineError",
    "PoolMasks",
    "Representation",
    "Route",
    "RouterConfig",
    "Segment",
    "TaggedSentence",
    "TrainExample",
    "TrainingConfig",
    "WindowTagger",
    "bio_repair",
    "build_referred_by",
    "build_representation",
    "build_training_examples",
    "evaluate",
    "extract_links",
    "featurize",
    "find_matches",
    "forward",
    "ingest",
    "link_sentence",
    "load_corpus",
    "load_model",
    "load_window_tagger",
    "loss",
    "normalize_phrase",
    "normalize_token",
    "pool_stats",
    "predict",
    "read_conll",
    "resolve_overlaps",
    "retrieve_pooled",
    "route",
    "save_corpus",
    "save_model",
    "save_window_tagger",
    "span_extract",
    "tag",
    "tag_baseline",
    "tag_el",
    "tag_sentences",
    "tokenize",
    "train",
    "train_baseline",
    "write_conll",
]
