"""Entity-linking NER over a wiki-style corpus.

The pipeline: ingest articles into four searchable fields, look each
sentence's spans up among the corpus anchor phrases, keep the matches
whose documents the sentence's pooled BM25 retrieval holds, classify
each surviving mention with a gated two-head linear model, and route
long sentences to a per-token baseline tagger instead.

This namespace holds the pipeline's entry points and its two error
types; internals are imported from their own modules.
"""

__version__ = "0.1.0"

from .classifier import EntityType, TrainingConfig, load_model, save_model, train
from .corpus import ingest
from .ensemble import (
    RouterConfig,
    build_training_examples,
    load_window_tagger,
    save_window_tagger,
    tag,
    tag_sentences,
    train_baseline,
)
from .errors import DataFormatError, PipelineError
from .evaluation import TaggedSentence, evaluate, read_conll, write_conll
from .index import CorpusIndex, load_corpus, save_corpus
from .mentions import link_sentence

__all__ = [
    "CorpusIndex",
    "DataFormatError",
    "EntityType",
    "PipelineError",
    "RouterConfig",
    "TaggedSentence",
    "TrainingConfig",
    "build_training_examples",
    "evaluate",
    "ingest",
    "link_sentence",
    "load_corpus",
    "load_model",
    "load_window_tagger",
    "read_conll",
    "save_corpus",
    "save_model",
    "save_window_tagger",
    "tag",
    "tag_sentences",
    "train",
    "train_baseline",
    "write_conll",
]
