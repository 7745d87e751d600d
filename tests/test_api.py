"""The package namespace: the pipeline API, and no import left unused.

`linkrush` re-exports the names that `cli.py` and `perfbench/measure.py`
call, plus the two error types; everything else is imported from its
module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import linkrush

PIPELINE_API = {
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
}

PACKAGE_DIR = Path(linkrush.__file__).parent

# Imports that a module keeps without reading them, each with its reason.
_PATCH_SITE = "perfbench/tracing.py patches and times it in this module"
_RE_EXPORT = "cli.py and perfbench/measure.py read it from this module"
UNUSED_IMPORT_ALLOWLIST = {
    ("ensemble", "dump_json"): _PATCH_SITE,
    ("ensemble", "write_container"): _PATCH_SITE,
    ("ensemble", "save_window_tagger"): _RE_EXPORT,
    ("ensemble", "load_window_tagger"): _RE_EXPORT,
}


def unused_imports(source: str) -> set[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_all_is_the_pipeline_api():
    assert len(linkrush.__all__) == len(PIPELINE_API) == 23
    assert set(linkrush.__all__) == PIPELINE_API


def test_every_exported_name_resolves():
    for name in linkrush.__all__:
        obj = getattr(linkrush, name)
        assert obj.__module__.startswith("linkrush."), name


def test_star_import_binds_exactly_the_api():
    namespace: dict = {}
    exec("from linkrush import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PIPELINE_API


def test_guard_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .x import a, b\nprint(np, a)\n"
    assert unused_imports(source) == {"os", "b"}


def test_no_module_imports_a_name_it_never_uses():
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert found == set(UNUSED_IMPORT_ALLOWLIST)
