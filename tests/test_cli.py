"""Command-line interface: exit codes, env defaults, and the full pipeline."""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from oracles import index_arrays, save_index_v1, write_index_arrays, write_index_raw

from linkrush import __version__
from linkrush.cli import main
from linkrush.index import FIELD_NAMES, CorpusIndex, load_corpus
from linkrush.storage import (
    MAGIC_CORPUS,
    MAGIC_INDEX,
    MAGIC_MODEL,
    dump_json,
    load_json,
    read_container,
    write_container,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopLevel:
    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert __version__ in out

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "ingest", "--dump", "x.jsonl")
        assert code == 1
        assert "--out" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "ingest", "--bogus", "1")
        assert code == 1
        assert err


class TestErrorPaths:
    def test_malformed_dump_line_numbered(self, tmp_path, capsys):
        dump = tmp_path / "bad.jsonl"
        dump.write_text(
            '{"title": "ok", "text": "fine.", "categories": []}\n{not json\n',
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "ingest", "--dump", str(dump), "--out", str(tmp_path / "c.bin")
        )
        assert code == 2
        assert "line 2" in err

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "ingest",
            "--dump",
            str(tmp_path / "nope.jsonl"),
            "--out",
            str(tmp_path / "c.bin"),
        )
        assert code == 2
        assert err

    def test_duplicate_titles_rejected(self, tmp_path, capsys):
        dump = tmp_path / "dup.jsonl"
        record = '{"title": "twin", "text": "same.", "categories": []}\n'
        dump.write_text(record + record, encoding="utf-8")
        code, _, err = run(
            capsys, "ingest", "--dump", str(dump), "--out", str(tmp_path / "c.bin")
        )
        assert code == 2
        assert "twin" in err

    def test_single_head_rejected_for_window_kind(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "train",
            "--kind", "window",
            "--single-head",
            "--data", str(FIXTURES / "gold.conll"),
            "--out", str(tmp_path / "m.bin"),
        )
        assert code == 1
        assert "--single-head" in err

    @pytest.mark.parametrize("kind, flag", [("mention", "--turkish"), ("window", "--single-head")])
    def test_flag_of_the_other_kind_exits_one(self, tmp_path, capsys, kind, flag):
        out = tmp_path / "m.bin"
        code, _, err = run(
            capsys, "train", "--kind", kind, flag, "--corpus", str(tmp_path / "unread.bin"),
            "--data", str(FIXTURES / "gold.conll"), "--out", str(out),
        )
        assert code == 1
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    def test_mention_kind_requires_corpus(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "train",
            "--data", str(FIXTURES / "gold.conll"),
            "--out", str(tmp_path / "m.bin"),
        )
        assert code == 1
        assert "--corpus" in err

    def test_malformed_index_exits_two(self, tmp_path, capsys):
        index = tmp_path / "index.bin"
        header = {
            "turkish": False,
            "terms": {name: [] for name in FIELD_NAMES},
            "titles": [],
            "referred_by": [],
            "arrays": [],
        }
        write_index_raw(index, header, b"")
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("Nokia was founded in 1865\n", encoding="utf-8")
        code, _, err = run(
            capsys, "link", "--index", str(index), "--input", str(sentences)
        )
        assert code == 2
        assert "'title.offsets'" in err and "lacks" in err
        assert "Traceback" not in err

    def test_invalid_env_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LINKRUSH_K", "not-a-number")
        code, _, err = run(capsys, "--version")
        assert code == 1
        assert "LINKRUSH_K" in err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once; every artifact test reuses the outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "corpus": root / "corpus.bin",
        "index": root / "index.bin",
        "model": root / "model.bin",
        "window": root / "window.bin",
        "pred": root / "pred.conll",
        "report": root / "report.json",
        "links": root / "links.jsonl",
    }
    steps = [
        ["ingest", "--dump", str(FIXTURES / "articles.jsonl"), "--out", str(paths["corpus"])],
        ["index", "--corpus", str(paths["corpus"]), "--out", str(paths["index"])],
        [
            "train", "--data", str(FIXTURES / "gold.conll"),
            "--corpus", str(paths["index"]), "--out", str(paths["model"]),
        ],
        [
            "train", "--kind", "window", "--data", str(FIXTURES / "gold.conll"),
            "--out", str(paths["window"]),
        ],
        [
            "tag", "--input", str(FIXTURES / "gold.conll"),
            "--index", str(paths["index"]), "--model", str(paths["model"]),
            "--baseline", str(paths["window"]), "--threshold", "11",
            "--out", str(paths["pred"]),
        ],
        [
            "eval", "--gold", str(FIXTURES / "gold.conll"),
            "--pred", str(paths["pred"]), "--json", str(paths["report"]),
        ],
        [
            "link", "--index", str(paths["index"]),
            "--input", str(FIXTURES / "gold.conll"), "--format", "conll",
            "--out", str(paths["links"]),
        ],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return paths


class TestPipeline:
    def test_all_artifacts_written(self, pipeline):
        for path in pipeline.values():
            assert path.exists() and path.stat().st_size > 0

    def test_eval_report_is_perfect(self, pipeline):
        report = json.loads(pipeline["report"].read_text(encoding="utf-8"))
        assert report["macro_f1"] == 1.0
        assert report["macro_precision"] == 1.0
        assert report["macro_recall"] == 1.0
        assert sorted(report["scored_classes"]) == sorted(
            ["PER", "LOC", "GRP", "CORP", "PROD", "CW"]
        )

    def test_predictions_align_with_gold(self, pipeline):
        from linkrush.evaluation import read_conll

        gold = read_conll(FIXTURES / "gold.conll")
        pred = read_conll(pipeline["pred"])
        assert [s.sentence_id for s in pred] == [s.sentence_id for s in gold]
        assert all(p.tokens == g.tokens for p, g in zip(pred, gold))

    def test_link_output_schema(self, pipeline):
        records = [
            json.loads(line)
            for line in pipeline["links"].read_text(encoding="utf-8").splitlines()
        ]
        assert len(records) == 32
        by_id = {r["id"]: r for r in records}
        nokia = by_id["s21"]  # "the nokia 2010 sold well in stores"
        assert {"id", "mentions", "tokens"} <= set(nokia)
        spans = {(m["start"], m["end"]): m["title"] for m in nokia["mentions"]}
        assert spans[(1, 3)] == "nokia 2010"
        for record in records:
            for m in record["mentions"]:
                assert set(m) == {"start", "end", "title", "score"}
                assert 0 <= m["start"] < m["end"] <= len(record["tokens"])

    def test_stats_reports_no_empty_pools(self, pipeline, capsys):
        code, out, _ = run(
            capsys,
            "stats",
            "--index", str(pipeline["index"]),
            "--input", str(FIXTURES / "gold.conll"),
            "--format", "conll",
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["empty_pool_count"] == 0
        assert stats["sentence_count"] == 32
        assert stats["avg_pool_size"] > 0

    def test_ingest_and_index_are_idempotent(self, pipeline, tmp_path, capsys):
        corpus2 = tmp_path / "corpus2.bin"
        index2 = tmp_path / "index2.bin"
        code, _, _ = run(
            capsys, "ingest",
            "--dump", str(FIXTURES / "articles.jsonl"), "--out", str(corpus2),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "index", "--corpus", str(corpus2), "--out", str(index2)
        )
        assert code == 0
        assert corpus2.read_bytes() == pipeline["corpus"].read_bytes()
        assert index2.read_bytes() == pipeline["index"].read_bytes()

    def test_tag_without_baseline_routes_everything_to_linking(
        self, pipeline, tmp_path, capsys
    ):
        out = tmp_path / "pred_el.conll"
        code, _, _ = run(
            capsys,
            "tag",
            "--input", str(FIXTURES / "gold.conll"),
            "--index", str(pipeline["index"]),
            "--model", str(pipeline["model"]),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == pipeline["pred"].read_bytes()

    def test_eval_prints_macro_line(self, pipeline, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--gold", str(FIXTURES / "gold.conll"),
            "--pred", str(pipeline["pred"]),
        )
        assert code == 0
        assert "macro precision 1.0000" in out
        assert out.count("support") == 6

    def test_misaligned_eval_exits_two(self, pipeline, tmp_path, capsys):
        truncated = tmp_path / "short.conll"
        text = (FIXTURES / "gold.conll").read_text(encoding="utf-8")
        blocks = text.split("\n\n")
        truncated.write_text("\n\n".join(blocks[:5]) + "\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "eval", "--gold", str(FIXTURES / "gold.conll"), "--pred", str(truncated),
        )
        assert code == 2
        assert "sentences" in err


class TestEnvDefaults:
    def test_env_supplies_option_value(self, pipeline, capsys, monkeypatch):
        _, default_out, _ = run(
            capsys, "stats",
            "--index", str(pipeline["index"]),
            "--input", str(FIXTURES / "gold.conll"), "--format", "conll",
        )
        monkeypatch.setenv("LINKRUSH_K", "1")
        _, env_out, _ = run(
            capsys, "stats",
            "--index", str(pipeline["index"]),
            "--input", str(FIXTURES / "gold.conll"), "--format", "conll",
        )
        assert env_out != default_out

    def test_explicit_flag_beats_env(self, pipeline, capsys, monkeypatch):
        _, default_out, _ = run(
            capsys, "stats",
            "--index", str(pipeline["index"]),
            "--input", str(FIXTURES / "gold.conll"), "--format", "conll",
        )
        monkeypatch.setenv("LINKRUSH_K", "1")
        _, flag_out, _ = run(
            capsys, "stats", "--k", "200",
            "--index", str(pipeline["index"]),
            "--input", str(FIXTURES / "gold.conll"), "--format", "conll",
        )
        assert flag_out == default_out

    def test_env_can_satisfy_required_option(self, tmp_path, capsys, monkeypatch):
        dump = tmp_path / "one.jsonl"
        dump.write_text(
            '{"title": "solo", "text": "a single page.", "categories": []}\n',
            encoding="utf-8",
        )
        monkeypatch.setenv("LINKRUSH_DUMP", str(dump))
        monkeypatch.setenv("LINKRUSH_OUT", str(tmp_path / "c.bin"))
        code, out, _ = run(capsys, "ingest")
        assert code == 0
        assert "1 articles" in out


class TestTextInput:
    def test_link_reads_plain_text(self, pipeline, tmp_path, capsys):
        text = tmp_path / "sentences.txt"
        text.write_text("the nokia 2010 sold well\n\nhikers love granite\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "link", "--index", str(pipeline["index"]), "--input", str(text)
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["id"] for r in records] == ["1", "2"]
        assert records[0]["tokens"] == ["the", "nokia", "2010", "sold", "well"]
        titles = {m["title"] for m in records[0]["mentions"]}
        assert "nokia 2010" in titles


class TestLinkOutputPinned:
    """`link` and `stats` on the fixtures, pinned by SHA-256 of their
    output as the pool-first linker wrote it."""

    def test_link_bytes(self, pipeline):
        digest = hashlib.sha256(pipeline["links"].read_bytes()).hexdigest()
        assert digest == "396a405f11ef2581c2b53aee9165c6ef82759d7262808ea62ca64f1ac729b70f"

    @pytest.mark.parametrize(
        "k, expected",
        [
            ("200", "a777579c7518d23dd0abb0e70f10ae7fad322528b60765ccac025384f5e1fb45"),
            ("1", "fa53219df707048b61530b9de51a197fc2ef2f5388430f79fef7766d1e677355"),
        ],
    )
    def test_stats_bytes(self, pipeline, capsys, k, expected):
        code, out, _ = run(
            capsys, "stats", "--index", str(pipeline["index"]),
            "--input", str(FIXTURES / "gold.conll"), "--format", "conll", "--k", k,
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


class TestLeadValidation:
    def test_lead_split_inside_a_character_exits_two(self, pipeline, tmp_path, capsys):
        """A lead boundary moved into a two-byte character exits 2 on load,
        though the sentence links to neither lead."""
        header, arrays = index_arrays(pipeline["index"])
        offsets, section = arrays["lead_offsets"], arrays["leads"]
        i = next(i for i in range(1, len(offsets) - 1) if offsets[i - 1] < offsets[i] < offsets[i + 1] - 1)
        section[offsets[i] : offsets[i] + 2] = list("é".encode("utf-8"))
        offsets[i] += 1
        path, sentences = tmp_path / "index.bin", tmp_path / "sentences.txt"
        write_index_arrays(path, header, arrays)
        sentences.write_text("zzz qqq\n", encoding="utf-8")
        code, out, err = run(capsys, "link", "--index", str(path), "--input", str(sentences))
        assert (code, out) == (2, "")
        assert f"lead {i - 1} is not valid UTF-8" in err
        assert "Traceback" not in err


class TestDocumentRecordValidation:
    """A malformed document record in a corpus file exits 2 on load,
    before anything is indexed. (Index files hold no document records
    since format 2; `test_index.py` checks their titles, phrase lists and
    leads.)"""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("referred_by", "abc", "referred_by"),
            ("referred_by", [5], "referred_by"),
            ("interwikies", None, "interwikies"),
            ("lead", 5, "lead"),
            ("title", None, "title"),
            ("all_text", ["a"], "all_text"),
            ("doc_id", 7, "doc_id 7"),
            ("doc_id", True, "doc_id True"),
        ],
    )
    def test_bad_record_exits_two(self, pipeline, tmp_path, capsys, key, value, message):
        payload = load_json(read_container(pipeline["corpus"], MAGIC_CORPUS), pipeline["corpus"])
        payload["documents"][0][key] = value
        corpus, index = tmp_path / "corpus.bin", tmp_path / "index.bin"
        write_container(corpus, MAGIC_CORPUS, dump_json(payload))
        code, out, err = run(capsys, "index", "--corpus", str(corpus), "--out", str(index))
        assert code == 2
        assert out == ""
        assert "document 0" in err and message in err
        assert "Traceback" not in err
        assert not index.exists()


def _fuzz_cases(data, rng, header_end):
    """Seeded cut lengths, and (position, xor mask) byte flips, of a
    file whose header ends at `header_end`: the framing bytes, the header
    boundary and the last byte always, then random positions anywhere
    and after the header."""
    cuts = {0, 8, 9, header_end, header_end + 1, len(data) - 1}
    cuts |= {int(c) for c in rng.integers(0, len(data), 60)}
    flips = {int(p) for p in rng.integers(0, len(data), 150)}
    flips |= set(range(10)) | {header_end, header_end + 1, len(data) - 1}
    flips |= {int(p) for p in rng.integers(header_end, len(data), 50)}
    return sorted(cuts), [(p, int(rng.integers(1, 256))) for p in sorted(flips)]


def _damaged(data, cuts, flips):
    """`data` cut at each length, then with each byte flip applied."""
    damaged = [data[:cut] for cut in cuts]
    for position, mask in flips:
        flipped = bytearray(data)
        flipped[position] ^= mask
        damaged.append(bytes(flipped))
    return damaged


class TestFuzzedFiles:
    """Seeded truncations, byte flips and key deletions of a saved index
    and corpus, through the CLI. Every damaged index exits 2: the CRC
    covers the header and the arrays. A damaged corpus exits 2 when it is
    truncated or loses a key; a flipped byte inside a JSON string can
    leave a valid corpus, so a flip exits 0 or 2. None exits 1 or raises."""

    def _index_exit(self, capsys, path, sentences):
        code, out, err = run(capsys, "link", "--index", str(path), "--input", str(sentences))
        assert "Traceback" not in err
        return code, out

    def test_index_mutations_exit_two(self, pipeline, tmp_path, capsys):
        data = pipeline["index"].read_bytes()
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("the nokia 2010 sold well\n", encoding="utf-8")
        path = tmp_path / "index.bin"
        cuts, flips = _fuzz_cases(data, np.random.default_rng(18), data.index(b"\n"))
        damaged = _damaged(data, cuts, flips)
        payload = read_container(pipeline["index"], MAGIC_INDEX)
        sep = payload.index(b"\n")
        header = load_json(payload[:sep], pipeline["index"])
        for key in sorted(header):
            rest = {k: v for k, v in header.items() if k != key}
            damaged.append(data[:9] + dump_json(rest) + payload[sep:])
        assert len(damaged) > 250
        for bad in damaged:
            path.write_bytes(bad)
            assert self._index_exit(capsys, path, sentences) == (2, "")
        path.write_bytes(data)
        assert self._index_exit(capsys, path, sentences)[0] == 0

    def test_corpus_mutations_exit_zero_or_two(self, pipeline, tmp_path, capsys):
        data = pipeline["corpus"].read_bytes()
        path, out = tmp_path / "corpus.bin", tmp_path / "index.bin"

        def index_exit(bad):
            path.write_bytes(bad)
            code, _, err = run(capsys, "index", "--corpus", str(path), "--out", str(out))
            assert "Traceback" not in err
            return code

        cuts, flips = _fuzz_cases(data, np.random.default_rng(7), 9)
        for cut in cuts:
            assert index_exit(data[:cut]) == 2
        payload = load_json(read_container(pipeline["corpus"], MAGIC_CORPUS), path)
        for key in sorted(payload):
            rest = {k: v for k, v in payload.items() if k != key}
            assert index_exit(data[:9] + dump_json(rest)) == 2
        for key in sorted(payload["documents"][0]):
            docs = [dict(d) for d in payload["documents"]]
            del docs[3][key]
            assert index_exit(data[:9] + dump_json({**payload, "documents": docs})) == 2
        codes = []
        for position, mask in flips:
            flipped = bytearray(data)
            flipped[position] ^= mask
            codes.append(index_exit(bytes(flipped)))
        assert set(codes) <= {0, 2} and codes.count(2) > len(codes) // 4
        assert index_exit(data) == 0

    def test_format_1_index_names_the_rebuild(self, pipeline, tmp_path, capsys):
        documents, _ = load_corpus(pipeline["corpus"])
        path = tmp_path / "v1.bin"
        save_index_v1(path, documents, CorpusIndex.build(documents).fields)
        code, out, err = run(
            capsys, "link", "--index", str(path), "--input", str(FIXTURES / "gold.conll"),
            "--format", "conll",
        )
        assert (code, out) == (2, "")
        assert "version 1" in err and "linkrush index" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def small_models(pipeline, tmp_path_factory):
    """A 1024-wide mention classifier and window tagger, trained by the CLI."""
    root = tmp_path_factory.mktemp("small_models")
    paths = {"mention": root / "model.bin", "window": root / "window.bin"}
    common = ["--data", str(FIXTURES / "gold.conll"), "--feature-dim", "1024", "--epochs", "2"]
    assert main(["train", *common, "--corpus", str(pipeline["index"]),
                 "--out", str(paths["mention"])]) == 0
    assert main(["train", "--kind", "window", *common, "--out", str(paths["window"])]) == 0
    return paths


def _split_model(path):
    payload = read_container(path, MAGIC_MODEL)
    sep = payload.index(b"\n")
    return load_json(payload[:sep], path), payload[sep + 1 :]


def _drop_b_type(header, weights):
    header["arrays"] = [entry for entry in header["arrays"] if entry[0] != "b_type"]
    return header, weights[: -7 * 8] if header["single_head"] else weights[: -6 * 8]


def _narrow(dim, *, keep_highest=False):
    """Keep only the touched columns below `dim`, cut every weight matrix
    to them and say so consistently in the header, so only the value of
    `feature_dim` is wrong. With `keep_highest`, the highest touched
    column, at or above `dim`, stays too, so only its id is wrong."""

    def edit(header, weights):
        values, offset = {}, 0
        for name, dtype, shape in header["arrays"]:
            count = int(np.prod(shape))
            values[name] = np.frombuffer(weights, dtype, count, offset).reshape(shape)
            offset += count * np.dtype(dtype).itemsize
        keep = values["touched"] < dim
        if keep_highest:
            assert values["touched"][-1] >= dim
            keep[-1] = True
        parts = []
        for entry in header["arrays"]:
            array = values[entry[0]]
            if entry[0] == "touched":
                array = array[keep]
            elif array.ndim == 2:
                array = array[:, keep]
            entry[2] = list(array.shape)
            parts.append(np.ascontiguousarray(array).tobytes())
        header["feature_dim"] = dim
        return header, b"".join(parts)

    return edit


def _set(key, value):
    def edit(header, weights):
        header[key] = value
        return header, weights

    return edit


def _delete(key):
    def edit(header, weights):
        del header[key]
        return header, weights

    return edit


_HEADER_KEYS = ("arrays", "crc32", "epoch_losses", "feature_dim", "kind", "single_head", "turkish")

# Each case's edit, and the words of the check that must refuse it (per
# model kind where the kinds differ).
_BAD_HEADERS = {
    **{f"no-{key}": (_delete(key), f"missing ['{key}']") for key in _HEADER_KEYS if key != "kind"},
    "no-kind": (_delete("kind"), "model, found None"),
    "feature_dim-512-below-a-touched-id": (
        _narrow(512, keep_highest=True), "touched column ids must increase strictly within [0, 512)"
    ),
    "feature_dim-not-a-power-of-two": (_set("feature_dim", 1000), "feature_dim must be a power of two"),
    "feature_dim-1000-with-1000-wide-arrays": (_narrow(1000), "feature_dim must be a power of two"),
    "feature_dim-0-with-0-wide-arrays": (_narrow(0), "feature_dim must be a power of two"),
    "feature_dim-a-string": (_set("feature_dim", "1024"), "feature_dim must be a power of two"),
    "feature_dim-a-bool": (_set("feature_dim", True), "feature_dim must be a power of two"),
    "arrays-without-b_type": (_drop_b_type, "do not match the"),
    "arrays-not-a-list": (_set("arrays", "W_type"), "arrays must start with the ids"),
    "single_head-flipped": (
        lambda h, w: _set("single_head", not h["single_head"])(h, w),
        {"mention": "do not match the single-head layout",
         "window": "a window tagger must be a single-head model"},
    ),
    "single_head-a-number": (_set("single_head", 1), "single_head must be true or false"),
    "turkish-null": (_set("turkish", None), "turkish must be true or false"),
    "epoch_losses-a-string": (_set("epoch_losses", "0.5"), "epoch_losses must be a list"),
    "epoch_losses-with-a-bool": (_set("epoch_losses", [0.5, True]), "epoch_losses must be a list"),
    "unknown-key": (_set("dims", 1024), "unexpected ['dims']"),
    "header-a-list": (lambda h, w: ([h], w), "malformed model header"),
}


def _resigned(header, weights):
    """The header with its crc32, when it still has one, made right for the
    edited header and weights, so that the edit alone is wrong."""
    if isinstance(header, dict) and "crc32" in header:
        unsigned = {key: value for key, value in header.items() if key != "crc32"}
        header["crc32"] = zlib.crc32(weights, zlib.crc32(dump_json(unsigned)))
    return header


class TestTrainingFlags:
    """A training flag out of its range exits 2, names the setting and
    writes no model, for either kind."""

    @pytest.mark.parametrize("kind", ["mention", "window"])
    @pytest.mark.parametrize(
        "flag, value, setting",
        [
            ("--batch-size", "-3", "batch_size"),
            ("--batch-size", "0", "batch_size"),
            ("--epochs", "0", "epochs"),
            ("--epochs", "-1", "epochs"),
            ("--lr", "nan", "learning_rate"),
            ("--lr", "inf", "learning_rate"),
            ("--lr", "-0.5", "learning_rate"),
        ],
    )
    def test_bad_value_exits_two(self, pipeline, tmp_path, capsys, kind, flag, value, setting):
        out = tmp_path / "m.bin"
        code, stdout, err = run(
            capsys, "train", "--kind", kind, "--data", str(FIXTURES / "gold.conll"),
            *(["--corpus", str(pipeline["index"])] if kind == "mention" else []),
            "--feature-dim", "1024", flag, value, "--out", str(out),
        )
        assert (code, stdout) == (2, ""), err
        assert setting in err and value in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["mention", "window"])
    def test_zero_learning_rate_is_accepted(self, pipeline, tmp_path, capsys, kind):
        out = tmp_path / "m.bin"
        code, _, err = run(
            capsys, "train", "--kind", kind, "--data", str(FIXTURES / "gold.conll"),
            *(["--corpus", str(pipeline["index"])] if kind == "mention" else []),
            "--feature-dim", "1024", "--epochs", "1", "--lr", "0", "--out", str(out),
        )
        assert code == 0, err
        assert out.exists()


class TestModelFileValidation:
    """A malformed model file, of either kind, exits 2 on load with no
    traceback and no output."""

    def _tag(self, capsys, pipeline, small_models, kind, path):
        model = path if kind == "mention" else small_models["mention"]
        baseline = path if kind == "window" else small_models["window"]
        return run(
            capsys, "tag", "--input", str(FIXTURES / "gold.conll"),
            "--index", str(pipeline["index"]), "--model", str(model),
            "--baseline", str(baseline), "--out", str(path.parent / "pred.conll"),
        )

    def test_valid_files_tag(self, pipeline, small_models, capsys):
        path = small_models["mention"]
        code, _, _ = self._tag(capsys, pipeline, small_models, "mention", path)
        assert code == 0

    @pytest.mark.parametrize("kind", ["mention", "window"])
    @pytest.mark.parametrize("case", sorted(_BAD_HEADERS))
    def test_bad_header_exits_two(self, pipeline, small_models, tmp_path, capsys, kind, case):
        """Each edit, re-signed, is refused by its own check, never by the
        checksum."""
        edit, check = _BAD_HEADERS[case]
        header, weights = edit(*_split_model(small_models[kind]))
        path = tmp_path / "bad.bin"
        write_container(path, MAGIC_MODEL, dump_json(_resigned(header, weights)) + b"\n" + weights)
        code, out, err = self._tag(capsys, pipeline, small_models, kind, path)
        assert code == 2, err
        assert out == ""
        assert "Traceback" not in err and str(path) in err
        assert (check[kind] if isinstance(check, dict) else check) in err
        assert "checksum" not in err

    @pytest.mark.parametrize("kind", ["mention", "window"])
    def test_resigned_header_loads(self, pipeline, small_models, tmp_path, capsys, kind):
        """Re-signing an unedited header gives back the file's own bytes."""
        header, weights = _split_model(small_models[kind])
        path = tmp_path / "same.bin"
        write_container(path, MAGIC_MODEL, dump_json(_resigned(header, weights)) + b"\n" + weights)
        assert path.read_bytes() == small_models[kind].read_bytes()

    @pytest.mark.parametrize("kind", ["mention", "window"])
    @pytest.mark.parametrize("cut", [8, 9, 100, "header"])
    def test_truncated_file_exits_two(self, pipeline, small_models, tmp_path, capsys, kind, cut):
        data = small_models[kind].read_bytes()
        keep = data.index(b"\n") if cut == "header" else len(data) - cut
        path = tmp_path / "cut.bin"
        path.write_bytes(data[:keep])
        code, out, err = self._tag(capsys, pipeline, small_models, kind, path)
        assert code == 2, err
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["mention", "window"])
    def test_model_mutations_exit_two(self, pipeline, small_models, tmp_path, capsys, kind):
        """Seeded truncations, byte flips in the header and in the arrays,
        and header-key deletions each exit 2: the CRC covers the header
        and every array, so not even a flipped weight byte loads."""
        data = small_models[kind].read_bytes()
        seed = {"mention": 22, "window": 23}[kind]
        cuts, flips = _fuzz_cases(data, np.random.default_rng(seed), data.index(b"\n"))
        damaged = _damaged(data, cuts, flips)
        header, weights = _split_model(small_models[kind])
        for key in sorted(header):
            rest = {k: v for k, v in header.items() if k != key}
            damaged.append(data[:9] + dump_json(rest) + b"\n" + weights)
        assert len(damaged) > 250
        path = tmp_path / "bad.bin"
        for bad in damaged:
            path.write_bytes(bad)
            code, out, err = self._tag(capsys, pipeline, small_models, kind, path)
            assert (code, out) == (2, ""), err
            assert "Traceback" not in err
        path.write_bytes(data)
        assert self._tag(capsys, pipeline, small_models, kind, path)[0] == 0

    @pytest.mark.parametrize("kind", ["mention", "window"])
    def test_format_1_model_names_the_retrain(self, pipeline, small_models, tmp_path, capsys, kind):
        """Model format 1 stored every column with no checksum; a file
        that says it is format 1 is refused with the remedy."""
        data = bytearray(small_models[kind].read_bytes())
        data[8] = 1
        path = tmp_path / "v1.bin"
        path.write_bytes(data)
        code, out, err = self._tag(capsys, pipeline, small_models, kind, path)
        assert (code, out) == (2, "")
        assert "version 1" in err and "linkrush train" in err

    @pytest.mark.parametrize("kind", ["mention", "window"])
    def test_trailing_bytes_exit_two(self, pipeline, small_models, tmp_path, capsys, kind):
        path = tmp_path / "long.bin"
        path.write_bytes(small_models[kind].read_bytes() + bytes(8))
        code, _, err = self._tag(capsys, pipeline, small_models, kind, path)
        assert code == 2 and "trailing bytes" in err
