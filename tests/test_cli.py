"""Command-line interface: exit codes, env defaults, and the full pipeline."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from linkrush import __version__
from linkrush.cli import main
from linkrush.storage import MAGIC_INDEX, dump_json, load_json, read_container, write_container

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
        write_container(
            index, MAGIC_INDEX, dump_json({"fields": {"title": {}}, "documents": []})
        )
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("Nokia was founded in 1865\n", encoding="utf-8")
        code, _, err = run(
            capsys, "link", "--index", str(index), "--input", str(sentences)
        )
        assert code == 2
        assert "'title'" in err and "postings" in err
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


class TestDocumentRecordValidation:
    """A malformed document record in an index exits 2 on load, before
    any sentence is linked."""

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
        payload = load_json(read_container(pipeline["index"], MAGIC_INDEX), pipeline["index"])
        payload["documents"][0][key] = value
        index = tmp_path / "index.bin"
        write_container(index, MAGIC_INDEX, dump_json(payload))
        code, out, err = run(
            capsys, "link", "--index", str(index),
            "--input", str(FIXTURES / "gold.conll"), "--format", "conll",
        )
        assert code == 2
        assert out == ""
        assert "document 0" in err and message in err
        assert "Traceback" not in err
