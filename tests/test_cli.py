import json
import subprocess
import sys
from pathlib import Path

import pytest

from medvideval.cli import main
from medvideval.io_formats import parse_retrieval_run, read_report

SMOKE_CORPUS = str(Path(__file__).resolve().parents[1] / "data" / "smoke" / "corpus.jsonl")
SMOKE_QUERIES = str(Path(__file__).resolve().parents[1] / "data" / "smoke" / "queries.txt")
SMOKE_GOLDEN_RUN = Path(__file__).resolve().parent / "data" / "smoke_bm25_k10.run"

RUN_TEXT = """\
Q1 Q0 v1 1 9.5 sysA
Q1 Q0 v2 2 8.0 sysA
Q2 Q0 v3 1 7.0 sysA
"""

QRELS_TEXT = """\
Q1 0 v1 2
Q1 0 v2 0
Q2 0 v3 1
"""

ANSWERS_TEXT = "\n".join(
    [
        json.dumps({"question": "Q1", "video": "v1", "start": "02:30", "end": "03:10"}),
        json.dumps({"question": "Q2", "video": "v3", "start": 10, "end": 20}),
    ]
)

LOC_RUN_TEXT = "\n".join(
    [
        json.dumps({"question": "Q1", "video": "v1", "start": 150, "end": 190, "score": 0.9}),
        json.dumps({"question": "Q2", "video": "v3", "start": 10, "end": 15, "score": 0.7}),
    ]
)

STEPS_TEXT = json.dumps(
    {
        "segment": "seg1",
        "steps": [
            {"caption": "Stabilize the arm with the board", "start": "00:05", "end": "00:12"},
            {"caption": "Tie the elbow to the board", "start": "00:12", "end": "00:20"},
        ],
    }
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("run.txt", RUN_TEXT),
        ("qrels.txt", QRELS_TEXT),
        ("answers.jsonl", ANSWERS_TEXT),
        ("loc.jsonl", LOC_RUN_TEXT),
        ("steps.jsonl", STEPS_TEXT),
    ]:
        target = tmp_path / name
        target.write_text(text, encoding="utf-8")
        paths[name] = str(target)
    paths["dir"] = tmp_path
    return paths


class TestEvalRetrieval:
    def test_tabular_report(self, files, capsys):
        code = main(["eval-retrieval", "--run", files["run.txt"], "--qrels", files["qrels.txt"]])
        out = capsys.readouterr().out
        assert code == 0
        for key in ("MAP\t", "R@5\t", "R@10\t", "P@5\t", "P@10\t", "nDCG\t"):
            assert key in out

    def test_structured_report_parses(self, files, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "eval-retrieval",
                "--run",
                files["run.txt"],
                "--qrels",
                files["qrels.txt"],
                "--format",
                "structured",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        report = read_report(out_path.read_text(encoding="utf-8"))
        assert report.name == "retrieval"
        assert report.params["k"] == [5, 10]

    def test_reports_are_byte_identical(self, files, tmp_path):
        args = ["eval-retrieval", "--run", files["run.txt"], "--qrels", files["qrels.txt"]]
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_line_exits_2_with_position(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        lines = [f"Q1 Q0 v{i} {i} {10 - i} sysA" for i in range(1, 7)] + ["Q9 Q0 broken"]
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["eval-retrieval", "--run", str(bad), "--qrels", files["qrels.txt"]])
        err = capsys.readouterr().err
        assert code == 2
        assert ":7" in err
        assert "bad.txt" in err

    def test_missing_file_exits_2(self, files, capsys):
        code = main(["eval-retrieval", "--run", "no-such-file", "--qrels", files["qrels.txt"]])
        assert code == 2
        assert "no-such-file" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, files, capsys):
        code = main(["eval-retrieval", "--run", files["run.txt"], "--bogus"])
        assert code == 2


class TestEvalLocalization:
    def test_table_shape(self, files, capsys):
        code = main(
            [
                "eval-localization",
                "--run",
                files["loc.jsonl"],
                "--qrels",
                files["qrels.txt"],
                files["answers.jsonl"],
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for key in ("n=1/IoU=0.3", "n=10/mIoU"):
            assert key in out

    def test_perfect_run_scores_100(self, files, capsys):
        code = main(
            [
                "eval-localization",
                "--run",
                files["loc.jsonl"],
                "--qrels",
                files["qrels.txt"],
                files["answers.jsonl"],
                "--format",
                "structured",
            ]
        )
        assert code == 0
        report = read_report(capsys.readouterr().out)
        assert report.values["n=1"]["IoU=0.7"] == pytest.approx(50.0)  # Q2 interval is partial
        assert report.params["lambda"] == 0.0

    def test_lambda_flag(self, files, capsys):
        code = main(
            [
                "eval-localization",
                "--run",
                files["loc.jsonl"],
                "--qrels",
                files["qrels.txt"],
                files["answers.jsonl"],
                "--lambda",
                "3",
                "--format",
                "structured",
            ]
        )
        assert code == 0
        assert read_report(capsys.readouterr().out).params["lambda"] == 3.0

    def test_three_qrels_paths_rejected(self, files, capsys):
        code = main(
            [
                "eval-localization",
                "--run",
                files["loc.jsonl"],
                "--qrels",
                files["qrels.txt"],
                files["answers.jsonl"],
                files["qrels.txt"],
            ]
        )
        assert code == 2


class TestEvalVcval:
    def test_combines_both_reports(self, files, capsys):
        code = main(
            [
                "eval-vcval",
                "--run",
                files["loc.jsonl"],
                "--qrels",
                files["qrels.txt"],
                files["answers.jsonl"],
                "--format",
                "structured",
            ]
        )
        assert code == 0
        report = read_report(capsys.readouterr().out)
        assert report.name == "vcval"
        assert "MAP" in report.values["retrieval"]
        assert "n=1" in report.values["localization"]


class TestEvalSteps:
    def test_theta_embedded(self, files, capsys):
        code = main(
            [
                "eval-steps",
                "--pred",
                files["steps.jsonl"],
                "--gold",
                files["steps.jsonl"],
                "--theta",
                "0.4",
                "--format",
                "structured",
            ]
        )
        assert code == 0
        report = read_report(capsys.readouterr().out)
        assert report.params["theta"] == 0.4
        assert report.params["lambda"] == 3.0
        assert report.values["Precision"] == 100.0
        assert report.values["mIoU"] == 100.0

    def test_captions_report(self, files, capsys):
        code = main(
            [
                "eval-captions",
                "--pred",
                files["steps.jsonl"],
                "--gold",
                files["steps.jsonl"],
                "--format",
                "structured",
            ]
        )
        assert code == 0
        report = read_report(capsys.readouterr().out)
        assert report.values["BLEU-2"] == 100.0
        assert report.values["ROUGE-L"] == 100.0


class TestPoolCommand:
    def test_pool_deterministic(self, files, tmp_path, capsys):
        first = tmp_path / "pool_a.txt"
        second = tmp_path / "pool_b.txt"
        base = ["pool", "--run", files["run.txt"], "--seed", "7"]
        assert main(base + ["--out", str(first)]) == 0
        assert main(base + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert "Q1 v1 sysA 1" in first.read_text(encoding="utf-8")


class TestIndexAndSearch:
    def test_smoke_corpus_round_trip(self, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        assert main(["index", SMOKE_CORPUS, "--out", str(index_dir)]) == 0
        run_path = tmp_path / "run.txt"
        code = main(
            [
                "search",
                str(index_dir),
                SMOKE_QUERIES,
                "--k",
                "10",
                "--out",
                str(run_path),
            ]
        )
        assert code == 0
        run = parse_retrieval_run(run_path.read_text(encoding="utf-8"))
        assert set(run) == {"Q1", "Q2", "Q3", "Q4", "Q5"}
        assert all(len(entries) <= 10 for entries in run.values())
        assert run["Q1"][0].video == "vid01"  # the nebulizer video tops its query
        assert run["Q1"][0].tag == "bm25-baseline"

    def test_no_title_changes_ranking_inputs(self, tmp_path):
        with_title = tmp_path / "with"
        without_title = tmp_path / "without"
        assert main(["index", SMOKE_CORPUS, "--out", str(with_title)]) == 0
        assert main(["index", SMOKE_CORPUS, "--out", str(without_title), "--no-title"]) == 0
        assert (with_title / "bm25.idx").read_bytes() != (without_title / "bm25.idx").read_bytes()

    def test_search_requires_single_k(self, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        assert main(["index", SMOKE_CORPUS, "--out", str(index_dir)]) == 0
        code = main(["search", str(index_dir), SMOKE_QUERIES, "--k", "5,10"])
        assert code == 2

    def test_smoke_run_matches_golden_bytes(self, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        run_path = tmp_path / "run.txt"
        assert main(["index", SMOKE_CORPUS, "--out", str(index_dir)]) == 0
        assert main(["search", str(index_dir), SMOKE_QUERIES, "--k", "10", "--out", str(run_path)]) == 0
        assert run_path.read_bytes() == SMOKE_GOLDEN_RUN.read_bytes()

    @pytest.mark.parametrize("flag", ["--k1", "--b"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e309", "1e308"])
    def test_non_finite_or_huge_bm25_parameter_exits_2(self, tmp_path, flag, value, capsys):
        index_dir = tmp_path / "idx"
        assert main(["index", SMOKE_CORPUS, "--out", str(index_dir)]) == 0
        capsys.readouterr()
        assert main(["search", str(index_dir), SMOKE_QUERIES, f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag[2:]} must be")

    def test_whitespace_video_id_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"video": "v 1", "subtitle": "press the wound"}) + "\n", encoding="utf-8")
        assert main(["index", str(corpus), "--out", str(tmp_path / "idx")]) == 2
        assert f"{corpus}:1:" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    @pytest.mark.parametrize("damage", ["version-1", "corrupt", "truncated"])
    def test_damaged_index_exits_2_naming_the_file(self, tmp_path, damage, capsys):
        index_dir = tmp_path / "idx"
        assert main(["index", SMOKE_CORPUS, "--out", str(index_dir)]) == 0
        target = index_dir / "bm25.idx"
        data = bytearray(target.read_bytes())
        if damage == "version-1":
            data[0] = 1
        elif damage == "corrupt":
            data[len(data) // 2] ^= 0xFF
        else:
            del data[len(data) // 2 :]
        target.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["search", str(index_dir), SMOKE_QUERIES]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: ")
        if damage == "version-1":
            assert "version 1" in err


class TestThreads:
    def test_threads_flag_accepted(self, files, capsys):
        code = main(
            [
                "eval-localization",
                "--run",
                files["loc.jsonl"],
                "--qrels",
                files["qrels.txt"],
                files["answers.jsonl"],
                "--threads",
                "2",
            ]
        )
        assert code == 0

    def test_env_fallback(self, files, monkeypatch, capsys):
        monkeypatch.setenv("MEDVIDEVAL_THREADS", "2")
        code = main(
            [
                "eval-localization",
                "--run",
                files["loc.jsonl"],
                "--qrels",
                files["qrels.txt"],
                files["answers.jsonl"],
            ]
        )
        assert code == 0

    def test_thread_count_does_not_change_output(self, files, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        assert main(["index", SMOKE_CORPUS, "--out", str(index_dir)]) == 0
        commands = {
            "loc": [
                "eval-localization",
                "--run",
                files["loc.jsonl"],
                "--qrels",
                files["qrels.txt"],
                files["answers.jsonl"],
            ],
            "search": ["search", str(index_dir), SMOKE_QUERIES, "--k", "1000"],
        }
        for name, argv in commands.items():
            outputs = []
            for threads in (["--threads", "1"], ["--threads", "2"], []):
                out_path = tmp_path / f"{name}-{len(outputs)}.out"
                assert main([*argv, *threads, "--out", str(out_path)]) == 0
                outputs.append(out_path.read_bytes())
            assert outputs[0] and outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "command",
        ["eval-retrieval", "eval-localization", "eval-vcval", "eval-steps", "eval-captions", "search"],
    )
    def test_zero_threads_exits_2(self, files, command, capsys):
        qrels = ["--qrels", files["qrels.txt"], files["answers.jsonl"]]
        argv = {
            "eval-retrieval": ["--run", files["run.txt"], *qrels],
            "eval-localization": ["--run", files["loc.jsonl"], *qrels],
            "eval-vcval": ["--run", files["loc.jsonl"], *qrels],
            "eval-steps": ["--pred", files["steps.jsonl"], "--gold", files["steps.jsonl"]],
            "eval-captions": ["--pred", files["steps.jsonl"], "--gold", files["steps.jsonl"]],
            "search": [str(files["dir"]), SMOKE_QUERIES],
        }[command]
        assert main([command, *argv, "--threads", "0"]) == 2
        assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval-localization", "eval-vcval"])
@pytest.mark.parametrize("flag", [["--mu", "1.5"], ["--lambda", "-1"]])
def test_out_of_range_iou_flag_exits_2(files, command, flag, capsys):
    code = main(
        [command, "--run", files["loc.jsonl"], "--qrels", files["qrels.txt"], files["answers.jsonl"], *flag]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_module_entry_point(files):
    result = subprocess.run(
        [sys.executable, "-m", "medvideval", "eval-retrieval", "--run", files["run.txt"], "--qrels", files["qrels.txt"]],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "MAP" in result.stdout


def test_help_exits_zero():
    assert main(["--help"]) == 0
