import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medvideval.bm25 import build_index, save_index
from medvideval.cli import run_cli as main
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


@pytest.mark.parametrize(
    "command, flag, value",
    [
        *[("eval-steps", flag, value) for flag in ("--theta", "--alpha", "--lambda") for value in ("nan", "inf")],
        ("eval-steps", "--beta", "nan"),
        *[("eval-steps", "--mu", value) for value in ("nan", "5", "-1", "0")],
        ("eval-captions", "--theta", "nan"),
        ("eval-captions", "--alpha", "inf"),
        *[(command, "--lambda", value) for command in ("eval-localization", "eval-vcval") for value in ("nan", "inf")],
    ],
)
def test_non_finite_or_out_of_range_scoring_flag_exits_2(files, command, flag, value, capsys):
    qrels = ["--qrels", files["qrels.txt"], files["answers.jsonl"]]
    argv = {
        "eval-localization": ["--run", files["loc.jsonl"], *qrels],
        "eval-vcval": ["--run", files["loc.jsonl"], *qrels],
        "eval-steps": ["--pred", files["steps.jsonl"], "--gold", files["steps.jsonl"]],
        "eval-captions": ["--pred", files["steps.jsonl"], "--gold", files["steps.jsonl"]],
    }[command]
    code = main([command, *argv, flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


ORGANISER = Path(__file__).resolve().parent / "data" / "organiser"
ORGANISER_QRELS = ["--qrels", str(ORGANISER / "qrels.txt"), str(ORGANISER / "answers.jsonl")]


@pytest.mark.parametrize(
    "golden, argv",
    [
        *[
            (f"{name}.{ext}", [command, "--run", str(ORGANISER / run), *ORGANISER_QRELS, "--format", fmt])
            for name, command, run in [
                ("retrieval", "eval-retrieval", "retrieval.run"),
                ("localization", "eval-localization", "localization.jsonl"),
                ("vcval", "eval-vcval", "localization.jsonl"),
            ]
            for ext, fmt in [("tsv", "tsv"), ("json", "structured")]
        ],
        ("pool.txt", ["pool", "--run", str(ORGANISER / "retrieval.run")]),
    ],
)
def test_organiser_outputs_match_golden_bytes(golden, argv, tmp_path):
    out_path = tmp_path / golden
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the fixture's unjudged question warns by design
        assert main([*argv, "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == (ORGANISER / "expected" / golden).read_bytes()


STEPS = Path(__file__).resolve().parent / "data" / "steps"
STEPS_FILES = ["--pred", str(STEPS / "pred.jsonl"), "--gold", str(STEPS / "gold.jsonl")]


@pytest.mark.parametrize(
    "golden, argv",
    [
        (f"{name}.{ext}", [command, *STEPS_FILES, *flags, "--format", fmt])
        for name, command, flags in [
            ("steps", "eval-steps", []),
            ("steps_lambda0_mu0.5", "eval-steps", ["--lambda", "0", "--mu", "0.5"]),
            ("captions", "eval-captions", []),
        ]
        for ext, fmt in [("tsv", "tsv"), ("json", "structured")]
    ],
)
def test_step_outputs_match_golden_bytes(golden, argv, tmp_path):
    out_path = tmp_path / golden
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a long caption and a prediction-only segment warn by design
        assert main([*argv, "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == (STEPS / "expected" / golden).read_bytes()


def test_failed_out_write_keeps_the_previous_file(files, tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "report.tsv"
    out_path.write_bytes(b"previous report\n")

    def fail(source, target):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", fail)
    code = main(["eval-retrieval", "--run", files["run.txt"], "--qrels", files["qrels.txt"], "--out", str(out_path)])
    assert code == 2
    assert "no space left" in capsys.readouterr().err
    assert out_path.read_bytes() == b"previous report\n"
    assert not [path.name for path in tmp_path.iterdir() if path.name.endswith(".tmp")]


def _organiser_report(command, *flags):
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("ignore")
        assert main([command, "--run", str(ORGANISER / "localization.jsonl"), *ORGANISER_QRELS, *flags]) == 0
    return out.getvalue()


@pytest.mark.parametrize("command, prefix", [("eval-localization", ""), ("eval-vcval", "localization/")])
def test_repeated_depths_and_thresholds_are_reported_once(command, prefix):
    repeated = _organiser_report(command, "--n", "1,1", "--mu", "0.5,0.5")
    assert f"\n# {prefix}n = 1\n" in repeated
    assert f"\n# {prefix}mu = 0.5\n" in repeated
    assert repeated == _organiser_report(command, "--n", "1", "--mu", "0.5")


@pytest.mark.parametrize("command", ["eval-localization", "eval-vcval", "eval-steps"])
def test_thresholds_sharing_a_column_label_exit_2(command, capsys):
    argv = {
        "eval-localization": ["--run", str(ORGANISER / "localization.jsonl"), *ORGANISER_QRELS],
        "eval-vcval": ["--run", str(ORGANISER / "localization.jsonl"), *ORGANISER_QRELS],
        "eval-steps": STEPS_FILES,
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([command, *argv, "--mu", "0.3,0.30000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mu values 0.3 and 0.30000001 share the column IoU=0.3")


def test_eval_steps_lists_thresholds_sorted(capsys):
    reports = []
    for mu in ("0.7,0.3", "0.3,0.7"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval-steps", *STEPS_FILES, "--mu", mu]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "# mu = 0.3, 0.7\n" in reports[0]
    assert reports[0].index("IoU=0.3\t") < reports[0].index("IoU=0.7\t")


@pytest.mark.parametrize(
    "command, run", [("eval-retrieval", "retrieval.run"), ("eval-localization", "localization.jsonl"), ("eval-vcval", "localization.jsonl")]
)
def test_unjudged_run_question_warns_once(command, run, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # record every warn call, even repeats from one line
        assert main([command, "--run", str(ORGANISER / run), *ORGANISER_QRELS]) == 0
    messages = [str(w.message) for w in caught]
    assert messages == ["run question 'qx' has no judgments; ignoring it"]


# Every numeric scoring flag, the subcommands that take it, and values it must
# reject: non-finite or outside the parameter's range.  Negative values are
# passed as --flag=value so argparse does not read them as options.
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "+inf"])
_NEGATIVE = st.floats(max_value=-math.ulp(0.0)).map(repr)
_BAD_FLAG_VALUES = {
    "k": st.integers(max_value=0).map(str) | _NON_FINITE | st.sampled_from(["1.5", "5,x"]),
    "n": st.integers(max_value=0).map(str) | _NON_FINITE | st.sampled_from(["1.5", "1,x"]),
    "mu": st.floats(max_value=0.0).map(repr) | st.floats(min_value=1.0, exclude_min=True).map(repr) | _NON_FINITE,
    "lambda": _NEGATIVE | st.floats(min_value=1e100, exclude_min=True).map(repr) | _NON_FINITE,
    "theta": _NEGATIVE | _NON_FINITE,
    "alpha": _NEGATIVE | _NON_FINITE,
    "beta": _NEGATIVE | _NON_FINITE,
    "k1": st.floats(max_value=0.0).map(repr) | st.floats(min_value=1e100, exclude_min=True).map(repr) | _NON_FINITE,
    "b": _NEGATIVE | st.floats(min_value=1.0, exclude_min=True).map(repr) | _NON_FINITE,
}
_SCORING_FLAGS = {
    "eval-retrieval": ["k"],
    "eval-localization": ["n", "mu", "lambda"],
    "eval-vcval": ["k", "n", "mu", "lambda"],
    "eval-steps": ["theta", "alpha", "beta", "lambda", "mu"],
    "eval-captions": ["theta", "alpha", "beta"],
    "search": ["k", "k1", "b"],
}


@pytest.fixture(scope="module")
def scoring_argv(tmp_path_factory):
    root = tmp_path_factory.mktemp("scoring")
    for name, text in [("run.txt", RUN_TEXT), ("qrels.txt", QRELS_TEXT), ("answers.jsonl", ANSWERS_TEXT),
                       ("loc.jsonl", LOC_RUN_TEXT), ("steps.jsonl", STEPS_TEXT)]:
        (root / name).write_text(text, encoding="utf-8")
    assert main(["index", SMOKE_CORPUS, "--out", str(root / "idx")]) == 0
    qrels = ["--qrels", str(root / "qrels.txt"), str(root / "answers.jsonl")]
    steps = ["--pred", str(root / "steps.jsonl"), "--gold", str(root / "steps.jsonl")]
    return {
        "eval-retrieval": ["--run", str(root / "run.txt"), *qrels],
        "eval-localization": ["--run", str(root / "loc.jsonl"), *qrels],
        "eval-vcval": ["--run", str(root / "loc.jsonl"), *qrels],
        "eval-steps": steps,
        "eval-captions": steps,
        "search": [str(root / "idx"), SMOKE_QUERIES],
    }


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _SCORING_FLAGS.items() for f in flags])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bad_numeric_flag_exits_2_naming_it(scoring_argv, command, flag, data):
    value = data.draw(_BAD_FLAG_VALUES[flag], label="value")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *scoring_argv[command], f"--{flag}={value}"])
    assert code == 2
    assert out.getvalue() == ""
    message = err.getvalue()
    assert f"argument --{flag}:" in message or message.startswith(f"error: {flag} "), message


def _organiser_line_replaced(tmp_path, name, lineno, old, new):
    """A copy of an organiser fixture file with one edit on one (1-based) line."""
    lines = (ORGANISER / name).read_text(encoding="utf-8").split("\n")
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new) if old else new
    target = tmp_path / name
    target.write_text("\n".join(lines), encoding="utf-8")
    return str(target)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"start": "01:35"', '"start": 1' + "0" * 400, "'start' must be a non-negative finite number"),
        ('"score": 0.9,', '"score": 1' + "0" * 400 + ",", "'score' must be finite"),
        ("", "[" * 3000, "malformed JSON record: nested too deeply"),
        ('"start": "01:35"', '"start": "1' + "0" * 400 + ':00"', "is too large"),
    ],
    ids=["huge-start", "huge-score", "deep-nesting", "huge-minutes"],
)
def test_huge_numbers_and_deep_nesting_exit_2_naming_the_line(tmp_path, capsys, old, new, message):
    run = _organiser_line_replaced(tmp_path, "localization.jsonl", 2, old, new)
    assert main(["eval-localization", "--run", run, *ORGANISER_QRELS]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run}:2: ") and message in err, err


def test_caption_with_a_raw_line_separator_is_one_line(tmp_path, capsys):
    text = (STEPS / "pred.jsonl").read_text(encoding="utf-8").replace("Put on gloves", "Put on\u2028gloves")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["eval-steps", "--pred", str(pred), "--gold", str(STEPS / "gold.jsonl")]) == 0
    assert capsys.readouterr().out == (STEPS / "expected" / "steps.tsv").read_text(encoding="utf-8")


def test_byte_order_mark_is_not_data(tmp_path, capsys):
    # Without its comment header the run's first line is data, so a BOM would
    # otherwise become part of question id q1.
    body = (ORGANISER / "retrieval.run").read_text(encoding="utf-8").split("\n", 1)[1]
    reports = []
    for name, prefix in [("plain.run", ""), ("bom.run", "\ufeff")]:
        (tmp_path / name).write_text(prefix + body, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval-retrieval", "--run", str(tmp_path / name), *ORGANISER_QRELS]) == 0
        reports.append((capsys.readouterr().out, [str(w.message) for w in caught]))
    assert reports[0] == reports[1]
    assert reports[1][1] == ["run question 'qx' has no judgments; ignoring it"]


def test_byte_order_mark_at_a_line_start_is_not_data(tmp_path, capsys):
    # ``cat a.run b.run`` of BOM-prefixed files leaves a BOM before a line mid-file.
    run = _organiser_line_replaced(tmp_path, "retrieval.run", 4, "q1 ", "\ufeffq1 ")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval-retrieval", "--run", run, *ORGANISER_QRELS]) == 0
    assert capsys.readouterr().out == (ORGANISER / "expected" / "retrieval.tsv").read_text(encoding="utf-8")
    assert [str(w.message) for w in caught] == ["run question 'qx' has no judgments; ignoring it"]


@pytest.mark.parametrize(
    "name, lineno, old, what",
    [
        ("retrieval.run", 3, " 2 13.5 ", "rank"),
        ("qrels.txt", 3, " 2", "grade"),
        ("retrieval.run", 3, " 13.5 ", "score must be finite"),
        ("retrieval.run", 3, " 2 ", "rank must be an integer"),
    ],
)
def test_integer_past_the_digit_limit_names_the_field_briefly(tmp_path, capsys, name, lineno, old, what):
    # A rank or grade of 5,000 digits, a score of 5,000 digits (infinite as a
    # float) and a rank of 5,000 letters: each message quotes 40 characters.
    if what == "score must be finite":
        new, message = " " + "9" * 5000 + " ", f"{what}, got '{'9' * 40}'... (5,000 characters)"
    elif what == "rank must be an integer":
        new, message = " " + "x" * 5000 + " ", f"{what}, got '{'x' * 40}'... (5,000 characters)"
    else:
        new, message = old.replace("2", "9" * 5000, 1), f"{what} has too many digits"
    path = _organiser_line_replaced(tmp_path, name, lineno, old, new)
    run = path if name == "retrieval.run" else str(ORGANISER / "retrieval.run")
    qrels = path if name == "qrels.txt" else str(ORGANISER / "qrels.txt")
    assert main(["eval-retrieval", "--run", run, "--qrels", qrels]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{lineno}: {message}"), err[:200]
    assert len(err) < 200


@pytest.mark.parametrize(
    "name, old, new, flags, field",
    [
        # Widening [0, 1e300] by the largest float overflowed to an internal error.
        ("localization.jsonl", '"end": "02:05"', '"end": 1e300', ["--lambda", "1.7976931348623157e308"], "'end' must be"),
        # The union of two [0, 1e308] intervals overflowed, so an exact match scored IoU 0.
        ("answers.jsonl", '"start": "01:30", "end": "02:00"', '"start": 0, "end": 1e308', [], "'end' must be"),
        ("localization.jsonl", '"end": "02:05"', '"end": "' + "9" * 400 + '"', [], "(field 'end')"),
    ],
    ids=["lambda-overflow", "union-overflow", "400-digit-end"],
)
def test_seconds_past_the_bound_exit_2_naming_the_field(tmp_path, capsys, name, old, new, flags, field):
    path = _organiser_line_replaced(tmp_path, name, 2, old, new)
    run = path if name == "localization.jsonl" else str(ORGANISER / "localization.jsonl")
    answers = path if name == "answers.jsonl" else str(ORGANISER / "answers.jsonl")
    assert main(["eval-localization", "--run", run, "--qrels", str(ORGANISER / "qrels.txt"), answers, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ") and field in err, err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["eval-retrieval", "--run", str(ORGANISER / "retrieval.run"), "--qrels"], "q1 0 v1 1\nq1 0 v1 2\n",
         "2: duplicate judgment for video 'v1'"),
        (["eval-steps", "--gold", str(STEPS / "gold.jsonl"), "--pred"], '{"segment": "s1", "steps": {}}',
         "1: 'steps' must be a list"),
        (["eval-steps", "--gold", str(STEPS / "gold.jsonl"), "--pred"], '{"segment": "s1", "steps": ["wrap"]}',
         "1: each step must be a JSON object"),
        (["index", "--out", "{dir}"], '{"video": "v1", "title": 1}', "1: 'title' and 'subtitle' must be strings"),
        (["search", "{dir}"], "q1 wrap the wrist\nq1 tie the elbow\n", "2: duplicate question id 'q1'"),
    ],
    ids=["qrels-duplicate-video", "steps-not-a-list", "step-not-an-object", "corpus-non-string-title",
         "queries-duplicate-id"],
)
def test_malformed_input_exits_2_with_one_line_naming_it(tmp_path, capsys, argv, text, message):
    save_index(build_index([]), tmp_path)  # search loads an index before it reads the queries
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    argv = [str(tmp_path) if arg == "{dir}" else arg for arg in argv]
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{message}\n"


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, expected",
    [
        *[
            ([command, "--run", f"tests/data/organiser/{run}", "--qrels", "tests/data/organiser/qrels.txt",
              "tests/data/organiser/answers.jsonl"], ["warning: run question 'qx' has no judgments; ignoring it"])
            for command, run in [("eval-retrieval", "retrieval.run"), ("eval-localization", "localization.jsonl"),
                                 ("eval-vcval", "localization.jsonl")]
        ],
        (["pool", "--run", "tests/data/organiser/retrieval.run"], []),
        (
            ["eval-steps", "--pred", "tests/data/steps/pred.jsonl", "--gold", "tests/data/steps/gold.jsonl"],
            [
                "warning: tests/data/steps/pred.jsonl:4: caption of segment 's5' has 12 words (guideline is <= 7)",
                "warning: predicted segment 's6' has no ground truth; ignoring it",
            ],
        ),
        (
            ["eval-captions", "--pred", "tests/data/steps/pred.jsonl", "--gold", "tests/data/steps/gold.jsonl"],
            ["warning: tests/data/steps/pred.jsonl:4: caption of segment 's5' has 12 words (guideline is <= 7)"],
        ),
    ],
)
def test_entry_point_prints_one_line_per_warning(argv, expected):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "medvideval", *argv], capture_output=True, text=True, cwd=REPO, env=env
    )
    assert result.returncode == 0
    assert result.stderr.splitlines() == expected


def test_long_identical_caption_pair_scores_without_recursion_limit(tmp_path):
    caption = " ".join(f"word{i}" for i in range(1200))
    steps = tmp_path / "steps.jsonl"
    steps.write_text(json.dumps({"segment": "s1", "steps": [{"caption": caption, "start": 0, "end": 10}]}) + "\n")
    out_path = tmp_path / "captions.tsv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a caption past seven words warns by design
        assert main(["eval-captions", "--pred", str(steps), "--gold", str(steps), "--out", str(out_path)]) == 0
    assert "\nMETEOR\t100.0000\n" in out_path.read_text()
