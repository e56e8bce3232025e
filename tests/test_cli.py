import argparse
import contextlib
import gc
import io
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commands import ORGANISER, STEPS, TESTS, command_argv, track_inputs
from medvideval import cli
from medvideval.bm25 import load_index, save_index
from medvideval.cli import build_parser
from medvideval.cli import run_cli as main
from medvideval.io_formats import MetricReport, write_report

ORGANISER_QRELS = ["--qrels", str(ORGANISER / "qrels.txt"), str(ORGANISER / "answers.jsonl")]
STEPS_FILES = ["--pred", str(STEPS / "pred.jsonl"), "--gold", str(STEPS / "gold.jsonl")]
REPO = TESTS.parent
# The one warning of each judged command on the organiser fixtures.
UNJUDGED = "warning: run question 'qx' has no judgments; ignoring it"


@pytest.fixture(scope="module")
def fixture_inputs(tmp_path_factory):
    """The committed fixtures, once over, as ``command_argv`` reads them."""
    return track_inputs(tmp_path_factory.mktemp("fixtures") / "in", 1)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    [subparsers] = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


def test_every_subcommand_has_a_command_line():
    assert set(command_argv(Path(), Path())) - {"malformed-run"} == set(_subcommands())


class TestEvalRetrieval:
    def test_missing_file_exits_2(self, fixture_inputs, tmp_path, capsys):
        argv = command_argv(fixture_inputs, tmp_path)["eval-retrieval"]
        argv[argv.index("--run") + 1] = "no-such-file"
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: no-such-file: No such file or directory\n")

    def test_unknown_flag_exits_2(self, fixture_inputs, tmp_path, capsys):
        assert main([*command_argv(fixture_inputs, tmp_path)["eval-retrieval"], "--bogus"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: unrecognized arguments: --bogus\n"), err


def _pool_argv(fixture_inputs, out, *runs):
    """The pool command line of ``command_argv``, pooling ``runs`` in place of its one run."""
    argv = command_argv(fixture_inputs, out)["pool"]
    argv[argv.index("--run") + 1 : argv.index("--out")] = map(str, runs)
    return argv


class TestPoolCommand:
    def test_runs_sharing_a_tag_on_a_question_exit_2(self, fixture_inputs, tmp_path, capsys):
        run, copy = fixture_inputs / "retrieval.run", ORGANISER / "retrieval.run"
        assert main(_pool_argv(fixture_inputs, tmp_path, run, copy)) == 2
        assert capsys.readouterr().err == (
            f"error: run tag 'golden' is used for question 'q1' by both {run} and {copy}; "
            "pooled runs need distinct tags on a question they share\n"
        )
        assert not (tmp_path / "pool").exists()

    def test_a_malformed_third_run_is_reported_before_a_tag_conflict(self, fixture_inputs, tmp_path, capsys):
        # Runs 1 and 2 share tag golden on q1, but every run is parsed before any is pooled.
        broken = fixture_inputs / "bad.run"
        runs = [fixture_inputs / "retrieval.run", ORGANISER / "retrieval.run", broken]
        assert main(_pool_argv(fixture_inputs, tmp_path, *runs)) == 2
        assert capsys.readouterr().err == (
            f"error: {broken}:25: expected 6 fields (qid Q0 video rank score tag), got 3\n"
        )
        assert not (tmp_path / "pool").exists()

    def test_memory_does_not_grow_with_the_number_of_runs(self, tmp_path):
        # Each run keeps only the ranks the schedule reaches, so pooling six
        # 4,000-line runs takes about the memory of pooling one.
        paths = []
        for number in range(6):
            lines = [
                f"q{q:02d} Q0 v{(rank * 7 + number * 13) % 1000:04d} {rank} {1000 - rank} sys{number}\n"
                for q in range(20)
                for rank in range(1, 201)
            ]
            paths.append(tmp_path / f"sys{number}.run")
            paths[-1].write_text("".join(lines), encoding="utf-8")
        out = str(tmp_path / "pool.txt")

        def traced_peak(runs):
            tracemalloc.start()
            try:
                assert main(["pool", "--run", *map(str, runs), "--out", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(paths[:1])  # warm-up: the first pool imports hashlib
        one, six = traced_peak(paths[:1]), traced_peak(paths)
        assert six < 1.5 * one, f"pooling 6 runs peaked at {six} bytes, 1 run at {one}"

    def test_one_submission_split_over_files_pools_like_one_file(self, fixture_inputs, tmp_path):
        run = fixture_inputs / "retrieval.run"
        lines = run.read_text(encoding="utf-8").splitlines(keepends=True)
        split = next(number for number, line in enumerate(lines) if line.startswith("q2 "))
        halves = [tmp_path / "q1.run", tmp_path / "rest.run"]
        halves[0].write_text("".join(lines[:split]), encoding="utf-8")
        halves[1].write_text("".join(lines[split:]), encoding="utf-8")
        assert main([*_pool_argv(fixture_inputs, tmp_path, run), "--seed", "7"]) == 0
        whole = (tmp_path / "pool").read_bytes()
        assert main([*_pool_argv(fixture_inputs, tmp_path, *halves), "--seed", "7"]) == 0
        assert (tmp_path / "pool").read_bytes() == whole


def _search_argv(argv, index_dir):
    """The search command line of ``argv``, a ``command_argv`` table, on the index in ``index_dir``."""
    search = argv["search"]
    search[1] = str(index_dir)
    return search


class TestIndexAndSearch:
    def test_smoke_run_matches_golden_bytes(self, fixture_inputs, tmp_path):
        argv = command_argv(fixture_inputs, tmp_path)
        assert main(argv["index"]) == 0
        assert main(_search_argv(argv, tmp_path / "index")) == 0
        assert (tmp_path / "search").read_bytes() == (TESTS / "data" / "smoke_bm25_k10.run").read_bytes()

    def test_whitespace_video_id_exits_2(self, fixture_inputs, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        text = (fixture_inputs / "corpus.jsonl").read_text(encoding="utf-8")
        corpus.write_text(text.replace('"vid01"', '"vid 01"', 1), encoding="utf-8")
        argv = command_argv(fixture_inputs, tmp_path)["index"]
        argv[1] = str(corpus)
        assert main(argv) == 2
        assert f"{corpus}:1:" in capsys.readouterr().err
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("damage", ["version-1", "corrupt", "truncated", "repeated-document"])
    def test_damaged_index_exits_2_naming_the_file(self, fixture_inputs, tmp_path, damage, capsys):
        argv = command_argv(fixture_inputs, tmp_path)
        assert main(argv["index"]) == 0
        target = tmp_path / "index" / "bm25.idx"
        if damage == "repeated-document":
            # save_index writes what it is given, with a valid checksum: every posting names document 0.
            index = load_index(tmp_path / "index")
            save_index(index._replace(doc_ids=array("I", [0]) * len(index.doc_ids)), tmp_path / "index")
        else:
            data = bytearray(target.read_bytes())
            if damage == "version-1":
                data[0] = 1
            elif damage == "corrupt":
                data[len(data) // 2] ^= 0xFF
            else:
                del data[len(data) // 2 :]
            target.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(_search_argv(argv, tmp_path / "index")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: ")
        if damage == "version-1":
            assert "version 1" in err
        if damage == "repeated-document":
            assert err == f"error: {target}: a term lists a document twice or out of order\n"


class TestThreads:
    def test_thread_count_does_not_change_output(self, fixture_inputs, tmp_path):
        for command in ("eval-localization", "search"):
            outputs = []
            for threads in (["--threads", "1"], ["--threads", "2"], []):
                out_path = tmp_path / f"{command}-{len(outputs)}.out"
                assert main([*command_argv(fixture_inputs, tmp_path)[command], *threads, "--out", str(out_path)]) == 0
                outputs.append(out_path.read_bytes())
            assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


def _python_m(argv):
    """``python -m medvideval *argv``, run in the repository on the package under src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "medvideval", *argv], capture_output=True, text=True, cwd=REPO, env=env)


@pytest.mark.parametrize("flags", [[], ["--theta=nan"]], ids=["valid", "bad-flag"])
def test_module_entry_point(flags):
    result = _python_m(["eval-steps", *STEPS_FILES, *flags])
    if flags:
        [line] = result.stderr.splitlines()
        assert (result.returncode, result.stdout, line[:21]) == (2, "", "error: theta must be ")
    else:
        assert result.returncode == 0
        assert result.stdout == (STEPS / "expected" / "steps.tsv").read_text(encoding="utf-8")


def test_help_exits_zero():
    assert main(["--help"]) == 0


_LOCALIZATION = ("eval-localization", "eval-vcval")
_JUDGED = ("eval-retrieval", *_LOCALIZATION)
_STEPS = ("eval-steps", "eval-captions")
_SCORED = (*_JUDGED, *_STEPS)

# Every bad command line, as (subcommand, argument, values, message).  A
# positional's row replaces its value; a flag's row appends --flag=value, so
# that "-inf" is read as a value, or the flag and its values spaced when there
# are several.  The message is stderr's last line after "error: ", or after
# argparse's "medvideval COMMAND: error: " when it starts with "argument "; a
# message ending in "…" is a prefix of that line.  Every fault is found before
# any input is read.
BAD_COMMAND_LINES = [
    *[("eval-steps", flag, [value], f"{flag[2:]} must be …") for flag in ("--theta", "--alpha", "--lambda") for value in ("nan", "inf")],
    ("eval-steps", "--beta", ["nan"], "beta must be …"),
    *[("eval-steps", "--mu", [value], "mu must be …") for value in ("nan", "5", "-1", "0")],
    ("eval-captions", "--theta", ["nan"], "theta must be …"),
    ("eval-captions", "--alpha", ["inf"], "alpha must be …"),
    *[(command, "--lambda", [value], "lambda must be …") for command in _LOCALIZATION for value in ("nan", "inf", "-1")],
    *[(command, "--mu", ["1.5"], "mu must be …") for command in _LOCALIZATION],
    *[("search", flag, [value], f"{flag[2:]} must be …") for flag in ("--k1", "--b") for value in ("inf", "-inf", "nan", "1e309", "1e308")],
    ("search", "--k1", ["0"], "k1 must be …"),
    ("search", "--k", ["5,10"], "argument --k: expected a positive integer, got '5,10'"),
    *[(command, "--mu", ["0.3,0.30000001"], "mu values 0.3 and 0.30000001 share the column IoU=0.3") for command in (*_LOCALIZATION, "eval-steps")],
    *[(command, "--qrels", ["a", "b", "c"], "--qrels takes a grade file plus at most one answer sidecar") for command in _JUDGED],
    *[(command, "--threads", ["0"], "argument --threads: expected a positive integer, got '0'") for command in (*_SCORED, "search")],
    *[(command, "--format", ["xml"], "argument --format: invalid choice: 'xml' …") for command in _SCORED],
    ("pool", "--seed", ["x"], "argument --seed: invalid int value: 'x'"),
    *[
        (command, argument, [""], f"argument {argument}: expected a path, got ''")
        for names, paths in [(_JUDGED, "--run --qrels"), (_STEPS, "--pred --gold"), (("pool",), "--run"), (("index",), "CORPUS"), (("search",), "INDEX_DIR QUERIES")]
        for command in names
        for argument in [*paths.split(), "--out"]
    ],
]


@pytest.mark.parametrize("inputs", ["present", "missing"])
@pytest.mark.parametrize(
    "command, argument, values, message",
    BAD_COMMAND_LINES,
    ids=[f"{command} {argument}={' '.join(values)}" for command, argument, values, _ in BAD_COMMAND_LINES],
)
def test_bad_command_line_exits_2_naming_the_fault(fixture_inputs, inputs, command, argument, values, message, tmp_path, capsys):
    # With every input path in a directory that does not exist, the same
    # message shows that the fault is found before any input is read.
    argv = command_argv(fixture_inputs if inputs == "present" else tmp_path / "missing", tmp_path)[command]
    if argument.startswith("--"):
        argv += [f"{argument}={values[0]}"] if len(values) == 1 else [argument, *values]
    else:
        positionals = [action.metavar for action in _subcommands()[command]._actions if not action.option_strings]
        argv[1 + positionals.index(argument)] = values[0]
    code = main(argv)
    out, err = capsys.readouterr()
    *usage, last = err.splitlines()
    by_argparse = message.startswith("argument ")
    expected = f"medvideval {command}: " * by_argparse + f"error: {message}"
    assert (code, out, bool(usage)) == (2, "", by_argparse), err
    assert last == expected or expected.endswith("…") and last.startswith(expected[:-1]), err
    assert not usage or usage[0].startswith(f"usage: medvideval {command} "), err
    assert not list(tmp_path.iterdir())


def test_every_argument_that_takes_a_value_has_a_bad_command_line():
    covered = {(command, argument) for command, argument, _, _ in BAD_COMMAND_LINES}
    covered |= {(command, f"--{flag}") for command, flags in _SCORING_FLAGS.items() for flag in flags}
    arguments = {
        (command, action.option_strings[0] if action.option_strings else action.metavar)
        for command, parser in _subcommands().items()
        for action in parser._actions
        if action.nargs != 0
    }
    assert arguments - covered == set()


# Each golden file under tests/data/*/expected/ is checked by one case here,
# and test_every_golden_file_has_a_case keeps these lists complete.
ORGANISER_CASES = [
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
]


@pytest.mark.parametrize("golden, argv", ORGANISER_CASES)
def test_organiser_outputs_match_golden_bytes(golden, argv, tmp_path):
    out_path = tmp_path / golden
    assert main([*argv, "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == (ORGANISER / "expected" / golden).read_bytes()


ROUGE_ONLY = ["--alpha", "0", "--beta", "1", "--theta", "0.3"]  # caption ROUGE-L alone decides the matches
CAPTION_CAN_WIN = ["--alpha", "1", "--beta", "0.2", "--theta", "0.1"]  # beta >= theta: no scan may stop early
OVERLAP_NEEDED = ["--theta", "0.9"]  # beta < theta: every cell without overlap is skipped


STEP_CASES = [
    (f"{name}.{ext}", [command, *STEPS_FILES, *flags, "--format", fmt])
    for name, command, flags in [
        ("steps", "eval-steps", []),
        ("steps_lambda0_mu0.5", "eval-steps", ["--lambda", "0", "--mu", "0.5"]),
        ("captions", "eval-captions", []),
        ("steps_alpha0_beta1_theta0.3", "eval-steps", ROUGE_ONLY),
        ("captions_alpha0_beta1_theta0.3", "eval-captions", ROUGE_ONLY),
        ("steps_alpha1_beta0.2_theta0.1", "eval-steps", CAPTION_CAN_WIN),
        ("captions_alpha1_beta0.2_theta0.1", "eval-captions", CAPTION_CAN_WIN),
        ("steps_theta0.9", "eval-steps", OVERLAP_NEEDED),
        ("captions_theta0.9", "eval-captions", OVERLAP_NEEDED),
    ]
    for ext, fmt in [("tsv", "tsv"), ("json", "structured")]
]


@pytest.mark.parametrize("golden, argv", STEP_CASES)
def test_step_outputs_match_golden_bytes(golden, argv, tmp_path):
    out_path = tmp_path / golden
    assert main([*argv, "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == (STEPS / "expected" / golden).read_bytes()


@pytest.mark.parametrize("fixture, cases", [(ORGANISER, ORGANISER_CASES), (STEPS, STEP_CASES)])
def test_every_golden_file_has_a_case(fixture, cases):
    goldens = [golden for golden, _ in cases]
    assert len(goldens) == len(set(goldens))
    assert set(goldens) == {path.name for path in (fixture / "expected").iterdir()}


def test_failed_out_write_keeps_the_previous_file(fixture_inputs, tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "eval-retrieval"
    out_path.write_bytes(b"previous report\n")

    def fail(source, target):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", fail)
    code = main(command_argv(fixture_inputs, tmp_path)["eval-retrieval"])
    assert code == 2
    assert "no space left" in capsys.readouterr().err
    assert out_path.read_bytes() == b"previous report\n"
    assert not [path.name for path in tmp_path.iterdir() if path.name.endswith(".tmp")]


@pytest.mark.parametrize(
    "target, reason",
    [("missing/report.tsv", "No such file or directory"), ("report.tsv", "Is a directory")],
    ids=["missing-parent", "directory-at-target"],
)
def test_failed_out_write_names_the_out_path(fixture_inputs, tmp_path, capsys, target, reason):
    (tmp_path / "report.tsv").mkdir()
    out_path = tmp_path / target
    before = sorted(tmp_path.rglob("*"))
    code = main([*command_argv(fixture_inputs, tmp_path)["eval-retrieval"], "--out", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err == f"{UNJUDGED}\nerror: {out_path}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_out_name_near_the_filesystem_limit_is_written(fixture_inputs, tmp_path):
    try:
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        pytest.skip("the filesystem's name limit is unknown")
    argv = command_argv(fixture_inputs, tmp_path)["eval-retrieval"]
    long_path, short_path = tmp_path / ("r" * (limit - 5) + ".tsv"), tmp_path / "r.tsv"
    assert main([*argv, "--out", str(long_path)]) == 0
    assert main([*argv, "--out", str(short_path)]) == 0
    assert long_path.read_bytes() == short_path.read_bytes()
    assert not [path.name for path in tmp_path.iterdir() if path.name.endswith(".tmp")]


@pytest.mark.parametrize(
    "target, reason",
    [("blocker", "File exists"), ("blocker/sub", "Not a directory")],
    ids=["file-at-target", "file-as-parent"],
)
def test_failed_index_directory_names_the_out_path(fixture_inputs, tmp_path, capsys, target, reason):
    (tmp_path / "blocker").write_bytes(b"not a directory\n")
    out_dir = tmp_path / target
    assert main([*command_argv(fixture_inputs, tmp_path)["index"], "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {out_dir}: {reason}\n"
    assert (tmp_path / "blocker").read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("command, target", [("eval-retrieval", "eval-retrieval"), ("index", "index/bm25.idx")], ids=["report", "index"])
def test_out_naming_a_fifo_exits_2_and_leaves_it(fixture_inputs, tmp_path, capsys, command, target):
    # The rename would replace the FIFO with a regular file; it is never opened, so nothing blocks.
    fifo = tmp_path / target
    fifo.parent.mkdir(exist_ok=True)
    os.mkfifo(fifo)
    before = sorted(tmp_path.rglob("*"))
    assert main(command_argv(fixture_inputs, tmp_path)[command]) == 2
    warned = f"{UNJUDGED}\n" if command == "eval-retrieval" else ""
    assert capsys.readouterr().err == f"{warned}error: {fifo}: not a regular file\n"
    assert sorted(tmp_path.rglob("*")) == before and fifo.is_fifo()


def test_unexpected_exception_exits_1_with_one_line(fixture_inputs, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("scorer bug")

    monkeypatch.setattr("medvideval.cli.evaluate_retrieval", fail)
    assert main(command_argv(fixture_inputs, tmp_path)["eval-retrieval"]) == 1
    assert capsys.readouterr() == ("", "internal error: scorer bug\n")


def _report(command, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, *argv]) == 0
    return out.getvalue()


def _organiser_report(command, *flags):
    return _report(command, "--run", str(ORGANISER / "localization.jsonl"), *ORGANISER_QRELS, *flags)


@pytest.mark.parametrize("command, prefix", [("eval-localization", ""), ("eval-vcval", "localization/")])
def test_repeated_depths_and_thresholds_are_reported_once(command, prefix):
    repeated = _organiser_report(command, "--n", "1,1", "--mu", "0.5,0.5")
    assert f"\n# {prefix}n = 1\n" in repeated
    assert f"\n# {prefix}mu = 0.5\n" in repeated
    assert repeated == _organiser_report(command, "--n", "1", "--mu", "0.5")


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("eval-localization", "--lambda"),
        ("eval-vcval", "--lambda"),
        *[("eval-steps", flag) for flag in ("--theta", "--alpha", "--beta", "--lambda")],
        *[("eval-captions", flag) for flag in ("--theta", "--alpha", "--beta")],
    ],
)
def test_negative_zero_flag_gives_the_zero_report(command, flag, fmt):
    def report(value):
        if command in ("eval-steps", "eval-captions"):
            return _report(command, *STEPS_FILES, f"{flag}={value}", "--format", fmt)
        return _organiser_report(command, f"{flag}={value}", "--format", fmt)

    zero = report("0")
    assert report("-0") == zero
    assert "-0.0" not in zero


def test_eval_steps_lists_thresholds_sorted(capsys):
    reports = []
    for mu in ("0.7,0.3", "0.3,0.7"):
        assert main(["eval-steps", *STEPS_FILES, "--mu", mu]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "# mu = 0.3, 0.7\n" in reports[0]
    assert reports[0].index("IoU=0.3\t") < reports[0].index("IoU=0.7\t")


@pytest.mark.parametrize(
    "command, run", [("eval-retrieval", "retrieval.run"), ("eval-localization", "localization.jsonl"), ("eval-vcval", "localization.jsonl")]
)
def test_unjudged_run_question_warns_once(command, run, capsys):
    assert main([command, "--run", str(ORGANISER / run), *ORGANISER_QRELS]) == 0
    assert capsys.readouterr().err == f"{UNJUDGED}\n"


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


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _SCORING_FLAGS.items() for f in flags])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bad_numeric_flag_exits_2_naming_it(fixture_inputs, command, flag, data):
    value = data.draw(_BAD_FLAG_VALUES[flag], label="value")
    argv = command_argv(fixture_inputs, fixture_inputs / "out")[command]  # each value exits before writing
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, f"--{flag}={value}"])
    assert code == 2
    assert out.getvalue() == ""
    message = err.getvalue()
    assert f"argument --{flag}:" in message or message.startswith(f"error: {flag} "), message


def test_caption_with_a_raw_line_separator_is_one_line(tmp_path, capsys):
    text = (STEPS / "pred.jsonl").read_text(encoding="utf-8").replace("Put on gloves", "Put on\u2028gloves")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(text, encoding="utf-8")
    assert main(["eval-steps", "--pred", str(pred), "--gold", str(STEPS / "gold.jsonl")]) == 0
    assert capsys.readouterr().out == (STEPS / "expected" / "steps.tsv").read_text(encoding="utf-8")


def test_byte_order_mark_is_not_data(tmp_path, capsys):
    # Without its comment header the run's first line is data, so a BOM would
    # otherwise become part of question id q1.
    body = (ORGANISER / "retrieval.run").read_text(encoding="utf-8").split("\n", 1)[1]
    reports = []
    for name, prefix in [("plain.run", ""), ("bom.run", "\ufeff")]:
        (tmp_path / name).write_text(prefix + body, encoding="utf-8")
        assert main(["eval-retrieval", "--run", str(tmp_path / name), *ORGANISER_QRELS]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]
    assert reports[1].err == f"{UNJUDGED}\n"


def test_byte_order_mark_at_a_line_start_is_not_data(tmp_path, capsys):
    # ``cat a.run b.run`` of BOM-prefixed files leaves a BOM before a line mid-file.
    lines = (ORGANISER / "retrieval.run").read_text(encoding="utf-8").split("\n")
    lines[3] = "\ufeff" + lines[3]
    run = tmp_path / "retrieval.run"
    run.write_text("\n".join(lines), encoding="utf-8")
    assert main(["eval-retrieval", "--run", str(run), *ORGANISER_QRELS]) == 0
    expected = (ORGANISER / "expected" / "retrieval.tsv").read_text(encoding="utf-8")
    assert capsys.readouterr() == (expected, f"{UNJUDGED}\n")


# Command lines relative to the repository, with each one's stderr lines.
_STEP_FILES = ["--pred", "tests/data/steps/pred.jsonl", "--gold", "tests/data/steps/gold.jsonl"]
_STEP_WARNINGS = [
    "warning: tests/data/steps/pred.jsonl:4: step 1 of segment 's5' has 12 words (guideline is <= 7)",
    "warning: predicted segment 's6' has no ground truth; ignoring it",
]
WARNING_CASES = [
    *[
        ([command, "--run", f"tests/data/organiser/{run}", "--qrels", "tests/data/organiser/qrels.txt",
          "tests/data/organiser/answers.jsonl"], [UNJUDGED])
        for command, run in [("eval-retrieval", "retrieval.run"), ("eval-localization", "localization.jsonl"),
                             ("eval-vcval", "localization.jsonl")]
    ],
    (["pool", "--run", "tests/data/organiser/retrieval.run"], []),
    (["eval-steps", *_STEP_FILES], _STEP_WARNINGS),
    (["eval-captions", *_STEP_FILES], _STEP_WARNINGS),
]


@pytest.mark.parametrize("argv, expected", WARNING_CASES)
def test_entry_point_prints_one_line_per_warning(argv, expected, monkeypatch, capsys):
    result = _python_m(argv)
    assert result.returncode == 0
    assert result.stderr.splitlines() == expected
    monkeypatch.chdir(REPO)
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == expected


@pytest.mark.parametrize("command", list(command_argv(Path(), Path())))
def test_repeated_call_gives_the_same_result_and_keeps_the_warning_state(fixture_inputs, command, tmp_path, capsys):
    # Python's default filter prints a repeated warning once per call site
    # and process; run_cli prints it on every call, and restores the caller's
    # filters and hooks.
    argv = command_argv(fixture_inputs, tmp_path)[command]
    state, filters = [warnings.filters, warnings.showwarning, warnings.formatwarning], list(warnings.filters)
    results = []
    for _ in range(2):
        code = main(argv)
        written = sorted((path.name, path.read_bytes()) for path in tmp_path.rglob("*") if path.is_file())
        results.append((code, *capsys.readouterr(), written))
        assert all(map(operator.is_, [warnings.filters, warnings.showwarning, warnings.formatwarning], state))
    assert results[0] == results[1] and warnings.filters == filters


def test_importing_the_cli_loads_neither_hashlib_nor_decimal():
    # Only pool draws hash and only plain_number's exponent branch needs
    # decimal, so they are imported there; hashlib loads OpenSSL.  Records are
    # namedtuples and paths are strings, so dataclasses (with inspect),
    # pathlib and typing are not needed at all.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import medvideval.cli; "
        "print(sorted({'hashlib', '_hashlib', 'decimal', 'dataclasses', 'inspect', 'pathlib', 'typing'}"
        " & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code, str(REPO / "src")], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_every_long_caption_warns_on_every_parse(tmp_path, capsys):
    # The step number tells apart two long captions with one word count, and
    # a file read as both sides warns for each side.
    steps = [{"caption": "one two three four five six seven eight", "start": start, "end": start + 1} for start in (0, 1)]
    path = tmp_path / "steps.jsonl"
    path.write_text(json.dumps({"segment": "s1", "steps": steps}) + "\n", encoding="utf-8")
    assert main(["eval-captions", "--pred", str(path), "--gold", str(path), "--out", str(tmp_path / "out")]) == 0
    lines = [f"warning: {path}:1: step {number} of segment 's1' has 8 words (guideline is <= 7)" for number in (1, 2)]
    assert capsys.readouterr().err.splitlines() == lines * 2


def test_long_identical_caption_pair_scores_without_recursion_limit(tmp_path):
    caption = " ".join(f"word{i}" for i in range(1200))
    steps = tmp_path / "steps.jsonl"
    steps.write_text(json.dumps({"segment": "s1", "steps": [{"caption": caption, "start": 0, "end": 10}]}) + "\n")
    out_path = tmp_path / "captions.tsv"
    assert main(["eval-captions", "--pred", str(steps), "--gold", str(steps), "--out", str(out_path)]) == 0
    assert "\nMETEOR\t100.0000\n" in out_path.read_text()


def test_long_caption_pair_rouge_l_is_exact(tmp_path):
    reference = [f"word{i}" for i in range(3000)]
    predicted = [f"other{i}" if i % 3 == 2 else word for i, word in enumerate(reference)]
    lcs = 2000  # every third word is replaced by one the reference lacks
    precision = lcs / len(predicted)
    recall = lcs / len(reference)
    rouge = 2 * precision * recall / (precision + recall)
    paths = {}
    for name, words in [("pred", predicted), ("gold", reference)]:
        step = {"caption": " ".join(words), "start": 0, "end": 10}
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(json.dumps({"segment": "s1", "steps": [step]}) + "\n")
    out_path = tmp_path / "captions.tsv"
    assert main(["eval-captions", "--pred", str(paths["pred"]), "--gold", str(paths["gold"]), "--out", str(out_path)]) == 0
    assert f"\nROUGE-L\t{100.0 * rouge:.4f}\n" in out_path.read_text()


@pytest.mark.parametrize("words", [40, 6400])
def test_a_long_caption_pair_over_two_words_stops_at_the_node_budget(tmp_path, words):
    # Every shared word repeats, so without its node budget METEOR's search
    # over 40 words would run for hours; each of its pops pushes at most four
    # entries, so 6,400 words stop within the same second.
    rng = random.Random("two words")
    argv = ["eval-captions"]
    for name in ("pred", "gold"):
        step = {"caption": " ".join(rng.choices(["wrap", "tie"], k=words)), "start": 0, "end": 10}
        path = tmp_path / f"{name}.jsonl"
        path.write_text(json.dumps({"segment": "s1", "steps": [step]}) + "\n", encoding="utf-8")
        argv += [f"--{name}", str(path)]
    reports = []
    for attempt in range(2):
        out_path = tmp_path / f"captions{attempt}.tsv"
        started = time.perf_counter()
        assert main([*argv, "--out", str(out_path)]) == 0
        assert time.perf_counter() - started < 1.0
        reports.append(out_path.read_bytes())
    assert reports[0] == reports[1]
    assert b"\n# meteor_fallback_pairs = 1\n" in reports[0]
    assert b"\nmatched_pairs\t1\n" in reports[0]


# ---------------------------------------------------------------------------
# The console script runs with the cyclic garbage collector off
# ---------------------------------------------------------------------------

def _cyclic_garbage_after(action) -> int:
    """How many unreachable objects ``gc.collect()`` finds after ``action()`` ran with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module", params=[1, 50], ids=["fixtures", "fixtures-x50"])
def scaled_inputs(request, tmp_path_factory):
    return track_inputs(tmp_path_factory.mktemp("track") / "in", request.param)


@pytest.mark.parametrize("command", list(command_argv(Path(), Path())))
def test_no_command_leaves_cyclic_garbage(scaled_inputs, command, tmp_path, capsys):
    # The console script turns the collector off, which is only safe while no
    # command builds reference cycles.  What a command does leave is a fixed
    # set, whatever the input size: argparse's own cycles, and for a structured
    # report those of json's pure-Python indenting encoder, which makes its
    # nested functions refer to each other on every call.
    argv = command_argv(scaled_inputs, tmp_path)[command]

    def fixed_part():
        build_parser()
        if "structured" in argv:
            write_report(MetricReport("empty"), "structured")

    codes = []
    expected = _cyclic_garbage_after(fixed_part)
    after_command = _cyclic_garbage_after(lambda: codes.append(main(argv)))
    assert codes == [2 if command == "malformed-run" else 0], capsys.readouterr().err
    assert after_command == expected


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    gc.unfreeze()
    if enabled:
        gc.enable()


def test_entry_point_turns_the_collector_off_and_freezes_start_up(monkeypatch, restore_gc):
    seen = []

    def run_cli():
        seen.append((gc.isenabled(), gc.get_freeze_count()))
        return 0

    monkeypatch.setattr(cli, "run_cli", run_cli)
    with pytest.raises(SystemExit) as exited:
        cli.entrypoint()
    assert exited.value.code == 0
    [(enabled, frozen)] = seen
    assert not enabled
    assert frozen > 0


def test_run_cli_keeps_the_collector_settings(fixture_inputs, tmp_path, restore_gc):
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        assert main(command_argv(fixture_inputs, tmp_path)["eval-retrieval"]) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
