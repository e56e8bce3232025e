"""Mutated golden-fixture lines driven through every parser: exit 0 or 2, never 1.

Each test takes one golden input file, damages one of its lines (or its bytes)
with the inputs that have crashed parsers before, and runs the subcommand that
reads it.  Exit 2 must name the damaged file.  The run parsers must also
return what the line-by-line reference parsers of ``oracles`` return, or
raise the same error, on the damaged files with more faults added.
"""

import contextlib
import io
import json
import re
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medvideval.cli import run_cli as main
from medvideval.core import FormatError
from medvideval.io_formats import parse_localization_run, parse_retrieval_run, read_report
from oracles import reference_parse_localization_run, reference_parse_retrieval_run

TESTS = Path(__file__).resolve().parent
ORGANISER = TESTS / "data" / "organiser"
STEPS = TESTS / "data" / "steps"
SMOKE = TESTS.parent / "data" / "smoke"

HUGE_AND_NON_FINITE = [
    "1" + "0" * 400,  # an integer no float can hold
    "-1" + "0" * 400,
    "9" * 5000,  # past the interpreter's digit limit for int()
    "1e400",
    "-1e400",
    "1.7976931348623157e308",
    "5e-324",
    "NaN",
    "Infinity",
    "-Infinity",
]
# Code points str.splitlines() ends a line at but "\n" does not.
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
BOM = "\ufeff"
INVALID_UTF8 = [b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xe2\x82"]
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


@st.composite
def mutated(draw, golden: Path) -> bytes:
    """The golden file with one to three hostile edits."""
    lines = golden.read_text(encoding="utf-8").split("\n")
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(lines) - 1))
        line = lines[index]
        kind = draw(st.sampled_from(["number", "nesting", "break", "bom"]))
        if kind == "number" and _NUMBER.search(line):
            numbers = list(_NUMBER.finditer(line))
            match = numbers[draw(st.integers(0, len(numbers) - 1))]
            line = line[: match.start()] + draw(st.sampled_from(HUGE_AND_NON_FINITE)) + line[match.end() :]
        elif kind == "nesting":
            depth = draw(st.sampled_from([900, 3000, 100_000]))
            line = draw(st.sampled_from(["[" * depth, "[" * depth + line + "]" * depth, '{"a":' * depth + "1" + "}" * depth]))
        elif kind == "break" or kind == "number":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(LINE_BREAKS + SPACES)) + line[at:]
        else:
            line = BOM + line
        lines[index] = line
    data = "\n".join(lines).encode("utf-8")
    if draw(st.booleans()):
        data = BOM.encode("utf-8") + data
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(INVALID_UTF8)) + data[at:]
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("robustness")
    assert run_quietly(["index", str(SMOKE / "corpus.jsonl"), "--out", str(root / "idx")])[0] == 0
    return root


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, err.getvalue()


def check(workdir, data: bytes, argv_for):
    target = workdir / "mutated"
    target.write_bytes(data)
    code, err = run_quietly(argv_for(str(target)))
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith(f"error: {target}"), err


QRELS = ["--qrels", str(ORGANISER / "qrels.txt"), str(ORGANISER / "answers.jsonl")]


@given(data=mutated(ORGANISER / "retrieval.run"))
def test_retrieval_run_parser(workdir, data):
    check(workdir, data, lambda path: ["eval-retrieval", "--run", path, *QRELS])


@given(data=mutated(ORGANISER / "qrels.txt"))
def test_qrels_grade_parser(workdir, data):
    check(workdir, data, lambda path: ["eval-retrieval", "--run", str(ORGANISER / "retrieval.run"), "--qrels", path])


@given(data=mutated(ORGANISER / "answers.jsonl"))
def test_answer_sidecar_parser(workdir, data):
    argv = ["eval-localization", "--run", str(ORGANISER / "localization.jsonl"), "--qrels", str(ORGANISER / "qrels.txt")]
    check(workdir, data, lambda path: [*argv, path])


@given(data=mutated(ORGANISER / "localization.jsonl"))
def test_localization_run_parser(workdir, data):
    check(workdir, data, lambda path: ["eval-vcval", "--run", path, *QRELS])


@given(data=st.data(), side=st.sampled_from(["pred", "gold"]))
def test_step_parser(workdir, data, side):
    other = "gold" if side == "pred" else "pred"
    argv = ["eval-steps", f"--{other}", str(STEPS / f"{other}.jsonl"), f"--{side}"]
    check(workdir, data.draw(mutated(STEPS / f"{side}.jsonl")), lambda path: [*argv, path])


@given(data=mutated(SMOKE / "corpus.jsonl"))
def test_corpus_parser(workdir, data):
    check(workdir, data, lambda path: ["index", path, "--out", str(workdir / "mutated-idx")])


@given(data=mutated(SMOKE / "queries.txt"))
def test_query_parser(workdir, data):
    check(workdir, data, lambda path: ["search", str(workdir / "idx"), path, "--k", "3"])


@given(data=mutated(ORGANISER / "expected" / "vcval.json"))
def test_report_reader(data):
    # Reports are read by the library only, so this drives read_report directly.
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return
    try:
        read_report(text, source="vcval.json")
    except FormatError as exc:
        assert str(exc).startswith("vcval.json"), exc


# --- single-pass run parsers against the line-by-line reference parsers --------

HOSTILE_TOKENS = ["x", "0", "-1", "01", "+2", "1_0", "1.5", "-0.0", "nan", "inf", "1e400", "9" * 5000, "#", "\u0663"]
HOSTILE_VALUES = [None, True, "", " ", "x", 0, -1, 2.5, 10**400, "9" * 400, "01:75", "1:00", " 00:10 ", "7", [1], {}]
LINE_SUFFIXES = ["}", "]", ",", " 1", "x", " #"]
FAULTS = ["field"] * 3 + ["copy line", "swap lines", "suffix"]


@st.composite
def faulted(draw, golden: Path, flat: bool) -> str:
    """The golden file, half the time through ``mutated`` and decoded as
    ``read_text`` does, then up to three faults: in single fields (hostile
    values, values copied from another line such as duplicate videos and
    ranks or moved questions, dropped fields), or in whole lines (copied,
    swapped, or with trailing data)."""
    text = golden.read_text(encoding="utf-8")
    if draw(st.booleans()):
        text = draw(mutated(golden)).decode("utf-8-sig", errors="replace").replace("\n\ufeff", "\n")
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 3))):
        index, other = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "copy line":
            lines[index] = lines[other]
        elif fault == "swap lines":
            lines[index], lines[other] = lines[other], lines[index]
        elif fault == "suffix":
            lines[index] += draw(st.sampled_from(LINE_SUFFIXES))
        elif flat:
            fields, donor = lines[index].split(), lines[other].split()
            if not fields:
                continue
            at = draw(st.integers(0, len(fields) - 1))
            choice = draw(st.sampled_from(["hostile", "copy", "drop"]))
            if choice == "drop":
                del fields[at]
            elif choice == "copy" and at < len(donor):
                fields[at] = donor[at]
            else:
                fields[at] = draw(st.sampled_from(HOSTILE_TOKENS))
            lines[index] = " ".join(fields)
        else:
            try:
                record, donor = json.loads(lines[index]), json.loads(lines[other])
            except (ValueError, RecursionError):
                continue
            if not isinstance(record, dict) or not isinstance(donor, dict):
                continue
            key = draw(st.sampled_from(["question", "video", "start", "end", "score", "rank"]))
            choice = draw(st.sampled_from(["hostile", "copy", "drop"]))
            if choice == "drop" or (choice == "copy" and key not in donor):
                record.pop(key, None)
            else:
                record[key] = donor[key] if choice == "copy" else draw(st.sampled_from(HOSTILE_VALUES))
            lines[index] = json.dumps(record)
    return "\n".join(lines)


def outcome(parse, text: str):
    """The parsed run with its question order, or the message of the FormatError."""
    try:
        return list(parse(text, source="run").items())
    except FormatError as exc:
        return str(exc)


@settings(max_examples=400)
@given(text=faulted(ORGANISER / "retrieval.run", flat=True))
def test_retrieval_run_parser_matches_the_reference(text):
    assert outcome(parse_retrieval_run, text) == outcome(reference_parse_retrieval_run, text)


@settings(max_examples=400)
@given(text=faulted(ORGANISER / "localization.jsonl", flat=False))
def test_localization_run_parser_matches_the_reference(text):
    assert outcome(parse_localization_run, text) == outcome(reference_parse_localization_run, text)
