"""Parsers for every on-disk input, and serializers for what the CLI writes.

Two families of formats:

* Flat formats (retrieval runs, qrels grade files, pool files, query files)
  are UTF-8 text, fields separated by runs of ASCII whitespace, with ``#``
  starting a comment line.
* Record formats (localization runs, step files, answer-interval sidecars,
  subtitle corpora) are JSON Lines, one object per line.

Parsers take the whole text as a ``str``.  Lines end only at a line feed, so
characters such as U+2028, which JSON allows unescaped inside strings, stay
within their line.

Every parser either returns a value or raises :class:`FormatError` carrying
the source name and line number; arbitrary input never crashes a parser.
Parsers keep no shared state and may run concurrently on distinct inputs.

Retrieval runs and metric reports are serialized here; pool files and the
BM25 index by :mod:`.pooling` and :mod:`.bm25`.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    MAX_SECONDS,
    FormatError,
    QuestionId,
    RelevanceGrade,
    TimeInterval,
    ToolkitWarning,
    VideoId,
    parse_timestamp,
    plain_number as _plain_number,
    quote_token,
)

STEP_CAPTION_WORD_LIMIT = 7

_GRADES = tuple(RelevanceGrade)  # indexed by grade value


class StepLintWarning(ToolkitWarning):
    """A step caption violates an annotation guideline but is still usable."""


# ---------------------------------------------------------------------------
# Record types
# ---------------------------------------------------------------------------


class RetrievalRunEntry(NamedTuple):
    """One ranked video for one question in a retrieval run."""

    question: QuestionId
    video: VideoId
    rank: int
    score: float
    tag: str


@dataclass
class JudgedVideo:
    """A video's graded relevance plus its assessed answer intervals."""

    question: QuestionId
    video: VideoId
    grade: RelevanceGrade
    answers: list[TimeInterval] = field(default_factory=list)


class LocalizationCandidate(NamedTuple):
    """One ranked (video, interval, score) answer candidate for a question."""

    question: QuestionId
    video: VideoId
    interval: TimeInterval
    score: float
    rank: int


@dataclass(frozen=True)
class Step:
    """One instructional step: a caption and the interval where it is shown."""

    caption: str
    interval: TimeInterval


@dataclass
class StepSequence:
    """Ordered steps for one visual segment, sorted by start time."""

    segment_id: str
    steps: list[Step] = field(default_factory=list)


@dataclass(frozen=True)
class CorpusDocument:
    """A video's searchable text: title plus pre-extracted subtitle text."""

    video: VideoId
    title: str = ""
    subtitle: str = ""


@dataclass
class MetricReport:
    """A named map of metric values plus the exact parameterization behind them."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    values: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Line plumbing
# ---------------------------------------------------------------------------


def _json_value(text: str, what: str, source: str, line: int | None = None) -> Any:
    """``json.loads(text)``, with every way it can fail as a FormatError naming ``source``.

    A syntax error names its line; so does any error when ``line`` is given.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason, line = exc.msg, line or exc.lineno
    except RecursionError:
        reason = "nested too deeply"
    except ValueError:  # an integer literal longer than int() accepts
        reason = "integer has too many digits"
    raise FormatError(f"malformed {what}: {reason}", source=source, line=line)


# json.loads minus its BOM and whitespace handling, which a stripped line does
# not need.  Like json's default decoder it keeps no state between calls.
_scan_json = json.JSONDecoder().scan_once


def _json_record(line: str, source: str, lineno: int) -> dict:
    """The JSON object that makes up all of ``line``, a stripped non-empty line."""
    try:
        obj, end = _scan_json(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end == len(line) and type(obj) is dict:
        return obj
    _json_value(line, "JSON record", source, lineno)  # raises unless the line is valid JSON
    raise FormatError("expected a JSON object", source=source, line=lineno)


def _jsonl_records(text: str, source: str) -> Iterator[tuple[int, dict]]:
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped:
            yield lineno, _json_record(stripped, source, lineno)


_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*\Z")  # the literals int() accepts, digit limit aside


def _parse_int(token: str, what: str, source: str, line: int, *, minimum: int = 1) -> int:
    try:
        value = int(token)
    except ValueError:
        if _INTEGER.match(token):  # past the interpreter's digit limit: too long to echo
            reason = f"{what} has too many digits ({len(token):,} characters)"
        else:
            reason = f"{what} must be an integer, got {quote_token(token)}"
        raise FormatError(reason, source=source, line=line) from None
    if value < minimum:
        raise FormatError(f"{what} must be >= {minimum}, got {quote_token(token)}", source=source, line=line)
    return value


def _parse_score(token: str, source: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"score must be a number, got {quote_token(token)}", source=source, line=line) from None
    if not math.isfinite(value):
        raise FormatError(f"score must be finite, got {quote_token(token)}", source=source, line=line)
    return value


def _str_field(obj: Mapping[str, Any], key: str, source: str, line: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value.strip():
        raise FormatError(f"record needs a non-empty string {key!r}", source=source, line=line)
    return value.strip()


def _as_float(value: int | float) -> float:
    """``float(value)``, with an integer too large for a float as infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _number_field(obj: Mapping[str, Any], key: str, source: str, line: int) -> float:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"record needs a number {key!r}", source=source, line=line)
    number = _as_float(value)
    if not math.isfinite(number):
        raise FormatError(f"{key!r} must be finite", source=source, line=line)
    return number


def _timestamp_field(obj: Mapping[str, Any], key: str, source: str, line: int) -> float:
    """A timestamp in [0, MAX_SECONDS]: either an MM:SS / decimal string or a JSON number."""
    value = obj.get(key)
    if isinstance(value, str):
        try:
            return parse_timestamp(value)
        except FormatError as exc:
            raise FormatError(f"{exc.reason} (field {key!r})", source=source, line=line) from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"record needs a timestamp {key!r}", source=source, line=line)
    seconds = _as_float(value)
    if not 0.0 <= seconds <= MAX_SECONDS:  # NaN fails too
        reason = f"{key!r} must be a non-negative finite number of seconds, at most {MAX_SECONDS:g}"
        raise FormatError(reason, source=source, line=line)
    return seconds


def _interval(start: float, end: float, source: str, line: int) -> TimeInterval:
    """The interval between two ``_timestamp_field`` values, which are already in range."""
    if end < start:
        raise FormatError(f"interval end {end} precedes start {start}", source=source, line=line)
    return TimeInterval._unchecked(start, end)


_TOKEN = re.compile(r"\S+")  # \s is exactly str.isspace for str patterns


def _check_token(value: str, what: str) -> str:
    if _TOKEN.fullmatch(value) is None:
        raise ValueError(f"{what} must be a non-empty whitespace-free token, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Retrieval runs (flat six-column format)
# ---------------------------------------------------------------------------


def parse_retrieval_run(text: str, source: str = "<run>") -> dict[QuestionId, list[RetrievalRunEntry]]:
    """Parse a six-column run file: ``qid Q0 video rank score tag``.

    Entries are grouped per question and sorted by descending score with the
    stated rank as tiebreak.  Duplicate (question, video) pairs and duplicate
    ranks within a question are rejected.  Of several faults, the first in
    file order is reported.
    """
    staged: defaultdict[QuestionId, list[tuple[float, int, VideoId, str, int]]] = defaultdict(list)
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        try:
            if len(fields) != 6:
                raise FormatError(
                    f"expected 6 fields (qid Q0 video rank score tag), got {len(fields)}",
                    source=source,
                    line=lineno,
                )
            qid, _, video, rank_token, score_token, tag = fields
            rank = _parse_int(rank_token, "rank", source, lineno)
            score = _parse_score(score_token, source, lineno)
        except FormatError as exc:
            raise _first_duplicate(staged, source) or exc from None
        staged[qid].append((-score, rank, video, tag, lineno))

    run: dict[QuestionId, list[RetrievalRunEntry]] = {}
    for qid, rows in staged.items():
        if len({row[2] for row in rows}) < len(rows) or len({row[1] for row in rows}) < len(rows):
            raise _first_duplicate(staged, source)
        rows.sort()  # ranks are distinct, so (-score, rank) decides
        # tuple.__new__ builds the record without the argument handling of its constructor.
        run[qid] = [
            tuple.__new__(RetrievalRunEntry, (qid, video, rank, -negated, tag))
            for negated, rank, video, tag, _ in rows
        ]
    return run


def _first_duplicate(staged: Mapping[QuestionId, list[tuple]], source: str) -> FormatError | None:
    """The error for the first staged run line that repeats a video or a rank of its question.

    Only questions without a duplicate have been sorted, so the rows of any
    other question are still in file order.
    """
    first: FormatError | None = None
    for qid, rows in staged.items():
        videos: set[VideoId] = set()
        ranks: set[int] = set()
        for _, rank, video, _, lineno in rows:
            if video in videos:
                reason = f"duplicate video {video!r} for question {qid!r}"
            elif rank in ranks:
                reason = f"duplicate rank {rank} for question {qid!r}"
            else:
                videos.add(video)
                ranks.add(rank)
                continue
            if first is None or lineno < first.line:
                first = FormatError(reason, source=source, line=lineno)
            break
    return first


def write_retrieval_run(run: Mapping[QuestionId, Sequence[RetrievalRunEntry]]) -> str:
    lines = []
    for qid in sorted(run):
        for entry in run[qid]:
            _check_token(entry.question, "question id")
            _check_token(entry.video, "video id")
            _check_token(entry.tag, "run tag")
            lines.append(
                f"{entry.question} Q0 {entry.video} {entry.rank} {_plain_number(entry.score)} {entry.tag}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Qrels (flat grade file + JSONL answer-interval sidecar)
# ---------------------------------------------------------------------------


def parse_qrels(
    grades: str,
    answers: str | None = None,
    *,
    grades_source: str = "<qrels>",
    answers_source: str = "<answers>",
) -> dict[QuestionId, list[JudgedVideo]]:
    """Parse a grade file ``qid iter video grade`` plus an optional sidecar of
    answer intervals (JSONL records with question, video, start, end).

    Intervals may only attach to positively graded videos, and every interval
    must reference a (question, video) pair present in the grade file.
    """
    judged: defaultdict[QuestionId, dict[VideoId, JudgedVideo]] = defaultdict(dict)
    for lineno, line in enumerate(grades.split("\n"), start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 4:
            raise FormatError(
                f"expected 4 fields (qid iter video grade), got {len(fields)}",
                source=grades_source,
                line=lineno,
            )
        qid, _, video, grade_token = fields
        grade = _parse_int(grade_token, "grade", grades_source, lineno, minimum=0)
        if grade >= len(_GRADES):
            raise FormatError(f"grade must be 0, 1, or 2, got {quote_token(grade_token)}", source=grades_source, line=lineno)
        per_question = judged[qid]
        if video in per_question:
            raise FormatError(f"duplicate judgment for video {video!r}", source=grades_source, line=lineno)
        per_question[video] = JudgedVideo(qid, video, _GRADES[grade])

    if answers is not None:
        for lineno, obj in _jsonl_records(answers, answers_source):
            qid = _str_field(obj, "question", answers_source, lineno)
            video = _str_field(obj, "video", answers_source, lineno)
            record = judged.get(qid, {}).get(video)
            if record is None:
                raise FormatError(
                    f"answer interval references unjudged pair ({qid!r}, {video!r})",
                    source=answers_source,
                    line=lineno,
                )
            if not record.grade.is_positive:
                raise FormatError(
                    f"answer interval attached to not-relevant video {video!r} for {qid!r}",
                    source=answers_source,
                    line=lineno,
                )
            start = _timestamp_field(obj, "start", answers_source, lineno)
            end = _timestamp_field(obj, "end", answers_source, lineno)
            record.answers.append(_interval(start, end, answers_source, lineno))

    return {qid: list(videos.values()) for qid, videos in judged.items()}


# ---------------------------------------------------------------------------
# Localization runs (JSONL)
# ---------------------------------------------------------------------------


def parse_localization_run(text: str, source: str = "<localization-run>") -> dict[QuestionId, list[LocalizationCandidate]]:
    """Parse JSONL records ``{question, video, start, end, score[, rank]}``.

    Ranks must be supplied on all records of a question or on none; when
    absent they are assigned from descending score.  Candidates come back
    sorted by descending score with rank as tiebreak.
    """
    staged: defaultdict[QuestionId, list[tuple[float, int | None, int, VideoId, TimeInterval]]] = defaultdict(list)
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        obj = _json_record(line, source, lineno)
        qid = _str_field(obj, "question", source, lineno)
        video = _str_field(obj, "video", source, lineno)
        start = _timestamp_field(obj, "start", source, lineno)
        end = _timestamp_field(obj, "end", source, lineno)
        interval = _interval(start, end, source, lineno)
        score = _number_field(obj, "score", source, lineno)
        rank = None
        if "rank" in obj:
            rank = obj["rank"]
            if type(rank) is not int or rank < 1:
                raise FormatError(f"rank must be a positive integer, got {rank!r}", source=source, line=lineno)
        staged[qid].append((-score, rank, lineno, video, interval))

    run: dict[QuestionId, list[LocalizationCandidate]] = {}
    for qid, rows in staged.items():
        ranks = {row[1] for row in rows}
        # Rows are still in file order, so a fault names the first line that breaks the rule.
        if None in ranks and len(ranks) > 1:
            line = next(row[2] for row in rows if (row[1] is None) != (rows[0][1] is None))
            raise FormatError(f"question {qid!r} mixes records with and without ranks", source=source, line=line)
        if len(ranks) < len(rows) and None not in ranks:
            seen: set[int] = set()
            line = next(row[2] for row in rows if row[1] in seen or seen.add(row[1]))
            raise FormatError(f"duplicate rank for question {qid!r}", source=source, line=line)
        # Ranks are distinct or all None, so (-score, rank) or (-score, line) decides.
        rows.sort()
        run[qid] = [
            tuple.__new__(LocalizationCandidate, (qid, video, interval, -negated, rank or position))
            for position, (negated, rank, _, video, interval) in enumerate(rows, start=1)
        ]
    return run


# ---------------------------------------------------------------------------
# Step files (JSONL)
# ---------------------------------------------------------------------------


def parse_steps(text: str, source: str = "<steps>") -> dict[str, StepSequence]:
    """Parse JSONL records ``{segment, steps: [{caption, start, end}, ...]}``.

    Steps are normalized to start-time order (source order breaks ties).
    Captions longer than the annotation guideline's seven words are accepted
    with a StepLintWarning.
    """
    sequences: dict[str, StepSequence] = {}
    for lineno, obj in _jsonl_records(text, source):
        segment_id = _str_field(obj, "segment", source, lineno)
        if segment_id in sequences:
            raise FormatError(f"duplicate segment {segment_id!r}", source=source, line=lineno)
        raw_steps = obj.get("steps", [])
        if not isinstance(raw_steps, list):
            raise FormatError("'steps' must be a list", source=source, line=lineno)
        steps: list[Step] = []
        for number, raw in enumerate(raw_steps, start=1):
            if not isinstance(raw, dict):
                raise FormatError("each step must be a JSON object", source=source, line=lineno)
            caption = raw.get("caption")
            if not isinstance(caption, str) or not caption.strip():
                raise FormatError(
                    f"step {number} of segment {segment_id!r} has an empty caption",
                    source=source,
                    line=lineno,
                )
            caption = caption.strip()
            if len(caption.split()) > STEP_CAPTION_WORD_LIMIT:
                warnings.warn(
                    StepLintWarning(
                        f"{source}:{lineno}: caption of segment {segment_id!r} has "
                        f"{len(caption.split())} words (guideline is <= {STEP_CAPTION_WORD_LIMIT})"
                    ),
                    stacklevel=2,
                )
            start = _timestamp_field(raw, "start", source, lineno)
            end = _timestamp_field(raw, "end", source, lineno)
            steps.append(Step(caption, _interval(start, end, source, lineno)))
        steps.sort(key=lambda step: step.interval.start)  # stable: source order breaks ties
        sequences[segment_id] = StepSequence(segment_id, steps)
    return sequences


# ---------------------------------------------------------------------------
# Subtitle corpus (JSONL)
# ---------------------------------------------------------------------------


def parse_corpus(text: str, source: str = "<corpus>") -> list[CorpusDocument]:
    """Parse JSONL records ``{video, title?, subtitle?}`` with unique, whitespace-free video ids."""
    documents: list[CorpusDocument] = []
    seen: set[str] = set()
    for lineno, obj in _jsonl_records(text, source):
        video = _str_field(obj, "video", source, lineno)
        if _TOKEN.fullmatch(video) is None:
            raise FormatError(f"video id must not contain whitespace, got {video!r}", source=source, line=lineno)
        if video in seen:
            raise FormatError(f"duplicate video id {video!r}", source=source, line=lineno)
        seen.add(video)
        title = obj.get("title", "")
        subtitle = obj.get("subtitle", "")
        if not isinstance(title, str) or not isinstance(subtitle, str):
            raise FormatError("'title' and 'subtitle' must be strings", source=source, line=lineno)
        documents.append(CorpusDocument(video, title, subtitle))
    return documents


# ---------------------------------------------------------------------------
# Query files (flat: qid followed by the query text)
# ---------------------------------------------------------------------------


def parse_queries(text: str, source: str = "<queries>") -> dict[QuestionId, str]:
    queries: dict[QuestionId, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) < 2:
            raise FormatError("expected a question id followed by query text", source=source, line=lineno)
        qid, query = fields[0], " ".join(fields[1:])
        if qid in queries:
            raise FormatError(f"duplicate question id {qid!r}", source=source, line=lineno)
        queries[qid] = query
    return queries


# ---------------------------------------------------------------------------
# Metric reports
# ---------------------------------------------------------------------------


def _flatten(values: Mapping[str, Any], path: str = "") -> Iterator[tuple[str, Any]]:
    for key, value in values.items():
        where = f"{path}/{key}" if path else str(key)
        if isinstance(value, Mapping):
            yield from _flatten(value, where)
        else:
            yield where, value


def _validate_values(values: Mapping[str, Any]) -> None:
    for where, value in _flatten(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"report value {where!r} must be a number")
        if not math.isfinite(float(value)):
            raise ValueError(f"report value {where!r} must be finite")


def _render_param(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_render_param(v) for v in value)
    if isinstance(value, float):
        return _plain_number(value)
    return str(value)


def write_report(report: MetricReport, fmt: str = "tsv") -> str:
    """Serialize a report as ``tsv`` or ``structured``.

    TSV output renders values with four decimal places and embeds the
    parameterization as comment lines; structured output is lossless JSON.
    Key order follows report construction order, so identical inputs yield
    byte-identical output.
    """
    _validate_values(report.values)
    if fmt == "structured":
        payload = {"report": report.name, "params": report.params, "values": report.values}
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "tsv":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"# report: {report.name}"]
    lines.extend(f"# {where} = {_render_param(value)}" for where, value in _flatten(report.params))
    for key, value in _flatten(report.values):
        if isinstance(value, int) and not isinstance(value, bool):
            lines.append(f"{key}\t{value}")
        else:
            lines.append(f"{key}\t{float(value):.4f}")
    return "\n".join(lines) + "\n"


def read_report(text: str, source: str = "<report>") -> MetricReport:
    """Parse a structured-mode report back into a MetricReport."""
    payload = _json_value(text, "report JSON", source)
    if not isinstance(payload, dict) or not isinstance(payload.get("report"), str):
        raise FormatError("report must be an object with a 'report' name", source=source, line=1)
    params = payload.get("params", {})
    values = payload.get("values", {})
    if not isinstance(params, dict) or not isinstance(values, dict):
        raise FormatError("'params' and 'values' must be objects", source=source, line=1)
    return MetricReport(payload["report"], params, values)


def read_text(path: str) -> str:
    """Read a UTF-8 input file, converting OS and decoding problems to FormatError.

    A byte-order mark is dropped at the start of the file and at the start of
    every line, where concatenating files leaves one.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read().replace("\n\ufeff", "\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not valid UTF-8: {exc.reason}", source=path) from exc
    except OSError as exc:
        raise FormatError(str(exc.strerror or exc), source=path) from exc


def write_atomically(path: str | Path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` so that readers never see it half-written.

    The bytes go to a temporary file in the same directory that then replaces
    ``path``; if anything fails, the temporary file is removed and an existing
    ``path`` is left as it was.
    """
    target = Path(path)
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
