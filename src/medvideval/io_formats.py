"""Parsers and serializers for every on-disk artifact.

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
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .core import (
    FormatError,
    QuestionId,
    RelevanceGrade,
    TimeInterval,
    ToolkitWarning,
    VideoId,
    format_timestamp,
    parse_timestamp,
    plain_number as _plain_number,
)

TABULAR = "tabular"
STRUCTURED = "structured"
_TABULAR_NAMES = {"tabular", "tsv"}
_STRUCTURED_NAMES = {"structured", "json"}

STEP_CAPTION_WORD_LIMIT = 7


class StepLintWarning(ToolkitWarning):
    """A step caption violates an annotation guideline but is still usable."""


# ---------------------------------------------------------------------------
# Record types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetrievalRunEntry:
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


@dataclass(frozen=True)
class LocalizationCandidate:
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
    order: int = 0  # position in the source file, tiebreak for equal starts


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


def _raw_lines(text: str) -> Iterator[tuple[int, str]]:
    return enumerate(text.split("\n"), start=1)


def _flat_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (lineno, fields) for content lines, skipping blanks and comments."""
    for lineno, line in _raw_lines(text):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


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


def _jsonl_records(text: str, source: str) -> Iterator[tuple[int, dict]]:
    for lineno, line in _raw_lines(text):
        stripped = line.strip()
        if not stripped:
            continue
        obj = _json_value(stripped, "JSON record", source, lineno)
        if not isinstance(obj, dict):
            raise FormatError("expected a JSON object", source=source, line=lineno)
        yield lineno, obj


def _parse_int(token: str, what: str, source: str, line: int, *, minimum: int = 1) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {token!r}", source=source, line=line) from None
    if value < minimum:
        raise FormatError(f"{what} must be >= {minimum}, got {value}", source=source, line=line)
    return value


def _parse_score(token: str, source: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"score must be a number, got {token!r}", source=source, line=line) from None
    if not math.isfinite(value):
        raise FormatError(f"score must be finite, got {token!r}", source=source, line=line)
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
    """A timestamp value: either an MM:SS / decimal string or a JSON number."""
    value = obj.get(key)
    if isinstance(value, str):
        try:
            return parse_timestamp(value)
        except FormatError as exc:
            raise exc.positioned(source, line) from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"record needs a timestamp {key!r}", source=source, line=line)
    seconds = _as_float(value)
    if not math.isfinite(seconds) or seconds < 0:
        raise FormatError(f"{key!r} must be a non-negative finite number of seconds", source=source, line=line)
    return seconds


def _interval(start: float, end: float, source: str, line: int) -> TimeInterval:
    try:
        return TimeInterval(start, end)
    except ValueError as exc:
        raise FormatError(str(exc), source=source, line=line) from None


_TOKEN = re.compile(r"\S+")  # \s is exactly str.isspace for str patterns


def _check_token(value: str, what: str) -> str:
    if _TOKEN.fullmatch(value) is None:
        raise ValueError(f"{what} must be a non-empty whitespace-free token, got {value!r}")
    return value


def _timestamp_json(seconds: float) -> str | float:
    """Whole seconds serialize as MM:SS strings, fractional values as numbers."""
    if float(seconds).is_integer():
        return format_timestamp(seconds)
    return float(seconds)


# ---------------------------------------------------------------------------
# Retrieval runs (flat six-column format)
# ---------------------------------------------------------------------------


def parse_retrieval_run(text: str, source: str = "<run>") -> dict[QuestionId, list[RetrievalRunEntry]]:
    """Parse a six-column run file: ``qid Q0 video rank score tag``.

    Entries are grouped per question and sorted by descending score with the
    stated rank as tiebreak.  Duplicate (question, video) pairs and duplicate
    ranks within a question are rejected.
    """
    by_question: dict[QuestionId, list[RetrievalRunEntry]] = {}
    seen_videos: set[tuple[str, str]] = set()
    seen_ranks: set[tuple[str, int]] = set()
    for lineno, fields in _flat_rows(text):
        if len(fields) != 6:
            raise FormatError(
                f"expected 6 fields (qid Q0 video rank score tag), got {len(fields)}",
                source=source,
                line=lineno,
            )
        qid, _, video, rank_token, score_token, tag = fields
        rank = _parse_int(rank_token, "rank", source, lineno)
        score = _parse_score(score_token, source, lineno)
        if (qid, video) in seen_videos:
            raise FormatError(f"duplicate video {video!r} for question {qid!r}", source=source, line=lineno)
        if (qid, rank) in seen_ranks:
            raise FormatError(f"duplicate rank {rank} for question {qid!r}", source=source, line=lineno)
        seen_videos.add((qid, video))
        seen_ranks.add((qid, rank))
        by_question.setdefault(qid, []).append(RetrievalRunEntry(qid, video, rank, score, tag))
    for entries in by_question.values():
        entries.sort(key=lambda e: (-e.score, e.rank))
    return by_question


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
    judged: dict[QuestionId, dict[VideoId, JudgedVideo]] = {}
    for lineno, fields in _flat_rows(grades):
        if len(fields) != 4:
            raise FormatError(
                f"expected 4 fields (qid iter video grade), got {len(fields)}",
                source=grades_source,
                line=lineno,
            )
        qid, _, video, grade_token = fields
        grade_value = _parse_int(grade_token, "grade", grades_source, lineno, minimum=0)
        try:
            grade = RelevanceGrade(grade_value)
        except ValueError:
            raise FormatError(
                f"grade must be 0, 1, or 2, got {grade_token!r}", source=grades_source, line=lineno
            ) from None
        per_question = judged.setdefault(qid, {})
        if video in per_question:
            raise FormatError(f"duplicate judgment for video {video!r}", source=grades_source, line=lineno)
        per_question[video] = JudgedVideo(qid, video, grade)

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


def write_qrels(qrels: Mapping[QuestionId, Sequence[JudgedVideo]]) -> tuple[str, str]:
    """Serialize judgments back to (grade file text, answer sidecar text)."""
    grade_lines = []
    answer_lines = []
    for qid in sorted(qrels):
        for jv in qrels[qid]:
            _check_token(jv.question, "question id")
            _check_token(jv.video, "video id")
            grade_lines.append(f"{jv.question} 0 {jv.video} {int(jv.grade)}")
            for interval in jv.answers:
                answer_lines.append(
                    json.dumps(
                        {
                            "question": jv.question,
                            "video": jv.video,
                            "start": _timestamp_json(interval.start),
                            "end": _timestamp_json(interval.end),
                        }
                    )
                )
    grades = "\n".join(grade_lines) + ("\n" if grade_lines else "")
    answers = "\n".join(answer_lines) + ("\n" if answer_lines else "")
    return grades, answers


# ---------------------------------------------------------------------------
# Localization runs (JSONL)
# ---------------------------------------------------------------------------


def parse_localization_run(text: str, source: str = "<localization-run>") -> dict[QuestionId, list[LocalizationCandidate]]:
    """Parse JSONL records ``{question, video, start, end, score[, rank]}``.

    Ranks must be supplied on all records of a question or on none; when
    absent they are assigned from descending score.  Candidates come back
    sorted by descending score with rank as tiebreak.
    """
    staged: dict[QuestionId, list[tuple[int, VideoId, TimeInterval, float, int | None]]] = {}
    for lineno, obj in _jsonl_records(text, source):
        qid = _str_field(obj, "question", source, lineno)
        video = _str_field(obj, "video", source, lineno)
        start = _timestamp_field(obj, "start", source, lineno)
        end = _timestamp_field(obj, "end", source, lineno)
        interval = _interval(start, end, source, lineno)
        score = _number_field(obj, "score", source, lineno)
        rank: int | None = None
        if "rank" in obj:
            raw = obj["rank"]
            if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
                raise FormatError(f"rank must be a positive integer, got {raw!r}", source=source, line=lineno)
            rank = raw
        staged.setdefault(qid, []).append((lineno, video, interval, score, rank))

    result: dict[QuestionId, list[LocalizationCandidate]] = {}
    for qid, rows in staged.items():
        ranks = {row[4] for row in rows}
        if None in ranks:
            if len(ranks) > 1:
                raise FormatError(
                    f"question {qid!r} mixes records with and without ranks", source=source, line=rows[0][0]
                )
            rows.sort(key=lambda row: -row[3])  # stable, so file order breaks score ties
            candidates = [
                LocalizationCandidate(qid, video, interval, score, rank)
                for rank, (_, video, interval, score, _) in enumerate(rows, start=1)
            ]
        else:
            if len(ranks) != len(rows):
                raise FormatError(f"duplicate rank for question {qid!r}", source=source, line=rows[0][0])
            candidates = [LocalizationCandidate(qid, *row[1:]) for row in rows]
            candidates.sort(key=lambda c: (-c.score, c.rank))
        result[qid] = candidates
    return result


def write_localization_run(run: Mapping[QuestionId, Sequence[LocalizationCandidate]]) -> str:
    lines = []
    for qid in sorted(run):
        for cand in run[qid]:
            lines.append(
                json.dumps(
                    {
                        "question": cand.question,
                        "video": cand.video,
                        "start": _timestamp_json(cand.interval.start),
                        "end": _timestamp_json(cand.interval.end),
                        "score": cand.score,
                        "rank": cand.rank,
                    }
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


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
        for order, raw in enumerate(raw_steps):
            if not isinstance(raw, dict):
                raise FormatError("each step must be a JSON object", source=source, line=lineno)
            caption = raw.get("caption")
            if not isinstance(caption, str) or not caption.strip():
                raise FormatError(
                    f"step {order + 1} of segment {segment_id!r} has an empty caption",
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
            steps.append(Step(caption, _interval(start, end, source, lineno), order))
        steps.sort(key=lambda s: (s.interval.start, s.order))
        steps = [Step(s.caption, s.interval, order) for order, s in enumerate(steps)]
        sequences[segment_id] = StepSequence(segment_id, steps)
    return sequences


def write_steps(sequences: Mapping[str, StepSequence]) -> str:
    lines = []
    for segment_id in sorted(sequences):
        seq = sequences[segment_id]
        lines.append(
            json.dumps(
                {
                    "segment": seq.segment_id,
                    "steps": [
                        {
                            "caption": step.caption,
                            "start": _timestamp_json(step.interval.start),
                            "end": _timestamp_json(step.interval.end),
                        }
                        for step in seq.steps
                    ],
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


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


def write_corpus(documents: Sequence[CorpusDocument]) -> str:
    lines = [
        json.dumps({"video": doc.video, "title": doc.title, "subtitle": doc.subtitle})
        for doc in documents
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Query files (flat: qid followed by the query text)
# ---------------------------------------------------------------------------


def parse_queries(text: str, source: str = "<queries>") -> dict[QuestionId, str]:
    queries: dict[QuestionId, str] = {}
    for lineno, fields in _flat_rows(text):
        if len(fields) < 2:
            raise FormatError("expected a question id followed by query text", source=source, line=lineno)
        qid, text = fields[0], " ".join(fields[1:])
        if qid in queries:
            raise FormatError(f"duplicate question id {qid!r}", source=source, line=lineno)
        queries[qid] = text
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


def write_report(report: MetricReport, fmt: str = TABULAR) -> str:
    """Serialize a report; ``tabular``/``tsv`` or ``structured``/``json``.

    Tabular output renders values with four decimal places and embeds the
    parameterization as comment lines; structured output is lossless JSON.
    Key order follows report construction order, so identical inputs yield
    byte-identical output.
    """
    _validate_values(report.values)
    name = fmt.lower()
    if name in _STRUCTURED_NAMES:
        payload = {"report": report.name, "params": report.params, "values": report.values}
        return json.dumps(payload, indent=2) + "\n"
    if name not in _TABULAR_NAMES:
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
    """Read a UTF-8 input file without its byte-order mark, converting OS and decoding problems to FormatError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
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
