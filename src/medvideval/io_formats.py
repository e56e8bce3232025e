"""Parsers for every on-disk input, and serializers for what the CLI writes.

Two families of formats:

* Flat formats (retrieval runs, qrels grade files, query files) are UTF-8
  text, fields separated by runs of whitespace, with ``#`` starting a
  comment line.  Whitespace is every character for which
  ``str.isspace()`` holds, as for ``str.split()``: U+3000 and U+00A0
  separate fields, as a space or a tab does.
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
import stat
import zlib
from collections import defaultdict, namedtuple
from collections.abc import Iterator, Mapping, Sequence
from operator import itemgetter

from .core import (
    MAX_SECONDS,
    FormatError,
    QuestionId,
    RelevanceGrade,
    TimeInterval,
    ToolkitWarning,
    VideoId,
    parse_timestamp,
    plain_number,
    quote_token,
    warn,
)

STEP_CAPTION_WORD_LIMIT = 7

_GRADES = tuple(RelevanceGrade)  # indexed by grade value


class StepLintWarning(ToolkitWarning):
    """A step caption violates an annotation guideline but is still usable."""


# ---------------------------------------------------------------------------
# Record types
# ---------------------------------------------------------------------------


class RetrievalRunEntry(namedtuple("RetrievalRunEntry", "question video rank score tag")):
    """One ranked video for one question in a retrieval run."""

    __slots__ = ()


class JudgedVideo(namedtuple("JudgedVideo", "question video grade answers")):
    """A video's graded relevance plus its assessed answer intervals."""

    __slots__ = ()

    def __new__(
        cls, question: QuestionId, video: VideoId, grade: RelevanceGrade, answers: list[TimeInterval] | None = None
    ) -> JudgedVideo:
        return tuple.__new__(cls, (question, video, grade, [] if answers is None else answers))


class LocalizationCandidate(namedtuple("LocalizationCandidate", "question video interval score rank")):
    """One ranked (video, interval, score) answer candidate for a question."""

    __slots__ = ()


class Step(namedtuple("Step", "caption interval")):
    """One instructional step: a caption and the interval where it is shown."""

    __slots__ = ()


class StepSequence(namedtuple("StepSequence", "segment_id steps")):
    """Ordered steps for one visual segment, sorted by start time."""

    __slots__ = ()

    def __new__(cls, segment_id: str, steps: list[Step] | None = None) -> StepSequence:
        return tuple.__new__(cls, (segment_id, [] if steps is None else steps))


class CorpusDocument(namedtuple("CorpusDocument", "video title subtitle", defaults=("", ""))):
    """A video's searchable text: title plus pre-extracted subtitle text."""

    __slots__ = ()


class MetricReport(namedtuple("MetricReport", "name params values")):
    """A named map of metric values plus the exact parameterization behind them."""

    __slots__ = ()

    def __new__(
        cls, name: str, params: dict[str, object] | None = None, values: dict[str, object] | None = None
    ) -> MetricReport:
        return tuple.__new__(cls, (name, {} if params is None else params, {} if values is None else values))


# ---------------------------------------------------------------------------
# Line plumbing
# ---------------------------------------------------------------------------


# json.loads minus its BOM and whitespace handling, which a stripped line does
# not need.  Like json's default decoder it keeps no state between calls.
_scan_json = json.JSONDecoder().scan_once


def _jsonl_records(text: str, source: str) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of ``text``, which must be one JSON object.

    Any other line is a FormatError naming ``source`` and the line; when the
    line is not valid JSON, ``json.loads`` names the fault.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end == len(line) and type(obj) is dict:
            yield lineno, obj
            continue
        try:
            json.loads(line)
        except json.JSONDecodeError as exc:
            reason = exc.msg
        except RecursionError:
            reason = "nested too deeply"
        except ValueError:  # an integer literal longer than int() accepts
            reason = "integer has too many digits"
        else:
            raise FormatError("expected a JSON object", source=source, line=lineno)
        raise FormatError(f"malformed JSON record: {reason}", source=source, line=lineno)


def _flat_records(text: str, source: str, columns: str = "") -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each line of ``text`` that is neither blank nor a ``#`` comment.

    Fields are split at whitespace, as by ``str.split()``.  Given ``columns``,
    the space-separated field names, a line with another number of fields is
    a FormatError naming ``source`` and the line.
    """
    count = len(columns.split())
    for lineno, fields in enumerate(map(str.split, text.split("\n")), start=1):
        if not fields or fields[0][0] == "#":
            continue
        if count and len(fields) != count:
            raise FormatError(f"expected {count} fields ({columns}), got {len(fields)}", source=source, line=lineno)
        yield lineno, fields


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


# The field readers below take objects that json built, so they test exact
# types: bool, a subclass of int, is neither a number nor a timestamp.


def _str_field(obj: Mapping[str, object], key: str, source: str, line: int) -> str:
    value = obj.get(key)
    if type(value) is str:
        value = value.strip()
        if value:
            return value
    raise FormatError(f"record needs a non-empty string {key!r}", source=source, line=line)


def _as_float(value: int | float) -> float:
    """``float(value)``, with an integer too large for a float as infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _number_field(obj: Mapping[str, object], key: str, source: str, line: int) -> float:
    value = obj.get(key)
    if type(value) is float:
        number = value
    elif type(value) is int:
        number = _as_float(value)
    else:
        raise FormatError(f"record needs a number {key!r}", source=source, line=line)
    if not math.isfinite(number):
        raise FormatError(f"{key!r} must be finite", source=source, line=line)
    return number


def _timestamp_field(
    obj: Mapping[str, object], key: str, source: str, line: int, converted: dict[str, float]
) -> float:
    """A timestamp in [0, MAX_SECONDS]: either an MM:SS / decimal string or a JSON number.

    ``converted`` is the calling parser's map from each string that already
    parsed in its input to its seconds.  ``MM:SS`` has whole-second
    resolution, so thousands of records repeat a few hundred strings, and
    each is parsed once.  A string that fails is never stored.
    """
    value = obj.get(key)
    if type(value) is str:
        seconds = converted.get(value)
        if seconds is None:
            try:
                seconds = converted[value] = parse_timestamp(value)
            except FormatError as exc:
                raise FormatError(f"{exc.reason} (field {key!r})", source=source, line=line) from None
        return seconds
    if type(value) is int:
        seconds = _as_float(value)
    elif type(value) is float:
        seconds = value
    else:
        raise FormatError(f"record needs a timestamp {key!r}", source=source, line=line)
    if not 0.0 <= seconds <= MAX_SECONDS:  # NaN fails too
        reason = f"{key!r} must be a non-negative finite number of seconds, at most {MAX_SECONDS:g}"
        raise FormatError(reason, source=source, line=line)
    return seconds


def _interval_field(obj: Mapping[str, object], source: str, line: int, converted: dict[str, float]) -> TimeInterval:
    """The interval from the ``start`` and ``end`` timestamps of ``obj``; see ``_timestamp_field``."""
    start = _timestamp_field(obj, "start", source, line, converted)
    end = _timestamp_field(obj, "end", source, line, converted)
    if end < start:
        raise FormatError(f"interval end {end} precedes start {start}", source=source, line=line)
    return tuple.__new__(TimeInterval, (start, end))


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
    ranks within a question are rejected.  Each line is checked in full
    before the next, so of several faults the first in file order is reported.
    """
    # question -> (the question's first qid string, its entries, their videos, their ranks)
    questions: dict[QuestionId, tuple[QuestionId, list[RetrievalRunEntry], set[VideoId], set[int]]] = {}
    rank_of: dict[str, int] = {}  # each rank token that already parsed; ranks run 1..depth for every question
    for lineno, (qid, _, video, rank_token, score_token, tag) in _flat_records(text, source, "qid Q0 video rank score tag"):
        rank = rank_of.get(rank_token)
        if rank is None:
            rank = rank_of[rank_token] = _parse_int(rank_token, "rank", source, lineno)
        score = _parse_score(score_token, source, lineno)
        question = questions.get(qid)
        if question is None:
            question = questions[qid] = (qid, [], set(), set())
        qid, entries, videos, ranks = question  # one qid string for all of a question's records
        if video in videos:
            raise FormatError(f"duplicate video {video!r} for question {qid!r}", source=source, line=lineno)
        if rank in ranks:
            raise FormatError(f"duplicate rank {rank} for question {qid!r}", source=source, line=lineno)
        videos.add(video)
        ranks.add(rank)
        # tuple.__new__ builds the record without the argument handling of its constructor.
        entries.append(tuple.__new__(RetrievalRunEntry, (qid, video, rank, score, tag)))

    for _, entries, _, _ in questions.values():
        entries.sort(key=itemgetter(2))  # by rank; both sorts are stable, so the distinct ranks break score ties
        entries.sort(key=itemgetter(3), reverse=True)  # by descending score
    return {qid: entries for qid, entries, _, _ in questions.values()}


def write_retrieval_run(run: Mapping[QuestionId, Sequence[RetrievalRunEntry]]) -> str:
    """Six-column run text that ``parse_retrieval_run`` reads back.

    Raises ``ValueError`` for every record the parser would reject or skip:
    one filed under another question's key, a question id, video id or run
    tag that is not a whitespace-free token, a question id that starts with
    ``#``, a rank that is not an integer >= 1, a video or rank that repeats
    within its question, and a score that is not finite.  Of a question's
    faulty records the first is named.
    """
    lines = []
    checked: set[str] = set()  # video ids and run tags that already passed _check_token
    # Tied scores sit next to each other, so each is printed once.  A zero is
    # always printed anew, since 0.0 == -0.0 but the two print differently.
    last_score = last_text = None
    for qid in sorted(run):
        videos: set[VideoId] = set()
        ranks: set[int] = set()
        for question, video, rank, score, tag in run[qid]:
            if question != qid:
                raise ValueError(f"record for question {question!r} is filed under question {qid!r}")
            # The question id is checked once, at the question's first record.
            if not videos and _check_token(question, "question id").startswith("#"):
                raise ValueError(f"question id must not start with '#', got {qid!r}")
            if video not in checked:
                checked.add(_check_token(video, "video id"))
            if tag not in checked:
                checked.add(_check_token(tag, "run tag"))
            if type(rank) is not int or rank < 1:
                raise ValueError(f"rank must be an integer >= 1, got {rank!r}")
            if video in videos:
                raise ValueError(f"duplicate video {video!r} for question {qid!r}")
            if rank in ranks:
                raise ValueError(f"duplicate rank {rank} for question {qid!r}")
            videos.add(video)
            ranks.add(rank)
            if score != last_score or not score:
                last_score, last_text = score, plain_number(score)
            lines.append(f"{question} Q0 {video} {rank} {last_text} {tag}")
    lines.append("")  # the final line break, or "" for an empty run
    return "\n".join(lines)


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
    for lineno, (qid, _, video, grade_token) in _flat_records(grades, grades_source, "qid iter video grade"):
        grade = _parse_int(grade_token, "grade", grades_source, lineno, minimum=0)
        if grade >= len(_GRADES):
            raise FormatError(f"grade must be 0, 1, or 2, got {quote_token(grade_token)}", source=grades_source, line=lineno)
        per_question = judged[qid]
        if video in per_question:
            raise FormatError(f"duplicate judgment for video {video!r}", source=grades_source, line=lineno)
        per_question[video] = tuple.__new__(JudgedVideo, (qid, video, _GRADES[grade], []))

    if answers is not None:
        converted: dict[str, float] = {}
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
            record.answers.append(_interval_field(obj, answers_source, lineno, converted))

    return {qid: list(videos.values()) for qid, videos in judged.items()}


# ---------------------------------------------------------------------------
# Localization runs (JSONL)
# ---------------------------------------------------------------------------


def parse_localization_run(text: str, source: str = "<localization-run>") -> dict[QuestionId, list[LocalizationCandidate]]:
    """Parse JSONL records ``{question, video, start, end, score[, rank]}``.

    Ranks must be supplied on all records of a question or on none; when
    absent they are assigned from descending score.  Candidates come back
    sorted by descending score with rank as tiebreak.  Each record is checked
    in full, its rank against the question's earlier records included, before
    the next, so of several faults the first in file order is reported.
    """
    # question -> (the question's first qid string, its candidates, their ranks or None if it is unranked)
    questions: dict[QuestionId, tuple[QuestionId, list[LocalizationCandidate], set[int] | None]] = {}
    converted: dict[str, float] = {}
    for lineno, obj in _jsonl_records(text, source):
        qid = _str_field(obj, "question", source, lineno)
        video = _str_field(obj, "video", source, lineno)
        interval = _interval_field(obj, source, lineno, converted)
        score = _number_field(obj, "score", source, lineno)
        ranked = "rank" in obj
        rank = obj["rank"] if ranked else lineno  # an unranked record's line number is its tiebreak
        if ranked and (type(rank) is not int or rank < 1):
            raise FormatError(f"rank must be a positive integer, got {rank!r}", source=source, line=lineno)
        question = questions.get(qid)
        if question is None:
            question = questions[qid] = (qid, [], set() if ranked else None)
        qid, candidates, ranks = question  # one qid string for all of a question's records
        if (ranks is not None) != ranked:
            raise FormatError(f"question {qid!r} mixes records with and without ranks", source=source, line=lineno)
        if ranked:
            if rank in ranks:
                raise FormatError(f"duplicate rank for question {qid!r}", source=source, line=lineno)
            ranks.add(rank)
        candidates.append(tuple.__new__(LocalizationCandidate, (qid, video, interval, score, rank)))

    for _, candidates, ranks in questions.values():
        candidates.sort(key=itemgetter(4))  # by rank or line; both sorts are stable, so these break score ties
        candidates.sort(key=itemgetter(3), reverse=True)  # by descending score
        if ranks is None:
            candidates[:] = [candidate._replace(rank=position) for position, candidate in enumerate(candidates, 1)]
    return {qid: candidates for qid, candidates, _ in questions.values()}


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
    converted: dict[str, float] = {}
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
            caption = caption.strip() if type(caption) is str else None
            if not caption:
                problem = "needs a string 'caption'" if caption is None else "has an empty caption"
                raise FormatError(f"step {number} of segment {segment_id!r} {problem}", source=source, line=lineno)
            words = len(caption.split())
            if words > STEP_CAPTION_WORD_LIMIT:
                warn(
                    StepLintWarning(
                        f"{source}:{lineno}: step {number} of segment {segment_id!r} has "
                        f"{words} words (guideline is <= {STEP_CAPTION_WORD_LIMIT})"
                    )
                )
            steps.append(Step(caption, _interval_field(raw, source, lineno, converted)))
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
    for lineno, fields in _flat_records(text, source):
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


def _flatten(values: Mapping[str, object], path: str = "") -> Iterator[tuple[str, object]]:
    for key, value in values.items():
        where = f"{path}/{key}" if path else str(key)
        if isinstance(value, Mapping):
            yield from _flatten(value, where)
        else:
            yield where, value


def _validate_values(values: Mapping[str, object]) -> None:
    for where, value in _flatten(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"report value {where!r} must be a number")
        if not math.isfinite(float(value)):
            raise ValueError(f"report value {where!r} must be finite")


def _render_param(value: object) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_render_param(v) for v in value)
    if isinstance(value, float):
        return plain_number(value)
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


def write_atomically(path: str | os.PathLike, *chunks: bytes) -> None:
    """Write the bytes-like ``chunks`` to ``path`` so that readers never see it half-written.

    The bytes go to a temporary file in the same directory that then replaces
    ``path``; if anything fails, the temporary file is removed and an existing
    ``path`` is left as it was.  An OS failure is a FormatError naming ``path``,
    and so is a ``path`` that is a FIFO, device or socket, which the rename
    would replace rather than write through.
    """
    directory, name = os.path.split(os.fspath(path).rstrip(os.sep))  # "dir/name/" names "dir/name", as in pathlib
    target = os.path.join(directory, name)
    try:
        kind = stat.S_IFMT(os.stat(target).st_mode)
    except OSError:  # no file yet, or a fault that the write reports
        kind = stat.S_IFREG
    if kind not in (stat.S_IFREG, stat.S_IFDIR):  # a directory fails the rename below with its own message
        raise FormatError("not a regular file", source=str(path))
    # A bounded name, so any name the filesystem accepts can be written; the
    # target's checksum keeps distinct targets apart, even across processes
    # that share a pid.
    temporary = os.path.join(directory, f".medvideval.{os.getpid()}.{zlib.crc32(os.fsencode(name)):08x}.tmp")
    try:
        with open(temporary, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(temporary, target)
    except BaseException as exc:
        try:
            os.remove(temporary)
        except OSError:  # the original fault is the one to report
            pass
        if isinstance(exc, OSError):
            raise FormatError(str(exc.strerror or exc), source=str(path)) from exc
        raise
