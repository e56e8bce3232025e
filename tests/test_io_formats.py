import ast
import json
import math
import os
import re
import sys
from decimal import Decimal
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medvideval import bm25, core, io_formats
from medvideval.bm25 import Bm25Params
from medvideval.core import FormatError, RelevanceGrade, TimeInterval, plain_number
from medvideval.io_formats import (
    CorpusDocument,
    JudgedVideo,
    LocalizationCandidate,
    MetricReport,
    RetrievalRunEntry,
    Step,
    StepLintWarning,
    StepSequence,
    _check_token,
    parse_corpus,
    parse_localization_run,
    parse_qrels,
    parse_queries,
    parse_retrieval_run,
    parse_steps,
    write_report,
    write_atomically,
    write_retrieval_run,
)
from medvideval.pooling import PoolBand, PoolSpec
from medvideval.segment_metrics import IoUParams
from medvideval.step_alignment import AlignmentParams, AlignmentResult
from medvideval.text_metrics import CaptionPair
from test_bm25 import INDEX_FAULTS

# ---------------------------------------------------------------------------
# retrieval runs
# ---------------------------------------------------------------------------


# Each fault of parse_retrieval_run, by test id: its input and its exact message.
RUN_FAULTS = {
    "rank-0": ("q1 Q0 v1 0 2.0 t", "<run>:1: rank must be >= 1, got '0'"),
    "rank--1": ("q1 Q0 v1 -1 2.0 t", "<run>:1: rank must be >= 1, got '-1'"),
    "rank-1.5": ("q1 Q0 v1 1.5 2.0 t", "<run>:1: rank must be an integer, got '1.5'"),
    # Tokens of 5,000 characters: each message stays short.
    "rank-5000-digits": ("q1 Q0 v1 " + "9" * 5000 + " 2.0 t", "<run>:1: rank has too many digits (5,000 characters)"),
    "score-5000-digits": ("q1 Q0 v1 1 " + "9" * 5000 + " t", f"<run>:1: score must be finite, got '{'9' * 40}'... (5,000 characters)"),
    "rank-5000-letters": ("q1 Q0 v1 " + "x" * 5000 + " 2.0 t", f"<run>:1: rank must be an integer, got '{'x' * 40}'... (5,000 characters)"),
    "score-x": ("q1 Q0 v1 1 x t", "<run>:1: score must be a number, got 'x'"),
    "score-nan": ("q1 Q0 v1 1 nan t", "<run>:1: score must be finite, got 'nan'"),
    "score-inf": ("q1 Q0 v1 1 inf t", "<run>:1: score must be finite, got 'inf'"),
    "5-fields": ("q1 Q0 v1 1 2.0", "<run>:1: expected 6 fields (qid Q0 video rank score tag), got 5"),
    "7-fields": ("q1 Q0 v1 1 2.0 t extra", "<run>:1: expected 6 fields (qid Q0 video rank score tag), got 7"),
    # A bad line after a duplicate: the duplicate comes first in the file.
    "bad-line-after-duplicate": ("q1 Q0 v1 1 2.0 t\nq1 Q0 v1 2 1.0 t\nq1 Q0 v2 x 0.5 t", "<run>:2: duplicate video 'v1' for question 'q1'"),
    # Interleaved questions: q2's repeat on line 3 comes before q1's on line 4.
    "interleaved-questions": (
        "q1 Q0 v1 1 2.0 t\nq2 Q0 v1 1 2.0 t\nq2 Q0 v1 2 1.0 t\nq1 Q0 v1 2 1.0 t",
        "<run>:3: duplicate video 'v1' for question 'q2'",
    ),
    "duplicate-rank": ("q1 Q0 v1 1 2.0 t\nq1 Q0 v2 1 1.0 t", "<run>:2: duplicate rank 1 for question 'q1'"),
    # A line that repeats both the video and the rank names the video.
    "duplicate-video-and-rank": ("q1 Q0 v1 1 2.0 t\nq1 Q0 v1 1 1.0 t", "<run>:2: duplicate video 'v1' for question 'q1'"),
    # A malformed line before a later duplicate: the malformed line comes first in the file.
    "bad-line-before-duplicate": ("q1 Q0 v1 1 2.0 t\nq1 Q0 v2 x 1.0 t\nq1 Q0 v1 3 0.5 t", "<run>:2: rank must be an integer, got 'x'"),
    # A bad rank token that repeats is reported where it first appears.
    "repeated-bad-rank": ("q1 Q0 v1 1 2.0 t\nq1 Q0 v2 0 1.0 t\nq1 Q0 v3 2 0.5 t\nq1 Q0 v4 0 0.4 t", "<run>:2: rank must be >= 1, got '0'"),
    # U+000C and U+2028 end a line for str.splitlines() but not here, so the bad rank is on line 2.
    "line-ends-at-line-feed-only": ("q1 Q0 v1 1 2.0 t\x0c\u2028\nq1 Q0 v2 x 1.0 t\n", "<run>:2: rank must be an integer, got 'x'"),
    # Comment and blank lines still count: the fault is reported on its own line.
    "fault-after-comment-and-blank": ("# c\n\nq1 Q0 v1 x 2.0 t", "<run>:3: rank must be an integer, got 'x'"),
    "fault-after-indented-comment": ("  # c\nq1 Q0 v1 1 2.0\n", "<run>:2: expected 6 fields (qid Q0 video rank score tag), got 5"),
    # Every str.isspace() character separates fields, so a no-break space splits the video id in two.
    "no-break-space-in-video": ("q1 Q0 v\u00a01 1 2.0 t", "<run>:1: expected 6 fields (qid Q0 video rank score tag), got 7"),
}


class TestRetrievalRunParsing:
    def test_single_line(self):
        run = parse_retrieval_run("Q1 Q0 v42 1 9.3 sysA")
        assert run == {"Q1": [RetrievalRunEntry("Q1", "v42", 1, 9.3, "sysA")]}

    def test_comments_and_blanks_skipped(self):
        run = parse_retrieval_run("# header\n\nQ1 Q0 v1 1 2.0 t\n")
        assert list(run) == ["Q1"]

    def test_an_ideographic_space_separates_fields(self):
        assert parse_retrieval_run("q1\u3000Q0 v1 1 2.0 t") == {"q1": [RetrievalRunEntry("q1", "v1", 1, 2.0, "t")]}

    def test_sorted_by_score_then_rank(self):
        text = "Q1 Q0 low 2 1.0 t\nQ1 Q0 high 3 9.0 t\nQ1 Q0 tie 1 1.0 t\n"
        run = parse_retrieval_run(text)
        assert [e.video for e in run["Q1"]] == ["high", "tie", "low"]

    def test_thousand_entries_accepted(self):
        text = "\n".join(f"Q1 Q0 v{i} {i} {1000 - i} tag" for i in range(1, 1001))
        run = parse_retrieval_run(text)
        assert len(run["Q1"]) == 1000

    @pytest.mark.parametrize("text, message", RUN_FAULTS.values(), ids=RUN_FAULTS)
    def test_each_fault_keeps_its_message_and_line(self, text, message):
        with pytest.raises(FormatError) as raised:
            parse_retrieval_run(text)
        assert str(raised.value) == message

    def test_rank_with_digit_separators_is_accepted(self):
        assert parse_retrieval_run("q1 Q0 v1 1_000 2.0 t")["q1"][0].rank == 1000

    def test_score_ties_fall_back_to_rank_and_keep_their_sign(self):
        text = "q1 Q0 a 3 0.0 t\nq1 Q0 b 1 -0.0 t\nq1 Q0 c 2 1.5 t\nq1 Q0 d 4 0.0 t"
        entries = parse_retrieval_run(text)["q1"]
        assert [e.rank for e in entries] == [2, 1, 3, 4]
        assert [math.copysign(1.0, e.score) for e in entries] == [1.0, -1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# qrels
# ---------------------------------------------------------------------------


class TestQrelsParsing:
    def test_grade_plus_interval_compose(self):
        answers = json.dumps({"question": "Q1", "video": "v42", "start": "02:30", "end": "03:10"})
        qrels = parse_qrels("Q1 0 v42 2", answers)
        (jv,) = qrels["Q1"]
        assert jv.grade is RelevanceGrade.DEFINITELY_RELEVANT
        assert jv.answers == [TimeInterval(150, 190)]

    def test_multiple_answers_accumulate(self):
        answers = "\n".join(
            json.dumps({"question": "Q1", "video": "v1", "start": s, "end": e})
            for s, e in [("02:30", "03:10"), (300, 330)]
        )
        qrels = parse_qrels("Q1 0 v1 1", answers)
        assert qrels["Q1"][0].answers == [TimeInterval(150, 190), TimeInterval(300, 330)]

    def test_grades_alone_are_enough(self):
        qrels = parse_qrels("Q1 0 v1 2\nQ1 0 v2 0")
        assert len(qrels["Q1"]) == 2


# ---------------------------------------------------------------------------
# localization runs
# ---------------------------------------------------------------------------


def _loc_record(**overrides):
    record = {"question": "Q1", "video": "v42", "start": 150, "end": 190, "score": 0.9}
    record.update(overrides)
    return json.dumps(record)


# Each fault of a localization record on line 2, as (its fields, its exact message after "loc.jsonl:2: ").
LOCALIZATION_FAULTS = [
    ({"score": True}, "record needs a number 'score'"),
    ({"score": math.nan}, "'score' must be finite"),
    ({"score": math.inf}, "'score' must be finite"),
    ({"score": -math.inf}, "'score' must be finite"),
    ({"score": 10**400}, "'score' must be finite"),
    ({"score": "0.5"}, "record needs a number 'score'"),
    ({"start": True}, "record needs a timestamp 'start'"),
    ({"start": -1}, "'start' must be a non-negative finite number of seconds, at most 1e+100"),
    ({"end": 10**400}, "'end' must be a non-negative finite number of seconds, at most 1e+100"),
    ({"end": 1e300}, "'end' must be a non-negative finite number of seconds, at most 1e+100"),
    ({"start": "61:60"}, "seconds field must be 00-59 in timestamp '61:60' (field 'start')"),
    # "02:50" is read on line 1 too, so line 2 finds it already converted.
    ({"start": "02:50", "end": "01:00"}, "interval end 60.0 precedes start 170.0"),
    ({"rank": True}, "rank must be a positive integer, got True"),
    ({"rank": 1.0}, "rank must be a positive integer, got 1.0"),
    ({"rank": 0}, "rank must be a positive integer, got 0"),
    ({"rank": None}, "rank must be a positive integer, got None"),
    ({"question": " \t"}, "record needs a non-empty string 'question'"),
    # Of several faults on one line, the first field in record order is named.
    ({"video": "", "start": True, "score": True}, "record needs a non-empty string 'video'"),
    ({"start": "61:60", "end": True, "rank": 0}, "seconds field must be 00-59 in timestamp '61:60' (field 'start')"),
    ({"end": -1, "score": "0.5"}, "'end' must be a non-negative finite number of seconds, at most 1e+100"),
    ({"start": 10**400}, "'start' must be a non-negative finite number of seconds, at most 1e+100"),
    # A plain-seconds string of 400 digits reads as an infinite number of seconds.
    ({"start": "9" * 400}, f"timestamp '{'9' * 40}'... (400 characters) is too large, over 1e+100 seconds (field 'start')"),
    ({"end": "9" * 400}, f"timestamp '{'9' * 40}'... (400 characters) is too large, over 1e+100 seconds (field 'end')"),
]


# Records whose first fault in file order is not their only one, by test id, and that fault's exact message.
LOCALIZATION_ORDER_FAULTS = {
    # A repeated rank before a malformed record: the repeat comes first in the file.
    "duplicate-rank-before-bad-score": (
        [_loc_record(video="a", rank=1), _loc_record(video="b", rank=1), _loc_record(video="c", rank=2, score="x")],
        "loc.jsonl:2: duplicate rank for question 'Q1'",
    ),
    "missing-rank-before-bad-score": (
        [_loc_record(video="a", rank=1), _loc_record(video="b"), _loc_record(video="c", rank=2, score="x")],
        "loc.jsonl:2: question 'Q1' mixes records with and without ranks",
    ),
    # Interleaved questions: Q2's repeat on line 3 comes before Q1's on line 4.
    "interleaved-questions": (
        [
            _loc_record(question="Q1", rank=1),
            _loc_record(question="Q2", rank=1),
            _loc_record(question="Q2", video="b", rank=1),
            _loc_record(question="Q1", video="b", rank=1),
        ],
        "loc.jsonl:3: duplicate rank for question 'Q2'",
    ),
    # A malformed record before a later repeated rank: the malformed record comes first.
    "bad-score-before-duplicate-rank": (
        [_loc_record(video="a", rank=1), _loc_record(video="b", rank=2, score="x"), _loc_record(video="c", rank=1)],
        "loc.jsonl:2: record needs a number 'score'",
    ),
    # A malformed timestamp string that repeats is reported where it first appears.
    "repeated-bad-timestamp": (
        [
            _loc_record(video="a", rank=1, start="00:10"),
            _loc_record(video="b", rank=2, start="1:5"),
            _loc_record(video="c", rank=3, start="00:10"),
            _loc_record(video="d", rank=4, start="1:5"),
        ],
        "loc.jsonl:2: malformed timestamp '1:5'; expected MM:SS or plain seconds (field 'start')",
    ),
    # Timestamp strings read on line 1 do not spare line 2 its other checks.
    "bad-score-after-read-timestamps": (
        [
            _loc_record(video="a", rank=1, start="02:50", end="03:10"),
            _loc_record(video="b", rank=2, start="02:50", end="03:10", score="x"),
        ],
        "loc.jsonl:2: record needs a number 'score'",
    ),
}


class TestLocalizationRunParsing:
    def test_basic_record(self):
        run = parse_localization_run(_loc_record())
        (candidate,) = run["Q1"]
        assert candidate.interval == TimeInterval(150, 190)
        assert candidate.rank == 1

    def test_mmss_fields_converted(self):
        run = parse_localization_run(_loc_record(start="02:30", end="03:10"))
        assert run["Q1"][0].interval == TimeInterval(150, 190)

    def test_ranks_assigned_by_descending_score(self):
        text = "\n".join(
            [_loc_record(video="a", score=0.1), _loc_record(video="b", score=0.9)]
        )
        run = parse_localization_run(text)
        assert [(c.video, c.rank) for c in run["Q1"]] == [("b", 1), ("a", 2)]

    def test_score_ties_ranked_in_file_order(self):
        text = "\n".join(
            [
                _loc_record(video="a", score=0.5),
                _loc_record(video="b", score=0.9),
                _loc_record(video="c", score=0.5),
                _loc_record(video="d", score=0.5),
            ]
        )
        run = parse_localization_run(text)
        assert [(c.video, c.rank) for c in run["Q1"]] == [("b", 1), ("a", 2), ("c", 3), ("d", 4)]

    def test_explicit_ranks_break_score_ties(self):
        text = "\n".join(
            [_loc_record(video="a", score=0.5, rank=3), _loc_record(video="b", score=0.5, rank=2)]
        )
        run = parse_localization_run(text)
        assert [(c.video, c.rank) for c in run["Q1"]] == [("b", 2), ("a", 3)]

    def test_malformed_json_positioned(self):
        with pytest.raises(FormatError, match="loc.jsonl:2"):
            parse_localization_run(_loc_record() + "\n{nope", source="loc.jsonl")

    @pytest.mark.parametrize("overrides, message", LOCALIZATION_FAULTS)
    def test_each_fault_keeps_its_message_and_line(self, overrides, message):
        first = _loc_record(start="02:50", end="03:10", rank=1)
        text = first + "\n" + _loc_record(**{"video": "v2", "rank": 2, **overrides})
        with pytest.raises(FormatError) as raised:
            parse_localization_run(text, source="loc.jsonl")
        assert str(raised.value) == f"loc.jsonl:2: {message}"

    @pytest.mark.parametrize("records, message", LOCALIZATION_ORDER_FAULTS.values(), ids=LOCALIZATION_ORDER_FAULTS)
    def test_the_first_fault_in_file_order_is_reported(self, records, message):
        with pytest.raises(FormatError) as raised:
            parse_localization_run("\n".join(records), source="loc.jsonl")
        assert str(raised.value) == message

    def test_integer_score_and_timestamps_are_read_as_floats(self):
        (candidate,) = parse_localization_run(_loc_record(start=150, end=190, score=3))["Q1"]
        assert candidate.score == 3.0 and type(candidate.score) is float
        assert type(candidate.interval.start) is float and type(candidate.interval.end) is float

    def test_an_integer_timestamp_is_range_checked_as_a_float(self):
        # 10**100 + 1 exceeds 1e100 as an integer but rounds to it as a float.
        (candidate,) = parse_localization_run(_loc_record(start=0, end=10**100 + 1))["Q1"]
        assert candidate.interval.end == 1e100


def test_all_records_of_a_question_share_one_question_string():
    # Each line's split makes its own "q1"; one shared string keeps parsed runs small.
    retrieval = parse_retrieval_run("q1 Q0 v1 1 2.0 t\nq2 Q0 v1 1 2.0 t\nq1 Q0 v2 2 1.0 t\nq1 Q0 v3 3 0.5 t")
    localization = parse_localization_run(
        "\n".join(_loc_record(question="q1", video=video, rank=rank) for rank, video in enumerate("abc", start=1))
    )
    unranked = parse_localization_run("\n".join(_loc_record(question="q1", video=video) for video in "abc"))
    for entries in (retrieval["q1"], localization["q1"], unranked["q1"]):
        assert len(entries) == 3
        assert all(entry.question is entries[0].question for entry in entries)


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------


def _steps_record(segment="seg1", steps=None):
    if steps is None:
        steps = [{"caption": "Stabilize the arm with the board", "start": "00:05", "end": "00:12"}]
    return json.dumps({"segment": segment, "steps": steps})


class TestStepParsing:
    def test_single_step_sequence(self):
        parsed = parse_steps(_steps_record())
        seq = parsed["seg1"]
        assert seq.steps == [Step("Stabilize the arm with the board", TimeInterval(5, 12))]

    def test_unordered_steps_sorted_by_start(self):
        record = _steps_record(
            steps=[
                {"caption": "second", "start": 30, "end": 40},
                {"caption": "first", "start": 10, "end": 20},
            ]
        )
        parsed = parse_steps(record)
        assert [s.caption for s in parsed["seg1"].steps] == ["first", "second"]

    def test_tied_starts_keep_source_order(self):
        record = _steps_record(
            steps=[
                {"caption": "alpha", "start": 10, "end": 20},
                {"caption": "beta", "start": 10, "end": 15},
            ]
        )
        parsed = parse_steps(record)
        assert [s.caption for s in parsed["seg1"].steps] == ["alpha", "beta"]

    def test_long_caption_warns_but_parses(self):
        record = _steps_record(
            steps=[{"caption": "one two three four five six seven eight nine", "start": 0, "end": 5}]
        )
        with pytest.warns(StepLintWarning):
            parsed = parse_steps(record)
        assert len(parsed["seg1"].steps) == 1

    def test_empty_step_list_allowed(self):
        parsed = parse_steps(_steps_record(steps=[]))
        assert parsed["seg1"].steps == []


# ---------------------------------------------------------------------------
# corpus and queries
# ---------------------------------------------------------------------------


class TestCorpusParsing:
    def test_fields(self):
        docs = parse_corpus(json.dumps({"video": "v1", "title": "t", "subtitle": "s"}))
        assert docs == [CorpusDocument("v1", "t", "s")]
        assert parse_corpus(json.dumps({"video": "v1", "title": "", "subtitle": "s"})) == [CorpusDocument("v1", "", "s")]

    def test_subtitle_may_be_missing(self):
        docs = parse_corpus(json.dumps({"video": "v1"}))
        assert docs[0].subtitle == ""


class TestQueryParsing:
    def test_query_text_joined(self):
        queries = parse_queries("Q1 how to   use a nebulizer\n# c\nQ2 second")
        assert queries == {"Q1": "how to use a nebulizer", "Q2": "second"}


# The faults of the parsers without a table above, by test id: the parser, its input and the exact message.
OTHER_PARSER_FAULTS = {
    "qrels-3-fields": (parse_qrels, "Q1 0 v1", "<qrels>:1: expected 4 fields (qid iter video grade), got 3"),
    "grade-7": (parse_qrels, "Q1 0 v1 7", "<qrels>:1: grade must be 0, 1, or 2, got '7'"),
    "grade-5000-digits": (parse_qrels, "q1 0 v1 " + "9" * 5000, "<qrels>:1: grade has too many digits (5,000 characters)"),
    "grade-after-comment-and-blank": (parse_qrels, "# c\n\nq1 0 v1 7", "<qrels>:3: grade must be 0, 1, or 2, got '7'"),
    "duplicate-judgment": (parse_qrels, "q1 0 v1 1\nq1 0 v1 2\n", "<qrels>:2: duplicate judgment for video 'v1'"),
    "answer-for-unjudged-pair": (
        partial(parse_qrels, "Q1 0 v1 1"),
        '{"question": "Q1", "video": "ghost", "start": 0, "end": 1}',
        "<answers>:1: answer interval references unjudged pair ('Q1', 'ghost')",
    ),
    "answer-on-not-relevant-video": (
        partial(parse_qrels, "Q1 0 v42 0"),
        '{"question": "Q1", "video": "v42", "start": "02:30", "end": "03:10"}',
        "<answers>:1: answer interval attached to not-relevant video 'v42' for 'Q1'",
    ),
    # The union of two [0, 1e308] answers would overflow to infinity.
    "answer-end-1e308": (
        partial(parse_qrels, "q1 0 v1 1"),
        '{"question": "q1", "video": "v1", "start": 0, "end": 1e308}',
        "<answers>:1: 'end' must be a non-negative finite number of seconds, at most 1e+100",
    ),
    # In an answer sidecar and a step file, a malformed timestamp string on line 2 that repeats on line 4
    # is reported at line 2.
    "answers-repeated-bad-timestamp": (
        partial(parse_qrels, "q1 0 v1 1\nq1 0 v2 1\nq1 0 v3 1\nq1 0 v4 1"),
        "".join(f'{{"question": "q1", "video": "v{i}", "start": "00:10", "end": "{end}"}}\n'
                for i, end in enumerate(["00:20", "0:2", "00:20", "0:2"], start=1)),
        "<answers>:2: malformed timestamp '0:2'; expected MM:SS or plain seconds (field 'end')",
    ),
    "answers-end-before-start": (
        partial(parse_qrels, "q1 0 v1 1"),
        '{"question": "q1", "video": "v1", "start": "02:50", "end": "01:00"}',
        "<answers>:1: interval end 60.0 precedes start 170.0",
    ),
    "steps-end-before-start": (
        parse_steps,
        '{"segment": "s1", "steps": [{"caption": "wrap", "start": "02:50", "end": "01:00"}]}',
        "<steps>:1: interval end 60.0 precedes start 170.0",
    ),
    "steps-repeated-bad-timestamp": (
        parse_steps,
        "".join(f'{{"segment": "s{i}", "steps": [{{"caption": "wrap", "start": "00:05", "end": "{end}"}}]}}\n'
                for i, end in enumerate(["00:12", "00:61", "00:12", "00:61"], start=1)),
        "<steps>:2: seconds field must be 00-59 in timestamp '00:61' (field 'end')",
    ),
    "steps-huge-minute-field": (
        parse_steps,
        '{"segment": "s", "steps": [{"caption": "a", "start": "1' + "0" * 400 + ':00", "end": 1}]}',
        f"<steps>:1: timestamp '1{'0' * 39}'... (404 characters) is too large, over 1e+100 seconds (field 'start')",
    ),
    "duplicate-segment": (parse_steps, '{"segment": "s1", "steps": []}\n{"segment": "s1", "steps": []}', "<steps>:2: duplicate segment 's1'"),
    "steps-not-a-list": (parse_steps, '{"segment": "s1", "steps": {}}', "<steps>:1: 'steps' must be a list"),
    "step-not-an-object": (parse_steps, '{"segment": "s1", "steps": ["wrap"]}', "<steps>:1: each step must be a JSON object"),
    "step-non-string-caption": (
        parse_steps,
        '{"segment": "s1", "steps": [{"caption": 5, "start": 0, "end": 1}]}',
        "<steps>:1: step 1 of segment 's1' needs a string 'caption'",
    ),
    "step-empty-caption": (
        parse_steps,
        '{"segment": "seg1", "steps": [{"caption": "   ", "start": 0, "end": 5}]}',
        "<steps>:1: step 1 of segment 'seg1' has an empty caption",
    ),
    "corpus-not-an-object": (parse_corpus, '["v1"]', "<corpus>:1: expected a JSON object"),
    "corpus-nested-too-deeply": (parse_corpus, '{"video": "v"}\n' + "[" * 3000 + "\n", "<corpus>:2: malformed JSON record: nested too deeply"),
    "duplicate-video-id": (parse_corpus, '{"video": "v1"}\n{"video": "v1"}', "<corpus>:2: duplicate video id 'v1'"),
    # Each space character in a video id, after a valid first line.
    "video-id-with-space": (parse_corpus, '{"video": "v0"}\n{"video": "v 1"}', "<corpus>:2: video id must not contain whitespace, got 'v 1'"),
    "video-id-with-tab": (parse_corpus, '{"video": "v0"}\n{"video": "v\\t1"}', "<corpus>:2: video id must not contain whitespace, got 'v\\t1'"),
    "video-id-with-line-feed": (parse_corpus, '{"video": "v0"}\n{"video": "v\\n1"}', "<corpus>:2: video id must not contain whitespace, got 'v\\n1'"),
    "video-id-with-no-break-space": (
        parse_corpus, '{"video": "v0"}\n{"video": "v\\u00a01"}', "<corpus>:2: video id must not contain whitespace, got 'v\\xa01'"
    ),
    "video-id-with-line-separator": (
        parse_corpus, '{"video": "v0"}\n{"video": "v\\u20281"}', "<corpus>:2: video id must not contain whitespace, got 'v\\u20281'"
    ),
    "corpus-non-string-title": (parse_corpus, '{"video": "v1", "title": 1}', "<corpus>:1: 'title' and 'subtitle' must be strings"),
    "query-without-text": (parse_queries, "Q1", "<queries>:1: expected a question id followed by query text"),
    "query-after-comment-and-blank": (parse_queries, "# c\n\nq1", "<queries>:3: expected a question id followed by query text"),
    "duplicate-query-id": (parse_queries, "q1 wrap the wrist\nq1 tie the elbow\n", "<queries>:2: duplicate question id 'q1'"),
}


@pytest.mark.parametrize("parse, text, message", OTHER_PARSER_FAULTS.values(), ids=OTHER_PARSER_FAULTS)
def test_each_fault_of_the_other_parsers_keeps_its_message_and_line(parse, text, message):
    with pytest.raises(FormatError) as raised:
        parse(text)
    assert str(raised.value) == message


def _raised_messages(module, skip=(), reasons=None) -> dict[str, str]:
    """Each message that a function of ``module`` raises a FormatError with: its source text, and a regex with
    each placeholder a wildcard.

    A message held in a variable stands for each string assigned to it in the
    function.  An ``exc.reason`` placeholder re-raises a caught FormatError's
    message: with ``reasons``, a {source: regex} map of the messages it can
    catch, it stands for each of them.  An OS error's own text
    (``str(exc.strerror or exc)``) and the functions in ``skip`` are left out;
    the CLI tests pin file-system errors.
    """
    messages = {}
    for function in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if not isinstance(function, ast.FunctionDef) or function.name in skip:
            continue
        nodes = list(ast.walk(function))
        for node in nodes:
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and ast.unparse(node.exc.func) == "FormatError"):
                continue
            message = node.exc.args[0]
            if ast.unparse(message) == "str(exc.strerror or exc)":
                continue
            values = [message]
            if isinstance(message, ast.Name):
                values = [assign.value for assign in nodes if isinstance(assign, ast.Assign) and ast.unparse(assign.targets[0]) == message.id]
            for value in values:
                parts = value.values if isinstance(value, ast.JoinedStr) else [value]
                assert all(isinstance(part, (ast.Constant, ast.FormattedValue)) for part in parts), ast.unparse(value)
                source = ast.unparse(value)
                caught = [isinstance(part, ast.FormattedValue) and ast.unparse(part.value) == "exc.reason" for part in parts]
                fillings = reasons.items() if reasons is not None and any(caught) else [(None, ".*")]
                for reason, filling in fillings:
                    pattern = "".join(
                        filling if is_caught else re.escape(part.value) if isinstance(part, ast.Constant) else ".*"
                        for part, is_caught in zip(parts, caught)
                    )
                    messages[source if reason is None else f"{source} <- {reason}"] = pattern
    return messages


# The messages of parse_timestamp reach the parsers through _timestamp_field, which appends the field name.
TIMESTAMP_MESSAGES = _raised_messages(core)
PARSER_MESSAGES = _raised_messages(io_formats, skip=("read_text", "write_atomically"), reasons=TIMESTAMP_MESSAGES)
INDEX_MESSAGES = _raised_messages(bm25)
# Each raised message, as a regex over a whole table row: a parser row starts with its source and line.
RAISED_MESSAGES = {
    **{source: rf"\S+:\d+: {pattern}" for source, pattern in PARSER_MESSAGES.items()},
    **INDEX_MESSAGES,
}
TABLE_ROWS = [
    *(message for _, message in RUN_FAULTS.values()),
    *(f"loc.jsonl:2: {message}" for _, message in LOCALIZATION_FAULTS),
    *(message for _, message in LOCALIZATION_ORDER_FAULTS.values()),
    *(message for _, _, message in OTHER_PARSER_FAULTS.values()),
    *(message for _, message in INDEX_FAULTS.values()),
]


def test_the_source_walk_finds_raised_messages():
    assert len(TIMESTAMP_MESSAGES) == 3
    assert sum(" <- " in source for source in PARSER_MESSAGES) == len(TIMESTAMP_MESSAGES)
    assert INDEX_MESSAGES


# One case per raised message, so a failure names the raise that no table row pins.
@pytest.mark.parametrize("pattern", RAISED_MESSAGES.values(), ids=RAISED_MESSAGES)
def test_every_raised_parser_fault_has_a_table_row(pattern):
    assert any(re.fullmatch(pattern, row) for row in TABLE_ROWS)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class TestReports:
    def test_tabular_four_decimals(self):
        report = MetricReport("demo", {"theta": 0.4}, {"mIoU": 0.5})
        text = write_report(report, "tsv")
        assert "mIoU\t0.5000" in text
        assert "# theta = 0.4" in text

    def test_nested_values_flatten(self):
        report = MetricReport("demo", {}, {"n=1": {"mIoU": 26.01}})
        assert "n=1/mIoU\t26.0100" in write_report(report, "tsv")

    def test_structured_round_trip(self):
        report = MetricReport("demo", {"k": [5, 10]}, {"MAP": 0.25, "counts": {"tp": 3}})
        text = write_report(report, "structured")
        payload = json.loads(text)
        assert payload == {"report": "demo", "params": report.params, "values": report.values}
        assert write_report(MetricReport(*payload.values()), "structured") == text

    def test_non_finite_values_rejected(self):
        for value, message in [(float("nan"), "must be finite"), (float("inf"), "must be finite"),
                               ("0.5", "must be a number"), (True, "must be a number"), (None, "must be a number")]:
            with pytest.raises(ValueError, match=f"^report value 'n=1/x' {message}$"):
                write_report(MetricReport("demo", {}, {"n=1": {"x": value}}))
        # A float parameter renders through plain_number, which refuses what it cannot round-trip.
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="^cannot serialize non-finite number"):
                write_report(MetricReport("demo", {"lambda": value}, {}))

    def test_unknown_format_rejected(self):
        for fmt in ["xml", "tabular", "json", "TSV"]:
            with pytest.raises(ValueError, match=f"^unknown report format {fmt!r}$"):
                write_report(MetricReport("demo", {}, {}), fmt)


# ---------------------------------------------------------------------------
# parse -> serialize -> parse identity (fuzzed over generated structures)
# ---------------------------------------------------------------------------

token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=8)
score = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@st.composite
def retrieval_runs(draw):
    run = {}
    for qid in draw(st.sets(token, min_size=1, max_size=3)):
        videos = draw(st.sets(token, min_size=1, max_size=5))
        entries = [
            RetrievalRunEntry(qid, video, rank, draw(score), "tag")
            for rank, video in enumerate(sorted(videos), start=1)
        ]
        entries.sort(key=lambda e: (-e.score, e.rank))
        run[qid] = entries
    return run


@given(retrieval_runs())
def test_retrieval_run_round_trip(run):
    normalized = parse_retrieval_run(write_retrieval_run(run))
    assert parse_retrieval_run(write_retrieval_run(normalized)) == normalized


class TestRetrievalRunWriter:
    @pytest.mark.parametrize(
        "entry, message",
        [
            (RetrievalRunEntry("", "v1", 1, 1.0, "t"), "question id must be a non-empty whitespace-free token, got ''"),
            (RetrievalRunEntry("q1", "v 1", 1, 1.0, "t"), "video id must be a non-empty whitespace-free token, got 'v 1'"),
            (RetrievalRunEntry("q1", "v1", 1, 1.0, "a\tb"), "run tag must be a non-empty whitespace-free token, got 'a\\tb'"),
            (RetrievalRunEntry("q1", "v 1", 1, 1.0, "a\tb"), "video id must be"),
        ],
    )
    def test_bad_string_names_its_field(self, entry, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            write_retrieval_run({entry.question: [entry]})

    def test_bad_video_after_a_thousand_good_lines_is_rejected(self):
        entries = [RetrievalRunEntry("q1", f"v{rank}", rank, 1.0, "t") for rank in range(1, 1001)]
        entries.append(RetrievalRunEntry("q1", "v 1001", 1001, 1.0, "t"))
        with pytest.raises(ValueError, match=re.escape("video id must be a non-empty whitespace-free token, got 'v 1001'")):
            write_retrieval_run({"q1": entries})

    def test_a_checked_video_id_may_later_be_a_question_id(self):
        run = {
            "a": [RetrievalRunEntry("a", "b", 1, 1.0, "t")],
            "b": [RetrievalRunEntry("b", "a", 1, 1.0, "t")],
        }
        assert write_retrieval_run(run) == "a Q0 b 1 1.0 t\nb Q0 a 1 1.0 t\n"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_score_is_rejected(self, value):
        with pytest.raises(ValueError, match="cannot serialize non-finite number"):
            write_retrieval_run({"q1": [RetrievalRunEntry("q1", "v1", 1, value, "t")]})

    @pytest.mark.parametrize("rank", [0, -1, True, 2.0, "1"])
    def test_rank_must_be_an_integer_of_at_least_one(self, rank):
        with pytest.raises(ValueError, match=re.escape(f"rank must be an integer >= 1, got {rank!r}")):
            write_retrieval_run({"q1": [RetrievalRunEntry("q1", "v1", rank, 1.0, "t")]})

    def test_rank_is_checked_after_the_strings_of_its_record(self):
        with pytest.raises(ValueError, match="run tag must be"):
            write_retrieval_run({"q1": [RetrievalRunEntry("q1", "v1", 0, 1.0, "")]})

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([("q1", "v1", 1), ("q1", "v2", 2), ("q1", "v1", 3)], "duplicate video 'v1' for question 'q1'"),
            ([("q1", "v1", 1), ("q1", "v2", 1)], "duplicate rank 1 for question 'q1'"),
        ],
    )
    def test_repeat_within_a_question_is_rejected_in_the_parsers_words(self, entries, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_retrieval_run({"q1": [RetrievalRunEntry(*entry, 1.0, "t") for entry in entries]})
        text = "".join(f"q1 Q0 {video} {rank} 1.0 t\n" for _, video, rank in entries)
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_retrieval_run(text)

    def test_record_filed_under_another_question_is_rejected(self):
        # Written as it stands, the record would repeat video v1 for question q2.
        run = {
            "q1": [RetrievalRunEntry("q2", "v1", 1, 1.0, "t")],
            "q2": [RetrievalRunEntry("q2", "v1", 1, 1.0, "t")],
        }
        with pytest.raises(ValueError, match=re.escape("record for question 'q2' is filed under question 'q1'")):
            write_retrieval_run(run)

    def test_question_id_that_starts_a_comment_is_rejected(self):
        assert parse_retrieval_run("#q Q0 v1 1 1.0 t\n") == {}  # the parser skips the line
        with pytest.raises(ValueError, match=re.escape("question id must not start with '#', got '#q'")):
            write_retrieval_run({"#q": [RetrievalRunEntry("#q", "v1", 1, 1.0, "t")]})

    def test_first_faulty_record_of_a_question_is_named(self):
        entries = [
            RetrievalRunEntry("q1", "v1", 1, 1.0, "t"),
            RetrievalRunEntry("q1", "v1", 2, 1.0, "t"),  # repeats v1
            RetrievalRunEntry("q1", "v 3", 0, 1.0, "t"),  # bad video and rank
        ]
        with pytest.raises(ValueError, match="^duplicate video 'v1'"):
            write_retrieval_run({"q1": entries})
        with pytest.raises(ValueError, match="^video id must be"):
            write_retrieval_run({"q1": entries[::-1]})

    def test_empty_question_writes_nothing(self):
        run = {"q1": [], "q2": [RetrievalRunEntry("q2", "v1", 1, 1.0, "t")]}
        assert write_retrieval_run(run) == "q2 Q0 v1 1 1.0 t\n"
        assert write_retrieval_run({}) == ""
        assert write_retrieval_run({"q1": []}) == ""

    def test_each_line_prints_its_own_score_when_adjacent_scores_tie(self):
        # The writer prints a tied score once; 0.0 == -0.0 and 3 == 3.0 compare equal.
        scores = [2.5, 2.5, 0.0, -0.0, -0.0, 0.0, 3, 3.0, 1e-05]
        run = {"q1": [RetrievalRunEntry("q1", f"v{rank}", rank, score, "t") for rank, score in enumerate(scores, start=1)]}
        expected = "".join(f"q1 Q0 v{rank} {rank} {plain_number(score)} t\n" for rank, score in enumerate(scores, start=1))
        assert write_retrieval_run(run) == expected
        assert [line.split()[4] for line in expected.splitlines()] == [
            "2.5", "2.5", "0.0", "-0.0", "-0.0", "0.0", "3.0", "3.0", "0.00001"
        ]


# Values drawn so that most runs break a rule of the format, and about a quarter do not.
loose_string = st.sampled_from([*(f"v{n}" for n in range(12)), "q1", "q2", "#c", "a b", "x\u2028y", ""])
loose_rank = st.sampled_from([*range(1, 13), 0, True, 2.0])


@st.composite
def loose_retrieval_runs(draw):
    run = {}
    for qid in draw(st.lists(loose_string, max_size=3, unique=True)):
        run[qid] = [
            RetrievalRunEntry(
                draw(st.sampled_from([qid] * 9 + ["q1"])),
                draw(loose_string),
                draw(loose_rank),
                draw(st.floats(allow_nan=False, allow_infinity=False)),
                draw(st.sampled_from(["t", "u", "a\tb"] + ["t"] * 7)),
            )
            for _ in range(draw(st.integers(min_value=0, max_value=3)))
        ]
    return run


@given(loose_retrieval_runs())
def test_every_run_the_writer_accepts_parses_back_to_its_records(run):
    try:
        text = write_retrieval_run(run)
    except ValueError:
        return
    parsed = parse_retrieval_run(text)  # raises FormatError on any line it rejects
    records = sorted(entry for entries in run.values() for entry in entries)
    assert sorted(entry for entries in parsed.values() for entry in entries) == records


# ---------------------------------------------------------------------------
# writer helpers against their reference definitions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e15, 1e16, 1.7976931348623157e308],
)
def test_plain_number_edge_values(value):
    assert plain_number(value) == format(Decimal(repr(value)), "f")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_plain_number_matches_decimal_rendering(value):
    assert plain_number(value) == format(Decimal(repr(value)), "f")


def _has_space(value):
    return any(ch.isspace() for ch in value)


SPACE_CODE_POINTS = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@pytest.mark.parametrize("ch", SPACE_CODE_POINTS, ids=[f"U+{ord(ch):04X}" for ch in SPACE_CODE_POINTS])
def test_check_token_rejects_every_space_code_point(ch):
    for value in (ch, "a" + ch, ch + "b", "a" + ch + "b"):
        with pytest.raises(ValueError, match="whitespace-free"):
            _check_token(value, "token")


def test_check_token_accepts_every_other_code_point():
    others = "".join(chr(c) for c in range(sys.maxunicode + 1) if not chr(c).isspace())
    assert _check_token(others, "token") == others


@given(st.text(max_size=20))
def test_check_token_agrees_with_isspace(value):
    if not value or _has_space(value):
        with pytest.raises(ValueError):
            _check_token(value, "token")
    else:
        assert _check_token(value, "token") == value


# ---------------------------------------------------------------------------
# parser totality: arbitrary text parses or raises a positioned FormatError
# ---------------------------------------------------------------------------

PARSERS = [
    parse_retrieval_run,
    lambda text: parse_qrels(text),
    lambda text: parse_qrels("Q1 0 v1 1", text),
    parse_localization_run,
    parse_steps,
    parse_corpus,
    parse_queries,
]


@given(st.text(max_size=300))
@pytest.mark.parametrize("parser", PARSERS)
def test_parsers_never_crash(parser, text):
    try:
        parser(text)
    except FormatError:
        pass


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "record, names",
    [
        (parse_retrieval_run("q1 Q0 v1 1 2.0 t")["q1"][0], ("question", "video", "rank", "score", "tag")),
        (parse_localization_run(_loc_record())["Q1"][0], ("question", "video", "interval", "score", "rank")),
    ],
    ids=["RetrievalRunEntry", "LocalizationCandidate"],
)
def test_run_records_are_immutable_named_tuples(record, names):
    assert type(record)._fields == names
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    twin = type(record)(*record)
    assert hash(twin) == hash(record) and {record: 1}[twin] == 1
    assert record == tuple(record)  # a NamedTuple equals the plain tuple of its fields


def test_time_interval_is_immutable_and_hashable():
    interval = parse_localization_run(_loc_record())["Q1"][0].interval
    for name in ("start", "end"):
        with pytest.raises(AttributeError):
            setattr(interval, name, 5.0)
    assert interval == TimeInterval(150, 190) and hash(interval) == hash(TimeInterval(150, 190))


@pytest.mark.parametrize(
    "record",
    [
        TimeInterval(1, 2),
        Step("tie the knot", TimeInterval(1, 2)),
        JudgedVideo("q1", "v1", RelevanceGrade(2)),
        StepSequence("s1"),
        MetricReport("r"),
        AlignmentParams(),
        AlignmentResult(1, 0, 0),
        IoUParams(),
        PoolSpec(),
        Bm25Params(),
        CaptionPair("a", "b"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_record_fields_cannot_be_assigned(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either
    assert record == tuple(record)


@pytest.mark.parametrize(
    "record, bad",
    [
        (TimeInterval(1, 2), {"end": 0}),
        (IoUParams(), {"lam": -1.0}),
        (AlignmentParams(), {"theta": math.nan}),
        (Bm25Params(), {"b": 2.0}),
        (PoolBand(5, 0.5), {"depth": 0}),
        (PoolSpec(), {"bands": ()}),
        (CaptionPair("a", "b"), {"reference": " "}),
    ],
    ids=lambda value: type(value).__name__ if not isinstance(value, dict) else "",
)
def test_replace_and_make_run_the_constructor_checks(record, bad):
    assert record._replace() == record and type(record)._make(record) == record
    with pytest.raises(ValueError):
        record._replace(**bad)
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), **bad}.values())
    # namedtuple raises ValueError before Python 3.13 and TypeError from 3.13 on.
    with pytest.raises((TypeError, ValueError), match=r"^Got unexpected field names: \['extra'\]$"):
        record._replace(extra=1)


def test_replace_normalises_the_iou_grid():
    assert IoUParams()._replace(mu_values=[0.7, 0.3, 0.7]).mu_values == (0.3, 0.7)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: JudgedVideo("q1", "v1", RelevanceGrade(2)), "answers"),
        (lambda: StepSequence("s1"), "steps"),
        (lambda: AlignmentResult(0, 0, 0), "pairs"),
        (lambda: MetricReport("r"), "params"),
        (lambda: MetricReport("r"), "values"),
    ],
    ids=["JudgedVideo.answers", "StepSequence.steps", "AlignmentResult.pairs", "MetricReport.params", "MetricReport.values"],
)
def test_container_defaults_are_not_shared(make, field):
    first, second = getattr(make(), field), getattr(make(), field)
    assert first == second and not first
    assert first is not second


def test_each_judged_video_from_parse_qrels_has_its_own_answers_list():
    qrels = parse_qrels(
        "q1 0 v1 2\nq1 0 v2 1\nq1 0 v3 0\nq2 0 v1 2\n", '{"question": "q1", "video": "v1", "start": 0, "end": 5}'
    )
    records = [record for records in qrels.values() for record in records]
    assert [record.answers for record in records] == [[TimeInterval(0, 5)], [], [], []]
    assert len({id(record.answers) for record in records}) == len(records)


def test_parameter_records_take_keywords_and_check_values():
    assert PoolSpec(seed=3) == (PoolSpec().bands, 3)
    assert IoUParams(n_values=[5, 1, 5], mu_values=[0.5]) == ((1, 5), (0.5,), 0.0)
    assert AlignmentParams(lam=0.0).theta == 0.4
    for make in (
        lambda: PoolSpec(bands=()),
        lambda: IoUParams(lam=-1.0),
        lambda: AlignmentParams(beta=math.inf),
        lambda: Bm25Params(b=2.0),
        lambda: CaptionPair(" ", "b"),
    ):
        with pytest.raises(ValueError):
            make()


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


def test_write_atomically_writes_every_chunk(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old")
    write_atomically(target, b"new ", b"bytes")
    assert target.read_bytes() == b"new bytes"
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]


def test_write_that_raises_leaves_target_and_no_temporary(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_atomically(target, b"partial", "not bytes")
    assert target.read_bytes() == b"old"
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]


def name_max(directory):
    """The longest file name, in bytes, that ``directory``'s filesystem accepts."""
    try:
        return os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        pytest.skip("the filesystem's name limit is unknown")


def test_write_to_a_name_too_long_for_the_filesystem_names_the_target(tmp_path):
    target = str(tmp_path / ("r" * (name_max(tmp_path) + 1)))
    with pytest.raises(FormatError, match="^" + re.escape(f"{target}: ")):
        write_atomically(target, b"bytes")
    assert list(tmp_path.iterdir()) == []


def test_distinct_targets_get_distinct_temporary_files(tmp_path, monkeypatch):
    temporaries = []
    replace = os.replace

    def recorded(source, target):
        temporaries.append(os.path.basename(source))
        replace(source, target)

    monkeypatch.setattr(os, "replace", recorded)
    for name in ("a.txt", "b.txt", "a.txt"):
        write_atomically(tmp_path / name, name.encode())
    assert temporaries[0] != temporaries[1] and temporaries[0] == temporaries[2]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.txt", "b.txt"]


def test_failed_cleanup_keeps_the_original_fault(tmp_path, monkeypatch):
    def fail_replace(source, target):
        raise OSError(28, "No space left on device")

    def fail_remove(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "replace", fail_replace)
    monkeypatch.setattr(os, "remove", fail_remove)
    target = tmp_path / "out.txt"
    with pytest.raises(FormatError) as raised:
        write_atomically(target, b"bytes")
    assert str(raised.value) == f"{target}: No space left on device"


class TestLinesAndHostileValues:
    def test_lines_end_at_line_feed_only(self):
        # U+0085, U+2028 and form feed end a line for str.splitlines() but not here.
        steps = parse_steps('{"segment": "s", "steps": [{"caption": "a\x85b\u2028c", "start": 0, "end": 1}]}\n')
        assert steps["s"].steps[0].caption == "a\x85b\u2028c"

    def test_carriage_returns_are_stripped_with_the_line(self):
        assert parse_queries("q1 first query\r\nq2 second\r\n") == {"q1": "first query", "q2": "second"}

    def test_integer_past_the_digit_limit_is_a_format_error(self):
        text = '{"question": "q", "video": "v", "start": 1, "end": 2, "score": ' + "9" * 5000 + "}"
        with pytest.raises(FormatError, match=r"^<localization-run>:1: "):
            parse_localization_run(text)


def test_read_text_drops_a_leading_byte_order_mark(tmp_path):
    from medvideval.io_formats import read_text

    path = tmp_path / "run.txt"
    path.write_bytes(b"\xef\xbb\xbfq1 Q0 v1 1 2.0 t\n\xef\xbb\xbf\n")
    assert read_text(str(path)) == "q1 Q0 v1 1 2.0 t\n\n"
