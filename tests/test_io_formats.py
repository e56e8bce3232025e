import json
import sys
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medvideval.core import FormatError, RelevanceGrade, TimeInterval
from medvideval.io_formats import (
    CorpusDocument,
    LocalizationCandidate,
    MetricReport,
    RetrievalRunEntry,
    Step,
    StepLintWarning,
    _check_token,
    _plain_number,
    parse_corpus,
    parse_localization_run,
    parse_qrels,
    parse_queries,
    parse_retrieval_run,
    parse_steps,
    read_report,
    write_report,
    write_atomically,
    write_retrieval_run,
)

# ---------------------------------------------------------------------------
# retrieval runs
# ---------------------------------------------------------------------------


class TestRetrievalRunParsing:
    def test_single_line(self):
        run = parse_retrieval_run("Q1 Q0 v42 1 9.3 sysA")
        assert run == {"Q1": [RetrievalRunEntry("Q1", "v42", 1, 9.3, "sysA")]}

    def test_comments_and_blanks_skipped(self):
        run = parse_retrieval_run("# header\n\nQ1 Q0 v1 1 2.0 t\n")
        assert list(run) == ["Q1"]

    def test_sorted_by_score_then_rank(self):
        text = "Q1 Q0 low 2 1.0 t\nQ1 Q0 high 3 9.0 t\nQ1 Q0 tie 1 1.0 t\n"
        run = parse_retrieval_run(text)
        assert [e.video for e in run["Q1"]] == ["high", "tie", "low"]

    def test_duplicate_video_rejected(self):
        with pytest.raises(FormatError, match="duplicate video"):
            parse_retrieval_run("Q1 Q0 v1 1 2.0 t\nQ1 Q0 v1 2 1.0 t")

    def test_duplicate_rank_rejected(self):
        with pytest.raises(FormatError, match="duplicate rank"):
            parse_retrieval_run("Q1 Q0 v1 1 2.0 t\nQ1 Q0 v2 1 1.0 t")

    def test_thousand_entries_accepted(self):
        text = "\n".join(f"Q1 Q0 v{i} {i} {1000 - i} tag" for i in range(1, 1001))
        run = parse_retrieval_run(text)
        assert len(run["Q1"]) == 1000

    def test_error_reports_line_number(self):
        text = "Q1 Q0 v1 1 2.0 t\nQ1 Q0 v2 oops 1.0 t"
        with pytest.raises(FormatError, match=":2"):
            parse_retrieval_run(text, source="run.txt")

    @pytest.mark.parametrize(
        "line",
        ["Q1 Q0 v1 1 2.0", "Q1 Q0 v1 0 2.0 t", "Q1 Q0 v1 -1 2.0 t", "Q1 Q0 v1 1 nan t", "Q1 Q0 v1 1 inf t"],
    )
    def test_rejects_bad_lines(self, line):
        with pytest.raises(FormatError):
            parse_retrieval_run(line)


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

    def test_interval_on_not_relevant_video_rejected(self):
        answers = json.dumps({"question": "Q1", "video": "v42", "start": "02:30", "end": "03:10"})
        with pytest.raises(FormatError, match="not-relevant"):
            parse_qrels("Q1 0 v42 0", answers)

    def test_multiple_answers_accumulate(self):
        answers = "\n".join(
            json.dumps({"question": "Q1", "video": "v1", "start": s, "end": e})
            for s, e in [("02:30", "03:10"), (300, 330)]
        )
        qrels = parse_qrels("Q1 0 v1 1", answers)
        assert qrels["Q1"][0].answers == [TimeInterval(150, 190), TimeInterval(300, 330)]

    def test_unknown_grade_rejected(self):
        with pytest.raises(FormatError, match="grade"):
            parse_qrels("Q1 0 v1 7")

    def test_interval_for_unjudged_pair_rejected(self):
        answers = json.dumps({"question": "Q1", "video": "ghost", "start": 0, "end": 1})
        with pytest.raises(FormatError, match="unjudged"):
            parse_qrels("Q1 0 v1 1", answers)

    def test_malformed_timestamp_positioned(self):
        answers = json.dumps({"question": "Q1", "video": "v1", "start": "junk", "end": 1})
        with pytest.raises(FormatError, match=":1"):
            parse_qrels("Q1 0 v1 1", answers, answers_source="a.jsonl")

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


class TestLocalizationRunParsing:
    def test_basic_record(self):
        run = parse_localization_run(_loc_record())
        (candidate,) = run["Q1"]
        assert candidate.interval == TimeInterval(150, 190)
        assert candidate.rank == 1

    def test_start_after_end_rejected(self):
        with pytest.raises(FormatError, match="precedes"):
            parse_localization_run(_loc_record(start=200, end=100))

    def test_mmss_fields_converted(self):
        run = parse_localization_run(_loc_record(start="02:30", end="03:10"))
        assert run["Q1"][0].interval == TimeInterval(150, 190)

    def test_ranks_assigned_by_descending_score(self):
        text = "\n".join(
            [_loc_record(video="a", score=0.1), _loc_record(video="b", score=0.9)]
        )
        run = parse_localization_run(text)
        assert [(c.video, c.rank) for c in run["Q1"]] == [("b", 1), ("a", 2)]

    def test_mixed_rank_presence_rejected(self):
        text = "\n".join([_loc_record(video="a", rank=1), _loc_record(video="b")])
        with pytest.raises(FormatError, match=":2: .*mixes"):
            parse_localization_run(text)

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

    def test_duplicate_explicit_rank_rejected(self):
        text = "\n".join([_loc_record(video="a", rank=1), _loc_record(video="b", rank=1)])
        with pytest.raises(FormatError, match=":2: duplicate rank"):
            parse_localization_run(text)

    def test_malformed_json_positioned(self):
        with pytest.raises(FormatError, match="loc.jsonl:2"):
            parse_localization_run(_loc_record() + "\n{nope", source="loc.jsonl")


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

    def test_empty_caption_rejected(self):
        record = _steps_record(steps=[{"caption": "   ", "start": 0, "end": 5}])
        with pytest.raises(FormatError, match="empty caption"):
            parse_steps(record)

    def test_duplicate_segment_rejected(self):
        with pytest.raises(FormatError, match="duplicate segment"):
            parse_steps(_steps_record() + "\n" + _steps_record())

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

    def test_duplicate_video_rejected(self):
        text = "\n".join(json.dumps({"video": "v1"}) for _ in range(2))
        with pytest.raises(FormatError, match="duplicate video"):
            parse_corpus(text)

    @pytest.mark.parametrize("video", ["v 1", "v\t1", "v\n1", "v\u00a01", "v\u20281"])
    def test_whitespace_in_video_id_rejected(self, video):
        text = json.dumps({"video": "v0"}) + "\n" + json.dumps({"video": video})
        with pytest.raises(FormatError, match="whitespace") as info:
            parse_corpus(text, source="corpus.jsonl")
        assert str(info.value).startswith("corpus.jsonl:2:")


class TestQueryParsing:
    def test_query_text_joined(self):
        queries = parse_queries("Q1 how to   use a nebulizer\n# c\nQ2 second")
        assert queries == {"Q1": "how to use a nebulizer", "Q2": "second"}

    def test_missing_text_rejected(self):
        with pytest.raises(FormatError):
            parse_queries("Q1")


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
        again = read_report(text)
        assert again == report
        assert write_report(again, "structured") == text

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError):
            write_report(MetricReport("demo", {}, {"x": float("nan")}))

    def test_unknown_format_rejected(self):
        for fmt in ["xml", "tabular", "json", "TSV"]:
            with pytest.raises(ValueError):
                write_report(MetricReport("demo", {}, {}), fmt)

    def test_read_report_rejects_garbage(self):
        with pytest.raises(FormatError):
            read_report("{not json")
        with pytest.raises(FormatError, match="^<report>:1: 'params' and 'values' must be objects$"):
            read_report('{"report": "demo", "params": [], "values": {}}')


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


# ---------------------------------------------------------------------------
# writer helpers against their reference definitions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e15, 1e16, 1.7976931348623157e308],
)
def test_plain_number_edge_values(value):
    assert _plain_number(value) == format(Decimal(repr(value)), "f")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_plain_number_matches_decimal_rendering(value):
    assert _plain_number(value) == format(Decimal(repr(value)), "f")


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
    read_report,
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


class TestLinesAndHostileValues:
    def test_lines_end_at_line_feed_only(self):
        # U+0085, U+2028 and form feed end a line for str.splitlines() but not here.
        steps = parse_steps('{"segment": "s", "steps": [{"caption": "a\x85b\u2028c", "start": 0, "end": 1}]}\n')
        assert steps["s"].steps[0].caption == "a\x85b\u2028c"
        with pytest.raises(FormatError, match=r"^<run>:2: rank must be an integer"):
            parse_retrieval_run("q1 Q0 v1 1 2.0 t\x0c\u2028\nq1 Q0 v2 x 1.0 t\n")

    def test_carriage_returns_are_stripped_with_the_line(self):
        assert parse_queries("q1 first query\r\nq2 second\r\n") == {"q1": "first query", "q2": "second"}

    @pytest.mark.parametrize("key", ["start", "end", "score"])
    def test_integer_too_large_for_a_float_is_a_format_error(self, key):
        record = {"question": "q", "video": "v", "start": 1, "end": 2, "score": 0.5}
        text = json.dumps(record).replace(f'"{key}": {record[key]}', f'"{key}": 1{"0" * 400}')
        with pytest.raises(FormatError, match=rf"^<localization-run>:1: '{key}' must be"):
            parse_localization_run(text)

    @pytest.mark.parametrize("key", ["start", "end"])
    def test_timestamp_too_long_for_a_float_is_a_format_error(self, key):
        # A plain-seconds string of 400 digits reads as an infinite number of seconds.
        with pytest.raises(FormatError, match=rf"^<localization-run>:1: timestamp .* is too large.*\(field '{key}'\)$"):
            parse_localization_run(_loc_record(**{key: "9" * 400}))

    def test_integer_past_the_digit_limit_is_a_format_error(self):
        text = '{"question": "q", "video": "v", "start": 1, "end": 2, "score": ' + "9" * 5000 + "}"
        with pytest.raises(FormatError, match=r"^<localization-run>:1: "):
            parse_localization_run(text)

    def test_huge_minute_field_is_a_format_error(self):
        with pytest.raises(FormatError, match=r"^<steps>:1: timestamp .* is too large"):
            parse_steps('{"segment": "s", "steps": [{"caption": "a", "start": "1' + "0" * 400 + ':00", "end": 1}]}')

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(FormatError, match=r"^<corpus>:2: malformed JSON record: nested too deeply"):
            parse_corpus('{"video": "v"}\n' + "[" * 3000 + "\n")
        with pytest.raises(FormatError, match=r"^r\.json: malformed report JSON: nested too deeply"):
            read_report("[" * 3000, source="r.json")

    def test_report_syntax_error_names_its_line(self):
        with pytest.raises(FormatError, match=r"^r\.json:2: malformed report JSON"):
            read_report('{"report": "x",\n oops}', source="r.json")


def test_read_text_drops_a_leading_byte_order_mark(tmp_path):
    from medvideval.io_formats import read_text

    path = tmp_path / "run.txt"
    path.write_bytes(b"\xef\xbb\xbfq1 Q0 v1 1 2.0 t\n\xef\xbb\xbf\n")
    assert read_text(str(path)) == "q1 Q0 v1 1 2.0 t\n\n"
