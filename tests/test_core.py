import pytest
from hypothesis import given
from hypothesis import strategies as st

from medvideval.core import (
    FormatError,
    RelevanceGrade,
    TimeInterval,
    intersection_length,
    parse_timestamp,
    plain_sum,
    union_length,
)


class TestParseTimestamp:
    def test_paper_examples(self):
        assert parse_timestamp("02:30") == 150
        assert parse_timestamp("10:56") == 656
        assert parse_timestamp("00:00") == 0

    def test_single_minute_digit_and_long_minutes(self):
        assert parse_timestamp("2:30") == 150
        assert parse_timestamp("100:00") == 6000

    def test_plain_seconds(self):
        assert parse_timestamp("90") == 90
        assert parse_timestamp("90.5") == 90.5
        assert parse_timestamp(" 12 ") == 12

    @pytest.mark.parametrize("bad", ["02:60", "02:99", "2:3", "1:2:3", "abc", "-5", "", ":30", "1e3", "nan"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            parse_timestamp(bad)

    def test_error_names_offending_token(self):
        with pytest.raises(FormatError, match="02:61"):
            parse_timestamp("02:61")
        with pytest.raises(FormatError, match="bogus"):
            parse_timestamp("bogus")

    @given(st.integers(min_value=0, max_value=5999))
    def test_mmss_round_trip(self, seconds):
        rendered = f"{seconds // 60:02d}:{seconds % 60:02d}"
        assert parse_timestamp(rendered) == seconds


class TestTimeInterval:
    def test_zero_length_is_legal(self):
        interval = TimeInterval(5, 5)
        assert interval.length == 0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TimeInterval(-1, 5)

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError):
            TimeInterval(7, 3)

    def test_rejects_non_finite(self):
        for end in (float("inf"), 1e308, 1.1e100):
            with pytest.raises(ValueError, match="at most 1e\\+100"):
                TimeInterval(0, end)

    def test_coerces_to_float(self):
        interval = TimeInterval(1, 2)
        assert isinstance(interval.start, float) and isinstance(interval.end, float)


intervals = st.builds(
    lambda start, length: TimeInterval(start, start + length),
    st.floats(min_value=0, max_value=1e4, allow_nan=False),
    st.floats(min_value=0, max_value=1e4, allow_nan=False),
)


class TestIntervalArithmetic:
    def test_worked_examples(self):
        assert intersection_length(TimeInterval(10, 20), TimeInterval(15, 25)) == 5
        assert intersection_length(TimeInterval(0, 5), TimeInterval(5, 9)) == 0
        assert intersection_length(TimeInterval(3, 7), TimeInterval(3, 7)) == 4
        assert union_length(TimeInterval(10, 20), TimeInterval(15, 25)) == 15
        assert union_length(TimeInterval(3, 7), TimeInterval(3, 7)) == 4
        assert union_length(TimeInterval(0, 1), TimeInterval(5, 6)) == 2

    @given(intervals, intervals)
    def test_intersection_bounds(self, a, b):
        inter = intersection_length(a, b)
        assert 0 <= inter <= min(a.length, b.length) + 1e-9

    @given(intervals, intervals)
    def test_union_dominates_both(self, a, b):
        assert union_length(a, b) >= max(a.length, b.length) - 1e-9

    @given(intervals, intervals)
    def test_symmetry(self, a, b):
        assert intersection_length(a, b) == intersection_length(b, a)
        assert union_length(a, b) == union_length(b, a)


def test_relevance_grades_are_ordered():
    assert RelevanceGrade.DEFINITELY_RELEVANT > RelevanceGrade.POSSIBLY_RELEVANT > RelevanceGrade.NOT_RELEVANT
    assert RelevanceGrade.POSSIBLY_RELEVANT.is_positive
    assert not RelevanceGrade.NOT_RELEVANT.is_positive
    with pytest.raises(ValueError):
        RelevanceGrade(3)


def test_plain_sum_adds_left_to_right():
    # Compensated summation (``sum`` from Python 3.12 on) gives exactly 1.0 here.
    assert plain_sum([0.1] * 10) == 0.9999999999999999
    assert plain_sum([]) == 0.0
    assert plain_sum(iter([1e16, 1.0, -1e16])) == 0.0
