import ast
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medvideval import core
from medvideval.core import (
    FormatError,
    RelevanceGrade,
    TimeInterval,
    ToolkitWarning,
    parse_timestamp,
    plain_sum,
)
from medvideval.io_formats import LocalizationCandidate, RetrievalRunEntry, Step, StepSequence, parse_steps
from medvideval.retrieval_metrics import evaluate_rankings, evaluate_retrieval
from medvideval.segment_metrics import evaluate_localization, judged_questions, mean_iou, recall_at_n_iou
from medvideval.step_alignment import evaluate_captions, evaluate_steps, matched_caption_pairs


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
        assert interval.end - interval.start == 0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TimeInterval(-1, 5)

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError):
            TimeInterval(7, 3)

    def test_rejects_non_finite(self):
        for end in (float("inf"), float("nan"), 1e308, 1.1e100):
            with pytest.raises(ValueError, match="at most 1e\\+100"):
                TimeInterval(0, end)

    def test_coerces_to_float(self):
        interval = TimeInterval(1, 2)
        assert isinstance(interval.start, float) and isinstance(interval.end, float)


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


# Every public path to a toolkit warning, called with no judgments or no ground truth, or with an 8-word caption.
RUN = {"Q1": [RetrievalRunEntry("Q1", "v1", 1, 1.0, "t")]}
LOCALIZATION_RUN = {"Q1": [LocalizationCandidate("Q1", "v1", TimeInterval(0, 10), 1.0, 1)]}
STEPS = {"s1": StepSequence("s1", [Step("wrap the wrist", TimeInterval(0, 5))])}
LONG_CAPTION = json.dumps({"segment": "s1", "steps": [{"caption": "one two three four five six seven eight", "start": 0, "end": 5}]})
WARNING_PATHS = {
    "parse_steps": lambda: parse_steps(LONG_CAPTION),
    "judged_questions": lambda: judged_questions(RUN, {}),
    "evaluate_rankings": lambda: evaluate_rankings({"Q1": ["v1"]}, {}),
    "evaluate_retrieval": lambda: evaluate_retrieval(RUN, {}),
    "evaluate_localization": lambda: evaluate_localization(LOCALIZATION_RUN, {}),
    "mean_iou": lambda: mean_iou(LOCALIZATION_RUN, {}, n=1),
    "recall_at_n_iou": lambda: recall_at_n_iou(LOCALIZATION_RUN, {}, n=1, mu=0.5),
    "evaluate_steps": lambda: evaluate_steps(STEPS, {}),
    "evaluate_captions": lambda: evaluate_captions(STEPS, {}),
    "matched_caption_pairs": lambda: matched_caption_pairs(STEPS, {}),
}


# Each row's call sits on its lambda's first line, which every warning it raises must name.
@pytest.mark.parametrize("call", WARNING_PATHS.values(), ids=WARNING_PATHS)
def test_each_warning_names_the_callers_line(call):
    with pytest.warns(ToolkitWarning) as caught:
        call()
    places = [(w.filename, w.lineno) for w in caught if issubclass(w.category, ToolkitWarning)]
    assert places == [(__file__, call.__code__.co_firstlineno)] * len(places)


def test_only_core_warn_calls_warnings_warn():
    """Every warning goes through core.warn, so no other call counts its own stack levels."""
    callers = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.ImportFrom) and node.module == "warnings"), f"{path.name}: {ast.unparse(node)}"
            if isinstance(node, ast.Call) and (
                ast.unparse(node.func) == "warnings.warn" or any(kw.arg == "stacklevel" for kw in node.keywords)
            ):
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                callers.append(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert callers == ["core.warn"]
