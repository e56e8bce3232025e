import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medvideval.core import RelevanceGrade, ToolkitWarning
from medvideval.io_formats import JudgedVideo, RetrievalRunEntry
from medvideval.retrieval_metrics import (
    average_precision,
    evaluate_rankings,
    evaluate_retrieval,
    ndcg,
    precision_at_k,
    recall_at_k,
    retrieval_report,
)
from oracles import random_instance


def judged(qid, grades):
    return [JudgedVideo(qid, video, RelevanceGrade(grade)) for video, grade in grades.items()]


def run_entries(qid, videos, tag="t"):
    return [
        RetrievalRunEntry(qid, video, rank, float(len(videos) - rank), tag)
        for rank, video in enumerate(videos, start=1)
    ]


class TestAveragePrecision:
    def test_worked_example(self):
        # relevance pattern 1,0,1 with two relevant in the pool
        pool = judged("Q1", {"a": 1, "b": 0, "c": 2})
        assert average_precision(["a", "b", "c"], pool) == pytest.approx((1 / 1 + 2 / 3) / 2)

    def test_perfect_ranking(self):
        pool = judged("Q1", {"a": 1, "b": 2})
        assert average_precision(["a", "b"], pool) == 1.0

    def test_nothing_relevant_retrieved(self):
        pool = judged("Q1", {"a": 1})
        assert average_precision(["x", "y"], pool) == 0.0

    def test_no_relevant_in_pool(self):
        pool = judged("Q1", {"a": 0})
        assert average_precision(["a"], pool) == 0.0


class TestPrecisionRecallAtK:
    def test_precision_examples(self):
        pool = judged("Q1", {"a": 1, "b": 2})
        assert precision_at_k(["a", "x", "b", "y", "z"], pool, 5) == pytest.approx(0.4)
        assert precision_at_k([], pool, 5) == 0.0

    def test_short_ranking_padded_conceptually(self):
        pool = judged("Q1", {"a": 1})
        assert precision_at_k(["a"], pool, 10) == pytest.approx(0.1)

    def test_recall_examples(self):
        pool = judged("Q1", {"a": 1, "b": 1, "c": 2, "d": 2})
        assert recall_at_k(["a", "x", "c", "y", "z"], pool, 5) == pytest.approx(0.5)
        assert recall_at_k(["a", "b", "c", "d"], pool, 5) == 1.0

    def test_recall_zero_when_pool_empty(self):
        assert recall_at_k(["a"], judged("Q1", {"a": 0}), 5) == 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            precision_at_k([], [], 0)
        with pytest.raises(ValueError):
            recall_at_k([], [], 0)


class TestNdcg:
    def test_worked_example(self):
        pool = judged("Q1", {"a": 2, "b": 0, "c": 1})
        assert ndcg(["a", "b", "c"], pool) == pytest.approx(0.9503, abs=1e-4)

    def test_ideal_order_scores_one(self):
        pool = judged("Q1", {"a": 2, "b": 1, "c": 0})
        assert ndcg(["a", "b", "c"], pool) == 1.0

    def test_all_grades_zero(self):
        pool = judged("Q1", {"a": 0, "b": 0})
        assert ndcg(["a", "b"], pool) == 0.0


class TestEvaluateRetrieval:
    def test_perfect_single_question(self):
        qrels = {"Q1": judged("Q1", {"a": 2})}
        run = {"Q1": run_entries("Q1", ["a"])}
        score = evaluate_retrieval(run, qrels, ks=[5, 10])
        assert score.macro["MAP"] == 1.0
        assert score.macro["nDCG"] == 1.0

    def test_macro_average_over_all_judged_questions(self):
        qrels = {"Q1": judged("Q1", {"a": 2}), "Q2": judged("Q2", {"b": 2})}
        run = {"Q1": run_entries("Q1", ["a"])}
        score = evaluate_retrieval(run, qrels)
        assert score.macro["MAP"] == pytest.approx(0.5)

    def test_report_carries_all_cutoffs(self):
        qrels = {"Q1": judged("Q1", {"a": 2})}
        run = {"Q1": run_entries("Q1", ["a"])}
        report = retrieval_report(evaluate_retrieval(run, qrels, ks=[5, 10]))
        for key in ("MAP", "P@5", "P@10", "R@5", "R@10", "nDCG"):
            assert key in report.values

    def test_unjudged_question_warns_and_is_ignored(self):
        qrels = {"Q1": judged("Q1", {"a": 2})}
        run = {"Q1": run_entries("Q1", ["a"]), "Q9": run_entries("Q9", ["z"])}
        with pytest.warns(ToolkitWarning):
            score = evaluate_retrieval(run, qrels)
        assert set(score.per_question) == {"Q1"}

    def test_requires_a_cutoff(self):
        with pytest.raises(ValueError):
            evaluate_retrieval({}, {}, ks=[])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def test_cross_consistency_of_precision_and_recall():
    rng = random.Random(7)
    for _ in range(200):
        ranking, grades = random_instance(rng)
        pool = judged("Q", grades)
        relevant = {video for video, grade in grades.items() if grade >= 1}
        k = rng.randint(1, 8)
        hits = sum(1 for video in ranking[:k] if video in relevant)
        assert precision_at_k(ranking, pool, k) * k == pytest.approx(hits)
        assert recall_at_k(ranking, pool, k) * max(len(relevant), 1) == pytest.approx(hits)


@given(st.integers(min_value=0, max_value=10_000))
def test_rank_metrics_ignore_score_scale(seed):
    rng = random.Random(seed)
    ranking, grades = random_instance(rng)
    if not ranking:
        return
    qrels = {"Q": judged("Q", grades)}
    base = {
        "Q": [
            RetrievalRunEntry("Q", video, rank, float(-rank), "t")
            for rank, video in enumerate(ranking, start=1)
        ]
    }
    squashed = {
        "Q": [
            RetrievalRunEntry("Q", e.video, e.rank, 1000.0 + 0.5 * e.score, e.tag) for e in base["Q"]
        ]
    }
    assert evaluate_retrieval(base, qrels).macro == evaluate_retrieval(squashed, qrels).macro


@given(st.integers(min_value=0, max_value=10_000))
def test_evaluate_retrieval_is_evaluate_rankings_of_run_order(seed):
    rng = random.Random(seed)
    ranking, grades = random_instance(rng)
    qrels = {"Q": judged("Q", grades), "Q2": judged("Q2", {"z": 2})}
    by_run = evaluate_retrieval({"Q": run_entries("Q", ranking)}, qrels, ks=(1, 3, 50))
    by_ranking = evaluate_rankings({"Q": ranking}, qrels, ks=(1, 3, 50))
    assert by_run == by_ranking
    row = by_ranking.per_question["Q"]
    assert row["MAP"] == average_precision(ranking, qrels["Q"])
    assert row["nDCG"] == ndcg(ranking, qrels["Q"])
    assert row["P@3"] == precision_at_k(ranking, qrels["Q"], 3)
    assert row["R@3"] == recall_at_k(ranking, qrels["Q"], 3)


def test_evaluate_rankings_accepts_any_iterable_ranking():
    qrels = {"Q": judged("Q", {"a": 2, "b": 1})}
    score = evaluate_rankings({"Q": dict.fromkeys(["a", "x", "a", "b"])}, qrels, ks=[2])
    assert score.per_question["Q"]["P@2"] == 0.5
    assert score.per_question["Q"]["MAP"] == pytest.approx((1 / 1 + 2 / 3) / 2)


def test_a_repeated_video_counts_once_at_its_first_appearance():
    qrels = {"q": [JudgedVideo("q", "v", RelevanceGrade.DEFINITELY_RELEVANT)]}
    row = evaluate_rankings({"q": ["v", "v", "v"]}, qrels, ks=(2,)).per_question["q"]
    assert row == {"MAP": 1.0, "R@2": 1.0, "P@2": 0.5, "nDCG": 1.0}
    assert average_precision(["v", "v"], qrels["q"]) == 1.0


def test_evaluate_rankings_warns_on_unjudged_question():
    with pytest.warns(ToolkitWarning, match="Q9"):
        score = evaluate_rankings({"Q9": ["a"]}, {"Q": judged("Q", {"a": 1})})
    assert score.macro["MAP"] == 0.0
