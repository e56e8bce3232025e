import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medvideval.core import RelevanceGrade, TimeInterval, ToolkitWarning
from medvideval.io_formats import JudgedVideo, LocalizationCandidate
from medvideval.segment_metrics import (
    IoUParams,
    evaluate_localization,
    extend_interval,
    judged_questions,
    localization_report,
    mean_iou,
    normalise_depths,
    normalise_thresholds,
    percent_at_least,
    question_iou,
    recall_at_n_iou,
    relaxed_iou,
    temporal_iou,
    threshold_key,
)
from oracles import grid_iou, grid_relaxed_iou, mean_iou_oracle, recall_at_n_iou_oracle


class TestTemporalIoU:
    def test_worked_example(self):
        assert temporal_iou(TimeInterval(10, 20), TimeInterval(15, 25)) == pytest.approx(1 / 3)

    def test_exact_match_is_one(self):
        assert temporal_iou(TimeInterval(3, 7), TimeInterval(3, 7)) == 1.0

    def test_disjoint_is_zero(self):
        assert temporal_iou(TimeInterval(0, 1), TimeInterval(5, 6)) == 0.0

    def test_two_degenerate_intervals(self):
        assert temporal_iou(TimeInterval(5, 5), TimeInterval(5, 5)) == 0.0

    def test_degenerate_against_anything_is_zero(self):
        assert temporal_iou(TimeInterval(5, 5), TimeInterval(0, 10)) == 0.0


class TestRelaxedIoU:
    def test_worked_example(self):
        assert relaxed_iou(TimeInterval(10, 11), TimeInterval(12, 13), 3) == pytest.approx(5 / 9)

    def test_lambda_zero_is_plain_iou(self):
        a, b = TimeInterval(10, 20), TimeInterval(15, 25)
        assert relaxed_iou(a, b, 0) == temporal_iou(a, b)

    def test_start_clamped_at_zero(self):
        assert relaxed_iou(TimeInterval(0, 1), TimeInterval(0, 1), 3) == 1.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            extend_interval(TimeInterval(0, 1), -1)


def candidate(qid, video, start, end, rank):
    return LocalizationCandidate(qid, video, TimeInterval(start, end), float(-rank), rank)


def judged_video(qid, video, grade, answers=()):
    return JudgedVideo(qid, video, RelevanceGrade(grade), [TimeInterval(s, e) for s, e in answers])


class TestQuestionIoU:
    def test_exact_match_in_relevant_video(self):
        cands = [candidate("Q1", "v1", 150, 190, 1)]
        pool = [judged_video("Q1", "v1", 2, [(150, 190)])]
        assert question_iou(cands, pool) == 1.0

    def test_candidate_in_non_relevant_video_scores_zero(self):
        cands = [candidate("Q1", "bad", 150, 190, 1)]
        pool = [judged_video("Q1", "bad", 0), judged_video("Q1", "good", 2, [(150, 190)])]
        assert question_iou(cands, pool) == 0.0

    def test_multi_answer_takes_max(self):
        cands = [candidate("Q1", "v1", 155, 190, 1)]
        pool = [judged_video("Q1", "v1", 2, [(150, 190), (300, 330)])]
        assert question_iou(cands, pool) == pytest.approx(0.875)

    def test_possibly_relevant_counts_like_definitely(self):
        cands = [candidate("Q1", "v1", 0, 10, 1)]
        pool = [judged_video("Q1", "v1", 1, [(0, 10)])]
        assert question_iou(cands, pool) == 1.0


def build_fixture():
    # three questions with best IoUs 0.8, 0.2, 0.5 at n=1
    run = {
        "Q1": [candidate("Q1", "v1", 0, 8, 1)],
        "Q2": [candidate("Q2", "v2", 0, 2, 1)],
        "Q3": [candidate("Q3", "v3", 0, 5, 1)],
    }
    qrels = {
        "Q1": [judged_video("Q1", "v1", 2, [(0, 10)])],
        "Q2": [judged_video("Q2", "v2", 2, [(0, 10)])],
        "Q3": [judged_video("Q3", "v3", 2, [(0, 10)])],
    }
    return run, qrels


class TestMeanIoU:
    def test_arithmetic_mean(self):
        run, qrels = build_fixture()
        assert mean_iou(run, qrels, 1) == pytest.approx(0.5)

    def test_single_exact_match(self):
        run = {"Q1": [candidate("Q1", "v1", 0, 10, 1)]}
        qrels = {"Q1": [judged_video("Q1", "v1", 2, [(0, 10)])]}
        assert mean_iou(run, qrels, 1) == 1.0

    def test_divisor_is_judged_question_count(self):
        run = {"Q1": [candidate("Q1", "v1", 0, 10, 1)]}
        qrels = {
            "Q1": [judged_video("Q1", "v1", 2, [(0, 10)])],
            "Q2": [judged_video("Q2", "v2", 2, [(0, 10)])],
            "Q3": [judged_video("Q3", "v3", 2, [(0, 10)])],
        }
        assert mean_iou(run, qrels, 1) == pytest.approx(1 / 3)
        assert mean_iou({}, {}, 1) == 0.0  # no judged question: nothing to divide by


class TestRecallAtNIoU:
    def test_worked_example_with_boundary_hit(self):
        run, qrels = build_fixture()
        # 0.5 >= 0.5 counts, so 2 of 3 questions pass
        assert recall_at_n_iou(run, qrels, 1, 0.5) == pytest.approx(66.6667, abs=1e-3)

    def test_mu_above_everything(self):
        run, qrels = build_fixture()
        assert recall_at_n_iou(run, qrels, 1, 0.9) == 0.0

    def test_all_exact(self):
        run = {"Q1": [candidate("Q1", "v1", 0, 10, 1)]}
        qrels = {"Q1": [judged_video("Q1", "v1", 2, [(0, 10)])]}
        assert recall_at_n_iou(run, qrels, 1, 0.7) == 100.0

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            recall_at_n_iou({}, {"Q": []}, 1, 0.0)
        with pytest.raises(ValueError):
            recall_at_n_iou({}, {"Q": []}, 1, 1.5)


# ---------------------------------------------------------------------------
# randomized fixtures shared by oracle and monotonicity checks
# ---------------------------------------------------------------------------


def random_localization_fixture(rng, questions=4, depth=8):
    run = {}
    qrels = {}
    for q in range(questions):
        qid = f"Q{q}"
        videos = [f"v{q}_{i}" for i in range(4)]
        pool = []
        for video in videos:
            grade = rng.randint(0, 2)
            answers = []
            if grade >= 1:
                for _ in range(rng.randint(0, 2)):
                    start = rng.randint(0, 40)
                    answers.append((start, start + rng.randint(0, 20)))
            pool.append((video, grade, answers))
        qrels[qid] = [judged_video(qid, video, grade, answers) for video, grade, answers in pool]
        candidates = []
        for rank in range(1, rng.randint(0, depth) + 1):
            video = rng.choice(videos + ["unjudged"])
            start = rng.randint(0, 40)
            candidates.append((video, (start, start + rng.randint(0, 20)), rank))
        run[qid] = candidates
    return run, qrels


def to_production(run, qrels):
    prod_run = {
        qid: [
            LocalizationCandidate(qid, video, TimeInterval(*interval), float(-rank), rank)
            for video, interval, rank in candidates
        ]
        for qid, candidates in run.items()
    }
    return prod_run, qrels


def to_oracle(run, qrels):
    oracle_run = {
        qid: [(video, interval) for video, interval, _ in candidates] for qid, candidates in run.items()
    }
    oracle_qrels = {
        qid: {jv.video: (int(jv.grade), [(int(a.start), int(a.end)) for a in jv.answers]) for jv in pool}
        for qid, pool in qrels.items()
    }
    return oracle_run, oracle_qrels


def test_matches_grid_oracle_on_random_instances():
    rng = random.Random(42)
    for _ in range(150):
        run, qrels = random_localization_fixture(rng)
        prod_run, prod_qrels = to_production(run, qrels)
        oracle_run, oracle_qrels = to_oracle(run, qrels)
        n = rng.randint(1, 8)
        mu = rng.choice([0.3, 0.5, 0.7])
        lam = rng.choice([0, 3])
        assert mean_iou(prod_run, prod_qrels, n, lam) == pytest.approx(
            mean_iou_oracle(oracle_run, oracle_qrels, n, lam), abs=1e-9
        )
        assert recall_at_n_iou(prod_run, prod_qrels, n, mu, lam) == pytest.approx(
            recall_at_n_iou_oracle(oracle_run, oracle_qrels, n, mu, lam), abs=1e-9
        )


def test_pairwise_iou_matches_grid_oracle():
    rng = random.Random(9)
    for _ in range(500):
        a = sorted(rng.sample(range(0, 60), 2))
        b = sorted(rng.sample(range(0, 60), 2))
        assert temporal_iou(TimeInterval(*a), TimeInterval(*b)) == pytest.approx(
            grid_iou(tuple(a), tuple(b)), abs=1e-9
        )
        lam = rng.randint(0, 5)
        assert relaxed_iou(TimeInterval(*a), TimeInterval(*b), lam) == pytest.approx(
            grid_relaxed_iou(tuple(a), tuple(b), lam), abs=1e-9
        )


@given(st.integers(min_value=0, max_value=100_000))
def test_monotonic_in_depth_and_threshold(seed):
    rng = random.Random(seed)
    run, qrels = random_localization_fixture(rng, questions=3)
    prod_run, prod_qrels = to_production(run, qrels)
    values_by_n = [mean_iou(prod_run, prod_qrels, n) for n in (1, 3, 5, 10)]
    assert values_by_n == sorted(values_by_n)
    for n in (1, 3, 5, 10):
        recalls = [recall_at_n_iou(prod_run, prod_qrels, n, mu) for mu in (0.3, 0.5, 0.7)]
        assert recalls == sorted(recalls, reverse=True)
    recall_by_n = [recall_at_n_iou(prod_run, prod_qrels, n, 0.5) for n in (1, 3, 5, 10)]
    assert recall_by_n == sorted(recall_by_n)


interval_values = st.integers(min_value=10, max_value=100)


@given(interval_values, interval_values, interval_values, interval_values, st.integers(0, 10), st.integers(0, 10))
def test_relaxed_iou_monotone_in_lambda_for_disjoint_or_nested(a0, a1, b0, b1, lam1, lam2):
    # starts are >= the largest extension, so clamping never reshapes geometry
    first = TimeInterval(min(a0, a1), max(a0, a1))
    second = TimeInterval(min(b0, b1), max(b0, b1))
    disjoint = first.end <= second.start or second.end <= first.start
    nested = (first.start >= second.start and first.end <= second.end) or (
        second.start >= first.start and second.end <= first.end
    )
    if not (disjoint or nested):
        return
    low, high = sorted((lam1, lam2))
    assert relaxed_iou(first, second, low) <= relaxed_iou(first, second, high) + 1e-12


@given(interval_values, interval_values, interval_values, interval_values)
def test_iou_is_one_only_for_equal_positive_intervals(a0, a1, b0, b1):
    first = TimeInterval(min(a0, a1), max(a0, a1))
    second = TimeInterval(min(b0, b1), max(b0, b1))
    value = temporal_iou(first, second)
    assert 0.0 <= value <= 1.0
    assert temporal_iou(second, first) == value
    if value == 1.0:
        assert first == second and first.length > 0


class TestEvaluateLocalization:
    def test_table_consistent_with_direct_metrics(self):
        rng = random.Random(3)
        run, qrels = random_localization_fixture(rng)
        prod_run, prod_qrels = to_production(run, qrels)
        params = IoUParams((1, 3, 5, 10), (0.3, 0.5, 0.7), 0.0)
        score = evaluate_localization(prod_run, prod_qrels, params)
        for n in params.n_values:
            assert score.table[n]["mIoU"] == pytest.approx(100 * mean_iou(prod_run, prod_qrels, n))
            for mu in params.mu_values:
                assert score.table[n][f"IoU={mu:g}"] == pytest.approx(
                    recall_at_n_iou(prod_run, prod_qrels, n, mu)
                )

    def test_report_embeds_parameters(self):
        run = {"Q1": [candidate("Q1", "v1", 0, 10, 1)]}
        qrels = {"Q1": [judged_video("Q1", "v1", 2, [(0, 10)])]}
        report = localization_report(evaluate_localization(run, qrels, IoUParams((1,), (0.5,), 3.0)))
        assert report.params["lambda"] == 3.0
        assert report.values["n=1"]["mIoU"] == 100.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            IoUParams(n_values=())
        with pytest.raises(ValueError):
            IoUParams(mu_values=(0.0,))
        with pytest.raises(ValueError):
            IoUParams(lam=-1)


@pytest.mark.parametrize("values", [{"lam": math.nan}, {"lam": math.inf}, {"mu_values": (math.nan,)}])
def test_params_reject_non_finite_values(values):
    with pytest.raises(ValueError):
        IoUParams(**values)


class TestScoringGrid:
    def test_depths_sorted_and_deduplicated(self):
        assert normalise_depths([10, 1, 5, 1, 10], "n") == (1, 5, 10)

    @pytest.mark.parametrize(
        "values, message",
        [((), r"n must be .*, got \[\]"), ((3, 0), r"n must be .*, got \[0, 3\]"), ((1.5,), r"got \[1\.5\]")],
    )
    def test_bad_depths_name_the_parameter(self, values, message):
        with pytest.raises(ValueError, match=message):
            normalise_depths(values, "n")

    def test_thresholds_sorted_and_deduplicated(self):
        assert normalise_thresholds([0.7, 0.3, 0.5, 0.3]) == (0.3, 0.5, 0.7)

    @pytest.mark.parametrize("values", [(), (0.0,), (-0.5,), (1.5,), (math.nan,), (math.inf,), (0.5, 0.3, 0.30000001)])
    def test_bad_thresholds_rejected(self, values):
        with pytest.raises(ValueError, match="mu"):
            normalise_thresholds(values)

    @given(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=6))
    def test_thresholds_have_distinct_labels_or_raise(self, values):
        try:
            thresholds = normalise_thresholds(values)
        except ValueError:
            assert len({threshold_key(mu) for mu in values}) < len(set(values))
        else:
            assert list(thresholds) == sorted(set(values))
            assert len({threshold_key(mu) for mu in thresholds}) == len(thresholds)

    def test_threshold_key(self):
        assert [threshold_key(mu) for mu in (0.3, 0.5, 1.0, 1)] == ["IoU=0.3", "IoU=0.5", "IoU=1", "IoU=1"]

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0)), st.floats(min_value=0.01, max_value=1.0))
    def test_percent_at_least_counts_the_boundary(self, values, mu):
        hits = sum(1 for value in values if value >= mu)
        assert percent_at_least(values, mu) == (100.0 * hits / len(values) if values else 0.0)

    def test_params_normalise_the_grid(self):
        params = IoUParams((10, 1, 1), (0.5, 0.3, 0.5))
        assert (params.n_values, params.mu_values) == ((1, 10), (0.3, 0.5))

    def test_judged_questions_warn_once_per_unjudged_question(self):
        with pytest.warns(ToolkitWarning) as caught:
            judged = judged_questions({"Q2": "b", "QX": "x", "Q1": "a"}, {"Q1": [], "Q2": []})
        assert judged == {"Q2": "b", "Q1": "a"}
        assert [str(w.message) for w in caught] == ["run question 'QX' has no judgments; ignoring it"]


def test_evaluate_localization_warns_on_unjudged_questions():
    run = {"Q1": [candidate("Q1", "v1", 0, 10, 1)], "QX": [candidate("QX", "v1", 0, 10, 1)]}
    qrels = {"Q1": [judged_video("Q1", "v1", 2, [(0, 10)])]}
    with pytest.warns(ToolkitWarning, match="'QX' has no judgments"):
        score = evaluate_localization(run, qrels, IoUParams((1,), (0.5,)))
    assert len(score.per_question) == 1 and score.table[1]["IoU=0.5"] == 100.0
