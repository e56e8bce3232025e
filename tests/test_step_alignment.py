import math
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medvideval import step_alignment, text_metrics
from medvideval.core import TimeInterval, ToolkitWarning
from medvideval.io_formats import Step, StepSequence, parse_steps
from medvideval.step_alignment import (
    AlignmentParams,
    align_steps,
    alignment_score,
    evaluate_captions,
    evaluate_steps,
    matched_caption_pairs,
    step_prf,
    step_segment_stats,
    steps_report,
)
from medvideval.text_metrics import tokenize
from oracles import align_oracle


def step(caption, start, end):
    return Step(caption, TimeInterval(start, end))


def sequence(segment_id, *steps_):
    return StepSequence(segment_id, list(steps_))


class TestScoring:
    def test_worked_example(self):
        # overlap 0.5 ([0,5] vs [0,10]) and ROUGE-L F 2/3
        pred = step("tie the elbow", 0, 5)
        gold = step("tie the elbow to the board", 0, 10)
        assert alignment_score(pred, gold) == pytest.approx(0.5833, abs=1e-4)

    def test_identical_step_scores_one(self):
        s = step("wrap the wrist", 5, 10)
        assert alignment_score(s, s) == 1.0

    def test_nothing_in_common_scores_zero(self):
        assert alignment_score(step("alpha", 0, 1), step("beta", 10, 11)) == 0.0

    def test_monotone_in_overlap_and_caption_similarity(self):
        gold = step("tie the elbow to the board", 0, 10)
        # interval overlap grows while the caption stays fixed
        overlap_scores = [
            alignment_score(step("tie the elbow", 0, end), gold) for end in (2, 5, 8, 10)
        ]
        assert overlap_scores == sorted(overlap_scores)
        # caption similarity grows while the interval stays fixed
        captions = ["wrap", "tie the wrist", "tie the elbow", "tie the elbow to the board"]
        rouge_scores = [alignment_score(step(caption, 0, 10), gold) for caption in captions]
        assert rouge_scores == sorted(rouge_scores)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AlignmentParams(alpha=-0.1)
        with pytest.raises(ValueError):
            AlignmentParams(lam=-1)


def matrix_align(scores, gold_count, theta):
    """Run the production aligner against a raw score matrix."""
    params = AlignmentParams(theta=theta)
    return align_steps(
        list(range(len(scores))),
        list(range(gold_count)),
        params,
        score_fn=lambda p, g: scores[p][g],
    )


class TestAlignSteps:
    def test_identical_single_step(self):
        s = sequence("seg", step("wrap the wrist", 0, 10))
        result = align_steps(s, s, AlignmentParams(theta=0.4))
        assert (result.tp, result.fp, result.fn) == (1, 0, 0)

    def test_threshold_above_max_annihilates(self):
        pred = sequence("seg", step("wrap the wrist", 0, 10), step("dry the skin", 10, 20))
        gold = sequence("seg", step("wrap the wrist", 0, 10))
        result = align_steps(pred, gold, AlignmentParams(theta=1.01))
        assert (result.tp, result.fp, result.fn) == (0, 2, 1)

    def test_best_match_advances_past_chosen_step(self):
        # p1 scores 0.6 on g1 and 0.9 on g2; p2 scores 0.8 on g2 only
        scores = [[0.6, 0.9], [0.0, 0.8]]
        result = matrix_align(scores, 2, theta=0.5)
        assert (result.tp, result.fp, result.fn) == (1, 1, 1)
        assert result.pairs == [(0, 1, 0.9)]

    def test_earliest_step_wins_ties(self):
        scores = [[0.7, 0.7]]
        result = matrix_align(scores, 2, theta=0.5)
        assert result.pairs == [(0, 0, 0.7)]

    def test_empty_sides(self):
        empty = sequence("seg")
        full = sequence("seg", step("wrap the wrist", 0, 10))
        assert align_steps(empty, full).fn == 1
        assert align_steps(full, empty, AlignmentParams(theta=0.0)).fp == 1
        result = align_steps(empty, empty)
        assert (result.tp, result.fp, result.fn) == (0, 0, 0)

    def test_theta_zero_identical_sequences_match_fully(self):
        steps = [step(f"step {i} text", 10 * i, 10 * i + 5) for i in range(4)]
        seq = sequence("seg", *steps)
        result = align_steps(seq, seq, AlignmentParams(theta=0.0))
        assert result.tp == 4 and result.fp == 0 and result.fn == 0

    def test_matches_simulation_on_random_matrices(self):
        rng = random.Random(99)
        for _ in range(1000):
            pred_count = rng.randint(0, 8)
            gold_count = rng.randint(0, 8)
            scores = [[round(rng.random(), 3) for _ in range(gold_count)] for _ in range(pred_count)]
            theta = rng.choice([0.0, 0.2, 0.4, 0.5, 0.8, 1.01])
            result = matrix_align(scores, gold_count, theta)
            tp, fp, fn, pairs = align_oracle(scores, gold_count, theta)
            assert (result.tp, result.fp, result.fn) == (tp, fp, fn)
            assert [(p, g) for p, g, _ in result.pairs] == pairs

    @given(st.integers(min_value=0, max_value=100_000))
    def test_counting_identities_and_monotonicity(self, seed):
        rng = random.Random(seed)
        pred_count = rng.randint(0, 8)
        gold_count = rng.randint(0, 8)
        scores = [[rng.random() for _ in range(gold_count)] for _ in range(pred_count)]
        result = matrix_align(scores, gold_count, rng.choice([0.1, 0.5, 0.9]))
        assert result.tp + result.fp == pred_count
        assert result.tp + result.fn == gold_count
        assert result.tp <= min(pred_count, gold_count)
        gold_indices = [g for _, g, _ in result.pairs]
        assert gold_indices == sorted(set(gold_indices))


class TestStepPrf:
    def test_worked_example(self):
        result = matrix_align([[0.6, 0.9], [0.0, 0.8]], 2, theta=0.5)
        prf = step_prf(result)
        assert (prf.precision, prf.recall, prf.f) == (0.5, 0.5, 0.5)

    def test_perfect(self):
        s = sequence("seg", step("wrap the wrist", 0, 10))
        prf = step_prf(align_steps(s, s))
        assert (prf.precision, prf.recall, prf.f) == (1.0, 1.0, 1.0)

    def test_all_zero_when_no_matches(self):
        prf = step_prf(matrix_align([[0.0]], 1, theta=0.5))
        assert (prf.precision, prf.recall, prf.f) == (0.0, 0.0, 0.0)


class TestSegmentStats:
    def test_exact_matches_any_lambda(self):
        s = sequence("seg", step("wrap the wrist", 0, 10))
        result = align_steps(s, s)
        stats = step_segment_stats([(s, s, result)], lam=5, mu_values=(0.3, 0.5, 0.7))
        assert stats.mean_iou == 1.0
        assert all(value == 100.0 for value in stats.fraction_at.values())

    def test_unmatched_gold_counts_as_zero(self):
        # matched pair has relaxed IoU 5/9 at lambda=3; one gold step unmatched
        pred = sequence("seg", step("press the wound", 10, 11))
        gold = sequence("seg", step("press the wound", 12, 13), step("call for help", 50, 60))
        result = align_steps(pred, gold, AlignmentParams(theta=0.3, lam=3.0))
        assert result.tp == 1
        stats = step_segment_stats([(pred, gold, result)], lam=3.0, mu_values=(0.5,))
        assert stats.mean_iou == pytest.approx((5 / 9) / 2, abs=1e-4)
        assert stats.fraction_at[0.5] == pytest.approx(50.0)

    def test_lambda_zero_equals_unrelaxed(self):
        pred = sequence("seg", step("press the wound", 10, 20))
        gold = sequence("seg", step("press the wound", 15, 25))
        result = align_steps(pred, gold, AlignmentParams(theta=0.3))
        stats = step_segment_stats([(pred, gold, result)], lam=0.0, mu_values=(0.3,))
        assert stats.mean_iou == pytest.approx(1 / 3)

    def test_empty_test_set(self):
        stats = step_segment_stats([], lam=3.0)
        assert stats.mean_iou == 0.0


class TestEvaluateSteps:
    def make_maps(self):
        gold = {
            "seg1": sequence("seg1", step("wrap the wrist", 0, 10), step("tie the knot", 10, 20)),
            "seg2": sequence("seg2", step("rinse the cut", 0, 5)),
        }
        pred = {
            "seg1": sequence("seg1", step("wrap the wrist", 0, 10)),
            "seg2": sequence("seg2", step("rinse the cut", 0, 5)),
        }
        return pred, gold

    def test_pools_counts_across_segments(self):
        pred, gold = self.make_maps()
        score = evaluate_steps(pred, gold, AlignmentParams(theta=0.4))
        assert (score.tp, score.fp, score.fn) == (2, 0, 1)
        assert score.prf.precision == 1.0
        assert score.prf.recall == pytest.approx(2 / 3)

    def test_missing_prediction_segment_counts_misses(self):
        pred, gold = self.make_maps()
        del pred["seg2"]
        score = evaluate_steps(pred, gold)
        assert score.fn == 2

    def test_prediction_only_segment_warns_and_is_ignored(self):
        pred, gold = self.make_maps()
        pred["ghost"] = sequence("ghost", step("float away", 0, 1))
        with pytest.warns(ToolkitWarning):
            score = evaluate_steps(pred, gold)
        assert score.fp == 0

    def test_report_shape(self):
        pred, gold = self.make_maps()
        report = steps_report(evaluate_steps(pred, gold))
        for key in ("Precision", "Recall", "F-score", "IoU=0.3", "IoU=0.5", "IoU=0.7", "mIoU"):
            assert key in report.values
        assert report.params["theta"] == 0.4


class TestCaptions:
    def test_matched_pairs_only(self):
        gold = {"seg1": sequence("seg1", step("wrap the wrist", 0, 10), step("tie the knot", 50, 60))}
        pred = {"seg1": sequence("seg1", step("wrap the wrist", 0, 10))}
        pairs = matched_caption_pairs(pred, gold)
        assert [(p.predicted, p.reference) for p in pairs] == [("wrap the wrist", "wrap the wrist")]

    def test_perfect_captions(self):
        gold = {"seg1": sequence("seg1", step("wrap the wrist", 0, 10))}
        score = evaluate_captions(gold, gold)
        assert score.bleu[2] == 1.0
        assert score.rouge_l == 1.0
        assert score.meteor == pytest.approx(0.9815, abs=1e-4)

    def test_no_matches_scores_zero(self):
        gold = {"seg1": sequence("seg1", step("wrap the wrist", 0, 10))}
        pred = {"seg1": sequence("seg1", step("unrelated words", 500, 600))}
        score = evaluate_captions(pred, gold)
        assert score.pair_count == 0
        assert score.bleu[2] == 0.0


@pytest.mark.parametrize("values", [{"theta": math.nan}, {"alpha": math.inf}, {"beta": -math.inf}, {"lam": math.nan}])
def test_params_reject_non_finite_values(values):
    with pytest.raises(ValueError):
        AlignmentParams(**values)


def test_thresholds_are_sorted_and_deduplicated():
    s = sequence("seg", step("wrap the wrist", 0, 10))
    stats = step_segment_stats([(s, s, align_steps(s, s))], lam=0.0, mu_values=(0.7, 0.3, 0.7))
    assert list(stats.fraction_at) == [0.3, 0.7]
    score = evaluate_steps({"seg": s}, {"seg": s}, mu_values=(0.7, 0.3, 0.7))
    assert steps_report(score).params["mu"] == [0.3, 0.7]
    assert [key for key in steps_report(score).values if key.startswith("IoU=")] == ["IoU=0.3", "IoU=0.7"]


@pytest.mark.parametrize("field", ["theta", "alpha", "beta", "lam"])
def test_negative_alignment_parameter_is_named(field):
    name = "lambda" if field == "lam" else field
    with pytest.raises(ValueError, match=f"^{name} must be"):
        AlignmentParams(**{field: -0.5})


STEP_FIXTURE = Path(__file__).resolve().parent / "data" / "steps"


def test_each_caption_is_tokenized_once_per_aligned_step(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pred = parse_steps((STEP_FIXTURE / "pred.jsonl").read_text(encoding="utf-8"))
        gold = parse_steps((STEP_FIXTURE / "gold.jsonl").read_text(encoding="utf-8"))
    tokenized = []

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(text_metrics, "tokenize", counting_tokenize)
    monkeypatch.setattr(step_alignment, "tokenize", counting_tokenize, raising=False)
    with pytest.warns(ToolkitWarning, match="'s6'"):
        evaluate_steps(pred, gold)
    # Prediction-only segment s6 is not aligned, so its caption is never scored.
    aligned = [gold[segment_id] for segment_id in gold] + [pred[segment_id] for segment_id in gold if segment_id in pred]
    assert sorted(tokenized) == sorted(step.caption for seq in aligned for step in seq.steps)


def test_caption_without_tokens_scores_only_its_overlap():
    # A blank caption (possible only for library-built steps) is scored like a
    # punctuation-only one: ROUGE-L 0, so the score is alpha times the IoU.
    gold = step("wrap the wrist", 0, 10)
    assert alignment_score(step("", 0, 5), gold) == alignment_score(step("...", 0, 5), gold) == 0.25
