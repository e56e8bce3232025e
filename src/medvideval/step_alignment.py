"""Greedy monotonic alignment of predicted steps to ground-truth steps.

Each predicted step, in order, scans the ground-truth steps from the current
pointer onward and takes the earliest step with the highest qualifying score
(the scan keeps a strict ``>`` comparison, so ties go to the earlier step).
A match advances the pointer just past the matched step, which is what makes
matched indices strictly increase.  The published pseudocode recorded the
scan-start pointer instead of the matched index; this implements the evident
intent and the behaviour is locked by a simulation test.

Scores combine temporal IoU and ROUGE-L F with weights alpha and beta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import ToolkitWarning, plain_sum
from .io_formats import MetricReport, Step, StepSequence
from .segment_metrics import (
    DEFAULT_MU_VALUES,
    check_lambda,
    normalise_thresholds,
    percent_at_least,
    relaxed_iou,
    temporal_iou,
    threshold_key,
)
from .text_metrics import PRF, CaptionPair, bleu_n, meteor, prf, rouge_l, rouge_l_tokens, tokenize

BLEU_ORDERS = (2, 3)


@dataclass(frozen=True)
class AlignmentParams:
    """Threshold and weights for step matching, plus the IoU extension."""

    theta: float = 0.4
    alpha: float = 0.5
    beta: float = 0.5
    lam: float = 3.0

    def __post_init__(self) -> None:
        named = {"theta": self.theta, "alpha": self.alpha, "beta": self.beta}
        for name, value in named.items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")
        check_lambda(self.lam)


@dataclass
class AlignmentResult:
    """Match counts plus the matched (pred index, gt index, score) pairs.

    Invariants: tp + fp = number of predicted steps, fn = ground-truth steps
    minus tp, and matched gt indices strictly increase with pred index.
    """

    tp: int
    fp: int
    fn: int
    pairs: list[tuple[int, int, float]] = field(default_factory=list)


def _steps(sequence: StepSequence | Sequence) -> Sequence:
    return sequence.steps if isinstance(sequence, StepSequence) else sequence


def _step_scorer(pred_steps: Sequence[Step], gold_steps: Sequence[Step], params: AlignmentParams) -> Callable[[int, int], float]:
    """Cell scorer over (pred index, gold index); each caption is tokenized once, for the scorer's lifetime."""
    pred_tokens = [tokenize(step.caption) for step in pred_steps]
    gold_tokens = [tokenize(step.caption) for step in gold_steps]
    def score(p_idx: int, g_idx: int) -> float:
        overlap = temporal_iou(pred_steps[p_idx].interval, gold_steps[g_idx].interval)
        return params.alpha * overlap + params.beta * rouge_l_tokens(pred_tokens[p_idx], gold_tokens[g_idx]).f
    return score


def alignment_score(pred_step: Step, gt_step: Step, params: AlignmentParams = AlignmentParams()) -> float:
    """alpha * interval IoU + beta * caption ROUGE-L F of one step pair."""
    return _step_scorer([pred_step], [gt_step], params)(0, 0)


def align_steps(
    pred: StepSequence | Sequence,
    gold: StepSequence | Sequence,
    params: AlignmentParams = AlignmentParams(),
    *,
    score_fn: Callable[[Step, Step], float] | None = None,
) -> AlignmentResult:
    """Greedy monotonic alignment; either side may be empty.

    ``score_fn`` overrides the caption/interval scoring, which keeps the
    algorithm testable against arbitrary score matrices.
    """
    pred_steps = _steps(pred)
    gold_steps = _steps(gold)
    score = (_step_scorer(pred_steps, gold_steps, params) if score_fn is None
             else lambda p_idx, g_idx: score_fn(pred_steps[p_idx], gold_steps[g_idx]))
    tp = 0
    fp = 0
    pairs: list[tuple[int, int, float]] = []
    scan_start = 0
    for p_idx in range(len(pred_steps)):
        best_score = -1.0
        best_g = -1
        for g_idx in range(scan_start, len(gold_steps)):
            cell = score(p_idx, g_idx)
            if cell > best_score and cell >= params.theta:
                best_score = cell
                best_g = g_idx
        if best_g != -1:
            tp += 1
            pairs.append((p_idx, best_g, best_score))
            scan_start = best_g + 1
        else:
            fp += 1
    return AlignmentResult(tp, fp, len(gold_steps) - tp, pairs)


def step_prf(result: AlignmentResult) -> PRF:
    """Precision, recall, and F from the alignment counts (0 for 0/0 forms)."""
    return prf(result.tp, result.tp + result.fp, result.tp + result.fn)


def _align_segments(
    pred_map: Mapping[str, StepSequence],
    gold_map: Mapping[str, StepSequence],
    params: AlignmentParams,
) -> Iterator[tuple[StepSequence, StepSequence, AlignmentResult]]:
    """Align every gold segment in id order; a missing prediction is empty."""
    for segment_id in sorted(gold_map):
        gold = gold_map[segment_id]
        pred = pred_map.get(segment_id, StepSequence(segment_id, []))
        yield pred, gold, align_steps(pred, gold, params)


@dataclass
class SegmentIoUStats:
    """Relaxed-IoU statistics over every ground-truth step in a test set."""

    mean_iou: float
    fraction_at: dict[float, float]  # threshold -> percentage of gt steps


def step_segment_stats(
    alignments: Iterable[tuple[StepSequence | Sequence, StepSequence | Sequence, AlignmentResult]],
    lam: float = 3.0,
    mu_values: Sequence[float] = DEFAULT_MU_VALUES,
) -> SegmentIoUStats:
    """Relaxed IoU of every matched pair; unmatched ground-truth steps count as 0.

    Statistics are normalized by the total number of ground-truth steps, so
    misses lower the mean instead of being ignored.
    """
    ious: list[float] = []
    for pred_seq, gold_seq, result in alignments:
        pred_steps = _steps(pred_seq)
        gold_steps = _steps(gold_seq)
        matched = {g_idx: p_idx for p_idx, g_idx, _ in result.pairs}
        for g_idx, g_step in enumerate(gold_steps):
            p_idx = matched.get(g_idx)
            ious.append(0.0 if p_idx is None else relaxed_iou(pred_steps[p_idx].interval, g_step.interval, lam))
    total = len(ious)
    mean = plain_sum(ious) / total if total else 0.0
    fraction_at = {mu: percent_at_least(ious, mu) for mu in normalise_thresholds(mu_values)}
    return SegmentIoUStats(mean, fraction_at)


@dataclass
class StepScore:
    """Pooled alignment accounting and IoU statistics for a whole run."""

    params: AlignmentParams
    tp: int
    fp: int
    fn: int
    prf: PRF
    iou: SegmentIoUStats


def evaluate_steps(
    pred_map: Mapping[str, StepSequence],
    gold_map: Mapping[str, StepSequence],
    params: AlignmentParams = AlignmentParams(),
    mu_values: Sequence[float] = DEFAULT_MU_VALUES,
) -> StepScore:
    """Align every gold segment, pooling TP/FP/FN before computing P/R/F.

    Gold segments missing from the predictions count all their steps as
    misses; predicted segments without gold are ignored with a warning,
    mirroring how unjudged questions are treated elsewhere.
    """
    for segment_id in pred_map:
        if segment_id not in gold_map:
            warnings.warn(
                ToolkitWarning(f"predicted segment {segment_id!r} has no ground truth; ignoring it"),
                stacklevel=2,
            )
    aligned = list(_align_segments(pred_map, gold_map, params))
    tp = sum(result.tp for _, _, result in aligned)
    fp = sum(result.fp for _, _, result in aligned)
    fn = sum(result.fn for _, _, result in aligned)
    stats = step_segment_stats(aligned, params.lam, mu_values)
    return StepScore(params, tp, fp, fn, step_prf(AlignmentResult(tp, fp, fn)), stats)


def steps_report(score: StepScore) -> MetricReport:
    values: dict[str, object] = {
        "Precision": 100.0 * score.prf.precision,
        "Recall": 100.0 * score.prf.recall,
        "F-score": 100.0 * score.prf.f,
    }
    values.update((threshold_key(mu), percent) for mu, percent in score.iou.fraction_at.items())
    values["mIoU"] = 100.0 * score.iou.mean_iou
    values["counts"] = {"tp": score.tp, "fp": score.fp, "fn": score.fn}
    return MetricReport(
        name="steps",
        params={
            "theta": score.params.theta,
            "alpha": score.params.alpha,
            "beta": score.params.beta,
            "lambda": score.params.lam,
            "mu": list(score.iou.fraction_at),
            "overlap_measure": "interval-iou",
            "prf_aggregation": "pooled-counts",
            "iou_normalization": "ground-truth-steps",
            "units": "percent",
        },
        values=values,
    )


def matched_caption_pairs(
    pred_map: Mapping[str, StepSequence],
    gold_map: Mapping[str, StepSequence],
    params: AlignmentParams = AlignmentParams(),
) -> list[CaptionPair]:
    """Caption pairs for every greedy match, in segment then pair order."""
    return [
        CaptionPair(pred.steps[p_idx].caption, gold.steps[g_idx].caption)
        for pred, gold, result in _align_segments(pred_map, gold_map, params)
        for p_idx, g_idx, _ in result.pairs
    ]


@dataclass
class CaptionScore:
    """Corpus text metrics over the greedily matched caption pairs."""

    params: AlignmentParams
    pair_count: int
    bleu: dict[int, float]
    meteor: float
    rouge_l: float


def evaluate_captions(
    pred_map: Mapping[str, StepSequence],
    gold_map: Mapping[str, StepSequence],
    params: AlignmentParams = AlignmentParams(),
) -> CaptionScore:
    """BLEU / METEOR / ROUGE-L over matched pairs at the alignment threshold."""
    pairs = matched_caption_pairs(pred_map, gold_map, params)
    if not pairs:
        return CaptionScore(params, 0, {order: 0.0 for order in BLEU_ORDERS}, 0.0, 0.0)
    bleu = {order: bleu_n(pairs, order) for order in BLEU_ORDERS}
    meteor_mean = plain_sum(meteor(pair) for pair in pairs) / len(pairs)
    rouge_mean = plain_sum(rouge_l(pair).f for pair in pairs) / len(pairs)
    return CaptionScore(params, len(pairs), bleu, meteor_mean, rouge_mean)


def captions_report(score: CaptionScore) -> MetricReport:
    values: dict[str, object] = {}
    for order in sorted(score.bleu):
        values[f"BLEU-{order}"] = 100.0 * score.bleu[order]
    values["METEOR"] = 100.0 * score.meteor
    values["ROUGE-L"] = 100.0 * score.rouge_l
    values["matched_pairs"] = score.pair_count
    return MetricReport(
        name="captions",
        params={
            "theta": score.params.theta,
            "alpha": score.params.alpha,
            "beta": score.params.beta,
            "pair_source": "greedy-matched",
            "bleu": "corpus-level, no smoothing",
            "meteor": "meteor-exact",
            "meteor_aggregation": "mean-over-pairs",
            "rouge_aggregation": "mean-F-over-pairs",
            "tokenizer": "lowercase, whitespace, edge-punctuation stripped",
            "units": "percent",
        },
        values=values,
    )
