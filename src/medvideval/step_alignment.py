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
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence

from .core import CheckedRecord, ToolkitWarning, plain_sum, warn
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
from .text_metrics import PRF, CaptionPair, bleu_scores_tokens, meteor_tokens, prf, rouge_l_tokens, token_masks, tokenize

BLEU_ORDERS = (2, 3)


class AlignmentParams(CheckedRecord, namedtuple("AlignmentParams", "theta alpha beta lam")):
    """Threshold and weights for step matching, plus the IoU extension."""

    __slots__ = ()

    def __new__(cls, theta: float = 0.4, alpha: float = 0.5, beta: float = 0.5, lam: float = 3.0) -> AlignmentParams:
        for name, value in (("theta", theta), ("alpha", alpha), ("beta", beta)):
            if isinstance(value, bool) or not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")
        check_lambda(lam)
        return tuple.__new__(cls, (theta, alpha, beta, lam))


class AlignmentResult(namedtuple("AlignmentResult", "tp fp fn pairs")):
    """Match counts plus the matched (pred index, gt index, score) pairs.

    Invariants: tp + fp = number of predicted steps, fn = ground-truth steps
    minus tp, and matched gt indices strictly increase with pred index.
    """

    __slots__ = ()

    def __new__(cls, tp: int, fp: int, fn: int, pairs: list[tuple[int, int, float]] | None = None) -> AlignmentResult:
        return tuple.__new__(cls, (tp, fp, fn, [] if pairs is None else pairs))


def _steps(sequence: StepSequence | Sequence) -> Sequence:
    return sequence.steps if isinstance(sequence, StepSequence) else sequence


def _cell(params: AlignmentParams, overlap: float, rouge_f: float) -> float:
    """The one alignment score: alpha * interval IoU + beta * caption ROUGE-L F."""
    return params.alpha * overlap + params.beta * rouge_f


def alignment_score(pred_step: Step, gt_step: Step, params: AlignmentParams = AlignmentParams()) -> float:
    """alpha * interval IoU + beta * caption ROUGE-L F of one step pair."""
    caption = rouge_l_tokens(tokenize(pred_step.caption), tokenize(gt_step.caption))
    return _cell(params, temporal_iou(pred_step.interval, gt_step.interval), caption.f)


def _bounded_scanner(
    pred_steps: Sequence[Step],
    gold_steps: Sequence[Step],
    params: AlignmentParams,
    pred_tokens: Sequence[list[str]],
    gold_tokens: Sequence[list[str]],
):
    """``scan(p_idx, start) -> (best score, best gold index)`` under the default score.

    It picks what the plain scan over ``alignment_score`` picks, computing
    ROUGE-L only on cells that could still win.  ROUGE-L F is at most 1.0 in
    floats (the rounded ``2pr`` never exceeds the rounded ``p + r``), and
    IEEE ``*`` and ``+`` are monotone, so a cell scores at most its bound
    ``_cell(params, iou, 1.0)``: a cell whose bound is below theta or not
    above the best so far cannot win.  A gold step that starts at or after
    the predicted step's end has IoU exactly 0.0 and bound beta, so once every
    remaining gold step does, the scan stops if beta cannot win either.

    ``pred_tokens`` and ``gold_tokens`` hold each step's caption tokens; each
    gold caption's LCS masks are built when first needed.
    """
    theta = params.theta
    beta = params.beta
    gold_masks: list[dict[str, int] | None] = [None] * len(gold_steps)
    # earliest_start[g]: the earliest start among gold_steps[g:], for unsorted library input.
    earliest_start = [math.inf] * (len(gold_steps) + 1)
    for g_idx in range(len(gold_steps) - 1, -1, -1):
        earliest_start[g_idx] = min(gold_steps[g_idx].interval.start, earliest_start[g_idx + 1])

    def scan(p_idx: int, start: int) -> tuple[float, int]:
        interval = pred_steps[p_idx].interval
        best_score = -1.0
        best_g = -1
        for g_idx in range(start, len(gold_steps)):
            if earliest_start[g_idx] >= interval.end and (beta < theta or beta <= best_score):
                break
            overlap = temporal_iou(interval, gold_steps[g_idx].interval)
            bound = _cell(params, overlap, 1.0)
            if bound < theta or bound <= best_score:
                continue
            masks = gold_masks[g_idx]
            if masks is None:
                masks = gold_masks[g_idx] = token_masks(gold_tokens[g_idx])
            cell = _cell(params, overlap, rouge_l_tokens(pred_tokens[p_idx], gold_tokens[g_idx], masks).f)
            if cell > best_score and cell >= theta:
                best_score = cell
                best_g = g_idx
        return best_score, best_g

    return scan


def _plain_scanner(pred_steps: Sequence, gold_steps: Sequence, score_fn: Callable[[Step, Step], float], theta: float):
    """``scan(p_idx, start) -> (best score, best gold index)`` scoring every cell through ``score_fn``."""

    def scan(p_idx: int, start: int) -> tuple[float, int]:
        best_score = -1.0
        best_g = -1
        for g_idx in range(start, len(gold_steps)):
            cell = score_fn(pred_steps[p_idx], gold_steps[g_idx])
            if cell > best_score and cell >= theta:
                best_score = cell
                best_g = g_idx
        return best_score, best_g

    return scan


def _greedy(scan, pred_count: int, gold_count: int) -> AlignmentResult:
    """The greedy alignment that ``scan`` drives: each predicted step, in order, takes its scan's best gold step."""
    tp = 0
    fp = 0
    pairs: list[tuple[int, int, float]] = []
    scan_start = 0
    for p_idx in range(pred_count):
        best_score, best_g = scan(p_idx, scan_start)
        if best_g != -1:
            tp += 1
            pairs.append((p_idx, best_g, best_score))
            scan_start = best_g + 1
        else:
            fp += 1
    return AlignmentResult(tp, fp, gold_count - tp, pairs)


class _TokenAlignment(namedtuple("_TokenAlignment", "result pred_tokens gold_tokens")):
    """An alignment under the default score and each step's caption tokens."""

    __slots__ = ()


def _align_tokens(pred_steps: Sequence[Step], gold_steps: Sequence[Step], params: AlignmentParams) -> _TokenAlignment:
    """The default-score alignment, tokenizing each caption once."""
    pred_tokens = [tokenize(step.caption) for step in pred_steps]
    gold_tokens = [tokenize(step.caption) for step in gold_steps]
    scan = _bounded_scanner(pred_steps, gold_steps, params, pred_tokens, gold_tokens)
    return _TokenAlignment(_greedy(scan, len(pred_steps), len(gold_steps)), pred_tokens, gold_tokens)


def align_steps(
    pred: StepSequence | Sequence,
    gold: StepSequence | Sequence,
    params: AlignmentParams = AlignmentParams(),
    *,
    score_fn: Callable[[Step, Step], float] | None = None,
) -> AlignmentResult:
    """Greedy monotonic alignment; either side may be empty.

    ``score_fn`` overrides the caption/interval scoring, which keeps the
    algorithm testable against arbitrary score matrices; it is called on
    every cell of the scan.
    """
    pred_steps = _steps(pred)
    gold_steps = _steps(gold)
    if score_fn is None:
        return _align_tokens(pred_steps, gold_steps, params).result
    return _greedy(_plain_scanner(pred_steps, gold_steps, score_fn, params.theta), len(pred_steps), len(gold_steps))


def step_prf(result: AlignmentResult) -> PRF:
    """Precision, recall, and F from the alignment counts (0 for 0/0 forms)."""
    return prf(result.tp, result.tp + result.fp, result.tp + result.fn)


def _align_segments(
    pred_map: Mapping[str, StepSequence],
    gold_map: Mapping[str, StepSequence],
    params: AlignmentParams,
) -> list[tuple[StepSequence, StepSequence, _TokenAlignment]]:
    """Align every gold segment in id order.

    A gold segment missing from the predictions aligns an empty prediction;
    a predicted segment without gold is ignored with a warning, mirroring how
    unjudged questions are treated elsewhere.
    """
    for segment_id in pred_map:
        if segment_id not in gold_map:
            warn(ToolkitWarning(f"predicted segment {segment_id!r} has no ground truth; ignoring it"))
    aligned = []
    for segment_id in sorted(gold_map):
        gold = gold_map[segment_id]
        pred = pred_map.get(segment_id, StepSequence(segment_id, []))
        aligned.append((pred, gold, _align_tokens(pred.steps, gold.steps, params)))
    return aligned


class SegmentIoUStats(namedtuple("SegmentIoUStats", "mean_iou fraction_at")):
    """Relaxed-IoU statistics over every ground-truth step in a test set.

    ``fraction_at`` maps each threshold to the percentage of gt steps reaching it.
    """

    __slots__ = ()


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


class StepScore(namedtuple("StepScore", "params tp fp fn prf iou")):
    """Pooled alignment accounting and IoU statistics for a whole run."""

    __slots__ = ()


def evaluate_steps(
    pred_map: Mapping[str, StepSequence],
    gold_map: Mapping[str, StepSequence],
    params: AlignmentParams = AlignmentParams(),
    mu_values: Sequence[float] = DEFAULT_MU_VALUES,
) -> StepScore:
    """Align every gold segment, pooling TP/FP/FN before computing P/R/F.

    Gold segments missing from the predictions count all their steps as
    misses; predicted segments without gold are ignored with a warning.
    """
    aligned = [(pred, gold, alignment.result) for pred, gold, alignment in _align_segments(pred_map, gold_map, params)]
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
        for pred, gold, alignment in _align_segments(pred_map, gold_map, params)
        for p_idx, g_idx, _ in alignment.result.pairs
    ]


class CaptionScore(
    namedtuple("CaptionScore", "params pair_count bleu meteor rouge_l meteor_fallback_pairs", defaults=(0,))
):
    """Corpus text metrics over the greedily matched caption pairs; ``bleu`` maps order to score.

    ``meteor_fallback_pairs`` counts the pairs whose METEOR alignment search
    stopped at its node budget.
    """

    __slots__ = ()


def evaluate_captions(
    pred_map: Mapping[str, StepSequence],
    gold_map: Mapping[str, StepSequence],
    params: AlignmentParams = AlignmentParams(),
) -> CaptionScore:
    """BLEU / METEOR / ROUGE-L over matched pairs at the alignment threshold.

    Every metric scores the token lists that the alignment built.
    """
    pairs = [
        (alignment.pred_tokens[p_idx], alignment.gold_tokens[g_idx])
        for _, _, alignment in _align_segments(pred_map, gold_map, params)
        for p_idx, g_idx, _ in alignment.result.pairs
    ]
    if not pairs:
        return CaptionScore(params, 0, {order: 0.0 for order in BLEU_ORDERS}, 0.0, 0.0)
    bleu = bleu_scores_tokens(pairs, BLEU_ORDERS)
    fallbacks: list = []
    meteor_mean = plain_sum(meteor_tokens(pred, ref, fallbacks) for pred, ref in pairs) / len(pairs)
    rouge_mean = plain_sum(rouge_l_tokens(pred, ref).f for pred, ref in pairs) / len(pairs)
    return CaptionScore(params, len(pairs), bleu, meteor_mean, rouge_mean, len(fallbacks))


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
            # Named only when the search fell back, so that other reports keep their bytes.
            **({"meteor_fallback_pairs": score.meteor_fallback_pairs} if score.meteor_fallback_pairs else {}),
            "rouge_aggregation": "mean-F-over-pairs",
            "tokenizer": "lowercase, whitespace, edge-punctuation stripped",
            "units": "percent",
        },
        values=values,
    )
