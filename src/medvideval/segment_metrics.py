"""Temporal visual-answer localization scoring: IoU, relaxed IoU, mIoU, R@n.

A candidate only scores when its video is positively judged for the question;
within such a video the best overlap against any assessed answer interval
counts.  Per-question scores at depth n take the best candidate among the
top n, which is what makes mIoU grow with n.

Every command's scoring grid is normalised here: depths (retrieval cutoffs k,
localization depths n) and IoU thresholds mu, each sorted and deduplicated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import MAX_SECONDS, QuestionId, TimeInterval, ToolkitWarning, intersection_length, plain_sum
from .io_formats import JudgedVideo, LocalizationCandidate, MetricReport

DEFAULT_N_VALUES = (1, 3, 5, 10)
DEFAULT_MU_VALUES = (0.3, 0.5, 0.7)


def normalise_depths(values: Iterable[int], name: str) -> tuple[int, ...]:
    """Positive integer depths, sorted and deduplicated; ``name`` appears in errors."""
    depths = tuple(sorted(set(values)))
    if not depths or not all(isinstance(depth, int) and depth >= 1 for depth in depths):
        raise ValueError(f"{name} must be one or more integers >= 1, got {list(depths)}")
    return depths


def threshold_key(mu: float) -> str:
    """Column label of an IoU threshold."""
    return f"IoU={mu:g}"


def normalise_thresholds(values: Iterable[float]) -> tuple[float, ...]:
    """IoU thresholds in (0, 1], sorted and deduplicated, each with its own label."""
    thresholds = tuple(sorted(set(values)))
    if not thresholds or not all(0.0 < mu <= 1.0 for mu in thresholds):
        raise ValueError(f"mu must be one or more values in (0, 1], got {list(thresholds)}")
    for low, high in zip(thresholds, thresholds[1:]):
        if threshold_key(low) == threshold_key(high):
            raise ValueError(f"mu values {low!r} and {high!r} share the column {threshold_key(low)}")
    return thresholds


def percent_at_least(values: Sequence[float], mu: float) -> float:
    """Percentage of ``values`` that reach ``mu`` (boundary counts); 0 when empty."""
    return 100.0 * sum(1 for value in values if value >= mu) / len(values) if values else 0.0


def judged_questions(run: Mapping[QuestionId, object], qrels: Mapping[QuestionId, object]) -> dict:
    """The run's judged questions, in run order; each unjudged one is ignored with a warning."""
    for qid in run:
        if qid not in qrels:
            warnings.warn(ToolkitWarning(f"run question {qid!r} has no judgments; ignoring it"), stacklevel=3)
    return {qid: entry for qid, entry in run.items() if qid in qrels}


def check_lambda(lam: float) -> None:
    """Raise ValueError naming lambda unless ``lam`` is an IoU extension in [0, MAX_SECONDS] seconds."""
    if not 0.0 <= lam <= MAX_SECONDS:  # NaN fails too
        raise ValueError(f"lambda must be a finite number in [0, {MAX_SECONDS:g}], got {lam}")


def temporal_iou(pred: TimeInterval, gt: TimeInterval) -> float:
    """Intersection over union of two intervals; 0 when both are zero-length."""
    overlap = intersection_length(pred, gt)
    union = pred.length + gt.length - overlap
    if union == 0.0:
        return 0.0
    return overlap / union


def extend_interval(interval: TimeInterval, lam: float) -> TimeInterval:
    """Widen an interval by lam seconds on each side, clamping the start at 0; the end may pass MAX_SECONDS."""
    check_lambda(lam)
    return TimeInterval._unchecked(max(0.0, interval.start - lam), interval.end + lam)


def relaxed_iou(pred: TimeInterval, gt: TimeInterval, lam: float) -> float:
    """IoU after extending both intervals by lam; lam = 0 is plain IoU."""
    return temporal_iou(extend_interval(pred, lam), extend_interval(gt, lam))


def _best_iou_prefix(
    candidates: Sequence[LocalizationCandidate],
    judged: Sequence[JudgedVideo],
    lam: float,
) -> list[float]:
    """Running best gated IoU after each candidate, in rank order.

    Candidates in videos that are not positively judged score 0; otherwise
    the best overlap against any of that video's answer intervals counts.
    """
    answers_by_video = {jv.video: jv.answers for jv in judged if jv.grade.is_positive}
    best = 0.0
    prefix = []
    for candidate in candidates:
        for answer in answers_by_video.get(candidate.video, ()):
            value = relaxed_iou(candidate.interval, answer, lam)
            if value > best:
                best = value
        prefix.append(best)
    return prefix


def question_iou(
    candidates: Sequence[LocalizationCandidate],
    judged: Sequence[JudgedVideo],
    lam: float = 0.0,
) -> float:
    """Best gated IoU over an already-truncated (top-n) candidate list."""
    prefix = _best_iou_prefix(candidates, judged, lam)
    return prefix[-1] if prefix else 0.0


def mean_iou(
    run: Mapping[QuestionId, Sequence[LocalizationCandidate]],
    qrels: Mapping[QuestionId, Sequence[JudgedVideo]],
    n: int,
    lam: float = 0.0,
) -> float:
    """Mean over every judged question of the best IoU among its top-n candidates.

    The divisor is the number of judged questions, so unanswered questions
    drag the mean down rather than disappearing.
    """
    per_question = evaluate_localization(run, qrels, IoUParams((n,), lam=lam)).per_question
    if not per_question:
        return 0.0
    return plain_sum(row[n] for row in per_question.values()) / len(per_question)


def recall_at_n_iou(
    run: Mapping[QuestionId, Sequence[LocalizationCandidate]],
    qrels: Mapping[QuestionId, Sequence[JudgedVideo]],
    n: int,
    mu: float,
    lam: float = 0.0,
) -> float:
    """Percentage of questions whose best top-n IoU reaches mu (boundary counts)."""
    return evaluate_localization(run, qrels, IoUParams((n,), (mu,), lam)).table[n][threshold_key(mu)]


@dataclass(frozen=True)
class IoUParams:
    """Evaluation grid: candidate depths, IoU thresholds, and the extension."""

    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    mu_values: tuple[float, ...] = DEFAULT_MU_VALUES
    lam: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_values", normalise_depths(self.n_values, "n"))
        object.__setattr__(self, "mu_values", normalise_thresholds(self.mu_values))
        check_lambda(self.lam)


@dataclass
class LocalizationScore:
    """Per-question best IoU at each depth plus the rendered percentage table."""

    params: IoUParams
    per_question: dict[QuestionId, dict[int, float]]
    table: dict[int, dict[str, float]]


def evaluate_localization(
    run: Mapping[QuestionId, Sequence[LocalizationCandidate]],
    qrels: Mapping[QuestionId, Sequence[JudgedVideo]],
    params: IoUParams = IoUParams(),
) -> LocalizationScore:
    """Build the full depth-by-threshold table for one localization run.

    Table cells are percentages: R@n IoU=mu columns and mIoU alike, matching
    how localization results are conventionally tabulated.  Run questions
    absent from the judgments are ignored with a warning.
    """
    run = judged_questions(run, qrels)
    question_ids = sorted(qrels)
    per_question: dict[QuestionId, dict[int, float]] = {}
    for qid in question_ids:
        prefix = _best_iou_prefix(list(run.get(qid, ()))[: params.n_values[-1]], qrels[qid], params.lam)
        per_question[qid] = {n: (prefix[min(n, len(prefix)) - 1] if prefix else 0.0) for n in params.n_values}

    table: dict[int, dict[str, float]] = {}
    count = len(question_ids)
    for n in params.n_values:
        values = [per_question[qid][n] for qid in question_ids]
        row = {threshold_key(mu): percent_at_least(values, mu) for mu in params.mu_values}
        row["mIoU"] = 100.0 * plain_sum(values) / count if count else 0.0
        table[n] = row
    return LocalizationScore(params, per_question, table)


def localization_report(score: LocalizationScore) -> MetricReport:
    values = {f"n={n}": dict(row) for n, row in score.table.items()}
    return MetricReport(
        name="localization",
        params={
            "n": list(score.params.n_values),
            "mu": list(score.params.mu_values),
            "lambda": score.params.lam,
            "multi_answer_reduction": "max",
            "video_gate_min_grade": 1,
            "units": "percent",
            "num_questions": len(score.per_question),
        },
        values=values,
    )
