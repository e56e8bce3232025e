"""Graded-judgment retrieval scoring: MAP, P@k, R@k, nDCG, and run rollups.

Binary relevance for MAP/P/R counts every positive grade (possibly or
definitely relevant).  nDCG uses linear gains over the full run depth,
normalized by the ideal ordering of all judged documents.  Questions with no
relevant documents contribute 0, so macro averages are deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import QuestionId, VideoId, plain_sum
from .io_formats import JudgedVideo, MetricReport, RetrievalRunEntry
from .segment_metrics import judged_questions, normalise_depths


def _question_row(
    ranking: Iterable[VideoId], judged: Sequence[JudgedVideo], cutoffs: Sequence[int]
) -> dict[str, float]:
    """MAP, R@k and P@k for each cutoff, and nDCG, from one pass over the ranking."""
    grades = {jv.video: int(jv.grade) for jv in judged}
    relevant = sum(1 for gain in grades.values() if gain)  # videos graded positive
    hit_positions: list[int] = []
    dcg = 0.0
    for position, video in enumerate(ranking, start=1):
        gain = grades.get(video, 0)
        if gain:
            hit_positions.append(position)
            dcg += gain / math.log2(position + 1)
    ideal = sorted(grades.values(), reverse=True)
    idcg = plain_sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1) if g > 0)
    hits_within = [bisect_right(hit_positions, k) for k in cutoffs]

    precision_sum = plain_sum(hits / position for hits, position in enumerate(hit_positions, start=1))
    row = {"MAP": precision_sum / relevant if relevant else 0.0}
    for k, hits in zip(cutoffs, hits_within):
        row[f"R@{k}"] = hits / relevant if relevant else 0.0
    for k, hits in zip(cutoffs, hits_within):
        row[f"P@{k}"] = hits / k
    row["nDCG"] = dcg / idcg if idcg else 0.0
    return row


def average_precision(ranking: Sequence[VideoId], judged: Sequence[JudgedVideo]) -> float:
    """Mean of precision at each relevant retrieved position, over all relevant."""
    return _question_row(ranking, judged, ())["MAP"]


def precision_at_k(ranking: Sequence[VideoId], judged: Sequence[JudgedVideo], k: int) -> float:
    return _question_row(ranking, judged, normalise_depths((k,), "k"))[f"P@{k}"]


def recall_at_k(ranking: Sequence[VideoId], judged: Sequence[JudgedVideo], k: int) -> float:
    return _question_row(ranking, judged, normalise_depths((k,), "k"))[f"R@{k}"]


def ndcg(ranking: Sequence[VideoId], judged: Sequence[JudgedVideo]) -> float:
    """Linear-gain nDCG over the full ranking, ideal over all judged documents."""
    return _question_row(ranking, judged, ())["nDCG"]


@dataclass
class RetrievalScore:
    """Per-question metric rows plus macro averages, with the cutoffs used."""

    ks: tuple[int, ...]
    per_question: dict[QuestionId, dict[str, float]]
    macro: dict[str, float]


def evaluate_rankings(
    rankings: Mapping[QuestionId, Iterable[VideoId]],
    qrels: Mapping[QuestionId, Sequence[JudgedVideo]],
    ks: Sequence[int] = (5, 10),
) -> RetrievalScore:
    """Macro-average the metrics of ranked video lists over every judged question.

    Questions missing from ``rankings`` score 0; ranked questions absent from
    the judgments are ignored with a warning.
    """
    cutoffs = normalise_depths(ks, "k")
    rankings = judged_questions(rankings, qrels)
    per_question = {qid: _question_row(rankings.get(qid, ()), qrels[qid], cutoffs) for qid in sorted(qrels)}
    count = len(per_question)
    keys = _question_row((), (), cutoffs)  # every row has these keys, in this order
    macro = {key: plain_sum(row[key] for row in per_question.values()) / count if count else 0.0 for key in keys}
    return RetrievalScore(cutoffs, per_question, macro)


def evaluate_retrieval(
    run: Mapping[QuestionId, Sequence[RetrievalRunEntry]],
    qrels: Mapping[QuestionId, Sequence[JudgedVideo]],
    ks: Sequence[int] = (5, 10),
) -> RetrievalScore:
    """:func:`evaluate_rankings` over a parsed run, each question in run order."""
    return evaluate_rankings({qid: [entry.video for entry in entries] for qid, entries in run.items()}, qrels, ks)


def retrieval_report(score: RetrievalScore) -> MetricReport:
    values: dict[str, object] = dict(score.macro)
    values["per_question"] = {qid: dict(row) for qid, row in score.per_question.items()}
    return MetricReport(
        name="retrieval",
        params={
            "k": list(score.ks),
            "binary_relevance_min_grade": 1,
            "ndcg_gain": "linear",
            "ndcg_depth": "full",
            "num_questions": len(score.per_question),
        },
        values=values,
    )
