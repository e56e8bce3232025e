"""Independent brute-force oracles, written straight from the metric definitions.

Nothing here imports the production metric code; every function is a naive
restatement of a definition so the test suite can check the optimized paths
against it.  The reference parsers at the end are the exception: they are the
line-by-line run parsers that the single-pass ones replaced, and they share
the per-field checks of ``medvideval.io_formats``.
"""

from __future__ import annotations

import math
from itertools import combinations


# --- interval overlap, by counting unit cells (exact for integer endpoints) --


def grid_cells(start: int, end: int) -> set[int]:
    return set(range(start, end))


def grid_iou(a: tuple[int, int], b: tuple[int, int]) -> float:
    cells_a = grid_cells(*a)
    cells_b = grid_cells(*b)
    union = cells_a | cells_b
    if not union:
        return 0.0
    return len(cells_a & cells_b) / len(union)


def grid_relaxed_iou(a: tuple[int, int], b: tuple[int, int], lam: int) -> float:
    extended_a = (max(0, a[0] - lam), a[1] + lam)
    extended_b = (max(0, b[0] - lam), b[1] + lam)
    return grid_iou(extended_a, extended_b)


# --- retrieval metrics -------------------------------------------------------


def ap_oracle(ranking: list[str], relevant: set[str]) -> float:
    if not relevant:
        return 0.0
    total = 0.0
    seen = 0
    for position, video in enumerate(ranking, start=1):
        if video in relevant:
            seen += 1
            total += seen / position
    return total / len(relevant)


def precision_oracle(ranking: list[str], relevant: set[str], k: int) -> float:
    return sum(1 for video in ranking[:k] if video in relevant) / k


def recall_oracle(ranking: list[str], relevant: set[str], k: int) -> float:
    if not relevant:
        return 0.0
    return sum(1 for video in ranking[:k] if video in relevant) / len(relevant)


def ndcg_oracle(ranking: list[str], grades: dict[str, int]) -> float:
    ideal = sorted(grades.values(), reverse=True)
    idcg = 0.0
    for position, grade in enumerate(ideal, start=1):
        if grade > 0:
            idcg += grade / math.log2(position + 1)
    if idcg == 0:
        return 0.0
    dcg = 0.0
    for position, video in enumerate(ranking, start=1):
        dcg += grades.get(video, 0) / math.log2(position + 1)
    return dcg / idcg


# --- localization ------------------------------------------------------------


def question_iou_oracle(
    candidates: list[tuple[str, tuple[int, int]]],
    judged: dict[str, tuple[int, list[tuple[int, int]]]],
    n: int,
    lam: int = 0,
) -> float:
    """Best gated IoU among the first n (video, interval) candidates."""
    best = 0.0
    for video, interval in candidates[:n]:
        if video not in judged:
            continue
        grade, answers = judged[video]
        if grade < 1:
            continue
        for answer in answers:
            best = max(best, grid_relaxed_iou(interval, answer, lam))
    return best


def mean_iou_oracle(run, qrels, n, lam=0) -> float:
    if not qrels:
        return 0.0
    total = sum(question_iou_oracle(run.get(qid, []), qrels[qid], n, lam) for qid in sorted(qrels))
    return total / len(qrels)


def recall_at_n_iou_oracle(run, qrels, n, mu, lam=0) -> float:
    if not qrels:
        return 0.0
    hits = sum(
        1 for qid in sorted(qrels) if question_iou_oracle(run.get(qid, []), qrels[qid], n, lam) >= mu
    )
    return 100.0 * hits / len(qrels)


# --- text metrics ------------------------------------------------------------


def lcs_oracle(a: list[str], b: list[str]) -> int:
    """Enumerate every subsequence of the shorter side; keep the longest that
    is also a subsequence of the other side."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)

    def is_subsequence(needle: list[str], haystack: list[str]) -> bool:
        it = iter(haystack)
        return all(token in it for token in needle)

    best = 0
    for size in range(len(short), 0, -1):
        for picks in combinations(range(len(short)), size):
            candidate = [short[i] for i in picks]
            if is_subsequence(candidate, long_):
                best = size
                break
        if best:
            break
    return best


def rouge_l_oracle(pred: list[str], ref: list[str]) -> tuple[float, float, float]:
    if not pred or not ref:
        return 0.0, 0.0, 0.0
    lcs = lcs_oracle(pred, ref)
    p = lcs / len(pred)
    r = lcs / len(ref)
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def bleu_oracle(pairs: list[tuple[list[str], list[str]]], n: int) -> float:
    """Corpus BLEU from raw k-gram lists and list.count clipping."""
    pred_len = sum(len(pred) for pred, _ in pairs)
    ref_len = sum(len(ref) for _, ref in pairs)
    if pred_len == 0:
        return 0.0
    precisions = []
    for order in range(1, n + 1):
        matched = 0
        total = 0
        for pred, ref in pairs:
            pred_grams = [tuple(pred[i : i + order]) for i in range(len(pred) - order + 1)]
            ref_grams = [tuple(ref[i : i + order]) for i in range(len(ref) - order + 1)]
            total += len(pred_grams)
            for gram in set(pred_grams):
                matched += min(pred_grams.count(gram), ref_grams.count(gram))
        if total == 0 or matched == 0:
            return 0.0
        precisions.append(matched / total)
    geometric = math.exp(sum(math.log(p) for p in precisions) / n)
    brevity = math.exp(min(0.0, 1.0 - ref_len / pred_len))
    return brevity * geometric


def meteor_alignment_oracle(pred: list[str], ref: list[str]) -> tuple[int, int]:
    """Exhaustive search over one-to-one exact alignments of maximum size,
    returning (matches, fewest chunks)."""
    from collections import Counter

    max_matches = sum((Counter(pred) & Counter(ref)).values())
    if max_matches == 0:
        return 0, 0

    best_chunks = [max_matches + 1]

    def chunks_of(pairs: list[tuple[int, int]]) -> int:
        count = 0
        previous = None
        for i, j in pairs:  # pairs are built in increasing pred order
            if previous is None or previous != (i - 1, j - 1):
                count += 1
            previous = (i, j)
        return count

    def extend(i: int, used: frozenset[int], pairs: list[tuple[int, int]]) -> None:
        if len(pairs) + (len(pred) - i) < max_matches:
            return  # cannot reach a maximum alignment any more
        if i == len(pred):
            if len(pairs) == max_matches:
                best_chunks[0] = min(best_chunks[0], chunks_of(pairs))
            return
        for j, token in enumerate(ref):
            if token == pred[i] and j not in used:
                extend(i + 1, used | {j}, pairs + [(i, j)])
        extend(i + 1, used, pairs)

    extend(0, frozenset(), [])
    return max_matches, best_chunks[0]


def meteor_oracle(pred: list[str], ref: list[str]) -> float:
    if not pred or not ref:
        return 0.0
    matches, chunks = meteor_alignment_oracle(pred, ref)
    if matches == 0:
        return 0.0
    precision = matches / len(pred)
    recall = matches / len(ref)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1 - penalty)


# --- step alignment ----------------------------------------------------------


def align_oracle(scores: list[list[float]], gold_count: int, theta: float):
    """Line-by-line simulation of the greedy monotonic alignment."""
    tp = 0
    fp = 0
    pairs = []
    g_index = 0
    for i, row in enumerate(scores):
        best_score = -1.0
        best_g = -1
        for g in range(g_index, gold_count):
            score = row[g]
            if score > best_score and score >= theta:
                best_score = score
                best_g = g
        if best_g != -1:
            tp += 1
            pairs.append((i, best_g))
            g_index = best_g + 1
        else:
            fp += 1
    fn = gold_count - tp
    return tp, fp, fn, pairs


# --- BM25 ---------------------------------------------------------------------


def bm25_rank_oracle(
    corpus_tokens: dict[str, list[str]],
    query_tokens: list[str],
    k: int,
    k1: float,
    b: float,
) -> list[tuple[str, float]]:
    """Score every document from the definition, sort, filter, cut."""
    n_docs = len(corpus_tokens)
    lengths = {video: len(tokens) for video, tokens in corpus_tokens.items()}
    average = sum(lengths.values()) / n_docs if n_docs else 0.0

    def doc_frequency(term: str) -> int:
        return sum(1 for tokens in corpus_tokens.values() if term in tokens)

    scored = []
    for video, tokens in corpus_tokens.items():
        score = 0.0
        for term in query_tokens:
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = doc_frequency(term)
            weight = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            relative = lengths[video] / average if average else 0.0
            score += weight * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * relative))
        scored.append((video, score))
    ranked = sorted(scored, key=lambda item: (-item[1], item[0]))
    return [(video, score) for video, score in ranked if score > 0.0][:k]


# --- run parsers ----------------------------------------------------------------
# Line by line, one record and every duplicate check per line.  The package is
# imported inside each parser, so that this module loads without it on the path.


def _reference_lines(text: str):
    return enumerate(text.split("\n"), start=1)


def reference_parse_retrieval_run(text: str, source: str = "<run>"):
    from medvideval.core import FormatError
    from medvideval.io_formats import RetrievalRunEntry, _parse_int, _parse_score

    by_question: dict = {}
    seen_videos: set = set()
    seen_ranks: set = set()
    for lineno, line in _reference_lines(text):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 6:
            raise FormatError(
                f"expected 6 fields (qid Q0 video rank score tag), got {len(fields)}", source=source, line=lineno
            )
        qid, _, video, rank_token, score_token, tag = fields
        rank = _parse_int(rank_token, "rank", source, lineno)
        score = _parse_score(score_token, source, lineno)
        if (qid, video) in seen_videos:
            raise FormatError(f"duplicate video {video!r} for question {qid!r}", source=source, line=lineno)
        if (qid, rank) in seen_ranks:
            raise FormatError(f"duplicate rank {rank} for question {qid!r}", source=source, line=lineno)
        seen_videos.add((qid, video))
        seen_ranks.add((qid, rank))
        by_question.setdefault(qid, []).append(RetrievalRunEntry(qid, video, rank, score, tag))
    for entries in by_question.values():
        entries.sort(key=lambda e: (-e.score, e.rank))
    return by_question


def reference_parse_localization_run(text: str, source: str = "<localization-run>"):
    from medvideval.core import FormatError, TimeInterval
    from medvideval.io_formats import (
        LocalizationCandidate,
        _json_value,
        _number_field,
        _str_field,
        _timestamp_field,
    )

    staged: dict = {}
    for lineno, line in _reference_lines(text):
        stripped = line.strip()
        if not stripped:
            continue
        obj = _json_value(stripped, "JSON record", source, lineno)
        if not isinstance(obj, dict):
            raise FormatError("expected a JSON object", source=source, line=lineno)
        qid = _str_field(obj, "question", source, lineno)
        video = _str_field(obj, "video", source, lineno)
        start = _timestamp_field(obj, "start", source, lineno)
        end = _timestamp_field(obj, "end", source, lineno)
        try:
            interval = TimeInterval(start, end)
        except ValueError as exc:
            raise FormatError(str(exc), source=source, line=lineno) from None
        score = _number_field(obj, "score", source, lineno)
        rank = None
        if "rank" in obj:
            raw = obj["rank"]
            if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
                raise FormatError(f"rank must be a positive integer, got {raw!r}", source=source, line=lineno)
            rank = raw
        staged.setdefault(qid, []).append((lineno, video, interval, score, rank))

    result: dict = {}
    for qid, rows in staged.items():
        ranks = {row[4] for row in rows}
        if None in ranks:
            if len(ranks) > 1:
                first_break = next(row[0] for row in rows if (row[4] is None) != (rows[0][4] is None))
                raise FormatError(
                    f"question {qid!r} mixes records with and without ranks", source=source, line=first_break
                )
            rows.sort(key=lambda row: -row[3])  # stable, so file order breaks score ties
            candidates = [
                LocalizationCandidate(qid, video, interval, score, rank)
                for rank, (_, video, interval, score, _) in enumerate(rows, start=1)
            ]
        else:
            if len(ranks) != len(rows):
                first_repeat = next(row[0] for k, row in enumerate(rows) if row[4] in {r[4] for r in rows[:k]})
                raise FormatError(f"duplicate rank for question {qid!r}", source=source, line=first_repeat)
            candidates = [LocalizationCandidate(qid, *row[1:]) for row in rows]
            candidates.sort(key=lambda c: (-c.score, c.rank))
        result[qid] = candidates
    return result
