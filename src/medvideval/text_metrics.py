"""From-scratch caption similarity metrics: tokenization, BLEU-n, ROUGE-L, METEOR.

One tokenizer is shared by every metric (and by the BM25 index) so that
scores stay comparable.  BLEU is corpus-level with no smoothing; METEOR uses
exact-match alignment only (no stemming or synonymy).  Both choices are
surfaced in report metadata by the callers.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import plain_sum

_PUNCT = string.punctuation


@dataclass(frozen=True)
class CaptionPair:
    """A predicted caption and the reference it is scored against."""

    predicted: str
    reference: str

    def __post_init__(self) -> None:
        if not self.predicted.strip() or not self.reference.strip():
            raise ValueError("caption pair sides must be non-empty")


@dataclass(frozen=True)
class PRF:
    """Precision / recall / F-score triple."""

    precision: float
    recall: float
    f: float


def prf(tp: float, predicted: float, actual: float) -> PRF:
    """PRF from hit and population counts, with 0 for every 0/0 form."""
    p = tp / predicted if predicted else 0.0
    r = tp / actual if actual else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return PRF(p, r, f)


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokens with leading/trailing ASCII punctuation stripped.

    Internal punctuation is kept, so timestamps like ``02:30`` survive intact.
    """
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(_PUNCT)
        if token:
            tokens.append(token)
    return tokens


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence (two-row dynamic program)."""
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def rouge_l_tokens(pred: Sequence[str], ref: Sequence[str]) -> PRF:
    """LCS-based precision, recall, and F of two token lists (0 when either is empty)."""
    return prf(lcs_length(pred, ref), len(pred), len(ref))


def rouge_l(pair: CaptionPair) -> PRF:
    """ROUGE-L over the shared tokenization of a caption pair."""
    return rouge_l_tokens(tokenize(pair.predicted), tokenize(pair.reference))


def _ngram_counts(tokens: Sequence[str], order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def bleu_n(pairs: Sequence[CaptionPair], n: int) -> float:
    """Corpus-level BLEU with uniform weights up to order ``n`` and no smoothing.

    Modified (clipped) k-gram precisions are pooled across all pairs; the
    brevity penalty is exp(min(0, 1 - ref_len/pred_len)).  A corpus precision
    of zero, or with no candidate k-grams, annihilates the geometric mean.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"BLEU order must be 1..4, got {n}")
    if not pairs:
        raise ValueError("at least one caption pair is required")
    matched = [0] * n
    candidates = [0] * n
    pred_len = 0
    ref_len = 0
    for pair in pairs:
        pred = tokenize(pair.predicted)
        ref = tokenize(pair.reference)
        pred_len += len(pred)
        ref_len += len(ref)
        for order in range(1, n + 1):
            pred_grams = _ngram_counts(pred, order)
            ref_grams = _ngram_counts(ref, order)
            candidates[order - 1] += sum(pred_grams.values())
            matched[order - 1] += sum(min(count, ref_grams[gram]) for gram, count in pred_grams.items())
    if any(c == 0 or m == 0 for m, c in zip(matched, candidates)):
        return 0.0
    log_precision = plain_sum(math.log(m / c) for m, c in zip(matched, candidates)) / n
    brevity = math.exp(min(0.0, 1.0 - ref_len / pred_len))
    return brevity * math.exp(log_precision)


def _exact_alignment(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """(matches, chunks) of the best one-to-one exact-token alignment.

    Maximizes the number of matched tokens, then minimizes the number of
    chunks (maximal runs that are contiguous in both sides).  Exhaustive
    depth-first search with branch-and-bound pruning; caption-sized inputs
    resolve immediately because chunk continuation is tried first.
    """
    # Every maximum alignment matches token t exactly quota[t] times.
    quota = Counter(pred) & Counter(ref)
    max_matches = sum(quota.values())
    if max_matches == 0:
        return 0, 0
    mask: dict[str, int] = {}
    for j, token in enumerate(ref):
        mask[token] = mask.get(token, 0) | 1 << j
    later = [0] * len(pred)  # occurrences of pred[i] after position i
    seen: Counter = Counter()
    for i in range(len(pred) - 1, -1, -1):
        later[i] = seen[pred[i]]
        seen[pred[i]] += 1
    best = max_matches + 1  # any alignment has at most one chunk per match
    # Node: (pred position, bitmask of used ref positions, ref position that
    # would continue the current chunk, chunks so far).  len(ref) is never free.
    stack = [(0, 0, len(ref), 0)]
    while stack:
        i, used, cont, chunks = stack.pop()
        if chunks >= best:
            continue
        if i == len(pred):
            best = chunks
            continue
        token = pred[i]
        need = quota[token] - (used & mask.get(token, 0)).bit_count()
        if need <= later[i]:  # the quota can still be met after skipping
            stack.append((i + 1, used, len(ref), chunks))
        if need > 0:
            free = mask[token] & ~used
            others = free & ~(1 << cont)
            while others:  # highest first, so the lowest position pops first
                j = others.bit_length() - 1
                others ^= 1 << j
                stack.append((i + 1, used | 1 << j, j + 1, chunks + 1))
            if free >> cont & 1:
                stack.append((i + 1, used | 1 << cont, cont + 1, chunks))
    return max_matches, best


def meteor(pair: CaptionPair) -> float:
    """Exact-match METEOR: harmonic mean weighted toward recall, chunk penalty.

    F_mean = 10PR / (R + 9P), penalty = 0.5 (chunks/matches)^3, and the score
    is F_mean (1 - penalty); 0 when nothing matches.
    """
    pred = tokenize(pair.predicted)
    ref = tokenize(pair.reference)
    matches, chunks = _exact_alignment(pred, ref)
    if matches == 0:
        return 0.0
    precision = matches / len(pred)
    recall = matches / len(ref)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)
