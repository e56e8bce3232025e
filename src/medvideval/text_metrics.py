"""From-scratch caption similarity metrics: tokenization, BLEU-n, ROUGE-L, METEOR.

One tokenizer is shared by every metric (and by the BM25 index) so that
scores stay comparable; ``token_counts`` is a view of it that counts its
tokens.  BLEU is corpus-level with no smoothing; METEOR uses exact-match
alignment only (no stemming or synonymy).  Both choices are surfaced in
report metadata by the callers.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Sequence

from .core import CheckedRecord, plain_sum

_PUNCT = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"  # string.punctuation, without importing string


class CaptionPair(CheckedRecord, namedtuple("CaptionPair", "predicted reference")):
    """A predicted caption and the reference it is scored against."""

    __slots__ = ()

    def __new__(cls, predicted: str, reference: str) -> CaptionPair:
        if not predicted.strip() or not reference.strip():
            raise ValueError("caption pair sides must be non-empty")
        return tuple.__new__(cls, (predicted, reference))


class PRF(namedtuple("PRF", "precision recall f")):
    """Precision / recall / F-score triple."""

    __slots__ = ()


def prf(tp: float, predicted: float, actual: float) -> PRF:
    """PRF from hit and population counts, with 0 for every 0/0 form."""
    p = tp / predicted if predicted else 0.0
    r = tp / actual if actual else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return PRF(p, r, f)


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokens with leading/trailing ASCII punctuation stripped.

    Tokens split at every ``str.isspace()`` character, as the flat formats'
    fields do, so U+00A0 and U+3000 separate tokens too.  Only ASCII
    punctuation is stripped from each token's ends: curly quotes stay.
    Internal punctuation is kept, so timestamps like ``02:30`` survive intact.
    """
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(_PUNCT)
        if token:
            tokens.append(token)
    return tokens


def token_counts(text: str) -> Counter:
    """``Counter(tokenize(text))``, stripping punctuation once per distinct word rather than once per word."""
    counts = Counter(text.lower().split())
    for raw in list(counts):
        token = raw.strip(_PUNCT)
        if token != raw:
            count = counts.pop(raw)
            if token:
                counts[token] = counts.get(token, 0) + count
    return counts


def token_masks(tokens: Sequence[str]) -> dict[str, int]:
    """Bitmask of the positions of each token: bit j is set when ``tokens[j]`` is that token."""
    masks: dict[str, int] = {}
    for j, token in enumerate(tokens):
        masks[token] = masks.get(token, 0) | 1 << j
    return masks


def lcs_length(a: Sequence[str], b: Sequence[str], b_masks: dict[str, int] | None = None) -> int:
    """Length of the longest common subsequence, bit-parallel over ``b``.

    Hyyrö's (2004) form of the bit-vector LCS of Allison & Dix (1986): one
    and/add/or/subtract per token of ``a`` on a ``len(b)``-bit int, whose
    zero bits count the LCS.  ``b_masks`` is ``token_masks(b)``, passed by
    callers that score one ``b`` against many ``a``.
    """
    if b_masks is None:
        b_masks = token_masks(b)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        mask = b_masks.get(token)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l_tokens(pred: Sequence[str], ref: Sequence[str], ref_masks: dict[str, int] | None = None) -> PRF:
    """LCS-based precision, recall, and F of two token lists (0 when either is empty).

    ``ref_masks`` is ``token_masks(ref)``, for callers that score one reference many times.
    """
    return prf(lcs_length(pred, ref, ref_masks), len(pred), len(ref))


def rouge_l(pair: CaptionPair) -> PRF:
    """ROUGE-L over the shared tokenization of a caption pair."""
    return rouge_l_tokens(tokenize(pair.predicted), tokenize(pair.reference))


def _repeated_clipped_matches(pred_grams: list, ref_grams: list, shared: set) -> int:
    """Clipped matches of two gram lists that each repeat a gram: each shared gram counts its fewer occurrences."""
    pred_counts = Counter(pred_grams)
    ref_counts = Counter(ref_grams)
    return sum(min(pred_counts[gram], ref_counts[gram]) for gram in shared)


def bleu_scores_tokens(pairs: Sequence[tuple[Sequence[str], Sequence[str]]], orders: Sequence[int]) -> dict[int, float]:
    """Corpus-level BLEU of (pred tokens, ref tokens) pairs for each order in ``orders``, from one counting pass.

    Uniform weights up to each order and no smoothing.  Modified (clipped)
    k-gram precisions are pooled across all pairs, counted once up to the
    largest order; the brevity penalty is exp(min(0, 1 - ref_len/pred_len)).
    A corpus precision of zero, or with no candidate k-grams, annihilates
    the geometric mean.

    A pair's clipped matches of one order are its shared k-grams, from the
    intersection of the two sides' sets, unless both sides repeat a k-gram;
    only then are occurrences counted.
    """
    for n in orders:
        if not 1 <= n <= 4:
            raise ValueError(f"BLEU order must be 1..4, got {n}")
    if not pairs:
        raise ValueError("at least one caption pair is required")
    top = max(orders)
    matched = [0] * top
    candidates = [0] * top
    pred_len = 0
    ref_len = 0
    for pred, ref in pairs:
        pred_len += len(pred)
        ref_len += len(ref)
        for order in range(1, min(top, len(pred)) + 1):
            candidates[order - 1] += len(pred) - order + 1
        pred_grams, ref_grams = pred, ref
        for order in range(1, top + 1):
            if order > 1:  # each k-gram is a (k-1)-gram paired with the token after it
                pred_grams = list(zip(pred_grams, pred[order - 1 :]))
                ref_grams = list(zip(ref_grams, ref[order - 1 :]))
            pred_set = set(pred_grams)
            shared = pred_set.intersection(ref_grams)
            if not shared:  # a shared longer gram would start with a shared shorter one
                break
            if len(pred_set) < len(pred_grams) and len(set(ref_grams)) < len(ref_grams):
                matched[order - 1] += _repeated_clipped_matches(pred_grams, ref_grams, shared)
            else:  # one side holds each gram once, so each shared gram clips to one match
                matched[order - 1] += len(shared)
    scores = {}
    for n in orders:
        pooled = list(zip(matched[:n], candidates[:n]))
        if any(c == 0 or m == 0 for m, c in pooled):
            scores[n] = 0.0
        else:
            log_precision = plain_sum(math.log(m / c) for m, c in pooled) / n
            scores[n] = math.exp(min(0.0, 1.0 - ref_len / pred_len)) * math.exp(log_precision)
    return scores


def bleu_n(pairs: Sequence[CaptionPair], n: int) -> float:
    """Corpus-level BLEU of caption pairs with uniform weights up to order ``n``; see ``bleu_scores_tokens``."""
    return bleu_scores_tokens([(tokenize(pair.predicted), tokenize(pair.reference)) for pair in pairs], (n,))[n]


# The nodes that METEOR's search pops before it settles for the best alignment
# found so far.  No caption pair of at most eight tokens needs more than 7,659;
# the worst are over two distinct tokens.
METEOR_NODE_BUDGET = 20_000


def _exact_alignment(pred: Sequence[str], ref: Sequence[str], fallbacks: list | None = None) -> tuple[int, int]:
    """(matches, chunks) of the best one-to-one exact-token alignment, by depth-first search.

    Maximizes the number of matched tokens, then minimizes the number of
    chunks (maximal runs that are contiguous in both sides).  Branch-and-bound
    pruning; caption-sized inputs resolve immediately because chunk
    continuation is tried first, and a pair whose shared tokens never repeat
    is one descent.  Minimizing the chunks is NP-hard (it is minimum common
    string partition), so once the search has popped ``METEOR_NODE_BUDGET``
    nodes and reached a leaf, it stops with the fewest chunks of any leaf so
    far, and appends the pair to ``fallbacks`` when that is given.  Every leaf
    meets every quota, so the matches are still the most possible; only the
    chunks may be too many.
    """
    mask = token_masks(ref)
    # later[i]: occurrences of pred[i] after position i, counted only for
    # tokens of ref (the others are never matched, so their later[i] is 0).
    later = [0] * len(pred)
    count: dict[str, int] = {}
    for i in range(len(pred) - 1, -1, -1):
        token = pred[i]
        if token in mask:
            later[i] = count.get(token, 0)
            count[token] = later[i] + 1
    # Every maximum alignment matches token t exactly quota[t] times.
    quota = {token: min(n, mask[token].bit_count()) for token, n in count.items()}
    max_matches = sum(quota.values())
    best = max_matches + 1  # any alignment has at most one chunk per match
    # Entry: (pred position, bitmask of used ref positions, ref position that
    # would continue the current chunk, chunks so far, siblings).  An entry
    # with no siblings is a node; len(ref) is never free.  Otherwise it is a
    # cursor over the nodes that start a new chunk at each sibling position:
    # a pop expands the lowest and pushes the rest back, so nodes pop in
    # ascending position and each pop pushes at most four entries.  Each
    # expanded node counts as one pop, pruned or not.
    stack = [(0, 0, len(ref), 0, 0)]
    popped = 0
    while stack:
        i, used, cont, chunks, siblings = stack.pop()
        if siblings:
            low = siblings & -siblings
            if siblings != low:
                stack.append((i, used, cont, chunks, siblings ^ low))
            used |= low
            cont = low.bit_length()
        popped += 1
        if popped > METEOR_NODE_BUDGET and best <= max_matches:  # past the budget, with a leaf reached
            if fallbacks is not None:
                fallbacks.append((pred, ref))
            break
        if chunks >= best:
            continue
        if i == len(pred):
            best = chunks
            continue
        token = pred[i]
        need = quota.get(token, 0) - (used & mask.get(token, 0)).bit_count()
        if need <= later[i]:  # the quota can still be met after skipping
            stack.append((i + 1, used, len(ref), chunks, 0))
        if need > 0:
            free = mask[token] & ~used
            others = free & ~(1 << cont)
            if others:
                stack.append((i + 1, used, 0, chunks + 1, others))
            if free >> cont & 1:
                stack.append((i + 1, used | 1 << cont, cont + 1, chunks, 0))
    return max_matches, best


def meteor(pair: CaptionPair) -> float:
    """Exact-match METEOR of a caption pair; see ``meteor_tokens``."""
    return meteor_tokens(tokenize(pair.predicted), tokenize(pair.reference))


def meteor_tokens(pred: Sequence[str], ref: Sequence[str], fallbacks: list | None = None) -> float:
    """Exact-match METEOR of two token lists: harmonic mean weighted toward recall, chunk penalty.

    F_mean = 10PR / (R + 9P), penalty = 0.5 (chunks/matches)^3, and the score
    is F_mean (1 - penalty); 0 when nothing matches.  A pair whose alignment
    search stops at its node budget is appended to ``fallbacks``, when given.
    """
    matches, chunks = _exact_alignment(pred, ref, fallbacks)
    if matches == 0:
        return 0.0
    precision = matches / len(pred)
    recall = matches / len(ref)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)
