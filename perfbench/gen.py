"""Seeded synthetic inputs for the three benchmark workloads.

Everything here depends on the seed alone: the same seed writes the same
bytes.  Token draws use ``random.choices`` with cumulative weights computed
once per distribution; passing plain ``weights`` re-accumulates them on every
call, which made a track-sized corpus take tens of seconds to generate.

Each ``make_*`` function writes its files into a directory and returns a
``Truth`` with what the benchmark needs to check the program's outputs
(rankings, grades, token lists) and the line count of every input file.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Sizes are scaled so that one pass of every workload takes a few seconds on
# a 2-core machine; the shapes (Zipf vocabularies, judged depth, run depth,
# steps per segment) follow the track.
BM25_DOCS = 2000
BM25_DOC_TOKENS = 300
BM25_TITLE_TOKENS = 6
BM25_VOCAB = 30000
BM25_QUERIES = 60
BM25_QUERY_TOKENS = (4, 10)
BM25_K = 1000

TRACK_QUESTIONS = 100
TRACK_UNJUDGED = 50
TRACK_JUDGED_PER_QUESTION = 40
TRACK_VIDEOS = 5000
TRACK_SUBMISSIONS = 4
TRACK_RUN_DEPTH = 300
TRACK_CANDIDATES = 100

STEP_SEGMENTS = 120
STEP_GOLD_STEPS = 15
STEP_VOCAB = 2000
STEP_CAPTION_WORDS = (3, 7)
STEP_KEEP = 0.85
STEP_REPLACE = 0.30
STEP_LONG_CAPTIONS = 0.10

_SYLLABLES = [c + v for c in "bdfghklmnprstvz" for v in "aeiou"] + ["ra", "lo", "mi", "ne", "su"]


def word(index: int) -> str:
    """A distinct lowercase word for every non-negative index."""
    base = len(_SYLLABLES)
    parts = [_SYLLABLES[index % base]]
    index //= base
    while index:
        parts.append(_SYLLABLES[index % base])
        index //= base
    return "".join(parts)


def zipf_cum_weights(size: int) -> list[float]:
    """Cumulative Zipf(1) weights over ranks 1..size."""
    return list(itertools.accumulate(1.0 / rank for rank in range(1, size + 1)))


def stratified_choices(rng: random.Random, population: list[str], cum_weights: list[float], k: int) -> list[str]:
    """``k`` draws from the distribution, one from each of ``k`` equal slices
    of its cumulative weight, in random order.  Each draw still follows the
    distribution, but the batch's mix of common and rare items barely varies
    between seeds, and with it the work the batch causes."""
    total = cum_weights[-1]
    points = [(i + rng.random()) * total / k for i in range(k)]
    rng.shuffle(points)
    return [population[min(bisect.bisect(cum_weights, point), len(population) - 1)] for point in points]


@dataclass
class Truth:
    """What the generator knows about its inputs, for output checks."""

    lines: dict[str, int] = field(default_factory=dict)
    corpus_tokens: dict[str, list[str]] = field(default_factory=dict)
    queries: dict[str, list[str]] = field(default_factory=dict)
    rankings: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    candidates: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    grades: dict[str, dict[str, int]] = field(default_factory=dict)
    pred_steps: int = 0
    gold_steps: int = 0


def _write_lines(path: Path, lines: list[str], truth: Truth) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    truth.lines[path.name] = len(lines)


def _timestamp(seconds: int, as_text: bool) -> str | int:
    return f"{seconds // 60:02d}:{seconds % 60:02d}" if as_text else seconds


def make_bm25(directory: Path, seed: int) -> Truth:
    """Subtitle corpus plus a query batch, both Zipf(1) over one vocabulary."""
    rng = random.Random(f"bm25:{seed}")
    vocab = [word(i) for i in range(BM25_VOCAB)]
    cum = zipf_cum_weights(BM25_VOCAB)
    truth = Truth()
    records = []
    for d in range(BM25_DOCS):
        video = f"v{d:05d}"
        title = rng.choices(vocab, cum_weights=cum, k=BM25_TITLE_TOKENS)
        subtitle = rng.choices(vocab, cum_weights=cum, k=BM25_DOC_TOKENS)
        truth.corpus_tokens[video] = title + subtitle
        records.append(json.dumps({"video": video, "title": " ".join(title), "subtitle": " ".join(subtitle)}))
    _write_lines(directory / "corpus.jsonl", records, truth)
    low, high = BM25_QUERY_TOKENS
    lengths = [low + q % (high - low + 1) for q in range(BM25_QUERIES)]
    rng.shuffle(lengths)
    batch = stratified_choices(rng, vocab, cum, sum(lengths))
    lines = []
    for q, length in enumerate(lengths):
        qid = f"q{q:04d}"
        tokens, batch = batch[:length], batch[length:]
        truth.queries[qid] = tokens
        lines.append(f"{qid} {' '.join(tokens)}")
    _write_lines(directory / "queries.txt", lines, truth)
    return truth


def make_track(directory: Path, seed: int) -> Truth:
    """Graded judgments with answer intervals, and four submissions, each a
    retrieval run plus a localization run that also covers unjudged questions."""
    rng = random.Random(f"track:{seed}")
    videos = [f"vid{v:05d}" for v in range(TRACK_VIDEOS)]
    truth = Truth()
    judged_qids = [f"q{q:04d}" for q in range(TRACK_QUESTIONS)]
    answers: dict[str, dict[str, list[tuple[int, int]]]] = {}
    grade_lines, answer_lines = [], []
    for qid in judged_qids:
        grades = {}
        answers[qid] = {}
        for video in rng.sample(videos, TRACK_JUDGED_PER_QUESTION):
            grade = rng.choices((0, 1, 2), cum_weights=(2, 3, 4))[0]
            grades[video] = grade
            grade_lines.append(f"{qid} 0 {video} {grade}")
            if grade:
                spans = []
                for _ in range(rng.randint(1, 2)):
                    start = rng.randint(0, 540)
                    spans.append((start, start + rng.randint(5, 60)))
                answers[qid][video] = spans
                for start, end in spans:
                    as_text = rng.random() < 0.5
                    answer_lines.append(
                        json.dumps(
                            {"question": qid, "video": video,
                             "start": _timestamp(start, as_text), "end": _timestamp(end, as_text)}
                        )
                    )
        truth.grades[qid] = grades
    _write_lines(directory / "qrels.txt", grade_lines, truth)
    _write_lines(directory / "answers.jsonl", answer_lines, truth)

    all_qids = judged_qids + [f"x{q:04d}" for q in range(TRACK_UNJUDGED)]
    for s in range(TRACK_SUBMISSIONS):
        tag = f"sys{'ABCDEFGH'[s]}"
        quality = 0.5 + 0.5 * s
        run_lines = []
        truth.rankings[tag] = {}
        for qid in judged_qids:
            grades = truth.grades[qid]
            others = [v for v in rng.sample(videos, TRACK_RUN_DEPTH + len(grades)) if v not in grades]
            pool = list(grades) + others[: TRACK_RUN_DEPTH - len(grades)]
            scored = sorted(
                ((rng.gauss(quality * grades.get(v, 0), 1.0), v) for v in pool), reverse=True
            )
            truth.rankings[tag][qid] = [v for _, v in scored]
            for rank, (score, video) in enumerate(scored, start=1):
                run_lines.append(f"{qid} Q0 {video} {rank} {score:.6f} {tag}")
        _write_lines(directory / f"{tag}.run", run_lines, truth)

        loc_lines = []
        truth.candidates[tag] = {}
        for qid in all_qids:
            positives = list(answers.get(qid, {}))
            candidates = []
            for _ in range(TRACK_CANDIDATES):
                if positives and rng.random() < 0.3 * quality:
                    video = rng.choice(positives)
                    start, end = rng.choice(answers[qid][video])
                    start = max(0, start + rng.randint(-10, 10))
                    end = max(start + 1, end + rng.randint(-10, 10))
                else:
                    video = rng.choice(videos)
                    start = rng.randint(0, 540)
                    end = start + rng.randint(5, 60)
                candidates.append((rng.random(), video, start, end))
            candidates.sort(reverse=True)
            truth.candidates[tag][qid] = [video for _, video, _, _ in candidates]
            for rank, (score, video, start, end) in enumerate(candidates, start=1):
                as_text = rng.random() < 0.5
                loc_lines.append(
                    f'{{"question": "{qid}", "video": "{video}", '
                    f'"start": {json.dumps(_timestamp(start, as_text))}, '
                    f'"end": {json.dumps(_timestamp(end, as_text))}, "score": {score:.6f}, "rank": {rank}}}'
                )
        _write_lines(directory / f"{tag}.loc.jsonl", loc_lines, truth)
    return truth


def make_steps(directory: Path, seed: int) -> Truth:
    """Gold step captions within the 3-7 word guideline, and predictions that
    keep most gold steps with words replaced, boundaries jittered, and some
    captions past the guideline."""
    rng = random.Random(f"steps:{seed}")
    vocab = [word(i) for i in range(STEP_VOCAB)]
    cum = zipf_cum_weights(STEP_VOCAB)
    truth = Truth()
    gold_lines, pred_lines = [], []
    for g in range(STEP_SEGMENTS):
        segment = f"seg{g:05d}"
        clock = rng.randint(0, 30)
        gold, pred = [], []
        for _ in range(STEP_GOLD_STEPS):
            start = clock + rng.randint(0, 10)
            end = start + rng.randint(8, 40)
            clock = end
            caption = rng.choices(vocab, cum_weights=cum, k=rng.randint(*STEP_CAPTION_WORDS))
            gold.append({"caption": " ".join(caption), "start": _timestamp(start, True), "end": _timestamp(end, True)})
            if rng.random() >= STEP_KEEP:
                continue
            words = [
                rng.choices(vocab, cum_weights=cum)[0] if rng.random() < STEP_REPLACE else w for w in caption
            ]
            if rng.random() < STEP_LONG_CAPTIONS:
                words += rng.choices(vocab, cum_weights=cum, k=rng.randint(2, 4))
            p_start = max(0.0, start + rng.uniform(-4.0, 4.0))
            p_end = max(p_start + 1.0, end + rng.uniform(-4.0, 4.0))
            pred.append({"caption": " ".join(words), "start": round(p_start, 1), "end": round(p_end, 1)})
        truth.gold_steps += len(gold)
        truth.pred_steps += len(pred)
        gold_lines.append(json.dumps({"segment": segment, "steps": gold}))
        pred_lines.append(json.dumps({"segment": segment, "steps": pred}))
    _write_lines(directory / "gold.steps.jsonl", gold_lines, truth)
    _write_lines(directory / "pred.steps.jsonl", pred_lines, truth)
    return truth
