"""Traced in-process replay of one ``medvideval`` invocation.

Usage: ``python3 perfbench/replay.py <medvideval arguments>`` with ``src``
on ``PYTHONPATH``.

Each op gets a fresh interpreter, so the replay holds only what the CLI
handler holds.  The replay has two phases:

1. The handler runs through ``cli.run_cli`` exactly as the command line runs
   it.  Every layer function the CLI calls directly is wrapped in a span.
   These calls happen a few times per op, so the spans cost little, and their
   sum plus interpreter start-up should match the op's untraced wall time.
2. With the spans removed, a probe for the subcommand times the inner calls
   that run too often to wrap (per-query search, per-pair text metrics) and
   counts work (alignment cells scored, pool draws).

The last line of stdout is one JSON object: exit code, spans and probe values.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import random
import sys
import time
import warnings

import medvideval.cli as cli
from medvideval import bm25, io_formats, pooling, segment_metrics, step_alignment, text_metrics

# Layer functions the CLI reaches through helpers rather than by name.
EXTRA_ENTRY_POINTS = (
    (cli, "_emit"),
    (cli, "_ranking_from_candidates"),
    (step_alignment, "matched_caption_pairs"),
)

# Degenerate, repetitive caption pairs of 12-14 tokens over a 3-word
# vocabulary: the inputs on which exact METEOR alignment search is
# exponential.  Fixed, independent of the workload seed, so runs compare.
HOSTILE_PAIRS = 8


class Tracer:
    """Spans kept in memory: name, start, end, and ``parent``, the index of
    the enclosing span in this op's list (``None`` at the top level)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["start"], span["end"] = start, time.perf_counter()
                self._open.pop()
            if args and isinstance(args[0], str):
                span["in_lines"] = args[0].count("\n")
            if isinstance(result, str):
                span["out_lines"] = result.count("\n")
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function the CLI module names, plus the extra
        entry points, at every module-level binding in the package."""
        targets = {
            value
            for value in vars(cli).values()
            if inspect.isfunction(value)
            and value.__module__.startswith("medvideval.")
            and value.__module__ != cli.__name__
            and not value.__name__.startswith("_")
        }
        targets.update(
            value for module, name in EXTRA_ENTRY_POINTS if inspect.isfunction(value := getattr(module, name, None))
        )
        wrappers = {
            fn: self._wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn) for fn in targets
        }
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("medvideval"):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _qrels(paths):
    grades = io_formats.read_text(paths[0])
    answers = io_formats.read_text(paths[1]) if len(paths) > 1 else None
    return io_formats.parse_qrels(grades, answers)


def _steps(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pred = io_formats.parse_steps(io_formats.read_text(args.pred))
        gold = io_formats.parse_steps(io_formats.read_text(args.gold))
    return pred, gold


def _alignment_params(args, lam):
    return step_alignment.AlignmentParams(theta=args.theta, alpha=args.alpha, beta=args.beta, lam=lam)


def probe_index(args) -> dict:
    corpus = io_formats.parse_corpus(io_formats.read_text(args.corpus))
    texts = [doc.subtitle if args.no_title else f"{doc.title} {doc.subtitle}" for doc in corpus]
    tokens, seconds = _timed(lambda: sum(len(text_metrics.tokenize(text)) for text in texts))
    return {"tokenize_s": seconds, "tokens": tokens}


def probe_search(args) -> dict:
    index = bm25.load_index(args.index_dir)
    queries = io_formats.parse_queries(io_formats.read_text(args.queries))
    params = bm25.Bm25Params(k1=args.k1, b=args.b)
    per_query = [_timed(bm25.search, index, text, args.k[0], params)[1] for text in queries.values()]
    return {"query_s": per_query}


def probe_localization(args) -> dict:
    run = io_formats.parse_localization_run(io_formats.read_text(args.run))
    qrels = _qrels(args.qrels)
    params = segment_metrics.IoUParams(tuple(args.n), tuple(args.mu), args.lam)
    kwargs = {"threads": 1} if "threads" in inspect.signature(segment_metrics.evaluate_localization).parameters else {}
    _, seconds = _timed(segment_metrics.evaluate_localization, run, qrels, params, **kwargs)
    return {"evaluate_localization_1thread_s": seconds}


def probe_pool(args) -> dict:
    runs = [io_formats.parse_retrieval_run(io_formats.read_text(path)) for path in args.run]
    draw = pooling.inclusion_draw
    draws = 0

    def counting_draw(*draw_args):
        nonlocal draws
        draws += 1
        return draw(*draw_args)

    pooling.inclusion_draw = counting_draw
    try:
        pooling.build_pool(runs, pooling.PoolSpec(seed=args.seed))
    finally:
        pooling.inclusion_draw = draw
    return {"draws": draws}


def probe_steps(args) -> dict:
    pred, gold = _steps(args)
    params = _alignment_params(args, args.lam)
    cells = 0

    def counting_score(p_step, g_step):
        nonlocal cells
        cells += 1
        return step_alignment.alignment_score(p_step, g_step, params)

    tp = 0
    for segment_id in sorted(gold):
        empty = io_formats.StepSequence(segment_id, [])
        tp += step_alignment.align_steps(pred.get(segment_id, empty), gold[segment_id], params, score_fn=counting_score).tp
    captions = [step.caption for seqs in (pred, gold) for seq in seqs.values() for step in seq.steps]
    _, tokenize_s = _timed(lambda: [text_metrics.tokenize(caption) for caption in captions])
    return {"cells_scored": cells, "tp": tp, "tokenize_s": tokenize_s}


def hostile_pairs() -> list[text_metrics.CaptionPair]:
    rng = random.Random("meteor-hostile")
    pairs = []
    for _ in range(HOSTILE_PAIRS):
        sides = [" ".join(rng.choice("abc") for _ in range(rng.randint(12, 14))) for _ in range(2)]
        pairs.append(text_metrics.CaptionPair(*sides))
    return pairs


def probe_captions(args) -> dict:
    pred, gold = _steps(args)
    pairs = step_alignment.matched_caption_pairs(pred, gold, _alignment_params(args, 3.0))
    _, rouge_s = _timed(lambda: [text_metrics.rouge_l(pair) for pair in pairs])
    meteor_s = [_timed(text_metrics.meteor, pair)[1] for pair in pairs]
    _, bleu_s = _timed(lambda: [text_metrics.bleu_n(pairs, order) for order in (2, 3)])
    hostile_s = sum(_timed(text_metrics.meteor, pair)[1] for pair in hostile_pairs())
    return {
        "rouge_l_s": rouge_s,
        "meteor_s": sum(meteor_s),
        "meteor_max_pair_s": max(meteor_s),
        "bleu_n_s": bleu_s,
        "meteor_hostile_s": hostile_s,
    }


PROBES = {
    "index": probe_index,
    "search": probe_search,
    "eval-localization": probe_localization,
    "pool": probe_pool,
    "eval-steps": probe_steps,
    "eval-captions": probe_captions,
}


def main() -> int:
    argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run_cli(argv)
    finally:
        tracer.uninstall()
    gc.collect()
    probe = PROBES.get(argv[0])
    values = probe(cli.build_parser().parse_args(argv)) if probe and code == 0 else {}
    print(json.dumps({"exit": code, "spans": tracer.spans, "probe": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
