"""Single executable exposing evaluation, pooling, indexing, and search.

Exit codes: 0 success, 2 malformed input (the message names the file and
line), 1 internal error.  Reports embed their full effective parameterization
and are byte-identical for identical inputs, parameters, and seed.
"""

from __future__ import annotations

import argparse
import gc
import operator
import sys
import warnings
from collections.abc import Callable, Sequence
from functools import partial

from .bm25 import Bm25Params, _fork_join, build_index, load_index, run_from_searches, save_index
from .core import FormatError, ToolkitWarning
from .io_formats import (
    MetricReport,
    parse_corpus,
    parse_localization_run,
    parse_qrels,
    parse_queries,
    parse_retrieval_run,
    parse_steps,
    read_text,
    write_atomically,
    write_report,
    write_retrieval_run,
)
from .pooling import PoolSpec, build_pool, run_prefix, write_pool
from .retrieval_metrics import DEFAULT_K_VALUES, evaluate_rankings, evaluate_retrieval, retrieval_report
from .segment_metrics import (
    DEFAULT_MU_VALUES,
    DEFAULT_N_VALUES,
    IoUParams,
    evaluate_localization,
    judged_questions,
    localization_report,
    normalise_thresholds,
)
from .step_alignment import (
    AlignmentParams,
    captions_report,
    evaluate_captions,
    evaluate_steps,
    steps_report,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

# The least questions times documents worth a forked ``search`` worker: on 2
# vCPUs the command ran no faster with a worker up to 15 questions on 2,000
# documents (two workers of 15,000), and faster from 30.
_SEARCH_WORK_MIN = 15_000

# The library's defaults, which the flags and their help text repeat.
_ALIGNMENT = AlignmentParams()
_BM25 = Bm25Params()
_IOU = IoUParams()


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _path(text: str) -> str:
    """A path argument, never empty: ``--out ''`` would mean stdout and an empty input path names no file."""
    if not text:
        raise argparse.ArgumentTypeError(f"expected a path, got {text!r}")
    return text


def _number(text: str) -> float:
    """``float(text)``, with ``-0`` read as ``0.0`` so that equal values give equal reports."""
    return float(text) + 0.0


_number.__name__ = "float"  # argparse names the type in its message: "invalid float value: 'x'"


def _listed(values: Sequence[float]) -> str:
    """Comma-separated values as a list flag takes them; a string default is read like a typed one."""
    return ",".join(map(repr, values))


def _comma_list(text: str, convert: Callable[[str], object], what: str) -> list:
    """One or more comma-separated values, each read by ``convert``."""
    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except (ValueError, argparse.ArgumentTypeError):
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return values


_int_list = partial(_comma_list, convert=_positive_int, what="positive integers")
_float_list = partial(_comma_list, convert=_number, what="numbers")


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    # Scoring is pure-Python CPU work that threads cannot speed up under the
    # GIL, and index and search fork their own workers when more than one CPU
    # is usable; the flag is kept so existing command lines keep working.
    parser.add_argument("--threads", type=_positive_int, metavar="N", help="accepted for compatibility and ignored")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["tsv", "structured"], default="tsv", help="report format")
    parser.add_argument("--out", type=_path, metavar="PATH", help="write output here instead of stdout")
    _add_threads_flag(parser)


def _add_judged_run_flags(parser: argparse.ArgumentParser, run_help: str, *, cutoffs: bool) -> None:
    parser.add_argument("--run", required=True, type=_path, metavar="PATH", help=run_help)
    parser.add_argument("--qrels", required=True, nargs="+", type=_path, metavar="PATH", help="grade file, then the optional answer sidecar")
    if cutoffs:
        parser.add_argument("--k", type=_int_list, default=_listed(DEFAULT_K_VALUES), help="retrieval cutoffs (default %(default)s)")


def _add_iou_flags(parser: argparse.ArgumentParser, *, lam: float, depths: bool) -> None:
    if depths:
        parser.add_argument("--n", type=_int_list, default=_listed(DEFAULT_N_VALUES), help="candidate depths (default %(default)s)")
    parser.add_argument("--mu", type=_float_list, default=_listed(DEFAULT_MU_VALUES), help="IoU thresholds (default %(default)s)")
    parser.add_argument("--lambda", dest="lam", type=_number, default=lam, help="IoU extension in seconds (default %(default)g)")


def _add_step_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pred", required=True, type=_path, metavar="PATH", help="predicted step file (JSON lines)")
    parser.add_argument("--gold", required=True, type=_path, metavar="PATH", help="ground-truth step file (JSON lines)")
    parser.add_argument("--theta", type=_number, default=_ALIGNMENT.theta, help="alignment score threshold (default %(default)g)")
    parser.add_argument("--alpha", type=_number, default=_ALIGNMENT.alpha, help="temporal overlap weight (default %(default)g)")
    parser.add_argument("--beta", type=_number, default=_ALIGNMENT.beta, help="caption ROUGE-L weight (default %(default)g)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medvideval",
        description="Score video retrieval, temporal answer localization, and step captioning runs; "
        "build assessment pools; and run the BM25 subtitle-search baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("eval-retrieval", help="score a retrieval run against graded judgments")
    _add_judged_run_flags(p, "six-column run file", cutoffs=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_retrieval)

    p = sub.add_parser("eval-localization", help="score a temporal localization run")
    _add_judged_run_flags(p, "localization run (JSON lines)", cutoffs=False)
    _add_iou_flags(p, lam=_IOU.lam, depths=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_localization)

    p = sub.add_parser("eval-vcval", help="retrieval plus localization from one candidate run")
    _add_judged_run_flags(p, "localization run (JSON lines)", cutoffs=True)
    _add_iou_flags(p, lam=_IOU.lam, depths=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_vcval)

    p = sub.add_parser("eval-steps", help="score predicted instructional steps against gold steps")
    _add_step_flags(p)
    _add_iou_flags(p, lam=_ALIGNMENT.lam, depths=False)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_steps)

    p = sub.add_parser("eval-captions", help="text metrics over greedily matched step captions")
    _add_step_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_captions)

    p = sub.add_parser("pool", help="build an assessment pool from one or more runs")
    p.add_argument("--run", required=True, nargs="+", type=_path, metavar="PATH", help="run files to pool")
    p.add_argument("--seed", type=int, default=PoolSpec().seed, help="seed for the inclusion draws (default %(default)s)")
    p.add_argument("--out", type=_path, metavar="PATH", help="write the pool here instead of stdout")
    p.set_defaults(handler=_cmd_pool)

    p = sub.add_parser("index", help="build and persist a BM25 index over a subtitle corpus")
    p.add_argument("corpus", type=_path, metavar="CORPUS", help="corpus file (JSON lines)")
    p.add_argument("--out", required=True, type=_path, metavar="DIR", help="directory for the index")
    p.add_argument("--no-title", action="store_true", help="index subtitles only, ignoring titles")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("search", help="run queries against a persisted index, emitting a run file")
    p.add_argument("index_dir", type=_path, metavar="INDEX_DIR", help="directory written by the index command")
    p.add_argument("queries", type=_path, metavar="QUERIES", help="query file: qid followed by query text")
    p.add_argument("--k", nargs=1, type=_positive_int, default=[10], help="results per query (default 10)")
    p.add_argument("--k1", type=_number, default=_BM25.k1, help="BM25 k1 (default %(default)g)")
    p.add_argument("--b", type=_number, default=_BM25.b, help="BM25 b (default %(default)g)")
    p.add_argument("--out", type=_path, metavar="PATH", help="write the run here instead of stdout")
    _add_threads_flag(p)
    p.set_defaults(handler=_cmd_search)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        write_atomically(out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _emit_report(report: MetricReport, args: argparse.Namespace) -> None:
    _emit(write_report(report, args.format), args.out)


def _params(build, **values):
    """Call the library function ``build`` on command-line input, reporting its ``ValueError`` as bad input."""
    try:
        return build(**values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _judged_run(args: argparse.Namespace, parse: Callable):
    """The ``--run`` file read by ``parse``, then the ``--qrels`` judgments; a third ``--qrels`` path is rejected first."""
    if len(args.qrels) > 2:
        raise FormatError("--qrels takes a grade file plus at most one answer sidecar")
    run = parse(read_text(args.run), source=args.run)
    grades, *sidecar = args.qrels
    texts = [read_text(path) for path in args.qrels]
    return run, parse_qrels(*texts, grades_source=grades, answers_source=sidecar[0] if sidecar else "<answers>")


def _cmd_eval_retrieval(args: argparse.Namespace) -> int:
    run, qrels = _judged_run(args, parse_retrieval_run)
    score = evaluate_retrieval(run, qrels, ks=args.k)
    _emit_report(retrieval_report(score), args)
    return EXIT_OK


def _localization_inputs(args: argparse.Namespace):
    """The run's judged questions, the judgments, and the IoU grid, which is checked before any file is read."""
    params = _params(IoUParams, n_values=args.n, mu_values=args.mu, lam=args.lam)
    run, qrels = _judged_run(args, parse_localization_run)
    return judged_questions(run, qrels), qrels, params


def _cmd_eval_localization(args: argparse.Namespace) -> int:
    score = evaluate_localization(*_localization_inputs(args))
    _emit_report(localization_report(score), args)
    return EXIT_OK


def _cmd_eval_vcval(args: argparse.Namespace) -> int:
    run, qrels, params = _localization_inputs(args)
    # evaluate_rankings counts a video that repeats in a candidate list at its first appearance.
    rankings = {qid: [c.video for c in candidates] for qid, candidates in run.items()}
    retrieval = evaluate_rankings(rankings, qrels, ks=args.k)
    localization = evaluate_localization(run, qrels, params)
    retrieval_part = retrieval_report(retrieval)
    localization_part = localization_report(localization)
    combined = MetricReport(
        name="vcval",
        params={"retrieval": retrieval_part.params, "localization": localization_part.params},
        values={"retrieval": retrieval_part.values, "localization": localization_part.values},
    )
    _emit_report(combined, args)
    return EXIT_OK


def _alignment_params(args: argparse.Namespace, **extra) -> AlignmentParams:
    return _params(AlignmentParams, theta=args.theta, alpha=args.alpha, beta=args.beta, **extra)


def _step_files(args: argparse.Namespace):
    """Predicted and gold steps."""
    return parse_steps(read_text(args.pred), source=args.pred), parse_steps(read_text(args.gold), source=args.gold)


def _cmd_eval_steps(args: argparse.Namespace) -> int:
    params = _alignment_params(args, lam=args.lam)
    thresholds = _params(normalise_thresholds, values=args.mu)
    score = evaluate_steps(*_step_files(args), params, thresholds)
    _emit_report(steps_report(score), args)
    return EXIT_OK


def _cmd_eval_captions(args: argparse.Namespace) -> int:
    params = _alignment_params(args)
    score = evaluate_captions(*_step_files(args), params)
    _emit_report(captions_report(score), args)
    return EXIT_OK


def _cmd_pool(args: argparse.Namespace) -> int:
    spec = PoolSpec(seed=args.seed)
    # Each run is cut to the ranks the pool reads as soon as it is parsed, so
    # memory holds one full run at a time; every run is still parsed before
    # any is pooled, so a malformed line is reported before a tag conflict.
    runs = [run_prefix(parse_retrieval_run(read_text(path), source=path), spec) for path in args.run]
    pool = _params(build_pool, runs=runs, spec=spec, sources=args.run)  # bad input if two runs share a tag on one question
    _emit(write_pool(pool), args.out)
    return EXIT_OK


def _cmd_index(args: argparse.Namespace) -> int:
    corpus = parse_corpus(read_text(args.corpus), source=args.corpus)
    index = build_index(corpus, include_title=not args.no_title)
    target = save_index(index, args.out)
    sys.stderr.write(
        f"indexed {index.doc_count} documents, {len(index.terms)} terms -> {target}\n"
    )
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    params = _params(Bm25Params, k1=args.k1, b=args.b)
    index = load_index(args.index_dir)
    queries = parse_queries(read_text(args.queries), source=args.queries)
    qids = sorted(queries)

    # The run writer orders questions by id and ends every line with "\n", so
    # the texts of contiguous ranges of the sorted ids join into the whole run.
    def run_text(start: int, stop: int) -> str:
        batch = {qid: queries[qid] for qid in qids[start:stop]}
        return write_retrieval_run(run_from_searches(index, batch, args.k[0], params))

    _emit(_fork_join(run_text, operator.add, len(qids), len(qids) * index.doc_count, _SEARCH_WORK_MIN), args.out)
    return EXIT_OK


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit status.

    Every ``ToolkitWarning`` is written to stderr as one ``warning: …`` line as it
    happens, repeats included; the caller's warning filters and hooks are restored.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INPUT
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", ToolkitWarning)
            warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
            return args.handler(args)
    except (FormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 1
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


def entrypoint() -> None:
    """Console-script and ``python -m`` entry point.

    The command runs with the cyclic garbage collector off; ``run_cli`` keeps the interpreter's settings.
    """
    # A command builds large acyclic structures and then exits, so a cyclic
    # collection frees nothing of its own (tests/test_cli.py checks that no
    # command leaves cyclic garbage).  Freezing the start-up objects keeps the
    # collection at interpreter exit from walking them too.
    gc.disable()
    gc.freeze()
    sys.exit(run_cli())
