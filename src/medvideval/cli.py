"""Single executable exposing evaluation, pooling, indexing, and search.

Exit codes: 0 success, 2 malformed input (the message names the file and
line), 1 internal error.  Reports embed their full effective parameterization
and are byte-identical for identical inputs, parameters, and seed.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from functools import partial
from typing import Callable, Sequence

from .bm25 import Bm25Params, build_index, load_index, run_from_searches, save_index
from .core import FormatError
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
from .pooling import PoolSpec, build_pool, write_pool
from .retrieval_metrics import evaluate_rankings, evaluate_retrieval, retrieval_report
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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
_float_list = partial(_comma_list, convert=float, what="numbers")


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    # Scoring is pure-Python CPU work that threads cannot speed up under the
    # GIL; the flag is kept so existing command lines keep working.
    parser.add_argument("--threads", type=_positive_int, metavar="N", help="accepted for compatibility and ignored")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["tsv", "structured"], default="tsv", help="report format")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    _add_threads_flag(parser)


def _add_judged_run_flags(parser: argparse.ArgumentParser, run_help: str, *, cutoffs: bool) -> None:
    parser.add_argument("--run", required=True, metavar="PATH", help=run_help)
    parser.add_argument("--qrels", required=True, nargs="+", metavar="PATH", help="grade file, then the optional answer sidecar")
    if cutoffs:
        parser.add_argument("--k", type=_int_list, default=[5, 10], help="retrieval cutoffs (default 5,10)")


def _add_iou_flags(parser: argparse.ArgumentParser, *, lam: float, depths: bool) -> None:
    if depths:
        parser.add_argument("--n", type=_int_list, default=list(DEFAULT_N_VALUES), help="candidate depths (default 1,3,5,10)")
    parser.add_argument("--mu", type=_float_list, default=list(DEFAULT_MU_VALUES), help="IoU thresholds (default 0.3,0.5,0.7)")
    parser.add_argument("--lambda", dest="lam", type=float, default=lam, help=f"IoU extension in seconds (default {lam:g})")


def _add_step_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pred", required=True, metavar="PATH", help="predicted step file (JSON lines)")
    parser.add_argument("--gold", required=True, metavar="PATH", help="ground-truth step file (JSON lines)")
    parser.add_argument("--theta", type=float, default=0.4, help="alignment score threshold")
    parser.add_argument("--alpha", type=float, default=0.5, help="temporal overlap weight")
    parser.add_argument("--beta", type=float, default=0.5, help="caption ROUGE-L weight")


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
    _add_iou_flags(p, lam=0.0, depths=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_localization)

    p = sub.add_parser("eval-vcval", help="retrieval plus localization from one candidate run")
    _add_judged_run_flags(p, "localization run (JSON lines)", cutoffs=True)
    _add_iou_flags(p, lam=0.0, depths=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_vcval)

    p = sub.add_parser("eval-steps", help="score predicted instructional steps against gold steps")
    _add_step_flags(p)
    _add_iou_flags(p, lam=3.0, depths=False)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_steps)

    p = sub.add_parser("eval-captions", help="text metrics over greedily matched step captions")
    _add_step_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_captions)

    p = sub.add_parser("pool", help="build an assessment pool from one or more runs")
    p.add_argument("--run", required=True, nargs="+", metavar="PATH", help="run files to pool")
    p.add_argument("--seed", type=int, default=0, help="seed for the inclusion draws (default 0)")
    p.add_argument("--out", metavar="PATH", help="write the pool here instead of stdout")
    p.set_defaults(handler=_cmd_pool)

    p = sub.add_parser("index", help="build and persist a BM25 index over a subtitle corpus")
    p.add_argument("corpus", metavar="CORPUS", help="corpus file (JSON lines)")
    p.add_argument("--out", required=True, metavar="DIR", help="directory for the index")
    p.add_argument("--no-title", action="store_true", help="index subtitles only, ignoring titles")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("search", help="run queries against a persisted index, emitting a run file")
    p.add_argument("index_dir", metavar="INDEX_DIR", help="directory written by the index command")
    p.add_argument("queries", metavar="QUERIES", help="query file: qid followed by query text")
    p.add_argument("--k", type=_int_list, default=[10], help="results per query (default 10)")
    p.add_argument("--k1", type=float, default=0.9, help="BM25 k1 (default 0.9)")
    p.add_argument("--b", type=float, default=0.4, help="BM25 b (default 0.4)")
    p.add_argument("--out", metavar="PATH", help="write the run here instead of stdout")
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


def _load_qrels(paths: Sequence[str]):
    if len(paths) > 2:
        raise FormatError("--qrels takes a grade file plus at most one answer sidecar")
    grades, *sidecar = paths
    texts = [read_text(path) for path in paths]
    return parse_qrels(*texts, grades_source=grades, answers_source=sidecar[0] if sidecar else "<answers>")


def _params(build, **values):
    """Build parameters (an object or a normalised grid), reporting an out-of-range flag value as bad input."""
    try:
        return build(**values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _cmd_eval_retrieval(args: argparse.Namespace) -> int:
    run = parse_retrieval_run(read_text(args.run), source=args.run)
    qrels = _load_qrels(args.qrels)
    score = evaluate_retrieval(run, qrels, ks=args.k)
    _emit_report(retrieval_report(score), args)
    return EXIT_OK


def _localization_inputs(args: argparse.Namespace):
    """The run's judged questions, the judgments, and the IoU grid."""
    run = parse_localization_run(read_text(args.run), source=args.run)
    qrels = _load_qrels(args.qrels)
    params = _params(IoUParams, n_values=args.n, mu_values=args.mu, lam=args.lam)
    return judged_questions(run, qrels), qrels, params


def _cmd_eval_localization(args: argparse.Namespace) -> int:
    score = evaluate_localization(*_localization_inputs(args))
    _emit_report(localization_report(score), args)
    return EXIT_OK


def _cmd_eval_vcval(args: argparse.Namespace) -> int:
    run, qrels, params = _localization_inputs(args)
    # The video ranking a candidate list induces: first appearance wins.
    rankings = {qid: dict.fromkeys(c.video for c in candidates) for qid, candidates in run.items()}
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


def _step_inputs(args: argparse.Namespace, **extra):
    """Predicted and gold steps plus the alignment parameters."""
    pred = parse_steps(read_text(args.pred), source=args.pred)
    gold = parse_steps(read_text(args.gold), source=args.gold)
    return pred, gold, _params(AlignmentParams, theta=args.theta, alpha=args.alpha, beta=args.beta, **extra)


def _cmd_eval_steps(args: argparse.Namespace) -> int:
    pred, gold, params = _step_inputs(args, lam=args.lam)
    score = evaluate_steps(pred, gold, params, _params(normalise_thresholds, values=args.mu))
    _emit_report(steps_report(score), args)
    return EXIT_OK


def _cmd_eval_captions(args: argparse.Namespace) -> int:
    score = evaluate_captions(*_step_inputs(args))
    _emit_report(captions_report(score), args)
    return EXIT_OK


def _cmd_pool(args: argparse.Namespace) -> int:
    runs = [parse_retrieval_run(read_text(path), source=path) for path in args.run]
    pool = build_pool(runs, PoolSpec(seed=args.seed))
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
    if len(args.k) != 1:
        raise FormatError("search takes a single --k cutoff")
    index = load_index(args.index_dir)
    queries = parse_queries(read_text(args.queries), source=args.queries)
    params = _params(Bm25Params, k1=args.k1, b=args.b)
    run = run_from_searches(index, queries, args.k[0], params)
    _emit(write_retrieval_run(run), args.out)
    return EXIT_OK


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INPUT
    try:
        return args.handler(args)
    except (FormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 1
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


def entrypoint() -> None:
    """Console-script and ``python -m`` entry point: print each warning as one ``warning: …`` line."""
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    sys.exit(run_cli())
