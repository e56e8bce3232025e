"""Single executable exposing evaluation, pooling, indexing, and search.

Exit codes: 0 success, 2 malformed input (the message names the file and
line), 1 internal error.  Reports embed their full effective parameterization
and are byte-identical for identical inputs, parameters, and seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .bm25 import Bm25Params, build_index, load_index, run_from_searches, save_index
from .core import FormatError
from .io_formats import (
    MetricReport,
    RetrievalRunEntry,
    parse_corpus,
    parse_localization_run,
    parse_qrels,
    parse_queries,
    parse_retrieval_run,
    parse_steps,
    read_text,
    write_report,
    write_retrieval_run,
)
from .pooling import PoolSpec, build_pool, write_pool
from .retrieval_metrics import evaluate_retrieval, retrieval_report
from .segment_metrics import (
    DEFAULT_MU_VALUES,
    DEFAULT_N_VALUES,
    IoUParams,
    evaluate_localization,
    localization_report,
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


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    # Scoring is pure-Python CPU work that threads cannot speed up under the
    # GIL; the flag is kept so existing command lines keep working.
    parser.add_argument("--threads", type=_positive_int, metavar="N", help="accepted for compatibility and ignored")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["tsv", "structured"], default="tsv", help="report format")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    _add_threads_flag(parser)


def _add_alignment_flags(parser: argparse.ArgumentParser) -> None:
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
    p.add_argument("--run", required=True, metavar="PATH", help="six-column run file")
    p.add_argument(
        "--qrels",
        required=True,
        nargs="+",
        metavar="PATH",
        help="grade file, optionally followed by the answer-interval sidecar",
    )
    p.add_argument("--k", type=_int_list, default=[5, 10], help="cutoffs, comma separated (default 5,10)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_retrieval)

    p = sub.add_parser("eval-localization", help="score a temporal localization run")
    p.add_argument("--run", required=True, metavar="PATH", help="localization run (JSON lines)")
    p.add_argument("--qrels", required=True, nargs="+", metavar="PATH", help="grade file plus answer sidecar")
    p.add_argument("--n", type=_int_list, default=list(DEFAULT_N_VALUES), help="candidate depths (default 1,3,5,10)")
    p.add_argument("--mu", type=_float_list, default=list(DEFAULT_MU_VALUES), help="IoU thresholds (default 0.3,0.5,0.7)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="IoU extension in seconds (default 0)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_localization)

    p = sub.add_parser("eval-vcval", help="retrieval plus localization from one candidate run")
    p.add_argument("--run", required=True, metavar="PATH", help="localization run (JSON lines)")
    p.add_argument("--qrels", required=True, nargs="+", metavar="PATH", help="grade file plus answer sidecar")
    p.add_argument("--k", type=_int_list, default=[5, 10], help="retrieval cutoffs (default 5,10)")
    p.add_argument("--n", type=_int_list, default=list(DEFAULT_N_VALUES), help="candidate depths (default 1,3,5,10)")
    p.add_argument("--mu", type=_float_list, default=list(DEFAULT_MU_VALUES), help="IoU thresholds (default 0.3,0.5,0.7)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="IoU extension in seconds (default 0)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_vcval)

    p = sub.add_parser("eval-steps", help="score predicted instructional steps against gold steps")
    p.add_argument("--pred", required=True, metavar="PATH", help="predicted step file (JSON lines)")
    p.add_argument("--gold", required=True, metavar="PATH", help="ground-truth step file (JSON lines)")
    _add_alignment_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, default=3.0, help="IoU extension in seconds (default 3)")
    p.add_argument("--mu", type=_float_list, default=list(DEFAULT_MU_VALUES), help="IoU thresholds (default 0.3,0.5,0.7)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval_steps)

    p = sub.add_parser("eval-captions", help="text metrics over greedily matched step captions")
    p.add_argument("--pred", required=True, metavar="PATH", help="predicted step file (JSON lines)")
    p.add_argument("--gold", required=True, metavar="PATH", help="ground-truth step file (JSON lines)")
    _add_alignment_flags(p)
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
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: MetricReport, args: argparse.Namespace) -> None:
    fmt = "structured" if args.format == "structured" else "tabular"
    _emit(write_report(report, fmt), args.out)


def _load_qrels(paths: Sequence[str]):
    if len(paths) > 2:
        raise FormatError("--qrels takes a grade file plus at most one answer sidecar")
    grades = read_text(paths[0])
    answers = read_text(paths[1]) if len(paths) > 1 else None
    return parse_qrels(
        grades,
        answers,
        grades_source=paths[0],
        answers_source=paths[1] if len(paths) > 1 else "<answers>",
    )


def _params(cls, **values):
    """Build a parameter object, reporting an out-of-range flag value as bad input."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _cmd_eval_retrieval(args: argparse.Namespace) -> int:
    run = parse_retrieval_run(read_text(args.run), source=args.run)
    qrels = _load_qrels(args.qrels)
    score = evaluate_retrieval(run, qrels, ks=args.k)
    _emit_report(retrieval_report(score), args)
    return EXIT_OK


def _cmd_eval_localization(args: argparse.Namespace) -> int:
    run = parse_localization_run(read_text(args.run), source=args.run)
    qrels = _load_qrels(args.qrels)
    params = _params(IoUParams, n_values=tuple(args.n), mu_values=tuple(args.mu), lam=args.lam)
    score = evaluate_localization(run, qrels, params)
    _emit_report(localization_report(score), args)
    return EXIT_OK


def _ranking_from_candidates(run) -> dict[str, list[RetrievalRunEntry]]:
    """Video ranking induced by a localization run: first appearance wins."""
    induced: dict[str, list[RetrievalRunEntry]] = {}
    for qid, candidates in run.items():
        seen: set[str] = set()
        entries = []
        for candidate in candidates:
            if candidate.video in seen:
                continue
            seen.add(candidate.video)
            entries.append(
                RetrievalRunEntry(qid, candidate.video, len(entries) + 1, candidate.score, "vcval")
            )
        induced[qid] = entries
    return induced


def _cmd_eval_vcval(args: argparse.Namespace) -> int:
    run = parse_localization_run(read_text(args.run), source=args.run)
    qrels = _load_qrels(args.qrels)
    retrieval = evaluate_retrieval(_ranking_from_candidates(run), qrels, ks=args.k)
    params = _params(IoUParams, n_values=tuple(args.n), mu_values=tuple(args.mu), lam=args.lam)
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


def _cmd_eval_steps(args: argparse.Namespace) -> int:
    pred = parse_steps(read_text(args.pred), source=args.pred)
    gold = parse_steps(read_text(args.gold), source=args.gold)
    params = _params(AlignmentParams, theta=args.theta, alpha=args.alpha, beta=args.beta, lam=args.lam)
    score = evaluate_steps(pred, gold, params, mu_values=tuple(args.mu))
    _emit_report(steps_report(score), args)
    return EXIT_OK


def _cmd_eval_captions(args: argparse.Namespace) -> int:
    pred = parse_steps(read_text(args.pred), source=args.pred)
    gold = parse_steps(read_text(args.gold), source=args.gold)
    params = _params(AlignmentParams, theta=args.theta, alpha=args.alpha, beta=args.beta)
    score = evaluate_captions(pred, gold, params)
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
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 1
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


main = run_cli


def entrypoint() -> None:
    sys.exit(run_cli())
