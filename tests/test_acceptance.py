"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes.  Oracles live in tests/oracles.py and are written straight
from the metric definitions, independent of the production code paths.
"""

import json
import random
import statistics
import time
from pathlib import Path

import oracles

SMOKE_CORPUS = str(Path(__file__).resolve().parents[1] / "data" / "smoke" / "corpus.jsonl")
SMOKE_QUERIES = str(Path(__file__).resolve().parents[1] / "data" / "smoke" / "queries.txt")
from medvideval.cli import run_cli as main
from medvideval.core import FormatError, RelevanceGrade, TimeInterval
from medvideval.io_formats import (
    JudgedVideo,
    LocalizationCandidate,
    RetrievalRunEntry,
    parse_corpus,
    parse_localization_run,
    parse_qrels,
    parse_queries,
    parse_retrieval_run,
    parse_steps,
    read_report,
)
from medvideval.pooling import PoolSpec, build_pool, write_pool
from medvideval.retrieval_metrics import (
    average_precision,
    ndcg,
    precision_at_k,
    recall_at_k,
)
from medvideval.segment_metrics import (
    mean_iou,
    recall_at_n_iou,
    relaxed_iou,
    temporal_iou,
)
from medvideval.step_alignment import (
    AlignmentParams,
    align_steps,
    alignment_score,
    step_prf,
)
from medvideval.bm25 import build_index, search
from medvideval.io_formats import CorpusDocument, Step, StepSequence
from medvideval.text_metrics import CaptionPair, bleu_n, lcs_length, meteor, rouge_l, tokenize

TOL = 1e-9
INSTANCES = 1000


def report_criterion(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


# ---------------------------------------------------------------------------
# 1. metric-oracle equivalence on randomized desk-scale instances
# ---------------------------------------------------------------------------


def _check(failures, label, got, want, tol=TOL):
    if abs(got - want) > tol:
        failures.append(f"{label}: got {got!r}, oracle {want!r}")


def _retrieval_instances(failures):
    rng = random.Random(101)
    for _ in range(INSTANCES):
        pool_videos = [f"v{i}" for i in range(rng.randint(1, 8))]
        grades = {video: rng.randint(0, 2) for video in pool_videos}
        judged = [JudgedVideo("Q", video, RelevanceGrade(grade)) for video, grade in grades.items()]
        relevant = {video for video, grade in grades.items() if grade >= 1}
        universe = pool_videos + ["x1", "x2", "x3"]
        ranking = rng.sample(universe, rng.randint(0, min(8, len(universe))))
        k = rng.randint(1, 8)
        _check(failures, "MAP", average_precision(ranking, judged), oracles.ap_oracle(ranking, relevant))
        _check(
            failures,
            "P@k",
            precision_at_k(ranking, judged, k),
            oracles.precision_oracle(ranking, relevant, k),
        )
        _check(failures, "R@k", recall_at_k(ranking, judged, k), oracles.recall_oracle(ranking, relevant, k))
        _check(failures, "nDCG", ndcg(ranking, judged), oracles.ndcg_oracle(ranking, grades))


def _interval_instances(failures):
    rng = random.Random(202)
    for _ in range(INSTANCES):
        a = tuple(sorted(rng.sample(range(0, 50), 2)))
        b = tuple(sorted(rng.sample(range(0, 50), 2)))
        lam = rng.randint(0, 5)
        _check(
            failures,
            "temporal IoU",
            temporal_iou(TimeInterval(*a), TimeInterval(*b)),
            oracles.grid_iou(a, b),
        )
        _check(
            failures,
            "relaxed IoU",
            relaxed_iou(TimeInterval(*a), TimeInterval(*b), lam),
            oracles.grid_relaxed_iou(a, b, lam),
        )


def _localization_fixture(rng):
    run, oracle_run, qrels, oracle_qrels = {}, {}, {}, {}
    for q in range(rng.randint(1, 4)):
        qid = f"Q{q}"
        videos = [f"v{q}_{i}" for i in range(3)]
        judged, oracle_pool = [], {}
        for video in videos:
            grade = rng.randint(0, 2)
            answers = []
            if grade >= 1:
                for _ in range(rng.randint(0, 2)):
                    start = rng.randint(0, 30)
                    answers.append((start, start + rng.randint(0, 15)))
            judged.append(
                JudgedVideo(qid, video, RelevanceGrade(grade), [TimeInterval(s, e) for s, e in answers])
            )
            oracle_pool[video] = (grade, answers)
        qrels[qid] = judged
        oracle_qrels[qid] = oracle_pool
        candidates, oracle_candidates = [], []
        for rank in range(1, rng.randint(0, 8) + 1):
            video = rng.choice(videos + ["unjudged"])
            start = rng.randint(0, 30)
            interval = (start, start + rng.randint(0, 15))
            candidates.append(
                LocalizationCandidate(qid, video, TimeInterval(*interval), float(-rank), rank)
            )
            oracle_candidates.append((video, interval))
        run[qid] = candidates
        oracle_run[qid] = oracle_candidates
    return run, oracle_run, qrels, oracle_qrels


def _localization_instances(failures):
    rng = random.Random(303)
    for _ in range(INSTANCES):
        run, oracle_run, qrels, oracle_qrels = _localization_fixture(rng)
        n = rng.randint(1, 8)
        mu = rng.choice([0.3, 0.5, 0.7])
        _check(
            failures,
            "mIoU",
            mean_iou(run, qrels, n),
            oracles.mean_iou_oracle(oracle_run, oracle_qrels, n),
        )
        _check(
            failures,
            "R@n IoU=mu",
            recall_at_n_iou(run, qrels, n, mu),
            oracles.recall_at_n_iou_oracle(oracle_run, oracle_qrels, n, mu),
        )


def _text_instances(failures):
    rng = random.Random(404)
    vocab = ["a", "b", "c", "d", "e", "f"]
    for _ in range(INSTANCES):
        pred = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        if lcs_length(pred, ref) != oracles.lcs_oracle(pred, ref):
            failures.append(f"LCS mismatch on {pred} / {ref}")
        pair = CaptionPair(" ".join(pred), " ".join(ref))
        produced = rouge_l(pair)
        p, r, f = oracles.rouge_l_oracle(pred, ref)
        _check(failures, "ROUGE-L P", produced.precision, p)
        _check(failures, "ROUGE-L R", produced.recall, r)
        _check(failures, "ROUGE-L F", produced.f, f)
        _check(failures, "METEOR", meteor(pair), oracles.meteor_oracle(pred, ref))
        corpus = [pair]
        corpus_tokens = [(pred, ref)]
        for _ in range(rng.randint(0, 2)):
            extra_pred = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            extra_ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            corpus.append(CaptionPair(" ".join(extra_pred), " ".join(extra_ref)))
            corpus_tokens.append((extra_pred, extra_ref))
        order = rng.randint(1, 4)
        _check(failures, "BLEU-n", bleu_n(corpus, order), oracles.bleu_oracle(corpus_tokens, order))


def _bm25_instances(failures):
    rng = random.Random(505)
    vocab = [f"w{i}" for i in range(10)]
    for _ in range(INSTANCES):
        corpus = [
            CorpusDocument(f"v{i}", "", " ".join(rng.choices(vocab, k=rng.randint(0, 8))))
            for i in range(rng.randint(1, 8))
        ]
        index = build_index(corpus)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        k = rng.randint(1, 8)
        tokens = {doc.video: tokenize(doc.subtitle) for doc in corpus}
        expected = oracles.bm25_rank_oracle(tokens, tokenize(query), k, 0.9, 0.4)
        produced = search(index, query, k)
        if [v for v, _ in produced] != [v for v, _ in expected]:
            failures.append(f"BM25 ranking mismatch for query {query!r}")
            continue
        for (_, got), (_, want) in zip(produced, expected):
            _check(failures, "BM25 score", got, want)


def test_criterion_1_metric_oracle_equivalence():
    failures: list = []
    started = time.perf_counter()
    _retrieval_instances(failures)
    _interval_instances(failures)
    _localization_instances(failures)
    _text_instances(failures)
    _bm25_instances(failures)
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s budget")
    report_criterion(1, "metric-oracle equivalence", failures)


# ---------------------------------------------------------------------------
# 2. worked-example regression suite (tolerance 1e-4)
# ---------------------------------------------------------------------------


def test_criterion_2_worked_examples():
    failures: list = []

    def expect(label, got, want):
        if abs(got - want) > 1e-4:
            failures.append(f"{label}: got {got}, expected {want}")

    expect("temporal IoU", temporal_iou(TimeInterval(10, 20), TimeInterval(15, 25)), 0.3333)
    expect("relaxed IoU", relaxed_iou(TimeInterval(10, 11), TimeInterval(12, 13), 3), 0.5556)
    expect("ROUGE-L F", rouge_l(CaptionPair("tie the elbow", "tie the elbow to the board")).f, 0.6667)
    pred_step = Step("tie the elbow", TimeInterval(0, 5))
    gold_step = Step("tie the elbow to the board", TimeInterval(0, 10))
    expect("alignment score", alignment_score(pred_step, gold_step), 0.5833)
    expect(
        "BLEU-2",
        bleu_n([CaptionPair("tie the elbow to board", "tie the elbow to the board")], 2),
        0.7090,
    )
    expect("METEOR identical", meteor(CaptionPair("tie the elbow", "tie the elbow")), 0.9815)
    expect("METEOR crossed", meteor(CaptionPair("b a", "a b")), 0.5)
    pool = [
        JudgedVideo("Q", "a", RelevanceGrade(1)),
        JudgedVideo("Q", "b", RelevanceGrade(0)),
        JudgedVideo("Q", "c", RelevanceGrade(2)),
    ]
    expect("AP", average_precision(["a", "b", "c"], pool), 0.8333)
    graded = [
        JudgedVideo("Q", "a", RelevanceGrade(2)),
        JudgedVideo("Q", "b", RelevanceGrade(0)),
        JudgedVideo("Q", "c", RelevanceGrade(1)),
    ]
    expect("nDCG", ndcg(["a", "b", "c"], graded), 0.9503)
    expect("expected pool size", PoolSpec().expected_inclusions(), 13.0)
    report_criterion(2, "worked-example suite", failures)


# ---------------------------------------------------------------------------
# 3. greedy-alignment simulation equivalence and counting identities
# ---------------------------------------------------------------------------


def test_criterion_3_alignment_simulation():
    failures: list = []
    rng = random.Random(606)
    shapes = [(0, 0), (0, 5), (5, 0)] + [
        (rng.randint(0, 8), rng.randint(0, 8)) for _ in range(INSTANCES - 3)
    ]
    for pred_count, gold_count in shapes:
        scores = [[round(rng.random(), 3) for _ in range(gold_count)] for _ in range(pred_count)]
        theta = rng.choice([0.0, 0.25, 0.4, 0.5, 0.75, 1.01])
        result = align_steps(
            list(range(pred_count)),
            list(range(gold_count)),
            AlignmentParams(theta=theta),
            score_fn=lambda p, g: scores[p][g],
        )
        tp, fp, fn, pairs = oracles.align_oracle(scores, gold_count, theta)
        if (result.tp, result.fp, result.fn) != (tp, fp, fn):
            failures.append(f"counts diverge at theta={theta}: {result} vs {(tp, fp, fn)}")
        if [(p, g) for p, g, _ in result.pairs] != pairs:
            failures.append(f"pairs diverge at theta={theta}")
        if result.tp + result.fp != pred_count or result.tp + result.fn != gold_count:
            failures.append(f"counting identity broken for shape {(pred_count, gold_count)}")
    report_criterion(3, "alignment simulation equivalence", failures)


# ---------------------------------------------------------------------------
# 4. monotonicity of the localization table
# ---------------------------------------------------------------------------


def test_criterion_4_localization_monotonicity():
    failures: list = []
    rng = random.Random(707)
    for _ in range(50):
        run, _, qrels, _ = _localization_fixture(rng)
        miou_by_n = [mean_iou(run, qrels, n) for n in (1, 3, 5, 10)]
        if miou_by_n != sorted(miou_by_n):
            failures.append(f"mIoU not non-decreasing in n: {miou_by_n}")
        for mu in (0.3, 0.5, 0.7):
            recall_by_n = [recall_at_n_iou(run, qrels, n, mu) for n in (1, 3, 5, 10)]
            if recall_by_n != sorted(recall_by_n):
                failures.append(f"R@n not non-decreasing in n at mu={mu}: {recall_by_n}")
        for n in (1, 3, 5, 10):
            by_mu = [recall_at_n_iou(run, qrels, n, mu) for mu in (0.3, 0.5, 0.7)]
            if by_mu != sorted(by_mu, reverse=True):
                failures.append(f"R@n not non-increasing in mu at n={n}: {by_mu}")
    report_criterion(4, "R@n and mIoU monotonicity", failures)


# ---------------------------------------------------------------------------
# 5. threshold annihilation
# ---------------------------------------------------------------------------


def test_criterion_5_threshold_annihilation():
    failures: list = []
    pred = StepSequence(
        "seg",
        [
            Step("wrap the wrist with a bandage", TimeInterval(0, 10)),
            Step("tie the elbow to the board", TimeInterval(10, 20)),
        ],
    )
    gold = StepSequence(
        "seg",
        [
            Step("wrap the wrist with a bandage", TimeInterval(0, 10)),
            Step("tie the elbow to the board", TimeInterval(10, 20)),
            Step("call for medical help", TimeInterval(20, 30)),
        ],
    )
    result = align_steps(pred, gold, AlignmentParams(theta=1.01))
    if (result.tp, result.fp, result.fn) != (0, 2, 3):
        failures.append(f"expected (0, |P|, |G|), got {(result.tp, result.fp, result.fn)}")
    scores = step_prf(result)
    if (scores.precision, scores.recall, scores.f) != (0.0, 0.0, 0.0):
        failures.append(f"expected zero P/R/F, got {scores}")
    report_criterion(5, "threshold annihilation", failures)


# ---------------------------------------------------------------------------
# 6. pooling determinism and expectation over 10,000 trials
# ---------------------------------------------------------------------------


def test_criterion_6_pooling_determinism_and_expectation():
    failures: list = []
    run = {
        "Q1": [
            RetrievalRunEntry("Q1", f"v{rank}", rank, float(100 - rank), "sysA")
            for rank in range(1, 26)
        ]
    }
    first = write_pool(build_pool([run], PoolSpec(seed=42)))
    second = write_pool(build_pool([run], PoolSpec(seed=42)))
    if first != second:
        failures.append("pools differ for identical seed")
    counts = []
    for seed in range(10_000):
        pool = build_pool([run], PoolSpec(seed=seed))
        videos = pool.videos("Q1")
        if not all(f"v{rank}" in videos for rank in range(1, 11)):
            failures.append(f"rank 1-10 document missing at seed {seed}")
            break
        counts.append(sum(len(c) for c in pool.members["Q1"].values()))
    mean = statistics.fmean(counts)
    variance = 5 * 0.3 * 0.7 + 5 * 0.2 * 0.8 + 5 * 0.1 * 0.9
    sigma_mean = (variance / len(counts)) ** 0.5
    if abs(mean - 13.0) > 3 * sigma_mean:
        failures.append(f"mean inclusions {mean:.4f} outside 13 +/- {3 * sigma_mean:.4f}")
    report_criterion(6, "pooling determinism and expectation", failures)


# ---------------------------------------------------------------------------
# 7. end-to-end smoke through the CLI on the bundled corpus
# ---------------------------------------------------------------------------


def test_criterion_7_end_to_end_smoke(tmp_path, capsys):
    failures: list = []
    index_dir = tmp_path / "idx"
    run_path = tmp_path / "run.txt"
    report_path = tmp_path / "report.json"
    pool_path = tmp_path / "pool.txt"
    steps = [
        (["index", SMOKE_CORPUS, "--out", str(index_dir)], "index"),
        (
            ["search", str(index_dir), SMOKE_QUERIES, "--k", "10", "--out", str(run_path)],
            "search",
        ),
    ]
    for argv, label in steps:
        if main(argv) != 0:
            failures.append(f"{label} exited non-zero")
    run = parse_retrieval_run(run_path.read_text(encoding="utf-8"), source=str(run_path))
    if len(run) != 5:
        failures.append(f"expected 5 answered queries, got {len(run)}")
    qrels_path = tmp_path / "qrels.txt"
    qrels_lines = [
        f"{qid} 0 {entry.video} 2" for qid, entries in sorted(run.items()) for entry in entries
    ]
    qrels_path.write_text("\n".join(qrels_lines) + "\n", encoding="utf-8")
    code = main(
        [
            "eval-retrieval",
            "--run",
            str(run_path),
            "--qrels",
            str(qrels_path),
            "--format",
            "structured",
            "--out",
            str(report_path),
        ]
    )
    if code != 0:
        failures.append("eval-retrieval exited non-zero")
    else:
        report = read_report(report_path.read_text(encoding="utf-8"))
        if abs(report.values["nDCG"] - 1.0) > TOL:
            failures.append(f"self-consistent qrels should give nDCG 1.0, got {report.values['nDCG']}")
        if abs(report.values["MAP"] - 1.0) > TOL:
            failures.append(f"self-consistent qrels should give MAP 1.0, got {report.values['MAP']}")
    if main(["pool", "--run", str(run_path), "--seed", "0", "--out", str(pool_path)]) != 0:
        failures.append("pool exited non-zero")
    else:
        pool_lines = [
            line
            for line in pool_path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        if not pool_lines:
            failures.append("pool file came out empty")
    report_criterion(7, "end-to-end smoke", failures)


# ---------------------------------------------------------------------------
# 8. format robustness: fuzzed inputs never crash a parser
# ---------------------------------------------------------------------------


def _fuzz_corpus(rng):
    alphabets = [
        "".join(chr(c) for c in range(32, 127)),
        "qQ0 v1\t\n#:{}[]\",",
        "".join(chr(rng.randint(1, 0x2FFF)) for _ in range(40)),
    ]
    samples = []
    for _ in range(120):
        alphabet = rng.choice(alphabets)
        samples.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120))))
    valid = [
        "Q1 Q0 v1 1 2.0 tag",
        "Q1 0 v1 2",
        json.dumps({"question": "Q1", "video": "v1", "start": 0, "end": 5, "score": 1.0}),
        json.dumps({"segment": "s", "steps": [{"caption": "do it", "start": 0, "end": 5}]}),
        json.dumps({"video": "v1", "title": "t", "subtitle": "s"}),
    ]
    for text in valid:
        for _ in range(30):
            chars = list(text)
            for _ in range(rng.randint(1, 6)):
                at = rng.randrange(len(chars))
                chars[at] = rng.choice("\x00:{}#\"5xQ \n\t,")
            samples.append("".join(chars))
    return samples


def test_criterion_8_parser_robustness():
    failures: list = []
    rng = random.Random(808)
    parsers = [
        ("retrieval run", parse_retrieval_run),
        ("qrels grades", lambda text: parse_qrels(text)),
        ("qrels answers", lambda text: parse_qrels("Q1 0 v1 1", text)),
        ("localization run", parse_localization_run),
        ("steps", parse_steps),
        ("corpus", parse_corpus),
        ("queries", parse_queries),
        ("report", read_report),
    ]
    for sample in _fuzz_corpus(rng):
        for label, parser in parsers:
            try:
                parser(sample)
            except FormatError:
                pass
            except Exception as exc:  # noqa: BLE001 - the whole point of the criterion
                failures.append(f"{label} crashed with {type(exc).__name__}: {exc!r}")
    report_criterion(8, "format robustness", failures)
