"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes.  Criteria 1 and 3 are the one place where each metric is
compared with its oracle on fixed-seed random instances; the module tests keep
hand-built cases and Hypothesis properties, and
``tests/test_end_to_end_oracles.py`` compares whole command reports.

The oracles live in tests/oracles.py.  Those compared here are written from
the metric definitions and import nothing of the package.  Three references
there do reuse production helpers, so a fault in a shared helper shows on
neither side: ``reference_parse_retrieval_run`` parses fields with
``_parse_int`` and ``_parse_score``, ``reference_parse_localization_run`` with
``_str_field``, ``_timestamp_field`` and ``_number_field``, and
``reference_align_steps`` scores each cell through ``alignment_score``.
The two parsers still check record assembly, the order of each question's
records and which of several faults is reported first in file order, and the
localization reference decodes each line with ``json.loads`` itself, so it
checks the package's JSON Lines decoder; the alignment reference still checks
which cells the bounded scan may skip.
"""

import json
import random
import statistics
import time
from collections import Counter

import pytest

import oracles
from commands import SMOKE
from medvideval import text_metrics
from medvideval.bm25 import build_index, search
from medvideval.cli import run_cli as main
from medvideval.core import FormatError, RelevanceGrade, TimeInterval
from medvideval.io_formats import (
    CorpusDocument,
    JudgedVideo,
    RetrievalRunEntry,
    Step,
    StepSequence,
    parse_corpus,
    parse_localization_run,
    parse_qrels,
    parse_queries,
    parse_retrieval_run,
    parse_steps,
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
from medvideval.text_metrics import CaptionPair, _exact_alignment, bleu_n, lcs_length, meteor, rouge_l, tokenize

SMOKE_CORPUS = str(SMOKE / "corpus.jsonl")
SMOKE_QUERIES = str(SMOKE / "queries.txt")

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
        ranking, grades = oracles.random_instance(rng)
        judged = [JudgedVideo("Q", video, RelevanceGrade(grade)) for video, grade in grades.items()]
        relevant = {video for video, grade in grades.items() if grade >= 1}
        k = rng.randint(1, 8)
        # A ranking with repeats scores like its first-appearance order.
        repeated = [video for video in ranking for _ in range(2)] + ranking[::-1]
        for label, scored in (("", ranking), (" with repeats", repeated)):
            _check(failures, "MAP" + label, average_precision(scored, judged), oracles.ap_oracle(ranking, relevant))
            _check(
                failures,
                "P@k" + label,
                precision_at_k(scored, judged, k),
                oracles.precision_oracle(ranking, relevant, k),
            )
            _check(failures, "R@k" + label, recall_at_k(scored, judged, k), oracles.recall_oracle(ranking, relevant, k))
            _check(failures, "nDCG" + label, ndcg(scored, judged), oracles.ndcg_oracle(ranking, grades))


def _interval_instances(failures):
    rng = random.Random(202)
    for _ in range(INSTANCES):
        a = tuple(sorted(rng.sample(range(0, 60), 2)))
        b = tuple(sorted(rng.sample(range(0, 60), 2)))
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


def _localization_instances(failures):
    rng = random.Random(303)
    for _ in range(INSTANCES):
        run, qrels = oracles.random_localization_fixture(rng, questions=rng.randint(1, 4))
        prod_run, prod_qrels = oracles.to_production(run, qrels)
        oracle_run, oracle_qrels = oracles.to_oracle(run, qrels)
        n = rng.randint(1, 8)
        mu = rng.choice([0.3, 0.5, 0.7])
        lam = rng.choice([0, 3])
        _check(
            failures,
            "mIoU",
            mean_iou(prod_run, prod_qrels, n, lam),
            oracles.mean_iou_oracle(oracle_run, oracle_qrels, n, lam),
        )
        _check(
            failures,
            "R@n IoU=mu",
            recall_at_n_iou(prod_run, prod_qrels, n, mu, lam),
            oracles.recall_at_n_iou_oracle(oracle_run, oracle_qrels, n, mu, lam),
        )


# Each branch of the caption metrics, with the least number of the 1,000
# instances that must take it (seed 404 gives 566), so the oracles check both
# sides of each branch.
TEXT_PATHS = {
    "_repeated_clipped_matches": 400,  # BLEU's occurrence count: both sides repeat a gram
}


def _text_instances(failures):
    rng = random.Random(404)
    ran: set = set()  # the paths that the current instance ran
    instances: Counter = Counter()

    def spy(name):
        path = getattr(text_metrics, name)

        def counting(*args):
            ran.add(name)
            return path(*args)

        return counting

    with pytest.MonkeyPatch.context() as patch:
        for name in TEXT_PATHS:
            patch.setattr(text_metrics, name, spy(name))
        for _ in range(INSTANCES):
            ran.clear()
            _text_instance(rng, failures)
            instances.update(ran)
    for name, least in TEXT_PATHS.items():
        if instances[name] < least:
            failures.append(f"{name} ran on {instances[name]} instances, fewer than {least}")


def _text_instance(rng, failures):
    # Six letters or two: repeated tokens exercise METEOR's quota and skip rules.
    vocab = rng.choice(["abcdef", "ab"])
    sides = [
        (oracles.random_caption(rng, vocab), oracles.random_caption(rng, vocab)) for _ in range(rng.randint(1, 4))
    ]
    corpus = [CaptionPair(pred_text, ref_text) for (_, pred_text), (_, ref_text) in sides]
    corpus_tokens = [(pred, ref) for (pred, _), (ref, _) in sides]
    pair, (pred, ref) = corpus[0], corpus_tokens[0]
    if lcs_length(pred, ref) != oracles.lcs_oracle(pred, ref):
        failures.append(f"LCS mismatch on {pred} / {ref}")
    produced = rouge_l(pair)
    p, r, f = oracles.rouge_l_oracle(pred, ref)
    _check(failures, "ROUGE-L P", produced.precision, p)
    _check(failures, "ROUGE-L R", produced.recall, r)
    _check(failures, "ROUGE-L F", produced.f, f)
    if _exact_alignment(pred, ref) != oracles.meteor_alignment_oracle(pred, ref):
        failures.append(f"METEOR alignment mismatch on {pred} / {ref}")
    _check(failures, "METEOR", meteor(pair), oracles.meteor_oracle(pred, ref))
    order = rng.randint(1, 4)
    _check(failures, "BLEU-n", bleu_n(corpus, order), oracles.bleu_oracle(corpus_tokens, order))


def _bm25_instances(failures):
    rng = random.Random(505)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(INSTANCES):
        corpus = [
            CorpusDocument(f"v{i}", "", " ".join(rng.choices(vocab, k=rng.randint(0, 12))))
            for i in range(rng.randint(1, 50))
        ]
        index = build_index(corpus)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        k = rng.randint(1, 10)
        tokens = {doc.video: tokenize(doc.subtitle) for doc in corpus}
        expected = oracles.bm25_rank_oracle(tokens, tokenize(query), k, 0.9, 0.4)
        produced = search(index, query, k)
        if [v for v, _ in produced] != [v for v, _ in expected]:
            failures.append(f"BM25 ranking mismatch for query {query!r}")
            continue
        for (_, got), (_, want) in zip(produced, expected):
            _check(failures, "BM25 score", got, want)


CRITERION_1_FAMILIES = {
    "retrieval": _retrieval_instances,
    "intervals": _interval_instances,
    "localization": _localization_instances,
    "captions": _text_instances,
    "bm25": _bm25_instances,
}
# Seconds each family has taken in this session; the families share one budget.
_criterion_1_seconds: list = []


@pytest.mark.parametrize("family", CRITERION_1_FAMILIES)
def test_criterion_1_metric_oracle_equivalence(family):
    failures: list = []
    started = time.perf_counter()
    CRITERION_1_FAMILIES[family](failures)
    _criterion_1_seconds.append(time.perf_counter() - started)
    elapsed = sum(_criterion_1_seconds)
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s of the families run so far exceeds 60s budget")
    report_criterion(1, f"metric-oracle equivalence, {family}", failures)


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
    expect("expected pool size", sum(PoolSpec().rank_probabilities), 13.0)
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
        theta = rng.choice([0.0, 0.2, 0.25, 0.4, 0.5, 0.75, 0.8, 1.01])
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
        run, qrels = oracles.to_production(*oracles.random_localization_fixture(rng, questions=rng.randint(1, 4)))
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
        videos = set(pool.members.get("Q1", ()))
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
        values = json.loads(report_path.read_text(encoding="utf-8"))["values"]
        if abs(values["nDCG"] - 1.0) > TOL:
            failures.append(f"self-consistent qrels should give nDCG 1.0, got {values['nDCG']}")
        if abs(values["MAP"] - 1.0) > TOL:
            failures.append(f"self-consistent qrels should give MAP 1.0, got {values['MAP']}")
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
