"""Whole subcommands against the oracles of tests/oracles.py.

Each example writes a tiny track from the shared instance generators, with
shuffled lines, runs a command through ``run_cli`` with random flags, and
compares its structured report with the oracles, computed from the generated
values and never from the parsers; the report's ``params`` must echo each
drawn flag.  ``pool`` is compared with a recount of
the inclusion draws, and ``index`` plus ``search`` with ``bm25_rank_oracle``.
So a flag that never reaches its parameter, or a file read in the wrong role,
fails here even where no golden file covers it.
"""

import json
import random
import statistics
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from medvideval.cli import run_cli
from medvideval.pooling import inclusion_draw

TOL = 1e-9
seeds = st.integers(min_value=0, max_value=100_000)
# Each example overwrites the same files in tmp_path.
reuses_tmp_path = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_shuffled(path, lines, rng):
    rng.shuffle(lines)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def structured_report(argv, out, params):
    """The ``values`` of the structured report that ``argv`` writes to ``out``; warnings are ignored.

    The report's ``params`` must echo ``params``, the flag values drawn; it may hold more keys.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli([*argv, "--format", "structured", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert_echoes(report["params"], params)
    return report["values"]


def assert_echoes(got, want, label="params"):
    """``got`` holds each key of ``want``, at every level, with its value."""
    for key, value in want.items():
        if isinstance(value, dict):
            assert_echoes(got[key], value, f"{label}/{key}")
        else:
            assert got[key] == value, f"{label}/{key}: got {got[key]!r}, flag {value!r}"


def assert_matches(got, want, label="values"):
    """``got`` has the keys of ``want`` at every level, and each number within TOL of the oracle's."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), label
        for key in want:
            assert_matches(got[key], want[key], f"{label}/{key}")
    else:
        assert abs(got - want) <= TOL, f"{label}: got {got!r}, oracle {want!r}"


def tied_score(rank):
    """Scores that fall with rank, tied in pairs, so the parser must break ties by rank."""
    return float(-(rank // 2))


def timestamp(seconds, rng):
    """Whole seconds as a number or as MM:SS, at random."""
    return seconds if rng.random() < 0.5 else f"{seconds // 60:02d}:{seconds % 60:02d}"


def random_depths(rng, flag):
    """One to three depths from 1-10, and the flag that passes them unsorted."""
    depths = rng.sample(range(1, 11), rng.randint(1, 3))
    return sorted(depths), [flag, ",".join(map(str, depths))]


def retrieval_values(rankings, grades, ks):
    """A retrieval report's values by the ranking oracles: a row per judged question, and the rows' means."""
    rows = {}
    for qid, question_grades in grades.items():
        ranking = rankings.get(qid, [])
        relevant = {video for video, grade in question_grades.items() if grade >= 1}
        rows[qid] = {"MAP": oracles.ap_oracle(ranking, relevant), "nDCG": oracles.ndcg_oracle(ranking, question_grades)}
        for k in ks:
            rows[qid][f"P@{k}"] = oracles.precision_oracle(ranking, relevant, k)
            rows[qid][f"R@{k}"] = oracles.recall_oracle(ranking, relevant, k)
    keys = next(iter(rows.values()))
    return {**{key: statistics.fmean(row[key] for row in rows.values()) for key in keys}, "per_question": rows}


@reuses_tmp_path
@given(seeds)
def test_eval_retrieval_matches_the_ranking_oracles(tmp_path, seed):
    rng = random.Random(seed)
    judged = {f"q{i}": oracles.random_instance(rng) for i in range(rng.randint(1, 6))}
    grades = {qid: question_grades for qid, (_, question_grades) in judged.items()}
    # Some judged questions are missing from the run, and some run questions are unjudged.
    rankings = {qid: ranking for qid, (ranking, _) in judged.items() if rng.random() < 0.75}
    rankings.update((f"x{i}", oracles.random_instance(rng)[0]) for i in range(rng.randint(0, 2)))
    ks, k_flag = random_depths(rng, "--k")
    run = [
        f"{qid} Q0 {video} {rank} {tied_score(rank)} tag"
        for qid, ranking in rankings.items()
        for rank, video in enumerate(ranking, start=1)
    ]
    qrels = [f"{qid} 0 {video} {grade}" for qid, question_grades in grades.items() for video, grade in question_grades.items()]
    argv = [
        "eval-retrieval",
        "--run",
        write_shuffled(tmp_path / "retrieval.run", run, rng),
        "--qrels",
        write_shuffled(tmp_path / "qrels.txt", qrels, rng),
        *k_flag,
    ]
    assert_matches(structured_report(argv, tmp_path / "report.json", {"k": ks}), retrieval_values(rankings, grades, ks))


def localization_track(tmp_path, rng):
    """The input flags of a random localization track, the parameters they set, the IoU table the
    oracles give for them, and the track.

    The run's last question is unjudged; ``--lambda`` is 0 or 3.
    """
    questions = rng.randint(1, 4)
    run, qrels = oracles.random_localization_fixture(rng, questions=questions + 1)
    del qrels[f"Q{questions}"]
    lam = rng.choice([0, 3])
    mus = rng.sample([i / 20 for i in range(1, 21)], rng.randint(1, 3))
    ns, n_flag = random_depths(rng, "--n")
    records = [
        {
            "question": qid,
            "video": video,
            "start": timestamp(start, rng),
            "end": timestamp(end, rng),
            "score": tied_score(rank),
            "rank": rank,
        }
        for qid, candidates in run.items()
        for video, (start, end), rank in candidates
    ]
    answers = [
        {"question": qid, "video": video, "start": timestamp(start, rng), "end": timestamp(end, rng)}
        for qid, pool in qrels.items()
        for video, _, intervals in pool
        for start, end in intervals
    ]
    grade_lines = [f"{qid} 0 {video} {grade}" for qid, pool in qrels.items() for video, grade, _ in pool]
    inputs = [
        "--run",
        write_shuffled(tmp_path / "localization.jsonl", [json.dumps(record) for record in records], rng),
        "--qrels",
        write_shuffled(tmp_path / "qrels.txt", grade_lines, rng),
        write_shuffled(tmp_path / "answers.jsonl", [json.dumps(answer) for answer in answers], rng),
        *n_flag,
        "--mu",
        ",".join(map(str, mus)),
        "--lambda",
        str(lam),
    ]
    oracle_run, oracle_qrels = oracles.to_oracle(run, qrels)
    table = {
        f"n={n}": {
            "mIoU": 100 * oracles.mean_iou_oracle(oracle_run, oracle_qrels, n, lam),
            **{f"IoU={mu:g}": oracles.recall_at_n_iou_oracle(oracle_run, oracle_qrels, n, mu, lam) for mu in mus},
        }
        for n in ns
    }
    return inputs, {"n": ns, "mu": sorted(mus), "lambda": lam}, table, oracle_run, qrels


@reuses_tmp_path
@given(seeds)
def test_eval_localization_matches_the_iou_oracles(tmp_path, seed):
    inputs, params, table, _, _ = localization_track(tmp_path, random.Random(seed))
    assert_matches(structured_report(["eval-localization", *inputs], tmp_path / "localization.json", params), table)


@reuses_tmp_path
@given(seeds)
def test_eval_vcval_matches_the_ranking_and_iou_oracles(tmp_path, seed):
    rng = random.Random(seed)
    inputs, params, table, oracle_run, qrels = localization_track(tmp_path, rng)
    ks, k_flag = random_depths(rng, "--k")
    # vcval ranks each question's videos in order of first appearance among its candidates.
    rankings = {qid: list(dict.fromkeys(video for video, _ in candidates)) for qid, candidates in oracle_run.items()}
    grades = {qid: {video: grade for video, grade, _ in pool} for qid, pool in qrels.items()}
    echoed = {"retrieval": {"k": ks}, "localization": params}
    assert_matches(
        structured_report(["eval-vcval", *inputs, *k_flag], tmp_path / "vcval.json", echoed),
        {"retrieval": retrieval_values(rankings, grades, ks), "localization": table},
    )


def random_steps(rng):
    """0-4 steps ``(tokens, caption, (start, end))`` in whole seconds, in file order; starts may tie."""
    steps = []
    for _ in range(rng.randint(0, 4)):
        tokens, caption = oracles.random_caption(rng, "abcd")
        start = rng.randint(0, 30)
        steps.append((tokens, caption, (start, start + rng.randint(0, 15))))
    return steps


def step_track(tmp_path, rng):
    """The input flags of a random step track, and its predicted and gold steps as the parser orders them.

    Each of 1-3 gold segments has a prediction four times in five, and a
    predicted segment without gold may follow.
    """
    gold = {f"s{i}": random_steps(rng) for i in range(rng.randint(1, 3))}
    pred = {segment: random_steps(rng) for segment in gold if rng.random() < 0.8}
    if rng.random() < 0.3:
        pred["unjudged"] = random_steps(rng)
    params = {
        "theta": rng.choice([0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.01]),
        "alpha": rng.choice([0.0, 0.5, 1.0, 2.0]),
        "beta": rng.choice([0.0, 0.5, 1.0, 2.0]),
    }

    def step_file(name, segments):
        lines = [
            json.dumps(
                {
                    "segment": segment,
                    "steps": [
                        {"caption": caption, "start": timestamp(start, rng), "end": timestamp(end, rng)}
                        for _, caption, (start, end) in steps
                    ],
                }
            )
            for segment, steps in segments.items()
        ]
        return write_shuffled(tmp_path / name, lines, rng)

    inputs = ["--pred", step_file("pred.jsonl", pred), "--gold", step_file("gold.jsonl", gold)]
    inputs += [item for name, value in params.items() for item in (f"--{name}", str(value))]

    def by_start(segments):
        # The parser orders each segment's steps by start; sorted is stable, so file order breaks ties.
        return {segment: sorted(steps, key=lambda step: step[2][0]) for segment, steps in segments.items()}

    return inputs, params, by_start(pred), by_start(gold)


def aligned_segments(pred, gold, theta, alpha, beta):
    """``(pred steps, gold steps, (tp, fp, fn, pairs))`` of each gold segment, scored by the IoU and ROUGE-L oracles."""
    aligned = []
    for segment, gold_steps in gold.items():
        pred_steps = pred.get(segment, [])
        scores = [
            [
                alpha * oracles.grid_iou(p_interval, g_interval) + beta * oracles.rouge_l_oracle(p_tokens, g_tokens)[2]
                for g_tokens, _, g_interval in gold_steps
            ]
            for p_tokens, _, p_interval in pred_steps
        ]
        aligned.append((pred_steps, gold_steps, oracles.align_oracle(scores, len(gold_steps), theta)))
    return aligned


@reuses_tmp_path
@given(seeds)
def test_eval_steps_matches_the_alignment_and_iou_oracles(tmp_path, seed):
    rng = random.Random(seed)
    inputs, params, pred, gold = step_track(tmp_path, rng)
    lam = rng.randint(0, 5)
    mus = rng.sample([i / 20 for i in range(1, 21)], rng.randint(1, 3))
    tp = fp = fn = 0
    ious = []  # the relaxed IoU of each gold step with its match, 0 when unmatched
    for pred_steps, gold_steps, (s_tp, s_fp, s_fn, pairs) in aligned_segments(pred, gold, **params):
        tp, fp, fn = tp + s_tp, fp + s_fp, fn + s_fn
        match = {g_idx: p_idx for p_idx, g_idx in pairs}
        ious += [
            oracles.grid_relaxed_iou(pred_steps[match[g_idx]][2], interval, lam) if g_idx in match else 0.0
            for g_idx, (_, _, interval) in enumerate(gold_steps)
        ]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    want = {
        "Precision": 100 * precision,
        "Recall": 100 * recall,
        "F-score": 100 * f,
        **{f"IoU={mu:g}": 100 * sum(iou >= mu for iou in ious) / len(ious) if ious else 0.0 for mu in mus},
        "mIoU": 100 * statistics.fmean(ious) if ious else 0.0,
        "counts": {"tp": tp, "fp": fp, "fn": fn},
    }
    argv = ["eval-steps", *inputs, "--lambda", str(lam), "--mu", ",".join(map(str, mus))]
    echoed = {**params, "lambda": lam, "mu": sorted(mus)}
    assert_matches(structured_report(argv, tmp_path / "steps.json", echoed), want)


@reuses_tmp_path
@given(seeds)
def test_eval_captions_matches_the_text_oracles(tmp_path, seed):
    inputs, params, pred, gold = step_track(tmp_path, random.Random(seed))
    pairs = [
        (pred_steps[p_idx][0], gold_steps[g_idx][0])
        for pred_steps, gold_steps, (_, _, _, matches) in aligned_segments(pred, gold, **params)
        for p_idx, g_idx in matches
    ]
    want = {
        "BLEU-2": 100 * oracles.bleu_oracle(pairs, 2) if pairs else 0.0,
        "BLEU-3": 100 * oracles.bleu_oracle(pairs, 3) if pairs else 0.0,
        "METEOR": 100 * statistics.fmean(oracles.meteor_oracle(*pair) for pair in pairs) if pairs else 0.0,
        "ROUGE-L": 100 * statistics.fmean(oracles.rouge_l_oracle(*pair)[2] for pair in pairs) if pairs else 0.0,
        "matched_pairs": len(pairs),
    }
    assert_matches(structured_report(["eval-captions", *inputs], tmp_path / "captions.json", params), want)


# The track's pool schedule: the first 10 positions always, then 5 each at 0.3, 0.2 and 0.1.
POOL_PROBABILITIES = [1.0] * 10 + [0.3] * 5 + [0.2] * 5 + [0.1] * 5


@reuses_tmp_path
@given(seeds)
def test_pool_matches_a_recount_of_the_draws(tmp_path, seed):
    rng = random.Random(seed)
    pool_seed = rng.randint(-1000, 1_000_000)
    paths = []
    contributions = []  # (question, video, run tag, position) of each drawn entry
    for number in range(rng.randint(1, 3)):
        tag = f"run{number}"
        lines = []
        for qid in rng.sample(["q0", "q1", "q2", "q3"], rng.randint(1, 3)):
            videos = rng.sample([f"v{i}" for i in range(40)], rng.randint(0, 30))
            # Ranks with gaps: the pool reads each entry's position in its ranked list, not its rank.
            ranks = sorted(rng.sample(range(1, 100), len(videos)))
            for position, (video, rank) in enumerate(zip(videos, ranks), start=1):
                lines.append(f"{qid} Q0 {video} {rank} {tied_score(rank)} {tag}")
                probability = POOL_PROBABILITIES[position - 1] if position <= len(POOL_PROBABILITIES) else 0.0
                if inclusion_draw(pool_seed, tag, qid, position) < probability:
                    contributions.append((qid, video, tag, position))
        paths.append(write_shuffled(tmp_path / f"{tag}.run", lines, rng))
    out = tmp_path / "pool.txt"
    assert run_cli(["pool", "--run", *paths, "--seed", str(pool_seed), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines() == [
        f"# pool seed = {pool_seed}",
        "# pool bands = 10:1,5:0.3,5:0.2,5:0.1",
        *(" ".join(map(str, contribution)) for contribution in sorted(contributions)),
    ]


@reuses_tmp_path
@given(seeds)
def test_index_and_search_match_the_bm25_oracle(tmp_path, seed):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(12)]
    documents = {
        f"v{i}": (rng.choices(vocab, k=rng.randint(0, 3)), rng.choices(vocab, k=rng.randint(0, 12)))
        for i in range(rng.randint(1, 30))
    }
    queries = {f"q{i}": rng.choices(vocab, k=rng.randint(1, 4)) for i in range(rng.randint(1, 4))}
    no_title = rng.random() < 0.5
    k, k1, b = rng.randint(1, 10), rng.choice([0.1, 0.5, 0.9, 1.2, 2.0]), rng.choice([0.0, 0.4, 0.75, 1.0])
    corpus = [
        json.dumps({"video": video, "title": " ".join(title), "subtitle": " ".join(subtitle)})
        for video, (title, subtitle) in documents.items()
    ]
    query_lines = [f"{qid} {' '.join(words)}" for qid, words in queries.items()]
    index_argv = ["index", write_shuffled(tmp_path / "corpus.jsonl", corpus, rng), "--out", str(tmp_path / "idx")]
    assert run_cli(index_argv + ["--no-title"] * no_title) == 0
    out = tmp_path / "search.run"
    search_argv = ["search", str(tmp_path / "idx"), write_shuffled(tmp_path / "queries.txt", query_lines, rng)]
    assert run_cli([*search_argv, "--k", str(k), "--k1", str(k1), "--b", str(b), "--out", str(out)]) == 0

    tokens = {video: subtitle if no_title else title + subtitle for video, (title, subtitle) in documents.items()}
    want = [
        (qid, video, rank, score)
        for qid in sorted(queries)
        for rank, (video, score) in enumerate(oracles.bm25_rank_oracle(tokens, queries[qid], k, k1, b), start=1)
    ]
    got = [line.split() for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(qid, video, int(rank)) for qid, _, video, rank, _, _ in got] == [entry[:3] for entry in want]
    for (*_, score, _), (*_, oracle_score) in zip(got, want):
        assert abs(float(score) - oracle_score) <= TOL
