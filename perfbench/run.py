#!/usr/bin/env python3
"""Benchmark of the ``medvideval`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (inputs generated from the seed; the program sees only the files):

* ``bm25-baseline``: a participant's loop.  Each pass runs ``index`` over a
  Zipf(1) subtitle corpus, then ``search --k 1000`` over a query batch.
* ``score-track``: an organiser's loop.  Each pass runs ``eval-retrieval``,
  ``eval-localization`` and ``eval-vcval`` on four submissions, then one
  ``pool`` over the four retrieval runs.
* ``steps-captions``: each pass runs ``eval-steps`` and ``eval-captions``.

``--trace 0`` measures end to end.  Set-up (input generation plus one
untimed warm-up invocation) runs three times and reports its median.  Then a
closed loop with one client runs whole passes, one subprocess at a time,
until ``--seconds`` have passed.  Every output is hashed and compared with
the warm-up's, and sampled values are checked against ``tests/oracles.py``.
An op fails on a non-zero exit, a digest mismatch or a failed check.
Times are reported in reference seconds (see ``ReferenceClock``); the wall
clock figures are printed beside them.

``--trace 1`` profiles the layers: for every workload it runs two untraced
passes and one traced replay (``replay.py``) of each op in a fresh
interpreter, and reports the per-layer metrics.  Whatever workload is named,
the traced run covers all three, so that every layer metric has a value.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
PACKAGE = ROOT / "src" / "medvideval"
ORACLES = ROOT / "tests" / "oracles.py"

THREADS = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
UNTRACED_PASSES = 2
STARTUP_SAMPLES = 5
OP_TIMEOUT_S = 150
REFERENCE_EVERY_S = 1.0
REFERENCE_S = 0.2  # typical wall time of reference.py on the 2-core machine the bounds were set on
SPOT_QUESTIONS = 10
SPOT_QUERIES = 2
REPORT_TOLERANCE = 6e-5  # tsv reports round to four decimals
LOCALIZATION_DEPTH = 10  # deepest default --n of eval-localization
POOL_DEPTH = 25  # ranks the default pool schedule reaches


@dataclass
class Op:
    """One CLI invocation of a pass."""

    key: str  # unique within a pass
    argv: list[str]  # medvideval arguments, subcommand first
    output: Path  # file or directory the op writes
    inputs: tuple[str, ...]  # generated files the op reads

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Sample:
    key: str
    command: str
    wall_s: float
    peak_rss_mb: float
    stderr_lines: int
    digest: str | None
    lines: int  # input lines read plus output lines written
    failure: str | None = None


@dataclass
class Workload:
    name: str
    make: Callable[[Path, int], gen.Truth]
    ops: Callable[[Path, Path], list[Op]]  # (inputs, outputs) -> one pass
    check: Callable[[Path, gen.Truth, int], dict[str, str]]  # failures by op key
    inputs: Path = field(init=False)
    outputs: Path = field(init=False)

    def __post_init__(self) -> None:
        self.inputs = WORK / self.name / "inputs"
        self.outputs = WORK / self.name / "outputs"


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


# --- workloads ----------------------------------------------------------------


def bm25_ops(inp: Path, out: Path) -> list[Op]:
    index = out / "idx"
    run = out / "bm25.run"
    return [
        Op("index", ["index", _rel(inp / "corpus.jsonl"), "--out", _rel(index)], index, ("corpus.jsonl",)),
        Op(
            "search",
            ["search", _rel(index), _rel(inp / "queries.txt"), "--k", str(gen.BM25_K),
             "--threads", str(THREADS), "--out", _rel(run)],
            run,
            ("queries.txt",),
        ),
    ]


def _tags() -> list[str]:
    return [f"sys{'ABCDEFGH'[s]}" for s in range(gen.TRACK_SUBMISSIONS)]


def track_ops(inp: Path, out: Path) -> list[Op]:
    qrels = [_rel(inp / "qrels.txt"), _rel(inp / "answers.jsonl")]
    ops = []
    for tag in _tags():
        for command, run in (
            ("eval-retrieval", f"{tag}.run"),
            ("eval-localization", f"{tag}.loc.jsonl"),
            ("eval-vcval", f"{tag}.loc.jsonl"),
        ):
            target = out / f"{command}.{tag}.tsv"
            ops.append(
                Op(
                    f"{command}:{tag}",
                    [command, "--run", _rel(inp / run), "--qrels", *qrels,
                     "--threads", str(THREADS), "--out", _rel(target)],
                    target,
                    (run, "qrels.txt", "answers.jsonl"),
                )
            )
    runs = [f"{tag}.run" for tag in _tags()]
    pool = out / "pool.txt"
    ops.append(Op("pool", ["pool", "--run", *[_rel(inp / r) for r in runs], "--out", _rel(pool)], pool, tuple(runs)))
    return ops


def steps_ops(inp: Path, out: Path) -> list[Op]:
    files = ["--pred", _rel(inp / "pred.steps.jsonl"), "--gold", _rel(inp / "gold.steps.jsonl")]
    return [
        Op(command, [command, *files, "--threads", str(THREADS), "--out", _rel(out / f"{command}.tsv")],
           out / f"{command}.tsv", ("pred.steps.jsonl", "gold.steps.jsonl"))
        for command in ("eval-steps", "eval-captions")
    ]


def _load_oracles():
    sys.dont_write_bytecode = True  # import the oracles read-only
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report_values(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("\t")
            values[key] = value
    return values


class _Bag(Counter):
    """A document's tokens as a multiset: ``count``, ``in`` and ``len`` answer
    as they do for the token list, in constant time, so the brute-force BM25
    oracle scores a whole corpus in seconds."""

    def __init__(self, tokens: list[str]):
        super().__init__(tokens)
        self.size = len(tokens)

    def __len__(self) -> int:
        return self.size

    def count(self, token: str) -> int:
        return self[token]


def bm25_check(out: Path, truth: gen.Truth, seed: int) -> dict[str, str]:
    """Rank a seeded sample of short queries with the brute-force oracle."""
    oracles = _load_oracles()
    run: dict[str, list[tuple[str, float]]] = {}
    for line in (out / "bm25.run").read_text(encoding="utf-8").splitlines():
        qid, _, video, _, score, _ = line.split()
        run.setdefault(qid, []).append((video, float(score)))
    corpus = {video: _Bag(tokens) for video, tokens in truth.corpus_tokens.items()}
    short = sorted(qid for qid, tokens in truth.queries.items() if len(tokens) <= 5)
    for qid in random.Random(f"check:{seed}").sample(short, SPOT_QUERIES):
        expected = oracles.bm25_rank_oracle(corpus, truth.queries[qid], gen.BM25_K, 0.9, 0.4)
        got = run.get(qid, [])
        if len(got) != len(expected):
            return {"search": f"{qid}: {len(got)} results, oracle has {len(expected)}"}
        for rank, ((video, score), (want_video, want_score)) in enumerate(zip(got, expected), start=1):
            if abs(score - want_score) > 1e-9 * max(1.0, abs(want_score)):
                return {"search": f"{qid} rank {rank}: score {score!r}, oracle {want_score!r}"}
            if video != want_video and not any(
                abs(s - score) <= 1e-9 * max(1.0, abs(score)) for v, s in expected if v == video
            ):
                return {"search": f"{qid} rank {rank}: video {video}, oracle {want_video}"}
    return {}


def track_check(out: Path, truth: gen.Truth, seed: int) -> dict[str, str]:
    """Per-question retrieval values against the oracles, plus pool membership."""
    oracles = _load_oracles()
    failures = {}
    rng = random.Random(f"check:{seed}")
    for tag in _tags():
        values = _report_values(out / f"eval-retrieval.{tag}.tsv")
        for qid in rng.sample(sorted(truth.grades), SPOT_QUESTIONS):
            ranking = truth.rankings[tag][qid]
            grades = truth.grades[qid]
            relevant = {video for video, grade in grades.items() if grade > 0}
            expected = {"MAP": oracles.ap_oracle(ranking, relevant), "nDCG": oracles.ndcg_oracle(ranking, grades)}
            for k in (5, 10):
                expected[f"P@{k}"] = oracles.precision_oracle(ranking, relevant, k)
                expected[f"R@{k}"] = oracles.recall_oracle(ranking, relevant, k)
            for metric, want in expected.items():
                got = values.get(f"per_question/{qid}/{metric}")
                if got is None or abs(float(got) - want) > REPORT_TOLERANCE:
                    failures[f"eval-retrieval:{tag}"] = f"{qid} {metric}: report {got}, oracle {want:.6f}"
        for command in ("eval-localization", "eval-vcval"):
            text = (out / f"{command}.{tag}.tsv").read_text(encoding="utf-8")
            if f"num_questions = {gen.TRACK_QUESTIONS}\n" not in text:
                failures[f"{command}:{tag}"] = "report does not cover every judged question"
    contributions = set()
    for line in (out / "pool.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        qid, video, tag, rank = line.split()
        ranking = truth.rankings.get(tag, {}).get(qid, [])
        if not 1 <= int(rank) <= len(ranking) or ranking[int(rank) - 1] != video:
            failures["pool"] = f"pool line {line!r} is not in run {tag}"
        contributions.add((qid, tag, int(rank)))
    certain = {(qid, tag, rank) for tag in _tags() for qid in truth.grades for rank in range(1, 11)}
    if not certain <= contributions:
        failures["pool"] = "pool misses ranks 1-10 of some run"
    return failures


def steps_check(out: Path, truth: gen.Truth, seed: int) -> dict[str, str]:
    """Alignment counts must account for every step; captions score every match."""
    steps = _report_values(out / "eval-steps.tsv")
    captions = _report_values(out / "eval-captions.tsv")
    tp, fp, fn = (int(steps.get(f"counts/{name}", -1)) for name in ("tp", "fp", "fn"))
    failures = {}
    if tp + fp != truth.pred_steps or tp + fn != truth.gold_steps:
        failures["eval-steps"] = f"tp={tp} fp={fp} fn={fn} for {truth.pred_steps} predicted, {truth.gold_steps} gold"
    if captions.get("matched_pairs") != str(tp):
        failures["eval-captions"] = f"matched_pairs={captions.get('matched_pairs')}, eval-steps tp={tp}"
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bm25-baseline", gen.make_bm25, bm25_ops, bm25_check),
        Workload("score-track", gen.make_track, track_ops, track_check),
        Workload("steps-captions", gen.make_steps, steps_ops, steps_check),
    )
}


# --- running ops ------------------------------------------------------------------


def program_env() -> dict[str, str]:
    """The caller's environment with ``src`` importable, the thread count
    left to ``--threads``, and bytecode caching on as in a normal install."""
    env = dict(os.environ)
    env.pop("MEDVIDEVAL_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def digest(path: Path) -> tuple[str | None, int]:
    """SHA-256 of a file, or of a directory's files by name; and the lines."""
    if path.is_file():
        data = path.read_bytes()
        return hashlib.sha256(data).hexdigest(), data.count(b"\n")
    if path.is_dir():
        outer = hashlib.sha256()
        for child in sorted(path.iterdir()):
            outer.update(child.name.encode() + b"\0" + hashlib.sha256(child.read_bytes()).digest())
        return outer.hexdigest(), 0
    return None, 0


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def spawn(argv: list[str], env: dict[str, str], stdout, stderr) -> tuple[int, float, float]:
    """Run one child to completion; (exit code, wall seconds, its own peak RSS MB).

    Peak RSS comes from ``wait4`` on this child alone: ``RUSAGE_CHILDREN`` is
    the maximum over every child reaped so far, so one large op would mask
    every later one."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_op(op: Op, truth: gen.Truth, env: dict[str, str]) -> Sample:
    _remove(op.output)
    err_path = op.output.with_name(op.output.name + ".stderr")
    with open(err_path, "wb") as err:
        code, wall, rss = spawn([sys.executable, "-m", "medvideval", *op.argv], env, subprocess.DEVNULL, err)
    stderr_lines = err_path.read_bytes().count(b"\n")
    out_digest, out_lines = digest(op.output)
    lines = out_lines + sum(truth.lines[name] for name in op.inputs)
    sample = Sample(op.key, op.command, wall, rss, stderr_lines, out_digest, lines)
    if code != 0:
        sample.failure = f"exit code {code}"
    elif out_digest is None:
        sample.failure = "no output written"
    return sample


def setup(workload: Workload, seed: int, env: dict[str, str], repeats: int):
    """Generate the inputs and run one warm-up invocation, ``repeats`` times.

    Returns the set-up times, the truth, the reference digest of each op's
    output and a list of problems (non-determinism, failed warm-up)."""
    times, problems = [], []
    input_digests, warm_digests = set(), set()
    for _ in range(repeats):
        start = time.perf_counter()
        _remove(workload.inputs)
        _remove(workload.outputs)
        workload.inputs.mkdir(parents=True)
        workload.outputs.mkdir(parents=True)
        truth = workload.make(workload.inputs, seed)
        first = workload.ops(workload.inputs, workload.outputs)[0]
        warm = run_op(first, truth, env)
        times.append(time.perf_counter() - start)
        input_digests.add(digest(workload.inputs)[0])
        warm_digests.add(warm.digest)
        if warm.failure:
            problems.append(f"warm-up {warm.key}: {warm.failure}")
    if len(input_digests) != 1:
        problems.append("generated inputs differ between set-ups of one seed")
    if len(warm_digests) != 1:
        problems.append(f"warm-up {first.key} output differs between set-ups")
    return times, truth, {first.key: warm.digest}, problems


class ReferenceClock:
    """Times ``reference.py``, a job whose work never changes, about once per
    second of ops.  The host this benchmark was built on runs the same work
    up to twice as fast in some minutes as in others, and such a phase can
    outlast a whole run; scaling op times by the reference job's median in the
    same run cancels it, so runs made at different times compare."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.walls: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last < REFERENCE_EVERY_S:
            return
        argv = [sys.executable, _rel(BENCH / "reference.py")]
        code, wall, _ = spawn(argv, self.env, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"reference job exited {code}")
        self.walls.append(wall)
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns this run's wall seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.walls)


def run_pass(workload: Workload, truth: gen.Truth, env, reference: dict[str, str], clock=None) -> list[Sample]:
    samples = []
    for op in workload.ops(workload.inputs, workload.outputs):
        if clock:
            clock.tick()
        sample = run_op(op, truth, env)
        if sample.failure is None and reference.setdefault(op.key, sample.digest) != sample.digest:
            sample.failure = "output digest differs from the reference"
        samples.append(sample)
    return samples


def apply_checks(workload: Workload, truth: gen.Truth, seed: int, samples: list[Sample]) -> None:
    """Run the workload's output checks; a failed check fails every sample
    of that op, since all of them wrote the same bytes."""
    try:
        failures = workload.check(workload.outputs, truth, seed)
    except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
        failures = {sample.key: f"output check failed: {exc!r}" for sample in samples}
    for sample in samples:
        if sample.failure is None and sample.key in failures:
            sample.failure = failures[sample.key]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    at = (len(ordered) - 1) * q
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, if above p50."""
    q = (len(values) - 10) / len(values)
    return (100 * q, percentile(values, q)) if q > 0.5 else None


# --- end-to-end -------------------------------------------------------------------


def end_to_end(workload: Workload, seed: int, seconds: float):
    env = program_env()
    setup_times, truth, reference, problems = setup(workload, seed, env, SETUP_REPEATS)
    samples: list[Sample] = []
    clock = ReferenceClock(env)
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        samples += run_pass(workload, truth, env, reference, clock)
        passes += 1
        if time.perf_counter() >= deadline:
            break
    apply_checks(workload, truth, seed, samples)

    by_command: dict[str, list[float]] = {}
    for sample in samples:
        by_command.setdefault(sample.command, []).append(sample.wall_s)
    ops = workload.ops(workload.inputs, workload.outputs)
    # A pass is timed as the sum of each op's median, which is steadier than
    # the median of a few whole-pass sums.
    pass_wall_s = sum(statistics.median(by_command[op.command]) for op in ops)
    pass_s = pass_wall_s * clock.scale()
    failed = sum(1 for s in samples if s.failure)
    metrics = {
        "setup_s": (statistics.median(setup_times) * clock.scale(), "s", len(setup_times)),
        "pass_s": (pass_s, "s", passes),
        "lines_per_s": (sum(s.lines for s in samples[: len(ops)]) / pass_s, "lines/s", passes),
        "peak_rss_mb": (max(s.peak_rss_mb for s in samples), "MB", len(samples)),
    }
    print(f"workload {workload.name} seed {seed}: {passes} passes, {len(samples)} ops, "
          f"threads {THREADS}, nproc {THREADS}, os.cpu_count {os.cpu_count()}, "
          f"python {platform.python_version()}")
    for command, walls in by_command.items():
        line = f"  {command}.p50_s = {statistics.median(walls):.4f} s (n={len(walls)})"
        found = tail(walls)
        if found:
            line += f", p{found[0]:.0f} = {found[1]:.4f} s"
        stderr = statistics.median(s.stderr_lines for s in samples if s.command == command)
        print(line + f", stderr lines per op {stderr:g}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={count})")
    print(f"  wall clock: pass {pass_wall_s:.4f} s, set-up {statistics.median(setup_times):.4f} s; "
          f"reference job p50 {statistics.median(clock.walls):.4f} s (n={len(clock.walls)}), "
          f"so reference seconds = wall seconds x {clock.scale():.4f}")
    print(f"  failed_ratio = {failed / len(samples):.4g} ({failed} of {len(samples)} ops)")
    for key, ref in reference.items():
        print(f"  sha256 {key} {ref}")
    for sample in samples:
        if sample.failure:
            print(f"  FAILED {sample.key}: {sample.failure}")
    for problem in problems:
        print(f"  FAILED set-up: {problem}")
    return (
        not failed and not problems,
        len(samples),
        max(failed, 1) if problems else failed,
        {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    )


# --- traced run -----------------------------------------------------------------


def replay(op: Op, env: dict[str, str]) -> dict:
    _remove(op.output)
    out_path = WORK / "replay.out"
    with open(out_path, "wb") as out:
        code, _, _ = spawn([sys.executable, _rel(BENCH / "replay.py"), *op.argv], env, out, subprocess.DEVNULL)
    lines = out_path.read_bytes().splitlines()
    if code != 0 or not lines:
        return {"exit": code if code else 1, "spans": [], "probe": {}}
    return json.loads(lines[-1])


def traced(seed: int) -> tuple[bool, int, int, dict]:
    env = program_env()
    problems: list[str] = []
    startup = []
    for _ in range(STARTUP_SAMPLES):
        code, wall, _ = spawn([sys.executable, "-m", "medvideval", "--help"], env, subprocess.DEVNULL, subprocess.DEVNULL)
        startup.append(wall)
        if code != 0:
            problems.append(f"--help exited {code}")
    startup_s = statistics.median(startup)

    spans: list[dict] = []
    probes: dict[str, list[dict]] = {}
    coverage: dict[str, list[float]] = {}
    truths: dict[str, gen.Truth] = {}
    stderr_lines = attempted = failed = 0
    for workload in WORKLOADS.values():
        _, truth, reference, setup_problems = setup(workload, seed, env, 1)
        truths[workload.name] = truth
        problems += setup_problems
        samples = []
        for _ in range(UNTRACED_PASSES):
            samples += run_pass(workload, truth, env, reference)
        stderr_lines += sum(s.stderr_lines for s in samples) // UNTRACED_PASSES
        walls: dict[str, list[float]] = {}
        for sample in samples:
            walls.setdefault(sample.key, []).append(sample.wall_s)
        for op in workload.ops(workload.inputs, workload.outputs):
            result = replay(op, env)
            attempted += 1
            if result["exit"] != 0 or digest(op.output)[0] != reference.get(op.key):
                failed += 1
                problems.append(f"replay of {op.key} exited {result['exit']} or wrote other bytes")
            for span in result["spans"]:
                span["op"] = op.key
                span["command"] = op.command
            spans += result["spans"]
            probes.setdefault(op.command, []).append(result["probe"])
            top = sum(s["end"] - s["start"] for s in result["spans"] if s["parent"] is None)
            coverage.setdefault(op.command, []).append((startup_s + top) / statistics.median(walls[op.key]))
        apply_checks(workload, truth, seed, samples)
        attempted += len(samples)
        failed += sum(1 for s in samples if s.failure)
        problems += [f"{s.key}: {s.failure}" for s in samples if s.failure]

    (WORK / "spans.json").write_text(json.dumps(spans))
    try:
        metrics = layer_metrics(spans, probes, truths)
    except (KeyError, ZeroDivisionError, statistics.StatisticsError) as exc:  # a replay or probe failed
        problems.append(f"per-layer metrics incomplete: {exc!r}")
        metrics = {}
    metrics["cli.startup_s"] = (startup_s, "s")
    metrics["cli.stderr_lines"] = (stderr_lines, "count")
    for command, ratios in coverage.items():
        metrics[f"trace.coverage.{command}"] = (statistics.median(ratios), "ratio")
    print(f"traced run seed {seed}: {attempted} ops, {len(spans)} spans, threads {THREADS}, nproc {THREADS}, "
          f"os.cpu_count {os.cpu_count()}, python {platform.python_version()}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"  FAILED {problem}")
    return (
        not problems,
        attempted,
        max(failed, 1) if problems else 0,
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )


def _inverted(truth: gen.Truth) -> dict[str, set[str]]:
    docs: dict[str, set[str]] = {}
    for video, tokens in truth.corpus_tokens.items():
        for token in set(tokens):
            docs.setdefault(token, set()).add(video)
    return docs


def _lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#"))


def layer_metrics(spans: list[dict], probes: dict[str, list[dict]], truths: dict[str, gen.Truth]):
    """Per-layer metrics from the spans and probes of one traced pass of
    every workload.  A ``.s`` metric is the layer function's busy time summed
    over that pass; counts the inputs fix are taken from the generator."""
    busy: Counter = Counter()
    lines: Counter = Counter()
    for span in spans:
        busy[span["name"]] += span["end"] - span["start"]
        lines[span["name"]] += span.get("in_lines", 0) + span.get("out_lines", 0)

    def total(key: str) -> float:
        return sum(p[key] for group in probes.values() for p in group if key in p)

    def rate(name: str) -> float:
        return lines[name] / busy[name]

    bm25_dir = WORKLOADS["bm25-baseline"].outputs
    track_dir = WORKLOADS["score-track"].outputs
    bm25_truth = truths["bm25-baseline"]
    track_truth = truths["score-track"]

    # Term-at-a-time scoring reads every posting of every query term; the
    # documents that get a score are those holding any query term.
    docs = _inverted(bm25_truth)
    postings = sum(len(docs.get(t, ())) for tokens in bm25_truth.queries.values() for t in tokens)
    scored = sum(len(set().union(*(docs.get(t, set()) for t in tokens))) for tokens in bm25_truth.queries.values())
    search_s = [q for p in probes["search"] for q in p["query_s"]]
    corpus_bytes = (WORKLOADS["bm25-baseline"].inputs / "corpus.jsonl").stat().st_size
    index_bytes = sum(p.stat().st_size for p in (bm25_dir / "idx").iterdir())

    top = gated = parsed = 0
    for per_question in track_truth.candidates.values():
        for qid, videos in per_question.items():
            parsed += len(videos)
            if qid in track_truth.grades:
                head = videos[:LOCALIZATION_DEPTH]
                top += len(head)
                gated += sum(1 for v in head if track_truth.grades[qid].get(v, 0) > 0)
    considered = sum(
        min(len(ranking), POOL_DEPTH) for runs in track_truth.rankings.values() for ranking in runs.values()
    )
    local_busy = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "segment_metrics.evaluate_localization" and s["command"] == "eval-localization"
    )
    retrieval_calls = sum(1 for s in spans if s["name"] == "retrieval_metrics.evaluate_retrieval")
    steps = probes["eval-steps"][0]

    return {
        "io_formats.read_text.s": (busy["io_formats.read_text"], "s"),
        "io_formats.parse_retrieval_run.s": (busy["io_formats.parse_retrieval_run"], "s"),
        "io_formats.parse_retrieval_run.lines_per_s": (rate("io_formats.parse_retrieval_run"), "lines/s"),
        "io_formats.parse_localization_run.s": (busy["io_formats.parse_localization_run"], "s"),
        "io_formats.parse_localization_run.records_per_s": (rate("io_formats.parse_localization_run"), "records/s"),
        "io_formats.parse_qrels.s": (busy["io_formats.parse_qrels"], "s"),
        "io_formats.parse_corpus.s": (busy["io_formats.parse_corpus"], "s"),
        "io_formats.parse_queries.s": (busy["io_formats.parse_queries"], "s"),
        "io_formats.write_retrieval_run.s": (busy["io_formats.write_retrieval_run"], "s"),
        "io_formats.write_retrieval_run.lines_per_s": (rate("io_formats.write_retrieval_run"), "lines/s"),
        "io_formats.parse_steps.s": (busy["io_formats.parse_steps"], "s"),
        "io_formats.write_report.s": (busy["io_formats.write_report"], "s"),
        "bm25.build_index.s": (busy["bm25.build_index"], "s"),
        "bm25.build_index.tokens_per_s": (total("tokens") / busy["bm25.build_index"], "tokens/s"),
        "bm25.save_index.s": (busy["bm25.save_index"], "s"),
        "bm25.index_bytes_per_corpus_byte": (index_bytes / corpus_bytes, "ratio"),
        "bm25.load_index.s": (busy["bm25.load_index"], "s"),
        "bm25.search.s": (sum(search_s), "s"),
        "bm25.search.query_p50_ms": (1000 * statistics.median(search_s), "ms"),
        "bm25.search.postings_scanned": (postings, "count"),
        "bm25.search.kept_ratio": (_lines(bm25_dir / "bm25.run") / scored, "ratio"),
        "parallel.search_speedup": (sum(search_s) / busy["bm25.run_from_searches"], "ratio"),
        "parallel.localization_speedup": (total("evaluate_localization_1thread_s") / local_busy, "ratio"),
        "retrieval_metrics.evaluate_retrieval.s": (busy["retrieval_metrics.evaluate_retrieval"], "s"),
        "retrieval_metrics.evaluate_retrieval.questions_per_s": (
            retrieval_calls * gen.TRACK_QUESTIONS / busy["retrieval_metrics.evaluate_retrieval"], "questions/s"),
        "segment_metrics.evaluate_localization.s": (busy["segment_metrics.evaluate_localization"], "s"),
        "segment_metrics.gated_ratio": (gated / top, "ratio"),
        "segment_metrics.scored_ratio": (top / parsed, "ratio"),
        "pooling.build_pool.s": (busy["pooling.build_pool"], "s"),
        "pooling.write_pool.s": (busy["pooling.write_pool"], "s"),
        "pooling.draws": (total("draws"), "count"),
        "pooling.inclusion_ratio": (_lines(track_dir / "pool.txt") / considered, "ratio"),
        "step_alignment.evaluate_steps.s": (busy["step_alignment.evaluate_steps"], "s"),
        "step_alignment.matched_caption_pairs.s": (busy["step_alignment.matched_caption_pairs"], "s"),
        "step_alignment.cells_scored": (steps["cells_scored"], "count"),
        "step_alignment.match_ratio": (steps["tp"] / steps["cells_scored"], "ratio"),
        "text_metrics.tokenize.s": (total("tokenize_s"), "s"),
        "text_metrics.rouge_l.s": (total("rouge_l_s"), "s"),
        "text_metrics.meteor.s": (total("meteor_s"), "s"),
        "text_metrics.meteor.max_pair_ms": (1000 * total("meteor_max_pair_s"), "ms"),
        "text_metrics.bleu_n.s": (total("bleu_n_s"), "s"),
        "text_metrics.meteor.hostile_s": (total("meteor_hostile_s"), "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [path for path in (PACKAGE / "cli.py", ORACLES) if not path.is_file()]
    if missing:
        sys.stderr.write(f"error: {', '.join(map(_rel, missing))} not found; run from a medvideval checkout\n")
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.trace:
        correct, attempted, failed, metrics = traced(args.seed)
    else:
        correct, attempted, failed, metrics = end_to_end(WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
