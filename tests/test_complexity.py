"""Clock-free complexity contracts: four times the input costs at most about four times the work.

Work is counted as the events that ``sys.setprofile`` reports: each Python
call and return, and each C function called from Python.  On one interpreter
the count is the same on every run, so a test can compare two sizes with no
wall clock.  The tests assert the ratio between the sizes, never an absolute
count, because counts differ between Python versions.  A loop shows in these
events only when its body calls something: a quadratic loop that calls would
show a ratio near 16, but the iterations of a loop of plain arithmetic and
indexing show not at all.  The posting loop of BM25 search is such a loop, so
search is counted by the line events of ``sys.settrace`` instead.  Work done
inside one C call (a sort, a set lookup) is at most one event, so it is not
covered here, nor is the arithmetic on one big int.

METEOR's exact search is exponential in the shared tokens that repeat, so
it stops at a node budget: a pair over two words, whose every shared token
repeats, is pinned here at 50 and 200 tokens, and at 1,600 and 6,400 tokens,
where each of the search's pushes is one counted ``list.append``.  A pair
whose shared tokens each occur once per side is also pinned here.  Two paths
are super-linear.  Step alignment within one segment scores predicted × gold
steps: four times the steps of one segment cost at most about sixteen times
the work.  ROUGE-L is quadratic in caption length: its bit-parallel LCS
makes one big-int step per token, on ints as wide as the reference, so its
quadratic part is the big-int arithmetic these events do not see.  A count
stops at ``EVENT_LIMIT`` events and fails the test, so a path that runs away
fails instead of hanging.

The parsers convert each distinct timestamp string and rank token once per
call; the last tests count those conversions, again with no clock.
"""

import json
import random
import sys

import pytest

from medvideval import io_formats
from medvideval.bm25 import build_index, run_from_searches
from medvideval.io_formats import (
    RetrievalRunEntry,
    parse_corpus,
    parse_localization_run,
    parse_qrels,
    parse_queries,
    parse_retrieval_run,
    parse_steps,
    write_report,
    write_retrieval_run,
)
from medvideval.pooling import build_pool
from medvideval.retrieval_metrics import evaluate_rankings, retrieval_report
from medvideval.segment_metrics import IoUParams, evaluate_localization
from medvideval.step_alignment import AlignmentParams, evaluate_captions, evaluate_steps
from medvideval.text_metrics import meteor_tokens

SIZE = 200  # records at the smaller size; the larger has four times as many
MAX_RATIO = 4.5
QUESTIONS = 5  # parser inputs spread their records over this many questions
EVENT_LIMIT = 10_000_000  # about seven times the most that any case here counts


def profile_events(call) -> int:
    """The number of profile events while ``call()`` runs; the test fails once it passes ``EVENT_LIMIT``."""
    count = 0

    def tally(frame, event, arg):
        nonlocal count
        count += 1
        if count > EVENT_LIMIT:
            pytest.fail(f"more than {EVENT_LIMIT:,} profile events")

    previous = sys.getprofile()
    sys.setprofile(tally)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


def line_events(call) -> int:
    """The number of line events while ``call()`` runs: each line of Python code it executes."""
    count = 0

    def tally(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tally

    previous = sys.gettrace()
    sys.settrace(tally)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def jsonl(records) -> str:
    return "".join(json.dumps(record) + "\n" for record in records)


def timestamp(seconds: int) -> str | int:
    """Alternate between the ``MM:SS`` and the number forms, so both are read."""
    return f"{seconds // 60:02d}:{seconds % 60:02d}" if seconds % 2 else seconds


def retrieval_run_text(n: int) -> str:
    return "".join(f"q{i % QUESTIONS} Q0 v{i} {i // QUESTIONS + 1} {1.0 / (i + 1)!r} sys\n" for i in range(n))


def localization_run_text(n: int, ranked: bool = True) -> str:
    return jsonl(
        {
            "question": f"q{i % QUESTIONS}",
            "video": f"v{i % 7}",
            "start": timestamp(i % 50),
            "end": timestamp(i % 50 + 30),
            "score": 1.0 / (i + 1),
            **({"rank": i // QUESTIONS + 1} if ranked else {}),
        }
        for i in range(n)
    )


def distinct_timestamps_run_text(n: int) -> str:
    """A ranked localization run whose timestamp strings all differ, so no conversion is saved."""
    return jsonl(
        {
            "question": f"q{i % QUESTIONS}",
            "video": f"v{i}",
            "start": f"{i}.25",
            "end": f"{i}.75",
            "score": 1.0,
            "rank": i // QUESTIONS + 1,
        }
        for i in range(n)
    )


def grades_text(n: int) -> str:
    return "".join(f"q{i % QUESTIONS} 0 v{i} {i % 3}\n" for i in range(n))


def answers_text(n: int) -> str:
    """One answer interval for each positively graded video of ``grades_text(n)``."""
    return jsonl(
        {
            "question": f"q{i % QUESTIONS}",
            "video": f"v{i}",
            "start": timestamp(i % 40),
            "end": timestamp(i % 40 + 20),
        }
        for i in range(n)
        if i % 3
    )


def steps_text(n: int) -> str:
    """``n`` segments of three steps each, out of start-time order."""
    return jsonl(
        {
            "segment": f"s{i}",
            "steps": [
                {"caption": "rinse the wound with saline", "start": 20, "end": "00:30"},
                {"caption": "wash your hands", "start": "00:00", "end": 8},
                {"caption": "put on gloves", "start": 10, "end": 15},
            ],
        }
        for i in range(n)
    )


def forced_caption_pair(n: int) -> tuple[list[str], list[str]]:
    """Two token lists of ``n`` tokens whose METEOR alignment is forced: no token repeats on either side.

    The reference holds the prediction's blocks of four in reverse block
    order, with every fifth token replaced, so the alignment has many chunks.
    """
    pred = [f"w{i}" for i in range(n)]
    ref = [f"r{i}" if i % 5 == 4 else pred[i] for block in range(n - 4, -1, -4) for i in range(block, block + 4)]
    return pred, ref


def two_word_caption_pair(n: int) -> tuple[list[str], list[str]]:
    """Two token lists of ``n`` tokens, each drawn from the same two words, so METEOR searches."""
    rng = random.Random(f"meteor:{n}")
    return rng.choices(["a", "b"], k=n), rng.choices(["a", "b"], k=n)


def corpus_text(n: int) -> str:
    return jsonl({"video": f"v{i}", "title": f"video {i}", "subtitle": "wash and dry the hands"} for i in range(n))


def queries_text(n: int) -> str:
    return "".join(f"q{i} how to clean a wound number {i}\n" for i in range(n))


def rankings(n: int):
    """Six videos for each of ``n`` questions, three of them judged by ``qrels(n)``."""
    return {f"q{i}": [f"{video}{i}" for video in "xaybzc"] for i in range(n)}


def qrels(n: int):
    """Judgments for ``n`` questions, two relevant videos each with answers, one not relevant."""
    grades = "".join(f"q{i} 0 a{i} 2\nq{i} 0 b{i} 1\nq{i} 0 c{i} 0\n" for i in range(n))
    answers = jsonl(
        {"question": f"q{i}", "video": f"{video}{i}", "start": 10, "end": 40} for i in range(n) for video in "ab"
    )
    return parse_qrels(grades, answers)


def report(n: int):
    """A retrieval report with a metric row for each of ``n`` questions."""
    return retrieval_report(evaluate_rankings(rankings(n), qrels(n)))


def localization_run(n: int):
    """Ten candidates for each of ``n`` questions, some on judged videos."""
    return parse_localization_run(
        jsonl(
            {
                "question": f"q{i}",
                "video": f"{'abxyz'[rank % 5]}{i}",
                "start": 5 * rank,
                "end": 5 * rank + 30,
                "score": -rank,
            }
            for i in range(n)
            for rank in range(10)
        )
    )


def retrieval_runs(n: int, count: int):
    """``count`` runs with distinct tags, 30 ranks for each of ``n`` questions."""
    return [
        {
            f"q{i}": [
                RetrievalRunEntry(f"q{i}", f"v{(rank * (tag + 1)) % 40}", rank, float(-rank), f"sys{tag}")
                for rank in range(1, 31)
            ]
            for i in range(n)
        }
        for tag in range(count)
    ]


# Each case maps an input size to the function whose work is counted and its
# arguments, which are built before the count starts.
CASES = {
    "parse_retrieval_run": lambda n: (parse_retrieval_run, retrieval_run_text(n)),
    "parse_localization_run": lambda n: (parse_localization_run, localization_run_text(n)),
    "parse_localization_run-unranked": lambda n: (parse_localization_run, localization_run_text(n, ranked=False)),
    "parse_localization_run-distinct-timestamps": lambda n: (parse_localization_run, distinct_timestamps_run_text(n)),
    "parse_qrels": lambda n: (parse_qrels, grades_text(n), answers_text(n)),
    "parse_steps": lambda n: (parse_steps, steps_text(n)),
    "parse_corpus": lambda n: (parse_corpus, corpus_text(n)),
    "parse_queries": lambda n: (parse_queries, queries_text(n)),
    "write_retrieval_run": lambda n: (write_retrieval_run, parse_retrieval_run(retrieval_run_text(n))),
    "evaluate_rankings": lambda n: (evaluate_rankings, rankings(n), qrels(n)),
    "evaluate_localization": lambda n: (evaluate_localization, localization_run(n), qrels(n), IoUParams(lam=3.0)),
    "build_pool": lambda n: (build_pool, retrieval_runs(n // 10, 4)),
    "build_index": lambda n: (build_index, parse_corpus(corpus_text(n))),
    "evaluate_steps": lambda n: (evaluate_steps, parse_steps(steps_text(n)), parse_steps(steps_text(n))),
    "evaluate_captions": lambda n: (evaluate_captions, parse_steps(steps_text(n)), parse_steps(steps_text(n))),
    "meteor-forced": lambda n: (meteor_tokens, *forced_caption_pair(n)),
    "meteor-searched": lambda n: (meteor_tokens, *two_word_caption_pair(n // 4)),  # 50 and 200 tokens
    "meteor-long": lambda n: (meteor_tokens, *two_word_caption_pair(8 * n)),  # 1,600 and 6,400 tokens
    "write_report-tsv": lambda n: (write_report, report(n), "tsv"),
    "write_report-structured": lambda n: (write_report, report(n), "structured"),
}


@pytest.mark.parametrize("name", CASES)
def test_four_times_the_input_costs_at_most_about_four_times_the_work(name):
    def events(n: int) -> int:
        function, *arguments = CASES[name](n)
        return profile_events(lambda: function(*arguments))

    small, large = events(SIZE), events(4 * SIZE)
    assert large / small <= MAX_RATIO, (name, small, large)


def test_four_times_the_documents_cost_bm25_search_at_most_about_four_times_the_lines():
    # Every document holds the query terms, so each search walks every posting.
    def events(n: int) -> int:
        index = build_index(parse_corpus(corpus_text(n)))
        queries = {f"q{i}": "wash the hands" for i in range(QUESTIONS)}
        return line_events(lambda: run_from_searches(index, queries, 10))

    small, large = events(SIZE), events(4 * SIZE)
    assert large / small <= MAX_RATIO, (small, large)


# All steps span [0, 100] and no two captions share a word, so each cell scores
# 0.5 under a bound of 1.0.  Each scan walks every gold step left: at theta 0.4
# it matches the first, at 0.9 it matches none after ROUGE-L on every cell, and
# at 1.01 it matches none with no ROUGE-L at all.
@pytest.mark.parametrize("theta", [0.4, 0.9, 1.01])
@pytest.mark.parametrize("evaluate", [evaluate_steps, evaluate_captions])
def test_four_times_the_steps_of_one_segment_cost_at_most_about_sixteen_times_the_work(evaluate, theta):
    def events(n: int) -> int:
        pred, gold = (
            parse_steps(jsonl([{"segment": "s", "steps": [{"caption": f"{word}{i}", "start": 0, "end": 100} for i in range(n)]}]))
            for word in ("press", "wrap")
        )
        params = AlignmentParams(theta=theta)
        return profile_events(lambda: evaluate(pred, gold, params))

    small, large = events(SIZE // 4), events(SIZE)
    assert large / small <= 16 * 1.1, (small, large)


def counted(monkeypatch, name: str) -> list[str]:
    """The tokens that each later call of ``io_formats.<name>`` converts, in call order."""
    convert = getattr(io_formats, name)
    tokens: list[str] = []

    def counting(token, *arguments, **keywords):
        tokens.append(token)
        return convert(token, *arguments, **keywords)

    monkeypatch.setattr(io_formats, name, counting)
    return tokens


STAMPS = ("00:00", "00:10", "00:30")  # each record starts at one of the first two and ends at the third


def interval(i: int) -> dict[str, str]:
    return {"start": STAMPS[i % 2], "end": STAMPS[2]}


# 2,000 records over the three strings of STAMPS, for each parser that reads timestamps.
TIMESTAMP_INPUTS = {
    "parse_localization_run": lambda: (
        parse_localization_run,
        jsonl({"question": f"q{i % QUESTIONS}", "video": f"v{i}", **interval(i), "score": 1.0} for i in range(2000)),
    ),
    "parse_qrels": lambda: (
        parse_qrels,
        "".join(f"q0 0 v{i} 1\n" for i in range(2000)),
        jsonl({"question": "q0", "video": f"v{i}", **interval(i)} for i in range(2000)),
    ),
    "parse_steps": lambda: (
        parse_steps,
        jsonl({"segment": f"s{i}", "steps": [{"caption": "wrap the wrist", **interval(i)}]} for i in range(2000)),
    ),
}


@pytest.mark.parametrize("name", TIMESTAMP_INPUTS)
def test_each_timestamp_string_is_converted_once_per_call(monkeypatch, name):
    parse, *arguments = TIMESTAMP_INPUTS[name]()
    tokens = counted(monkeypatch, "parse_timestamp")
    parse(*arguments)
    assert sorted(tokens) == sorted(STAMPS)
    parse(*arguments)  # nothing is kept from the first call
    assert sorted(tokens) == sorted(2 * STAMPS)


def test_each_rank_token_is_converted_once_per_call(monkeypatch):
    text = "".join(f"q{i // 10} Q0 v{i} {i % 10 + 1} 0.5 sys\n" for i in range(3000))
    tokens = counted(monkeypatch, "_parse_int")
    parse_retrieval_run(text)
    assert sorted(tokens, key=int) == [str(rank) for rank in range(1, 11)]
    parse_retrieval_run(text)  # nothing is kept from the first call
    assert len(tokens) == 20
