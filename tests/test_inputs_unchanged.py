"""No scorer or writer changes the parsed inputs it is given.

A parse shared by several commands in one process relies on this: each call
below gets the committed fixtures as parsed, and they must compare equal to a
deep copy taken before the call.
"""

import copy
import warnings

import pytest

from commands import ORGANISER, SMOKE, STEPS
from medvideval.bm25 import build_index, run_from_searches
from medvideval.io_formats import (
    parse_corpus,
    parse_localization_run,
    parse_qrels,
    parse_queries,
    parse_retrieval_run,
    parse_steps,
    read_text,
    write_retrieval_run,
)
from medvideval.pooling import PoolSpec, build_pool, run_prefix, write_pool
from medvideval.retrieval_metrics import evaluate_rankings, evaluate_retrieval
from medvideval.segment_metrics import IoUParams, evaluate_localization, judged_questions
from medvideval.step_alignment import evaluate_captions, evaluate_steps


def _parsed(parse, path):
    return parse(read_text(str(path)), source=str(path))


def _inputs():
    """Each call under test, by name, with the parsed inputs it is given."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a long caption and an unjudged question warn by design
        return _parsed_inputs()


def _parsed_inputs():
    run = _parsed(parse_retrieval_run, ORGANISER / "retrieval.run")
    candidates = _parsed(parse_localization_run, ORGANISER / "localization.jsonl")
    qrels = parse_qrels(read_text(str(ORGANISER / "qrels.txt")), read_text(str(ORGANISER / "answers.jsonl")))
    pred, gold = _parsed(parse_steps, STEPS / "pred.jsonl"), _parsed(parse_steps, STEPS / "gold.jsonl")
    index = build_index(_parsed(parse_corpus, SMOKE / "corpus.jsonl"))
    queries = _parsed(parse_queries, SMOKE / "queries.txt")
    spec = PoolSpec(seed=7)
    prefixes = [run_prefix(run, spec)]
    return {
        "evaluate_retrieval": (evaluate_retrieval, run, qrels),
        "evaluate_rankings": (evaluate_rankings, {qid: [c.video for c in cs] for qid, cs in candidates.items()}, qrels),
        "evaluate_localization": (evaluate_localization, candidates, qrels, IoUParams()),
        "evaluate_localization-judged": (evaluate_localization, judged_questions(candidates, qrels), qrels),
        "build_pool": (build_pool, prefixes, spec, ["retrieval.run"]),
        "write_pool": (write_pool, build_pool(prefixes, spec)),
        "evaluate_steps": (evaluate_steps, pred, gold),
        "evaluate_captions": (evaluate_captions, pred, gold),
        "run_from_searches": (run_from_searches, index, queries, 10),
        "write_retrieval_run": (write_retrieval_run, run),
    }


@pytest.mark.filterwarnings("ignore::medvideval.core.ToolkitWarning")  # the fixture's unjudged question warns by design
@pytest.mark.parametrize("name", list(_inputs()))
def test_call_leaves_its_parsed_inputs_equal(name):
    call, *arguments = _inputs()[name]
    before = copy.deepcopy(arguments)
    call(*arguments)
    assert arguments == before
