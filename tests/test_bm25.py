import ast
import errno
import json
import math
import operator
import os
import random
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medvideval import bm25, cli
from medvideval.bm25 import (
    Bm25Params,
    InvertedIndex,
    build_index,
    load_index,
    run_from_searches,
    save_index,
    search,
)
from medvideval.core import FormatError
from medvideval.io_formats import CorpusDocument, RetrievalRunEntry
from medvideval.text_metrics import tokenize
from oracles import bm25_rank_oracle, reference_bm25_search


def docs(*subtitles):
    return [CorpusDocument(f"v{i}", "", text) for i, text in enumerate(subtitles, start=1)]


class TestBuildIndex:
    def test_average_length(self):
        index = build_index(docs("one two three", "one two three four five"))
        assert index.avg_doc_length == 4.0
        assert index.doc_count == 2

    def test_empty_corpus(self):
        index = build_index([])
        assert index.doc_count == 0
        assert search(index, "anything", 5) == []

    def test_shared_term_posting_sorted(self):
        index = build_index(docs("alpha beta", "alpha gamma"))
        start, end = index.span("alpha")
        assert [index.videos[doc] for doc in index.doc_ids[start:end]] == ["v1", "v2"]
        assert index.tfs[start:end].tolist() == [1, 1]

    def test_duplicate_video_rejected(self):
        with pytest.raises(ValueError, match="dup"):
            build_index([CorpusDocument("dup", "", "a"), CorpusDocument("dup", "", "b")])

    def test_title_indexed_unless_disabled(self):
        corpus = [CorpusDocument("v1", "nebulizer guide", "attach the mouthpiece")]
        with_title = build_index(corpus)
        without = build_index(corpus, include_title=False)
        assert "nebulizer" in with_title.terms
        assert "nebulizer" not in without.terms

    def test_lengths_count_the_tokens_of_each_document(self):
        corpus = [CorpusDocument("v1", "Tie.", "Tie the elbow, TIE! ... 02:30"), CorpusDocument("v2", "", "(-) !!")]
        index = build_index(corpus)
        assert index.lengths.tolist() == [len(tokenize(f"{doc.title} {doc.subtitle}")) for doc in corpus] == [6, 0]
        assert index.tfs[slice(*index.span("tie"))].tolist() == [3]

    def test_insertion_order_invariant(self):
        corpus = docs("alpha beta gamma", "beta beta delta", "gamma alpha alpha")
        forward = build_index(corpus)
        backward = build_index(list(reversed(corpus)))
        assert forward == backward
        assert search(forward, "alpha beta", 3) == search(backward, "alpha beta", 3)


class TestScoring:
    def test_single_doc_idf(self):
        # tf=1, dl=3, avg=3 -> norm = k1, so the score is idf = ln(1 + 0.5/1.5)
        index = build_index(docs("press the wound"))
        [(video, score)] = search(index, "press", 1)
        assert video == "v1"
        assert score == pytest.approx(math.log(1 + 0.5 / 1.5), abs=1e-9)
        assert score == pytest.approx(0.2877, abs=1e-4)

    def test_absent_term_contributes_zero(self):
        index = build_index(docs("press the wound"))
        assert search(index, "press zebra", 1) == search(index, "press", 1)
        assert search(index, "zebra", 1) == []

    def test_k1_irrelevant_when_tf_zero(self):
        index = build_index(docs("press the wound"))
        assert search(index, "zebra", 1, Bm25Params(k1=0.9)) == []
        assert search(index, "zebra", 1, Bm25Params(k1=1.8)) == []

    def test_single_doc_full_score_from_definition(self):
        index = build_index(docs("press the wound press"))
        params = Bm25Params()
        # tf=2, dl=4, avg=4 -> norm = k1; idf = ln(1 + 0.5/1.5)
        expected = math.log(1 + 0.5 / 1.5) * 2 * (params.k1 + 1) / (2 + params.k1)
        [(_, score)] = search(index, "press", 1, params)
        assert score == pytest.approx(expected, abs=1e-12)

    def test_term_in_every_document_still_scores_above_zero(self):
        index = build_index(docs(*["common word"] * 10))
        for query in ("common", "word"):
            ranked = search(index, query, 10)
            assert len(ranked) == 10
            assert all(score > 0.0 for _, score in ranked)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=0)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)
        with pytest.raises(ValueError, match="^k1 must be"):
            Bm25Params(k1=True)
        with pytest.raises(ValueError, match="^b must be"):
            Bm25Params(b=False)


class TestSearch:
    def test_k_limits_results(self):
        corpus = docs(*[f"shared term{i}" for i in range(30)])
        index = build_index(corpus)
        assert len(search(index, "shared", 10)) == 10
        with pytest.raises(ValueError, match="^cutoff k must be >= 1, got 0$"):
            search(index, "shared", 0)
        with pytest.raises(ValueError, match="^cutoff k must be an integer, got True$"):
            search(index, "shared", True)
        with pytest.raises(ValueError, match="^cutoff k must be an integer, got 2.5$"):
            search(index, "shared", 2.5)
        # A batch checks k up front, so even an empty one rejects a bad cutoff.
        with pytest.raises(ValueError, match="^cutoff k must be >= 1, got 0$"):
            run_from_searches(index, {}, 0)
        with pytest.raises(ValueError, match="^cutoff k must be an integer, got True$"):
            run_from_searches(index, {}, True)
        with pytest.raises(ValueError, match="^cutoff k must be an integer, got 2.5$"):
            run_from_searches(index, {}, 2.5)

    def test_no_indexed_terms_yields_empty(self):
        index = build_index(docs("press the wound"))
        assert search(index, "zebra quagga", 10) == []

    def test_ties_broken_by_ascending_video_id(self):
        index = build_index(docs("same text", "same text", "same text"))
        assert [video for video, _ in search(index, "same", 3)] == ["v1", "v2", "v3"]

    def test_three_doc_toy_matches_exhaustive_scoring(self):
        corpus = docs(
            "attach the mouthpiece to the nebulizer",
            "rinse the ear canal with saline",
            "press the canister of the inhaler",
        )
        index = build_index(corpus)
        tokens = {doc.video: tokenize(f"{doc.title} {doc.subtitle}") for doc in corpus}
        query = "how to use the nebulizer mouthpiece"
        expected = bm25_rank_oracle(tokens, tokenize(query), 3, 0.9, 0.4)
        produced = search(index, query, 3)
        assert [v for v, _ in produced] == [v for v, _ in expected]
        for (_, got), (_, want) in zip(produced, expected):
            assert got == pytest.approx(want, abs=1e-9)

    def test_run_entries_carry_baseline_tag(self):
        index = build_index(docs("attach the mouthpiece"))
        run = run_from_searches(index, {"Q1": "mouthpiece"}, k=10)
        assert run["Q1"][0].tag == "bm25-baseline"
        assert run["Q1"][0].rank == 1

    def test_run_entries_equal_constructor_built_records(self):
        index = build_index(docs("attach the mouthpiece", "rinse the mouthpiece", "attach the spacer"))
        queries = {"Q1": "attach mouthpiece", "Q2": "spacer"}
        run = run_from_searches(index, queries, k=10)
        for qid, text in queries.items():
            expected = [
                RetrievalRunEntry(qid, video, rank, score, "bm25-baseline")
                for rank, (video, score) in enumerate(reference_bm25_search(index, text, 10, Bm25Params()), start=1)
            ]
            assert run[qid] == expected
            assert all(type(entry) is RetrievalRunEntry for entry in run[qid])

    def test_a_batch_computes_the_length_norms_once(self, monkeypatch):
        index = build_index(docs("attach the mouthpiece", "rinse the mouthpiece", "attach the spacer"))
        calls = []
        length_norms = InvertedIndex.length_norms

        def counted(self, params):
            calls.append(params)
            return length_norms(self, params)

        monkeypatch.setattr(InvertedIndex, "length_norms", counted)
        run_from_searches(index, {f"Q{i}": "attach mouthpiece" for i in range(10)}, k=10)
        assert len(calls) == 1

    def test_a_batch_builds_the_column_of_a_common_term_once(self, monkeypatch):
        # "the" is in all three documents, "spacer" in one: 2 * 1 < 3, so it keeps the posting loop.
        index = build_index(docs("attach the mouthpiece", "rinse the mouthpiece", "attach the spacer"))
        spans = []
        column = bm25._column

        def counted(index, start, end, *rest):
            spans.append((start, end))
            return column(index, start, end, *rest)

        monkeypatch.setattr(bm25, "_column", counted)
        run_from_searches(index, {f"Q{i}": "the spacer" for i in range(10)}, k=10)
        assert spans == [index.span("the")]
        spans.clear()
        search(index, "the spacer", 10)
        assert spans == [index.span("the")]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        index = build_index(docs("attach the mouthpiece", "rinse the ear canal", ""))
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded == index

    def test_index_holds_nothing_beyond_its_data(self, tmp_path):
        index = build_index(docs("attach the mouthpiece", "rinse the ear canal"))
        assert InvertedIndex.__slots__ == ()
        assert not hasattr(index, "__dict__")
        save_index(index, tmp_path)
        search(index, "the mouthpiece", 2)
        run_from_searches(index, {"Q1": "rinse the canal"}, 2)
        assert load_index(tmp_path) == index
        assert build_index(docs("attach the mouthpiece")) != index

    def test_search_identical_after_reload(self, tmp_path):
        index = build_index(docs("attach the mouthpiece", "rinse the ear canal"))
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert search(loaded, "the mouthpiece", 2) == search(index, "the mouthpiece", 2)

    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_index(tmp_path / "nowhere")

    @pytest.mark.skipif(bm25._SWAP, reason="a big-endian machine writes a byteswapped copy of each array")
    def test_save_writes_the_arrays_without_copying_them(self, tmp_path):
        rng = random.Random(7)
        vocab = [f"term{n}" for n in range(500)]
        index = build_index(docs(*(" ".join(rng.sample(vocab, 60)) for _ in range(2000))))
        array_bytes = sum(
            len(values) * values.itemsize for values in (index.lengths, index.offsets, index.doc_ids, index.tfs)
        )
        tracemalloc.start()
        try:
            save_index(index, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < array_bytes / 2
        assert load_index(tmp_path) == index


# ---------------------------------------------------------------------------
# Index format version 2
# ---------------------------------------------------------------------------


def _v2_file(videos, lengths, terms, offsets, doc_ids, tfs, *, average=None, version=2, tail=b""):
    """Encode an index file from its parts, independently of save_index."""

    def blob(strings):
        raw = "\n".join(strings).encode("utf-8", "surrogateescape")  # "\udcff" encodes the invalid byte 0xff
        return struct.pack("<Q", len(raw)) + raw

    def le(typecode, values):
        values = array(typecode, values)
        if sys.byteorder == "big":
            values.byteswap()
        return values.tobytes()

    if average is None:
        average = sum(lengths) / len(lengths) if lengths else 0.0
    payload = b"".join(
        [
            struct.pack("<QQQd", len(videos), len(terms), len(doc_ids), average),
            blob(videos),
            le("I", lengths),
            blob(terms),
            le("Q", offsets),
            le("I", doc_ids),
            le("I", tfs),
            tail,
        ]
    )
    return struct.pack("<BI", version, zlib.crc32(payload)) + payload


VALID_PARTS = dict(
    videos=["v1", "v2"],
    lengths=[2, 1],
    terms=["alpha", "beta"],
    offsets=[0, 2, 3],
    doc_ids=[0, 1, 0],
    tfs=[1, 1, 1],
)


def _changed(**change) -> bytes:
    """The index file of VALID_PARTS with the given parts or ``_v2_file`` options changed."""
    return _v2_file(**{**VALID_PARTS, **change})


_VALID_FILE = _changed()

# Each fault of load_index, by test id: a corrupted index file and its exact message.
INDEX_FAULTS = {
    "empty-file": (b"", "empty index file"),
    "version-1": (b"\x01" + _VALID_FILE[1:], "unsupported index format version 1 (expected 2); rebuild the index"),
    "version-99": (b"\x63" + _VALID_FILE[1:], "unsupported index format version 99 (expected 2); rebuild the index"),
    # The header is five bytes, the version byte and the checksum; the counts follow.
    **{f"first-{size}-bytes": (_VALID_FILE[:size], "truncated index file") for size in (1, 3, 5, 20)},
    "first-half": (_VALID_FILE[: len(_VALID_FILE) // 2], "truncated index file"),
    "trailing-byte": (_changed(tail=b"\0"), "trailing bytes after index payload"),
    "flipped-payload-byte": (_VALID_FILE[:-1] + bytes([_VALID_FILE[-1] ^ 0x01]), "index checksum mismatch (file is corrupt)"),
    "invalid-utf8-video": (_changed(videos=["v\udcff", "v2"]), "corrupt document table: invalid start byte"),
    "empty-video": (_changed(videos=["", "v1"]), "document table holds an empty or whitespace-bearing entry"),
    "video-with-space": (_changed(videos=["v 1", "v2"]), "document table holds an empty or whitespace-bearing entry"),
    "video-with-line-feed": (_changed(videos=["v1\nv3", "v2"]), "document table holds 3 entries, header says 2"),
    "term-with-line-feed": (_changed(terms=["alpha\ngamma", "beta"]), "term table holds 3 entries, header says 2"),
    "videos-descending": (_changed(videos=["v2", "v1"]), "document table is not strictly ascending"),
    "video-repeated": (_changed(videos=["v1", "v1"]), "document table is not strictly ascending"),
    "terms-descending": (_changed(terms=["beta", "alpha"]), "term table is not strictly ascending"),
    "term-repeated": (_changed(terms=["alpha", "alpha"]), "term table is not strictly ascending"),
    **{
        f"offsets-{'-'.join(map(str, offsets))}": (_changed(offsets=offsets), "term offsets are not monotone up to the posting count")
        for offsets in ([0, 3, 2], [0, 1, 2], [1, 2, 3])
    },
    "document-repeated-within-a-term": (_changed(doc_ids=[0, 0, 0]), "a term lists a document twice or out of order"),
    "documents-descending-within-a-term": (_changed(doc_ids=[1, 0, 0]), "a term lists a document twice or out of order"),
    # Three postings of one document would give "alpha" df 3 > N = 1 and a negative idf.
    "one-document-listed-three-times": (
        _v2_file(["v1"], [3], ["alpha"], [0, 3], [0, 0, 0], [1, 1, 1]),
        "a term lists a document twice or out of order",
    ),
    "unknown-document": (_changed(doc_ids=[0, 2, 0]), "posting references an unknown document"),
    "zero-term-frequency": (_changed(tfs=[1, 0, 1]), "posting with zero term frequency"),
    **{
        f"average-{average}": (_changed(average=average), "index statistics inconsistent with document lengths")
        for average in (2.0, math.nan)
    },
}


@pytest.mark.parametrize("data, message", INDEX_FAULTS.values(), ids=INDEX_FAULTS)
def test_each_index_fault_keeps_its_message(tmp_path, data, message):
    (tmp_path / "bm25.idx").write_bytes(data)
    with pytest.raises(FormatError) as raised:
        load_index(tmp_path)
    assert str(raised.value) == f"{tmp_path / 'bm25.idx'}: {message}"


def _ranked_pairs(run):
    """A run's ``(video, score)`` pairs per question, in ``search``'s shape."""
    return {qid: [(entry.video, entry.score) for entry in entries] for qid, entries in run.items()}


@pytest.mark.parametrize("data", [_VALID_FILE], ids=["valid"])
def test_a_loaded_batch_equals_the_search_of_each_query(tmp_path, data):
    (tmp_path / "bm25.idx").write_bytes(data)
    index = load_index(tmp_path)
    queries = {"Q1": "alpha", "Q2": "alpha beta alpha", "Q3": "beta"}
    run = run_from_searches(index, queries, 2)
    expected = {qid: reference_bm25_search(index, text, 2, Bm25Params()) for qid, text in queries.items()}
    assert _ranked_pairs(run) == expected
    assert {qid: search(index, text, 2) for qid, text in queries.items()} == expected


class TestFormatV2:
    def write(self, tmp_path, data):
        (tmp_path / "bm25.idx").write_bytes(data)
        return tmp_path

    def test_hand_built_file_loads(self, tmp_path):
        index = load_index(self.write(tmp_path, _v2_file(**VALID_PARTS)))
        assert (index.videos, index.lengths.tolist(), index.terms) == (["v1", "v2"], [2, 1], ["alpha", "beta"])
        assert (index.offsets.tolist(), index.doc_ids.tolist(), index.tfs.tolist()) == ([0, 2, 3], [0, 1, 0], [1, 1, 1])
        assert index.avg_doc_length == 1.5

    def test_save_index_writes_the_documented_layout(self, tmp_path):
        index = build_index(docs("alpha beta", "alpha"))
        assert save_index(index, tmp_path).read_bytes() == _v2_file(**VALID_PARTS)

    def test_save_over_existing_index_leaves_one_file(self, tmp_path):
        save_index(build_index(docs("a b")), tmp_path)
        save_index(build_index(docs("c d", "e")), tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == ["bm25.idx"]
        assert load_index(tmp_path).doc_count == 2

    def test_whitespace_video_id_rejected(self):
        with pytest.raises(ValueError, match="video id"):
            build_index([CorpusDocument("v 1", "", "a")])


@st.composite
def corpora_and_queries(draw):
    vocab = [f"w{i}" for i in range(8)]
    words = st.lists(st.sampled_from(vocab), max_size=12).map(" ".join)
    videos = draw(st.lists(st.text("abcXYZ01-_.", min_size=1, max_size=4), max_size=12, unique=True))
    corpus = [CorpusDocument(video, draw(words), draw(words)) for video in videos]
    return corpus, draw(words)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    corpora_and_queries(),
    st.integers(min_value=1, max_value=15),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_round_trip_search_is_identical(tmp_path, case, k, k1, b):
    corpus, query = case
    params = Bm25Params(k1=k1, b=b)
    index = build_index(corpus)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path)
    assert loaded == index
    assert search(loaded, query, k, params) == search(index, query, k, params)


@st.composite
def common_term_batches(draw):
    """A corpus over a vocabulary of one to four words, so most terms are in half the documents or more,
    and a batch of queries that repeat its words."""
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 4)))]
    subtitles = draw(st.lists(st.lists(st.sampled_from(vocab), max_size=8).map(" ".join), max_size=12))
    texts = draw(st.lists(st.lists(st.sampled_from([*vocab, "absent"]), max_size=6).map(" ".join), min_size=1, max_size=5))
    return docs(*subtitles), {f"Q{i}": text for i, text in enumerate(texts)}


@settings(max_examples=100, deadline=None)
@given(
    common_term_batches(),
    st.integers(min_value=1, max_value=15),
    st.sampled_from([0.01, 0.9, 1.2, 5.0, 1e100]),
    st.sampled_from([0.0, 0.4, 0.75, 1.0]),
)
def test_a_batch_equals_the_search_of_each_query(case, k, k1, b):
    # A column gives each document the same additions in the same order as
    # the posting loop, so the scores are equal bit for bit, not just close.
    corpus, queries = case
    params = Bm25Params(k1=k1, b=b)
    index = build_index(corpus)
    run = run_from_searches(index, queries, k, params)
    expected = {qid: reference_bm25_search(index, text, k, params) for qid, text in queries.items()}
    assert _ranked_pairs(run) == expected
    assert {qid: search(index, text, k, params) for qid, text in queries.items()} == expected


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def workers(count):
    """Up to ``count`` workers for any work of at least one unit; yields the pids forked, which must all be reaped."""
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bm25, "_usable_cpus", lambda: count)
        patch.setattr(bm25, "_INDEX_WORK_MIN", 1)
        patch.setattr(cli, "_SEARCH_WORK_MIN", 1)
        patch.setattr(os, "fork", counted_fork)
        yield forked
    assert_no_children()


def bounds(start, stop):
    """A task whose results, merged by ``+``, list the ranges in the order they were merged."""
    return [(start, stop)]


# A worker per usable CPU, as long as each gets ``minimum`` of the ``work``; the first range runs here.
@pytest.mark.parametrize("count, cpus, work, minimum, expected", [
    (9, 3, 9, 1, [(0, 3), (3, 6), (6, 9)]),
    (10, 4, 10, 1, [(0, 2), (2, 5), (5, 7), (7, 10)]),
    (3, 8, 3, 1, [(0, 1), (1, 2), (2, 3)]),
    (10, 4, 100, 40, [(0, 5), (5, 10)]),
    (10, 4, 100, 60, [(0, 10)]),
    (10, 1, 100, 1, [(0, 10)]),
    (10, 4, 0, 1, [(0, 10)]),
    (1, 4, 1, 1, [(0, 1)]),
    (0, 4, 0, 1, [(0, 0)]),
])
def test_fork_join_merges_each_ranges_result_in_order(count, cpus, work, minimum, expected):
    with workers(cpus) as forked:
        assert bm25._fork_join(bounds, operator.add, count, work, minimum) == expected
    assert len(forked) == len(expected) - 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the platform has no CPU affinity mask")
def test_one_cpu_in_the_affinity_mask_keeps_one_process():
    # What `taskset -c 0` does, in a child interpreter, so this process keeps its CPUs.
    code = (
        "import operator, os, sys; sys.path.insert(0, sys.argv[1]); os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from medvideval import bm25; print(bm25._usable_cpus(), bm25._fork_join(lambda *bounds: [bounds], operator.add, 4, 4, 1))"
    )
    result = subprocess.run([sys.executable, "-c", code, str(Path(bm25.__file__).parents[1])], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "1 [(0, 4)]\n", "")


@pytest.mark.parametrize("forks", [0, 1])
def test_a_range_without_a_process_runs_here(forks):
    with workers(3) as forked, pytest.MonkeyPatch.context() as patch:
        fork = os.fork

        def fork_while_pids_last():
            if len(forked) == forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        patch.setattr(os, "fork", fork_while_pids_last)
        assert bm25._fork_join(bounds, operator.add, 9, 9, 1) == [(0, 3), (3, 6), (6, 9)]
    assert len(forked) == forks


def fail_in_worker(start, stop):
    if start:
        raise ValueError(f"bad range {start}-{stop}")
    return start


def die_in_worker(start, stop):
    if start:
        os.kill(os.getpid(), signal.SIGKILL)
    return start


@pytest.mark.parametrize("task, reason", [
    (fail_in_worker, r"ValueError: bad range \d+-\d+$"),
    (die_in_worker, "exit status -9$"),
], ids=["raises", "killed"])
def test_a_failed_worker_fails_the_call_once_every_worker_is_reaped(task, reason):
    with workers(4) as forked:
        with pytest.raises(RuntimeError, match=rf"^worker process \d+ failed: {reason}"):
            bm25._fork_join(task, operator.add, 8, 8, 1)
    assert len(forked) == 3


def test_a_failure_here_kills_and_reaps_the_workers_first():
    def task(start, stop):
        if not start:
            raise KeyError("own range")
        time.sleep(60)

    started = time.perf_counter()
    with workers(3) as forked:
        with pytest.raises(KeyError, match="own range"):
            bm25._fork_join(task, operator.add, 3, 3, 1)
    assert len(forked) == 2
    assert time.perf_counter() - started < 30


def test_a_worker_whose_pipe_is_closed_exits(monkeypatch):
    # With kill disabled, only the closed pipe can end the worker, which
    # writes more than a pipe holds.
    killed = []
    monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid))

    def task(start, stop):
        if not start:
            raise KeyError("own range")
        return "x" * 1_000_000

    with workers(2) as forked:
        with pytest.raises(KeyError):
            bm25._fork_join(task, operator.add, 2, 2, 1)
    assert killed == forked and len(forked) == 1


def test_nothing_forks_while_another_thread_runs():
    # A forked child would inherit whatever locks the other thread holds.
    event = threading.Event()
    thread = threading.Thread(target=event.wait)
    thread.start()
    try:
        with workers(4), pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fork", lambda: pytest.fail("forked while a second thread ran"))
            assert bm25._fork_join(bounds, operator.add, 8, 8, 1) == [(0, 8)]
            assert build_index(docs("a b", "b c", "c d")) == build_index(docs("a b", "b c", "c d"))
    finally:
        event.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_only_the_fork_join_helper_forks_reaps_or_exits():
    """One function owns every worker process, so no other code can leave one running."""
    calls = []
    for path in sorted(Path(bm25.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.ImportFrom) and node.module == "os"), f"{path.name}: {ast.unparse(node)}"
            if isinstance(node, ast.Attribute) and ast.unparse(node) in ("os.fork", "os._exit", "os.waitpid"):
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                calls.append((ast.unparse(node), f"{path.stem}.{getattr(scope, 'name', '<module>')}"))
    assert {scope for _, scope in calls} == {"bm25._fork_join"}
    assert {name for name, _ in calls} == {"os.fork", "os._exit", "os.waitpid"}


@st.composite
def forkable_corpora(draw):
    """Corpora with empty and all-punctuation documents, and maybe a term in every document."""
    text = st.one_of(
        st.lists(st.sampled_from(["w0", "w1", "W2,", "w3", "(w4)"]), max_size=6).map(" ".join),
        st.sampled_from(["", "... !! (-)"]),
    )
    everywhere = draw(st.sampled_from(["", "every "]))
    return [CorpusDocument(f"v{i:02d}", draw(text), everywhere + draw(text)) for i in range(draw(st.integers(0, 11)))]


@settings(max_examples=40, deadline=None)
@given(forkable_corpora(), st.booleans())
def test_the_index_is_the_same_at_every_worker_count(corpus, include_title):
    characters = sum(len(doc.subtitle) + (len(doc.title) if include_title else 0) for doc in corpus)
    saved = set()
    for count in range(1, 5):
        with workers(count) as forked, TemporaryDirectory() as directory:
            saved.add(save_index(build_index(corpus, include_title=include_title), directory).read_bytes())
        assert len(forked) == max(min(count, len(corpus), characters) - 1, 0)
    assert len(saved) == 1


SEARCH_CORPUS = "".join(
    json.dumps({"video": f"v{i}", "title": "", "subtitle": text}) + "\n"
    for i, text in enumerate(["press the wound", "rinse the wound", "the spacer", "attach a spacer", "", "wound care"])
)
# Ids whose file order is not their sorted order, and a question with no positive score.
SEARCH_QUERIES = "q3 the wound\nq10 spacer\nq1 zebra\nq2 press wound care\nq7 the the spacer\n"


@pytest.mark.parametrize("queries", [SEARCH_QUERIES, ""], ids=["questions", "empty"])
@pytest.mark.parametrize("count", [2, 3, 4])
def test_search_writes_the_same_run_at_every_worker_count(tmp_path, queries, count):
    (tmp_path / "corpus.jsonl").write_text(SEARCH_CORPUS)
    (tmp_path / "queries.txt").write_text(queries)
    assert cli.run_cli(["index", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "idx")]) == 0
    argv = ["search", str(tmp_path / "idx"), str(tmp_path / "queries.txt"), "--k", "100", "--out"]
    assert cli.run_cli([*argv, str(tmp_path / "one.run")]) == 0
    with workers(count) as forked:
        assert cli.run_cli([*argv, str(tmp_path / "forked.run")]) == 0
    assert len(forked) == (count - 1 if queries else 0)
    assert (tmp_path / "forked.run").read_text() == (tmp_path / "one.run").read_text()
    assert (tmp_path / "one.run").read_text().count("\n") == (13 if queries else 0)


def _fails_in_workers(function, failure):
    parent = os.getpid()

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            failure()
        return function(*args, **kwargs)

    return failing


def _raise():
    raise ValueError("worker bug")


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("failure, reason", [(_raise, "ValueError: worker bug"), (_die, "exit status -9")], ids=["raises", "killed"])
@pytest.mark.parametrize("command", ["index", "search"])
def test_a_failed_worker_exits_1_and_writes_nothing(tmp_path, command, failure, reason, monkeypatch, capsys):
    (tmp_path / "corpus.jsonl").write_text(SEARCH_CORPUS)
    (tmp_path / "queries.txt").write_text(SEARCH_QUERIES)
    assert cli.run_cli(["index", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "idx")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    if command == "index":
        monkeypatch.setattr(bm25, "token_counts", _fails_in_workers(bm25.token_counts, failure))
        argv = ["index", str(tmp_path / "corpus.jsonl"), "--out", str(out / "idx")]
    else:
        monkeypatch.setattr(cli, "run_from_searches", _fails_in_workers(cli.run_from_searches, failure))
        argv = ["search", str(tmp_path / "idx"), str(tmp_path / "queries.txt"), "--out", str(out / "bm25.run")]
    with workers(2) as forked:
        assert cli.run_cli(argv) == 1
    assert len(forked) == 1
    assert capsys.readouterr() == ("", f"internal error: worker process {forked[0]} failed: {reason}\n")
    assert list(out.iterdir()) == []
