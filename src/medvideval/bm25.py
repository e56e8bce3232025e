"""BM25 lexical retrieval over video subtitles, with a persistent index.

The index is built once and then immutable, so any number of searches may
run concurrently.  Building it, and the ``search`` command's batch of
queries, split their work over forked worker processes when more than one CPU
is usable (``_fork_join``); every index and run byte is the same at every
worker count.  Scoring uses the idf variant
ln(1 + (N - df + 0.5)/(df + 0.5)), which is positive even for a term in every
document, since a term lists each document at most once.

Documents get integer ids in ascending video-id order, so ascending id is
ascending video id.  Postings live in two flat ``array('I')`` blocks (doc ids
and term frequencies); term ``t`` owns positions ``offsets[t]`` up to
``offsets[t + 1]``, doc ids strictly ascending.  The file is the same arrays
dumped little-endian, so loading is a handful of ``frombytes`` calls, and
``load_index`` checks the whole layout, this order included.
"""

from __future__ import annotations

import marshal
import math
import os
import re
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from itertools import compress, islice, pairwise
from operator import add, attrgetter, ge

from .core import CheckedRecord, FormatError, VideoId
from .io_formats import CorpusDocument, RetrievalRunEntry, _check_token, write_atomically
from .text_metrics import token_counts, tokenize

BASELINE_TAG = "bm25-baseline"
INDEX_FILENAME = "bm25.idx"
INDEX_FORMAT_VERSION = 2

_HEADER = struct.Struct("<BI")  # version, CRC32 of everything after the header
_COUNTS = struct.Struct("<QQQd")  # doc count, term count, posting count, average doc length
_BLOB_SIZE = struct.Struct("<Q")
_SWAP = sys.byteorder == "big"  # the file is little-endian; 'I' is 4 bytes, 'Q' 8
_TABLE = re.compile(r"\S+(?:\n\S+)*")  # "\n"-joined whitespace-free entries

# The least text, in characters, worth a forked ``build_index`` worker: on 2
# vCPUs the ``index`` command first ran faster with a worker at about 250
# seed-1 documents (333k characters, so two workers of 167k).
_INDEX_WORK_MIN = 150_000


class Bm25Params(CheckedRecord, namedtuple("Bm25Params", "k1 b")):
    __slots__ = ()

    def __new__(cls, k1: float = 0.9, b: float = 0.4) -> Bm25Params:
        # The upper limit keeps (k1 + 1) * tf * idf and the length norms finite
        # for any index that fits the file format.
        if isinstance(k1, bool) or not 0.0 < k1 <= 1e100:
            raise ValueError(f"k1 must be in (0, 1e100], got {k1}")
        if isinstance(b, bool) or not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        return tuple.__new__(cls, (k1, b))


class InvertedIndex(namedtuple("InvertedIndex", "videos lengths avg_doc_length terms offsets doc_ids tfs")):
    """Term postings plus the document statistics BM25 needs.

    ``videos`` is ascending and a document's id is its position; ``lengths``
    ('I') is the token count per document id; ``terms`` is ascending; term
    ``t``'s postings are ``[offsets[t], offsets[t + 1])`` ('Q') of ``doc_ids``
    ('I', strictly ascending within each term, so a term lists each document
    at most once) and ``tfs`` ('I').  ``build_index`` builds this layout, and
    ``load_index`` rejects a file that breaks any of it.

    The index holds nothing beyond these fields.  ``run_from_searches``
    computes the length norms once per batch, and ``search`` is a batch of
    one, so a batch of queries should go through the former.
    """

    __slots__ = ()

    @property
    def doc_count(self) -> int:
        return len(self.videos)

    def span(self, term: str) -> tuple[int, int]:
        """Positions of ``term``'s postings in ``doc_ids``/``tfs``; empty when unindexed."""
        t = bisect_left(self.terms, term)
        if t == len(self.terms) or self.terms[t] != term:
            return (0, 0)
        return (self.offsets[t], self.offsets[t + 1])

    def length_norms(self, params: Bm25Params) -> list[float]:
        """k1 * (1 - b + b * dl / avgdl) per document id."""
        k1, b, average = params.k1, params.b, self.avg_doc_length
        return [k1 * (1.0 - b + b * (length / average if average else 0.0)) for length in self.lengths]


def build_index(corpus: Iterable[CorpusDocument], *, include_title: bool = True) -> InvertedIndex:
    """Index token counts of title + subtitle (or subtitle alone) per video.

    The documents are checked, sorted and numbered here; their words are then
    counted over contiguous ranges of document ids, in forked workers when
    ``_fork_join`` finds the corpus large enough, and the ranges' postings are
    merged term by term in id order.
    """
    documents = sorted(corpus, key=attrgetter("video"))
    work = 0
    for doc_id, doc in enumerate(documents):
        _check_token(doc.video, "video id")
        if doc_id and doc.video == documents[doc_id - 1].video:
            raise ValueError(f"duplicate video id {doc.video!r} in corpus")
        work += len(doc.subtitle) + (len(doc.title) if include_title else 0)

    def count_words(start: int, stop: int) -> tuple[list[int], dict[str, list[int]]]:
        lengths: list[int] = []
        term_postings: dict[str, list[int]] = {}  # term -> [doc, tf, doc, tf, ...]; split below by C-level slices
        for doc_id, doc in enumerate(islice(documents, start, stop), start):
            counts = token_counts(f"{doc.title} {doc.subtitle}" if include_title else doc.subtitle)
            lengths.append(sum(counts.values()))
            for term, tf in counts.items():
                posting = term_postings.get(term)
                if posting is None:
                    term_postings[term] = [doc_id, tf]
                else:
                    posting.append(doc_id)
                    posting.append(tf)
        return lengths, term_postings

    counted_lengths, term_postings = _fork_join(count_words, _merge_counts, len(documents), work, _INDEX_WORK_MIN)
    lengths = array("I", counted_lengths)
    terms = sorted(term_postings)
    offsets, doc_ids, tfs = array("Q", [0]), array("I"), array("I")
    for term in terms:
        posting = term_postings.pop(term)  # each posting is freed once copied
        doc_ids.fromlist(posting[::2])
        tfs.fromlist(posting[1::2])
        offsets.append(len(doc_ids))
    average = sum(lengths) / len(lengths) if lengths else 0.0
    return InvertedIndex([doc.video for doc in documents], lengths, average, terms, offsets, doc_ids, tfs)


def _merge_counts(counted: tuple, later: tuple) -> tuple:
    """``count_words`` of two adjacent ranges as one; the later range's ids are larger, so postings stay in id order."""
    lengths, term_postings = counted
    later_lengths, later_postings = later
    lengths += later_lengths
    while later_postings:  # each list of the later range is freed once merged
        term, posting = later_postings.popitem()
        merged = term_postings.setdefault(term, posting)
        if merged is not posting:
            merged += posting
    return counted


def _idf_from_df(doc_count: int, df: int) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); positive for every df <= N, which every index that loads has."""
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def _column(
    index: InvertedIndex, start: int, end: int, weight: float, scale: float, norms: list[float]
) -> list[float]:
    """The contribution of the postings ``[start, end)`` to each document id's score, 0.0 where absent."""
    column = [0.0] * index.doc_count
    for doc, tf in zip(index.doc_ids[start:end], index.tfs[start:end]):
        column[doc] = weight * tf * scale / (tf + norms[doc])
    return column


def _ranked(
    index: InvertedIndex,
    query: str,
    k: int,
    params: Bm25Params,
    norms: list[float],
    columns: dict[str, list[float]],
) -> tuple[list[int], list[float]]:
    """The top-k document ids of one query and every document's score, each summing the query's terms in order.

    ``columns`` holds, across a batch, the column of each term found in at
    least half the documents.  Adding a column gives each document the same
    additions in the same order as the posting loop: a document outside the
    postings gets ``+ 0.0``, which leaves a non-negative score's bits as they
    are.  A column has at most twice as many entries as the postings it covers.
    """
    scale = params.k1 + 1.0
    doc_count = index.doc_count
    # One dense accumulator per query: list indexing beats dict get/set in the
    # posting loop, and allocating it is a single C-level fill.
    scores = [0.0] * doc_count
    for term in tokenize(query):
        start, end = index.span(term)
        if start == end:
            continue
        weight = _idf_from_df(doc_count, end - start)
        if 2 * (end - start) >= doc_count:
            if term not in columns:
                columns[term] = _column(index, start, end, weight, scale, norms)
            scores = list(map(add, scores, columns[term]))
            continue
        for doc, tf in zip(index.doc_ids[start:end], index.tfs[start:end]):
            scores[doc] += weight * tf * scale / (tf + norms[doc])
    # Every contribution is positive (tf >= 1, idf > 0), so the positively
    # scoring documents are the non-zero entries, picked in ascending video-id
    # order; the stable sort keeps that order among equal scores.
    ranked = sorted(compress(range(doc_count), scores), key=scores.__getitem__, reverse=True)
    return ranked[:k], scores


def search(
    index: InvertedIndex,
    query: str,
    k: int,
    params: Bm25Params = Bm25Params(),
) -> list[tuple[VideoId, float]]:
    """Top-k positively scoring videos, ties broken by ascending video id; ``k`` is an ``int`` >= 1.

    This is ``run_from_searches`` on a batch of one.
    """
    return [(entry.video, entry.score) for entry in run_from_searches(index, {"": query}, k, params)[""]]


def run_from_searches(
    index: InvertedIndex,
    queries: Mapping[str, str],
    k: int,
    params: Bm25Params = Bm25Params(),
) -> dict[str, list[RetrievalRunEntry]]:
    """Scoreable run entries for a batch of queries, tagged ``BASELINE_TAG``.

    The length norms are computed once per batch, and so is the column of
    each term found in at least half the documents.
    """
    if type(k) is bool or not isinstance(k, int):
        raise ValueError(f"cutoff k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"cutoff k must be >= 1, got {k}")
    norms = index.length_norms(params)
    columns: dict[str, list[float]] = {}
    videos = index.videos
    run = {}
    for qid, text in queries.items():
        ranked, scores = _ranked(index, text, k, params, norms, columns)
        run[qid] = [
            tuple.__new__(RetrievalRunEntry, (qid, videos[doc], rank, scores[doc], BASELINE_TAG))
            for rank, doc in enumerate(ranked, start=1)
        ]
    return run


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _threads_alive() -> bool:
    """Whether a thread besides this one runs: a forked child would inherit the locks it holds, unreleased."""
    import threading  # here, so that commands too small to fork do not load it

    return threading.active_count() > 1


def _fork_join(task: Callable[[int, int], object], merge: Callable, count: int, work: int, minimum: int):
    """``task(start, stop)`` over contiguous ranges that split ``range(count)``, merged in range order.

    The first range runs in this process and each other range in a child made
    by ``os.fork``, which shares this process's memory copy-on-write and sends
    its result, which ``marshal`` must be able to write, back through a pipe.
    ``merge(result, later)`` folds each range's result into those before it,
    as it arrives, so that at most one worker's result waits to be merged.
    Everything runs here, as one range, when ``os.fork`` is missing, another
    thread is alive, one CPU is usable, or a worker would get less than
    ``minimum`` (>= 1) of the ``work``, both in the caller's unit.  A range
    that cannot get a process or a pipe runs here too.

    A worker that raises, or exits non-zero, makes this raise ``RuntimeError``
    once every worker is reaped; if this process's own range raises, the
    workers are killed and reaped before the exception propagates.  A worker
    whose pipe is closed exits, so no worker outlives its range.
    """
    workers = min(count, work // minimum, _usable_cpus())
    if workers < 2 or not hasattr(os, "fork") or _threads_alive():
        return task(0, count)
    ranges = list(pairwise(count * i // workers for i in range(workers + 1)))
    children = []  # (pid, read end of its pipe) per forked range, in range order; a worker leaves once reaped
    try:
        for start, stop in ranges[1:]:
            try:
                read_fd, write_fd = os.pipe()
            except OSError:  # no descriptor to spare: this range and the rest run here
                break
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:  # the worker: write the result, or the exception, and exit without returning
                status = 1
                try:
                    os.close(read_fd)
                    for _, pipe in children:  # so that only the parent holds a sibling's read end
                        pipe.close()
                    try:
                        data, status = marshal.dumps(task(start, stop)), 0
                    except BaseException as exc:  # noqa: BLE001 - the parent raises it
                        data, status = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace"), 1
                    with open(write_fd, "wb") as pipe:
                        pipe.write(data)
                except BaseException:  # noqa: BLE001 - a closed pipe: the parent has given up
                    status = 1
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        result, *unforked = [task(start, stop) for start, stop in [ranges[0], *ranges[len(children) + 1 :]]]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:
                reason = data.decode("utf-8", "replace") or f"exit status {os.waitstatus_to_exitcode(status)}"
                raise RuntimeError(f"worker process {pid} failed: {reason}")
            later = marshal.loads(data)
            del data  # freed before the merge
            result = merge(result, later)
        for later in unforked:
            result = merge(result, later)
        return result
    finally:
        if children:
            from signal import SIGKILL  # here, so that a command whose workers all succeed does not load signal

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Persistence, format version 2 (all little-endian):
#   version byte | CRC32 of the rest | <QQQd> doc count, term count,
#   posting count, average doc length | video ids ("\n"-joined, length
#   prefixed) | doc lengths 'I' | terms (likewise) | term offsets 'Q' |
#   doc ids 'I' | tfs 'I'
# Neither video ids nor terms contain whitespace, so "\n" separates them.
# ---------------------------------------------------------------------------


def _little_endian(values: array) -> array:
    """``values`` as the file stores them: the array itself, or a swapped copy on a big-endian machine."""
    if _SWAP:
        values = array(values.typecode, values)
        values.byteswap()
    return values


def _strings_blob(strings: list[str]) -> bytes:
    raw = "\n".join(strings).encode("utf-8")
    return _BLOB_SIZE.pack(len(raw)) + raw


def save_index(index: InvertedIndex, directory: str | os.PathLike):
    """Write the index under ``directory`` and return the file path as a ``pathlib.Path``.

    The file is written atomically, so the index is never seen half-written.
    An OS failure is a FormatError naming ``directory``.
    """
    from pathlib import Path  # here, so that commands that never save an index do not load pathlib

    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise FormatError(str(exc.strerror or exc), source=str(directory)) from exc
    payload = (
        _COUNTS.pack(index.doc_count, len(index.terms), len(index.doc_ids), index.avg_doc_length),
        _strings_blob(index.videos),
        _little_endian(index.lengths),
        _strings_blob(index.terms),
        _little_endian(index.offsets),
        _little_endian(index.doc_ids),
        _little_endian(index.tfs),
    )
    crc = 0
    for chunk in payload:  # the checksum and the write read each part in place; no array is copied to bytes
        crc = zlib.crc32(chunk, crc)
    target = os.path.join(directory, INDEX_FILENAME)
    write_atomically(target, _HEADER.pack(INDEX_FORMAT_VERSION, crc), *payload)
    return Path(target)


class _Reader:
    """Bounds-checked sequential reads over the bytes of an index file."""

    def __init__(self, data: bytes, source: str):
        self.data = memoryview(data)
        self.source = source
        self.at = _HEADER.size

    def take(self, size: int) -> memoryview:
        if self.at + size > len(self.data):
            raise FormatError("truncated index file", source=self.source)
        chunk = self.data[self.at : self.at + size]
        self.at += size
        return chunk

    def take_struct(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def take_array(self, typecode: str, count: int) -> array:
        values = array(typecode)
        values.frombytes(self.take(count * values.itemsize))
        if _SWAP:
            values.byteswap()
        return values

    def take_blob(self) -> memoryview:
        (size,) = self.take_struct(_BLOB_SIZE)
        return self.take(size)


def _strings(blob: memoryview, count: int, what: str, source: str) -> list[str]:
    try:
        text = str(blob, "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"corrupt {what} table: {exc.reason}", source=source) from exc
    if text and _TABLE.fullmatch(text) is None:
        raise FormatError(f"{what} table holds an empty or whitespace-bearing entry", source=source)
    strings = text.split("\n") if text else []
    if len(strings) != count:
        raise FormatError(f"{what} table holds {len(strings)} entries, header says {count}", source=source)
    if any(a >= b for a, b in zip(strings, strings[1:])):
        raise FormatError(f"{what} table is not strictly ascending", source=source)
    return strings


def load_index(directory: str | os.PathLike) -> InvertedIndex:
    """Read an index written by save_index, validating its whole structure up front.

    Every fault is a FormatError naming the file, and ``save_index`` writes
    what it is given, so this is the one check of an index's layout.
    """
    source = os.path.join(directory, INDEX_FILENAME)
    try:
        with open(source, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise FormatError(str(exc.strerror or exc), source=source) from exc
    if not data:
        raise FormatError("empty index file", source=source)
    if data[0] != INDEX_FORMAT_VERSION:
        raise FormatError(
            f"unsupported index format version {data[0]} (expected {INDEX_FORMAT_VERSION}); rebuild the index",
            source=source,
        )
    if len(data) < _HEADER.size:
        raise FormatError("truncated index file", source=source)
    reader = _Reader(data, source)
    doc_count, term_count, posting_count, avg_doc_length = reader.take_struct(_COUNTS)
    video_blob = reader.take_blob()
    lengths = reader.take_array("I", doc_count)
    term_blob = reader.take_blob()
    offsets = reader.take_array("Q", term_count + 1)
    doc_ids = reader.take_array("I", posting_count)
    tfs = reader.take_array("I", posting_count)
    if reader.at != len(data):
        raise FormatError("trailing bytes after index payload", source=source)
    (checksum,) = struct.unpack_from("<I", data, 1)
    if zlib.crc32(reader.data[_HEADER.size :]) != checksum:
        raise FormatError("index checksum mismatch (file is corrupt)", source=source)

    videos = _strings(video_blob, doc_count, "document", source)
    terms = _strings(term_blob, term_count, "term", source)
    if offsets[0] != 0 or offsets[-1] != posting_count or offsets.tolist() != sorted(offsets):
        raise FormatError("term offsets are not monotone up to the posting count", source=source)
    # Doc ids strictly ascend within a term, so an adjacent pair that does not
    # ascend must straddle a term offset, and a term's last id is its largest.
    # Neither check builds a list as long as the postings.
    if not set(offsets).issuperset(compress(range(1, posting_count), map(ge, doc_ids, islice(doc_ids, 1, None)))):
        raise FormatError("a term lists a document twice or out of order", source=source)
    if any(doc_ids[end - 1] >= doc_count for start, end in pairwise(offsets) if start < end):
        raise FormatError("posting references an unknown document", source=source)
    if 0 in tfs:
        raise FormatError("posting with zero term frequency", source=source)
    expected = sum(lengths) / doc_count if doc_count else 0.0
    if not abs(expected - avg_doc_length) <= 1e-9:
        raise FormatError("index statistics inconsistent with document lengths", source=source)
    return InvertedIndex(videos, lengths, avg_doc_length, terms, offsets, doc_ids, tfs)
