"""BM25 lexical retrieval over video subtitles, with a persistent index.

The index is built once (single writer) and then immutable, so any number of
searches may run concurrently.  Scoring uses the non-negative idf variant
ln(1 + (N - df + 0.5)/(df + 0.5)), which never assigns negative weight to
very common terms.

Documents get integer ids in ascending video-id order, so ascending id is
ascending video id.  Postings live in two flat ``array('I')`` blocks (doc ids
and term frequencies); term ``t`` owns positions ``offsets[t]`` up to
``offsets[t + 1]``, doc ids ascending.  The file is the same arrays dumped
little-endian, so loading is a handful of ``frombytes`` calls.
"""

from __future__ import annotations

import math
import re
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import FormatError, VideoId
from .io_formats import CorpusDocument, RetrievalRunEntry, _check_token, write_atomically
from .text_metrics import tokenize

BASELINE_TAG = "bm25-baseline"
INDEX_FILENAME = "bm25.idx"
INDEX_FORMAT_VERSION = 2

_HEADER = struct.Struct("<BI")  # version, CRC32 of everything after the header
_COUNTS = struct.Struct("<QQQd")  # doc count, term count, posting count, average doc length
_BLOB_SIZE = struct.Struct("<Q")
_SWAP = sys.byteorder == "big"  # the file is little-endian; 'I' is 4 bytes, 'Q' 8
_TABLE = re.compile(r"\S+(?:\n\S+)*")  # "\n"-joined whitespace-free entries


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        # The upper limit keeps (k1 + 1) * tf * idf and the length norms finite
        # for any index that fits the file format.
        if not 0.0 < self.k1 <= 1e100:
            raise ValueError(f"k1 must be in (0, 1e100], got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass
class InvertedIndex:
    """Term postings plus the document statistics BM25 needs."""

    videos: list[VideoId]  # ascending; a document's id is its position
    lengths: array  # 'I': token count per document id
    avg_doc_length: float
    terms: list[str]  # ascending
    offsets: array  # 'Q': term t's postings are [offsets[t], offsets[t + 1])
    doc_ids: array  # 'I': ascending within each term
    tfs: array  # 'I'
    _term_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    _norms: tuple[Bm25Params, list[float]] | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        self._term_ids = dict(zip(self.terms, range(len(self.terms))))

    @property
    def doc_count(self) -> int:
        return len(self.videos)

    def span(self, term: str) -> tuple[int, int]:
        """Positions of ``term``'s postings in ``doc_ids``/``tfs``; empty when unindexed."""
        t = self._term_ids.get(term)
        return (0, 0) if t is None else (self.offsets[t], self.offsets[t + 1])

    def length_norms(self, params: Bm25Params) -> list[float]:
        """k1 * (1 - b + b * dl / avgdl) per document id.

        The norms for the most recent (k1, b) are kept, so a batch of queries
        computes them once.  The cache is replaced as one tuple, never
        mutated, so concurrent searches stay correct.
        """
        cached = self._norms
        if cached is not None and cached[0] == params:
            return cached[1]
        k1, b, average = params.k1, params.b, self.avg_doc_length
        norms = [k1 * (1.0 - b + b * (length / average if average else 0.0)) for length in self.lengths]
        self._norms = (params, norms)
        return norms


def build_index(corpus: Iterable[CorpusDocument], *, include_title: bool = True) -> InvertedIndex:
    """Index token counts of title + subtitle (or subtitle alone) per video."""
    documents = sorted(corpus, key=attrgetter("video"))
    lengths = array("I")
    term_postings: dict[str, tuple[list[int], list[int]]] = {}
    for doc_id, doc in enumerate(documents):
        _check_token(doc.video, "video id")
        if doc_id and doc.video == documents[doc_id - 1].video:
            raise ValueError(f"duplicate video id {doc.video!r} in corpus")
        tokens = tokenize(f"{doc.title} {doc.subtitle}" if include_title else doc.subtitle)
        lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            posting = term_postings.get(term)
            if posting is None:
                posting = term_postings[term] = ([], [])
            posting[0].append(doc_id)
            posting[1].append(tf)
    terms = sorted(term_postings)
    offsets, doc_ids, tfs = array("Q", [0]), array("I"), array("I")
    for term in terms:
        ids, counts = term_postings[term]
        doc_ids.extend(ids)
        tfs.extend(counts)
        offsets.append(len(doc_ids))
    average = sum(lengths) / len(lengths) if lengths else 0.0
    return InvertedIndex([doc.video for doc in documents], lengths, average, terms, offsets, doc_ids, tfs)


def _idf_from_df(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def idf(index: InvertedIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); non-negative for every df <= N."""
    start, end = index.span(term)
    return _idf_from_df(index.doc_count, end - start)


def bm25_score(
    query_terms: Sequence[str],
    video: VideoId,
    index: InvertedIndex,
    params: Bm25Params = Bm25Params(),
) -> float:
    """Sum of per-term BM25 contributions; terms absent from the video add 0."""
    doc = bisect_left(index.videos, video)
    if doc == index.doc_count or index.videos[doc] != video:
        raise KeyError(f"video {video!r} is not in the index")
    return _scores(index, query_terms, params)[doc]


def _scores(index: InvertedIndex, query_terms: Iterable[str], params: Bm25Params) -> list[float]:
    """BM25 score of every document id, each summing its query terms in order."""
    norms = index.length_norms(params)
    scale = params.k1 + 1.0
    # One dense accumulator per query: list indexing beats dict get/set in the
    # posting loop, and allocating it is a single C-level fill.
    scores = [0.0] * index.doc_count
    for term in query_terms:
        start, end = index.span(term)
        if start == end:
            continue
        weight = _idf_from_df(index.doc_count, end - start)
        for doc, tf in zip(index.doc_ids[start:end], index.tfs[start:end]):
            scores[doc] += weight * tf * scale / (tf + norms[doc])
    return scores


def search(
    index: InvertedIndex,
    query: str,
    k: int,
    params: Bm25Params = Bm25Params(),
) -> list[tuple[VideoId, float]]:
    """Top-k positively scoring videos, ties broken by ascending video id."""
    if k < 1:
        raise ValueError(f"cutoff k must be >= 1, got {k}")
    scores = _scores(index, tokenize(query), params)
    # Every contribution is positive (tf >= 1, idf > 0), so the positively
    # scoring documents are the non-zero entries, picked in ascending video-id
    # order; the stable sort keeps that order among equal scores.
    ranked = sorted(compress(range(index.doc_count), scores), key=scores.__getitem__, reverse=True)
    videos = index.videos
    return [(videos[doc], scores[doc]) for doc in ranked[:k]]


def run_from_searches(
    index: InvertedIndex,
    queries: Mapping[str, str],
    k: int,
    params: Bm25Params = Bm25Params(),
) -> dict[str, list[RetrievalRunEntry]]:
    """Scoreable run entries for a batch of queries, tagged ``BASELINE_TAG``."""
    return {
        qid: [
            RetrievalRunEntry(qid, video, rank, score, BASELINE_TAG)
            for rank, (video, score) in enumerate(search(index, text, k, params), start=1)
        ]
        for qid, text in queries.items()
    }


# ---------------------------------------------------------------------------
# Persistence, format version 2 (all little-endian):
#   version byte | CRC32 of the rest | <QQQd> doc count, term count,
#   posting count, average doc length | video ids ("\n"-joined, length
#   prefixed) | doc lengths 'I' | terms (likewise) | term offsets 'Q' |
#   doc ids 'I' | tfs 'I'
# Neither video ids nor terms contain whitespace, so "\n" separates them.
# ---------------------------------------------------------------------------


def _le_bytes(values: array) -> bytes:
    if _SWAP:
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _strings_blob(strings: list[str]) -> bytes:
    raw = "\n".join(strings).encode("utf-8")
    return _BLOB_SIZE.pack(len(raw)) + raw


def save_index(index: InvertedIndex, directory: str | Path) -> Path:
    """Write the index under ``directory`` and return the file path.

    The file is written atomically, so the index is never seen half-written.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    payload = b"".join(
        (
            _COUNTS.pack(index.doc_count, len(index.terms), len(index.doc_ids), index.avg_doc_length),
            _strings_blob(index.videos),
            _le_bytes(index.lengths),
            _strings_blob(index.terms),
            _le_bytes(index.offsets),
            _le_bytes(index.doc_ids),
            _le_bytes(index.tfs),
        )
    )
    target = path / INDEX_FILENAME
    write_atomically(target, _HEADER.pack(INDEX_FORMAT_VERSION, zlib.crc32(payload)), payload)
    return target


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
    return strings


def load_index(directory: str | Path) -> InvertedIndex:
    """Read an index written by save_index, validating its whole structure up front."""
    target = Path(directory) / INDEX_FILENAME
    source = str(target)
    try:
        data = target.read_bytes()
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
    if len(set(videos)) != doc_count or videos != sorted(videos):
        raise FormatError("document table is not strictly ascending", source=source)
    terms = _strings(term_blob, term_count, "term", source)
    if offsets[0] != 0 or offsets[-1] != posting_count or offsets.tolist() != sorted(offsets):
        raise FormatError("term offsets are not monotone up to the posting count", source=source)
    if posting_count and max(doc_ids) >= doc_count:
        raise FormatError("posting references an unknown document", source=source)
    if 0 in tfs:
        raise FormatError("posting with zero term frequency", source=source)
    expected = sum(lengths) / doc_count if doc_count else 0.0
    if not abs(expected - avg_doc_length) <= 1e-9:
        raise FormatError("index statistics inconsistent with document lengths", source=source)
    index = InvertedIndex(videos, lengths, avg_doc_length, terms, offsets, doc_ids, tfs)
    if len(index._term_ids) != term_count:
        raise FormatError("duplicate term in index", source=source)
    return index
