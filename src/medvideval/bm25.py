"""BM25 lexical retrieval over video subtitles, with a persistent index.

The index is built once (single writer) and then immutable, so any number of
searches may run concurrently.  Scoring uses the non-negative idf variant
ln(1 + (N - df + 0.5)/(df + 0.5)), which never assigns negative weight to
very common terms.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import FormatError, VideoId
from .io_formats import CorpusDocument, RetrievalRunEntry
from .text_metrics import tokenize

BASELINE_TAG = "bm25-baseline"
INDEX_FILENAME = "bm25.idx"
INDEX_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 <= 0:
            raise ValueError(f"k1 must be > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass
class InvertedIndex:
    """Term postings plus the document statistics BM25 needs."""

    postings: dict[str, list[tuple[VideoId, int]]]  # term -> [(video, tf)], sorted by video
    doc_lengths: dict[VideoId, int]
    avg_doc_length: float
    doc_count: int


def build_index(corpus: Iterable[CorpusDocument], *, include_title: bool = True) -> InvertedIndex:
    """Index token counts of title + subtitle (or subtitle alone) per video."""
    doc_lengths: dict[VideoId, int] = {}
    term_docs: dict[str, dict[VideoId, int]] = {}
    for doc in corpus:
        if doc.video in doc_lengths:
            raise ValueError(f"duplicate video id {doc.video!r} in corpus")
        text = f"{doc.title} {doc.subtitle}" if include_title else doc.subtitle
        tokens = tokenize(text)
        doc_lengths[doc.video] = len(tokens)
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            term_docs.setdefault(term, {})[doc.video] = tf
    postings = {term: sorted(docs.items()) for term, docs in term_docs.items()}
    count = len(doc_lengths)
    average = sum(doc_lengths.values()) / count if count else 0.0
    return InvertedIndex(postings, doc_lengths, average, count)


def idf(index: InvertedIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); non-negative for every df <= N."""
    df = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def _term_frequency(index: InvertedIndex, term: str, video: VideoId) -> int:
    posting = index.postings.get(term)
    if not posting:
        return 0
    at = bisect_left(posting, (video,))
    if at < len(posting) and posting[at][0] == video:
        return posting[at][1]
    return 0


def _length_norm(index: InvertedIndex, video: VideoId, params: Bm25Params) -> float:
    relative = index.doc_lengths[video] / index.avg_doc_length if index.avg_doc_length else 0.0
    return params.k1 * (1.0 - params.b + params.b * relative)


def bm25_score(
    query_terms: Sequence[str],
    video: VideoId,
    index: InvertedIndex,
    params: Bm25Params = Bm25Params(),
) -> float:
    """Sum of per-term BM25 contributions; terms absent from the video add 0."""
    if video not in index.doc_lengths:
        raise KeyError(f"video {video!r} is not in the index")
    norm = _length_norm(index, video, params)
    score = 0.0
    for term in query_terms:
        tf = _term_frequency(index, term, video)
        if tf == 0:
            continue
        score += idf(index, term) * tf * (params.k1 + 1.0) / (tf + norm)
    return score


def search(
    index: InvertedIndex,
    query: str,
    k: int,
    params: Bm25Params = Bm25Params(),
) -> list[tuple[VideoId, float]]:
    """Top-k positively scoring videos, ties broken by ascending video id."""
    if k < 1:
        raise ValueError(f"cutoff k must be >= 1, got {k}")
    scores: dict[VideoId, float] = {}
    for term in tokenize(query):
        posting = index.postings.get(term)
        if not posting:
            continue
        weight = idf(index, term)
        for video, tf in posting:
            contribution = weight * tf * (params.k1 + 1.0) / (tf + _length_norm(index, video, params))
            scores[video] = scores.get(video, 0.0) + contribution
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [(video, score) for video, score in ranked if score > 0.0][:k]


def run_from_searches(
    index: InvertedIndex,
    queries: Mapping[str, str],
    k: int,
    params: Bm25Params = Bm25Params(),
    tag: str = BASELINE_TAG,
) -> dict[str, list[RetrievalRunEntry]]:
    """Scoreable run entries for a batch of queries, tagged for evaluation."""
    return {
        qid: [
            RetrievalRunEntry(qid, video, rank, score, tag)
            for rank, (video, score) in enumerate(search(index, text, k, params), start=1)
        ]
        for qid, text in queries.items()
    }


# ---------------------------------------------------------------------------
# Persistence: a small versioned binary layout
#   version byte | statistics | document table | term dictionary + postings
# ---------------------------------------------------------------------------


def save_index(index: InvertedIndex, directory: str | Path) -> Path:
    """Write the index under ``directory`` and return the file path."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    videos = sorted(index.doc_lengths)
    doc_ids = {video: i for i, video in enumerate(videos)}
    out = bytearray()
    out.append(INDEX_FORMAT_VERSION)
    out += struct.pack("<Qd", index.doc_count, index.avg_doc_length)
    out += struct.pack("<Q", len(videos))
    for video in videos:
        raw = video.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
        out += struct.pack("<Q", index.doc_lengths[video])
    terms = sorted(index.postings)
    out += struct.pack("<Q", len(terms))
    for term in terms:
        raw = term.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
        posting = index.postings[term]
        out += struct.pack("<Q", len(posting))
        for video, tf in posting:
            out += struct.pack("<II", doc_ids[video], tf)
    target = path / INDEX_FILENAME
    target.write_bytes(bytes(out))
    return target


class _Reader:
    def __init__(self, data: bytes, source: str):
        self.data = data
        self.source = source
        self.at = 0

    def take(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        if self.at + size > len(self.data):
            raise FormatError("truncated index file", source=self.source)
        values = struct.unpack_from(fmt, self.data, self.at)
        self.at += size
        return values

    def take_str(self) -> str:
        (length,) = self.take("<I")
        if self.at + length > len(self.data):
            raise FormatError("truncated index file", source=self.source)
        raw = self.data[self.at : self.at + length]
        self.at += length
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"corrupt index string: {exc.reason}", source=self.source) from exc


def load_index(directory: str | Path) -> InvertedIndex:
    """Read an index written by save_index, validating version and statistics."""
    target = Path(directory) / INDEX_FILENAME
    try:
        data = target.read_bytes()
    except OSError as exc:
        raise FormatError(str(exc.strerror or exc), source=str(target)) from exc
    source = str(target)
    if not data:
        raise FormatError("empty index file", source=source)
    version = data[0]
    if version != INDEX_FORMAT_VERSION:
        raise FormatError(f"unsupported index format version {version}", source=source)
    reader = _Reader(data, source)
    reader.at = 1
    doc_count, avg_doc_length = reader.take("<Qd")
    (table_size,) = reader.take("<Q")
    if table_size != doc_count:
        raise FormatError("index statistics inconsistent with document table", source=source)
    videos: list[str] = []
    doc_lengths: dict[str, int] = {}
    for _ in range(table_size):
        video = reader.take_str()
        (length,) = reader.take("<Q")
        if video in doc_lengths:
            raise FormatError(f"duplicate video id {video!r} in index", source=source)
        videos.append(video)
        doc_lengths[video] = length
    (term_count,) = reader.take("<Q")
    postings: dict[str, list[tuple[str, int]]] = {}
    for _ in range(term_count):
        term = reader.take_str()
        (posting_size,) = reader.take("<Q")
        posting = []
        for _ in range(posting_size):
            doc_idx, tf = reader.take("<II")
            if doc_idx >= len(videos):
                raise FormatError("posting references an unknown document", source=source)
            posting.append((videos[doc_idx], tf))
        postings[term] = posting
    if reader.at != len(data):
        raise FormatError("trailing bytes after index payload", source=source)
    expected = sum(doc_lengths.values()) / doc_count if doc_count else 0.0
    if abs(expected - avg_doc_length) > 1e-9:
        raise FormatError("index statistics inconsistent with document lengths", source=source)
    return InvertedIndex(postings, doc_lengths, avg_doc_length, doc_count)
