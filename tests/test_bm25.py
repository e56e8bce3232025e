import math
import random
import struct
import sys
import zlib
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medvideval.bm25 import (
    Bm25Params,
    build_index,
    bm25_score,
    idf,
    load_index,
    run_from_searches,
    save_index,
    search,
)
from medvideval.core import FormatError
from medvideval.io_formats import CorpusDocument
from medvideval.text_metrics import tokenize
from oracles import bm25_rank_oracle


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

    def test_insertion_order_invariant(self):
        corpus = docs("alpha beta gamma", "beta beta delta", "gamma alpha alpha")
        forward = build_index(corpus)
        backward = build_index(list(reversed(corpus)))
        assert forward == backward
        assert search(forward, "alpha beta", 3) == search(backward, "alpha beta", 3)


class TestScoring:
    def test_single_doc_idf(self):
        index = build_index(docs("press the wound"))
        assert idf(index, "press") == pytest.approx(math.log(1 + 0.5 / 1.5), abs=1e-9)
        assert idf(index, "press") == pytest.approx(0.2877, abs=1e-4)

    def test_absent_term_contributes_zero(self):
        index = build_index(docs("press the wound"))
        with_term = bm25_score(["press"], "v1", index)
        padded = bm25_score(["press", "zebra"], "v1", index)
        assert with_term == padded
        assert bm25_score(["zebra"], "v1", index) == 0.0

    def test_k1_irrelevant_when_tf_zero(self):
        index = build_index(docs("press the wound"))
        assert bm25_score(["zebra"], "v1", index, Bm25Params(k1=0.9)) == 0.0
        assert bm25_score(["zebra"], "v1", index, Bm25Params(k1=1.8)) == 0.0

    def test_single_doc_full_score_from_definition(self):
        index = build_index(docs("press the wound press"))
        params = Bm25Params()
        # tf=2, dl=4, avg=4 -> norm = k1; idf = ln(1 + 0.5/1.5)
        expected = math.log(1 + 0.5 / 1.5) * 2 * (params.k1 + 1) / (2 + params.k1)
        assert bm25_score(["press"], "v1", index, params) == pytest.approx(expected, abs=1e-12)

    def test_unknown_video_rejected(self):
        index = build_index(docs("press the wound"))
        with pytest.raises(KeyError):
            bm25_score(["press"], "ghost", index)

    def test_idf_non_negative_for_all_document_frequencies(self):
        corpus = docs(*["common word"] * 10)
        index = build_index(corpus)
        assert idf(index, "common") >= 0.0
        assert idf(index, "word") >= 0.0
        assert idf(index, "rare") >= 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=0)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)


class TestSearch:
    def test_k_limits_results(self):
        corpus = docs(*[f"shared term{i}" for i in range(30)])
        index = build_index(corpus)
        assert len(search(index, "shared", 10)) == 10

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

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(2024)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(60):
            corpus = [
                CorpusDocument(f"v{i:02d}", "", " ".join(rng.choices(vocab, k=rng.randint(0, 12))))
                for i in range(rng.randint(1, 50))
            ]
            index = build_index(corpus)
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            k = rng.randint(1, 10)
            tokens = {doc.video: tokenize(doc.subtitle) for doc in corpus}
            expected = bm25_rank_oracle(tokens, tokenize(query), k, 0.9, 0.4)
            produced = search(index, query, k)
            assert [v for v, _ in produced] == [v for v, _ in expected]
            for (_, got), (_, want) in zip(produced, expected):
                assert got == pytest.approx(want, abs=1e-9)

    def test_run_entries_carry_baseline_tag(self):
        index = build_index(docs("attach the mouthpiece"))
        run = run_from_searches(index, {"Q1": "mouthpiece"}, k=10)
        assert run["Q1"][0].tag == "bm25-baseline"
        assert run["Q1"][0].rank == 1


class TestPersistence:
    def test_round_trip(self, tmp_path):
        index = build_index(docs("attach the mouthpiece", "rinse the ear canal", ""))
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded == index

    def test_search_identical_after_reload(self, tmp_path):
        index = build_index(docs("attach the mouthpiece", "rinse the ear canal"))
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert search(loaded, "the mouthpiece", 2) == search(index, "the mouthpiece", 2)

    def test_version_byte_checked(self, tmp_path):
        index = build_index(docs("a b"))
        target = save_index(index, tmp_path)
        payload = bytearray(target.read_bytes())
        payload[0] = 99
        target.write_bytes(bytes(payload))
        with pytest.raises(FormatError, match="version"):
            load_index(tmp_path)

    def test_truncated_file_rejected(self, tmp_path):
        index = build_index(docs("a b", "c d"))
        target = save_index(index, tmp_path)
        payload = target.read_bytes()
        target.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(FormatError, match="truncated|inconsistent"):
            load_index(tmp_path)

    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_index(tmp_path / "nowhere")


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

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        target = save_index(build_index(docs("attach the mouthpiece", "rinse the ear canal")), tmp_path)
        payload = bytearray(target.read_bytes())
        payload[-1] ^= 0x01
        target.write_bytes(bytes(payload))
        with pytest.raises(FormatError, match="checksum"):
            load_index(tmp_path)

    def test_version_1_file_named(self, tmp_path):
        data = bytearray(_v2_file(**VALID_PARTS))
        data[0] = 1
        with pytest.raises(FormatError, match="version 1"):
            load_index(self.write(tmp_path, bytes(data)))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="empty"):
            load_index(self.write(tmp_path, b""))

    @pytest.mark.parametrize("size", [1, 3, 5, 20])
    def test_short_header_rejected(self, tmp_path, size):
        with pytest.raises(FormatError, match="truncated"):
            load_index(self.write(tmp_path, _v2_file(**VALID_PARTS)[:size]))

    def test_trailing_bytes_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="trailing"):
            load_index(self.write(tmp_path, _v2_file(**VALID_PARTS, tail=b"\0")))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"doc_ids": [0, 2, 0]}, "unknown document"),
            ({"videos": ["v2", "v1"]}, "ascending"),
            ({"videos": ["v1", "v1"]}, "ascending"),
            ({"videos": ["", "v1"]}, "empty or whitespace"),
            ({"videos": ["v 1", "v2"]}, "empty or whitespace"),
            ({"terms": ["alpha", "alpha"]}, "duplicate term"),
            ({"offsets": [0, 3, 2]}, "offsets"),
            ({"offsets": [0, 1, 2]}, "offsets"),
            ({"offsets": [1, 2, 3]}, "offsets"),
            ({"tfs": [1, 0, 1]}, "zero term frequency"),
            ({"average": 2.0}, "inconsistent"),
            ({"average": math.nan}, "inconsistent"),
            ({"videos": ["v1\nv3", "v2"]}, "document table holds 3 entries, header says 2"),
            ({"terms": ["alpha\ngamma", "beta"]}, "term table holds 3"),
            ({"videos": ["v\udcff", "v2"]}, "corrupt document table"),
        ],
    )
    def test_inconsistent_structure_rejected(self, tmp_path, change, message):
        data = _v2_file(**{**VALID_PARTS, **change})
        with pytest.raises(FormatError, match=message):
            load_index(self.write(tmp_path, data))

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


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12).map(" ".join), min_size=1, max_size=8),
    st.lists(st.sampled_from("abcdefgz"), min_size=1, max_size=6),
)
def test_bm25_score_matches_search_bit_for_bit(subtitles, query_terms):
    index = build_index(docs(*subtitles))
    params = Bm25Params(k1=1.2, b=0.75)
    ranked = dict(search(index, " ".join(query_terms), len(subtitles), params))
    for video in index.videos:
        assert bm25_score(query_terms, video, index, params) == ranked.get(video, 0.0)
