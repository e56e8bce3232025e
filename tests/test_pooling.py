import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from medvideval.io_formats import RetrievalRunEntry
from medvideval.pooling import Pool, PoolBand, PoolSpec, build_pool, inclusion_draw, run_prefix, write_pool


def make_run(qid="Q1", tag="sysA", depth=25):
    return {
        qid: [
            RetrievalRunEntry(qid, f"{tag}_v{rank}", rank, float(1000 - rank), tag)
            for rank in range(1, depth + 1)
        ]
    }


def pooled(pool):
    """The videos pooled for question Q1."""
    return set(pool.members.get("Q1", ()))


class TestPoolSpec:
    def test_track_schedule_probabilities(self):
        spec = PoolSpec()
        assert spec.rank_probabilities == (1.0,) * 10 + (0.3,) * 5 + (0.2,) * 5 + (0.1,) * 5

    def test_expected_inclusions_is_thirteen(self):
        assert sum(PoolSpec().rank_probabilities) == pytest.approx(13.0)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            PoolBand(0, 0.5)
        with pytest.raises(ValueError):
            PoolBand(5, 1.5)
        with pytest.raises(ValueError):
            PoolSpec(bands=())
        with pytest.raises(ValueError):
            PoolBand(2.5, 0.5)
        with pytest.raises(ValueError):
            PoolBand(True, 1.0)
        with pytest.raises(ValueError, match="band probability"):
            PoolBand(5, True)

    @pytest.mark.parametrize("seed", [1.0, True, "1"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"pool seed must be an integer, got {seed!r}")):
            PoolSpec(seed=seed)
        assert PoolSpec(seed=1).seed == 1


class TestBuildPool:
    def test_first_ten_ranks_always_present(self):
        run = make_run()
        for seed in (0, 1, 99, 12345):
            pool = build_pool([run], PoolSpec(seed=seed))
            videos = pooled(pool)
            for rank in range(1, 11):
                assert f"sysA_v{rank}" in videos

    def test_band_one_membership_is_seed_independent(self):
        run = make_run()
        first = {v for v in pooled(build_pool([run], PoolSpec(seed=1))) if int(v.split("_v")[1]) <= 10}
        second = {v for v in pooled(build_pool([run], PoolSpec(seed=2))) if int(v.split("_v")[1]) <= 10}
        assert first == second

    def test_deterministic_for_fixed_seed(self):
        runs = [make_run(tag="sysA"), make_run(tag="sysB")]
        first = write_pool(build_pool(runs, PoolSpec(seed=7)))
        second = write_pool(build_pool(runs, PoolSpec(seed=7)))
        assert first == second

    def test_different_seeds_usually_differ_beyond_band_one(self):
        run = make_run()
        pools = {write_pool(build_pool([run], PoolSpec(seed=seed))) for seed in range(20)}
        assert len(pools) > 1

    def test_zero_probability_band_contributes_nothing(self):
        spec = PoolSpec(bands=(PoolBand(2, 1.0), PoolBand(3, 0.0)), seed=0)
        pool = build_pool([make_run(depth=5)], spec)
        assert pooled(pool) == {"sysA_v1", "sysA_v2"}

    def test_raising_a_band_probability_never_removes_documents(self):
        run = make_run()
        for seed in range(10):
            low = PoolSpec(bands=(PoolBand(10, 1.0), PoolBand(5, 0.3), PoolBand(5, 0.2), PoolBand(5, 0.1)), seed=seed)
            high = PoolSpec(bands=(PoolBand(10, 1.0), PoolBand(5, 0.9), PoolBand(5, 0.2), PoolBand(5, 0.1)), seed=seed)
            assert pooled(build_pool([run], low)) <= pooled(build_pool([run], high))

    def test_ranks_beyond_schedule_excluded(self):
        pool = build_pool([make_run(depth=40)], PoolSpec(seed=0))
        assert all(int(video.split("_v")[1]) <= 25 for video in pooled(pool))

    def test_union_deduplicates_but_keeps_provenance(self):
        run_a = {"Q1": [RetrievalRunEntry("Q1", "shared", 1, 5.0, "sysA")]}
        run_b = {"Q1": [RetrievalRunEntry("Q1", "shared", 1, 9.0, "sysB")]}
        pool = build_pool([run_a, run_b], PoolSpec(seed=0))
        assert pooled(pool) == {"shared"}
        assert pool.members["Q1"]["shared"] == [("sysA", 1), ("sysB", 1)]

    def test_adding_a_run_never_perturbs_other_draws(self):
        run_a = make_run(tag="sysA")
        run_b = make_run(tag="sysB")
        alone = build_pool([run_a], PoolSpec(seed=5))
        together = build_pool([run_a, run_b], PoolSpec(seed=5))
        from_a = {
            video
            for video, contributions in together.members["Q1"].items()
            if any(tag == "sysA" for tag, _ in contributions)
        }
        assert from_a == pooled(alone)

    def test_two_runs_sharing_a_tag_on_a_question_are_rejected(self):
        run = make_run(tag="sysA")
        message = r"run tag 'sysA' is used for question 'Q1' by both run 1 and run 3"
        with pytest.raises(ValueError, match=message):
            build_pool([run, make_run(tag="sysB"), run], PoolSpec(seed=0))
        with pytest.raises(ValueError, match="by both a.run and b.run;"):
            build_pool([run, run], PoolSpec(seed=0), sources=["a.run", "b.run"])
        # The shared tag need not be the question's first one in either run.
        mixed = {"Q1": [RetrievalRunEntry("Q1", "x", 1, 2.0, "sysB"), RetrievalRunEntry("Q1", "y", 2, 1.0, "sysA")]}
        with pytest.raises(ValueError, match="run tag 'sysA' is used for question 'Q1' by both run 1 and run 2"):
            build_pool([make_run(tag="sysA"), mixed], PoolSpec(seed=0))

    def test_a_tag_shared_only_beyond_the_schedule_depth_pools(self):
        deep = {"Q1": make_run(tag="sysB")["Q1"] + [RetrievalRunEntry("Q1", "late", 26, 0.0, "sysA")]}
        pool = build_pool([make_run(tag="sysA"), deep], PoolSpec(seed=0))
        assert "late" not in pooled(pool)

    def test_one_submission_split_over_questions_pools_like_one_run(self):
        first, second = make_run("Q1"), make_run("Q2")
        split = build_pool([first, second], PoolSpec(seed=3))
        assert split == build_pool([{**first, **second}], PoolSpec(seed=3))


def _pool_outcome(runs, spec):
    """``build_pool``'s pool, or the message of the ValueError it raises."""
    try:
        return build_pool(runs, spec)
    except ValueError as exc:
        return str(exc)


_SCHEDULES = st.lists(
    st.builds(PoolBand, st.integers(1, 12), st.sampled_from((1.0, 0.6, 0.3, 0.0))), min_size=1, max_size=4
)
# Per run: its tag and each question's list depth.  Tags repeat across runs,
# so some draws share a tag on a question only within the schedule, some only
# beyond it.  Every run ranks the same videos, so pooling deduplicates.
_RUNS = st.lists(
    st.tuples(
        st.sampled_from(("sysA", "sysB", "sysC")),
        st.dictionaries(st.sampled_from(("Q1", "Q2", "Q3")), st.integers(1, 60), min_size=1),
    ),
    min_size=1,
    max_size=4,
)


@given(_RUNS, _SCHEDULES, st.integers(0, 3))
@example([("sysA", {"Q1": 60}), ("sysB", {"Q1": 3})], [PoolBand(10, 1.0), PoolBand(5, 0.3)], 0)  # deeper and shallower
@example([("sysA", {"Q1": 30}), ("sysA", {"Q1": 40})], [PoolBand(25, 0.3)], 1)  # a tag shared within the schedule
@example([("sysA", {"Q1": 5}), ("sysB", {"Q1": 8})], [PoolBand(12, 1.0), PoolBand(12, 0.6)], 2)  # runs shorter than it
def test_runs_cut_by_run_prefix_pool_as_the_full_runs_do(runs, bands, seed):
    spec = PoolSpec(tuple(bands), seed)
    full = [
        {qid: [RetrievalRunEntry(qid, f"v{rank}", rank, float(100 - rank), tag) for rank in range(1, depth + 1)]
         for qid, depth in depths.items()}
        for tag, depths in runs
    ]
    cut = [run_prefix(run, spec) for run in full]
    depth = len(spec.rank_probabilities)
    assert cut == [{qid: entries[:depth] for qid, entries in run.items()} for run in full]
    assert _pool_outcome(cut, spec) == _pool_outcome(full, spec)


class TestInclusionDraw:
    def test_uniform_range(self):
        draws = [inclusion_draw(0, "t", "Q1", rank) for rank in range(1, 1000)]
        assert all(0.0 <= draw < 1.0 for draw in draws)

    def test_deterministic(self):
        assert inclusion_draw(3, "sys", "Q2", 14) == inclusion_draw(3, "sys", "Q2", 14)

    def test_key_components_matter(self):
        base = inclusion_draw(0, "sys", "Q1", 11)
        assert base != inclusion_draw(1, "sys", "Q1", 11)
        assert base != inclusion_draw(0, "other", "Q1", 11)
        assert base != inclusion_draw(0, "sys", "Q2", 11)
        assert base != inclusion_draw(0, "sys", "Q1", 12)


def test_write_pool_lists_every_contribution_sorted():
    runs = [make_run(tag="sysB", depth=3), make_run(tag="sysA", depth=3)]
    text = write_pool(build_pool(runs, PoolSpec(seed=0)))
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines == sorted(lines)
    assert "# pool seed = 0" in text
    assert "# pool bands = 10:1,5:0.3,5:0.2,5:0.1" in text


def test_rank_probabilities_follow_the_bands():
    spec = PoolSpec((PoolBand(2, 1.0), PoolBand(3, 0.25)))
    assert spec.rank_probabilities == (1.0, 1.0, 0.25, 0.25, 0.25)


def _header_spec(text):
    """The PoolSpec that a pool file's two ``#`` header lines describe."""
    seed_line, bands_line = text.splitlines()[:2]
    seed = int(seed_line.removeprefix("# pool seed = "))
    bands = []
    for band in bands_line.removeprefix("# pool bands = ").split(","):
        depth, probability = band.split(":")
        bands.append(PoolBand(int(depth), float(probability)))
    return PoolSpec(tuple(bands), seed)


@pytest.mark.parametrize(
    "bands",
    [
        PoolSpec().bands,
        (PoolBand(5, 1 / 3), PoolBand(3, 0.1 + 0.2), PoolBand(2, 1e-7), PoolBand(1, 0.0)),
        (PoolBand(4, 0.123456789), PoolBand(1, 5e-324)),
    ],
    ids=["track", "thirds-and-sums", "long-and-tiny"],
)
def test_pool_header_reads_back_as_the_spec(bands):
    spec = PoolSpec(bands, seed=7)
    recovered = _header_spec(write_pool(build_pool([make_run()], spec)))
    assert recovered == spec
    assert recovered.rank_probabilities == spec.rank_probabilities
