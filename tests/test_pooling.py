import statistics

import pytest

from medvideval.io_formats import RetrievalRunEntry
from medvideval.pooling import Pool, PoolBand, PoolSpec, build_pool, inclusion_draw, write_pool


def make_run(qid="Q1", tag="sysA", depth=25):
    return {
        qid: [
            RetrievalRunEntry(qid, f"{tag}_v{rank}", rank, float(1000 - rank), tag)
            for rank in range(1, depth + 1)
        ]
    }


class TestPoolSpec:
    def test_track_schedule_probabilities(self):
        spec = PoolSpec()
        assert spec.rank_probabilities == (1.0,) * 10 + (0.3,) * 5 + (0.2,) * 5 + (0.1,) * 5

    def test_expected_inclusions_is_thirteen(self):
        assert PoolSpec().expected_inclusions() == pytest.approx(13.0)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            PoolBand(0, 0.5)
        with pytest.raises(ValueError):
            PoolBand(5, 1.5)
        with pytest.raises(ValueError):
            PoolSpec(bands=())


class TestBuildPool:
    def test_first_ten_ranks_always_present(self):
        run = make_run()
        for seed in (0, 1, 99, 12345):
            pool = build_pool([run], PoolSpec(seed=seed))
            videos = pool.videos("Q1")
            for rank in range(1, 11):
                assert f"sysA_v{rank}" in videos

    def test_band_one_membership_is_seed_independent(self):
        run = make_run()
        first = {v for v in build_pool([run], PoolSpec(seed=1)).videos("Q1") if int(v.split("_v")[1]) <= 10}
        second = {v for v in build_pool([run], PoolSpec(seed=2)).videos("Q1") if int(v.split("_v")[1]) <= 10}
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
        assert pool.videos("Q1") == {"sysA_v1", "sysA_v2"}

    def test_raising_a_band_probability_never_removes_documents(self):
        run = make_run()
        for seed in range(10):
            low = PoolSpec(bands=(PoolBand(10, 1.0), PoolBand(5, 0.3), PoolBand(5, 0.2), PoolBand(5, 0.1)), seed=seed)
            high = PoolSpec(bands=(PoolBand(10, 1.0), PoolBand(5, 0.9), PoolBand(5, 0.2), PoolBand(5, 0.1)), seed=seed)
            assert build_pool([run], low).videos("Q1") <= build_pool([run], high).videos("Q1")

    def test_ranks_beyond_schedule_excluded(self):
        pool = build_pool([make_run(depth=40)], PoolSpec(seed=0))
        assert all(int(video.split("_v")[1]) <= 25 for video in pool.videos("Q1"))

    def test_union_deduplicates_but_keeps_provenance(self):
        run_a = {"Q1": [RetrievalRunEntry("Q1", "shared", 1, 5.0, "sysA")]}
        run_b = {"Q1": [RetrievalRunEntry("Q1", "shared", 1, 9.0, "sysB")]}
        pool = build_pool([run_a, run_b], PoolSpec(seed=0))
        assert pool.videos("Q1") == {"shared"}
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
        assert from_a == alone.videos("Q1")


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


def test_mean_inclusions_near_expectation():
    # quick version of the acceptance check: 1000 seeds, mean ~ 13
    run = make_run()
    counts = []
    for seed in range(1000):
        pool = build_pool([run], PoolSpec(seed=seed))
        counts.append(sum(len(contributions) for contributions in pool.members["Q1"].values()))
    mean = statistics.fmean(counts)
    variance = 5 * 0.3 * 0.7 + 5 * 0.2 * 0.8 + 5 * 0.1 * 0.9
    sigma = (variance / len(counts)) ** 0.5
    assert abs(mean - 13.0) <= 4 * sigma


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
