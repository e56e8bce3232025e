"""Assessment pool construction from ranked submissions.

Rank positions fall into bands, each with an inclusion probability; every
rank gets its own Bernoulli draw keyed by (seed, run tag, question, rank), so
pools are reproducible, raising a band probability never removes a document,
and adding a run never perturbs the draws of other runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .core import QuestionId, VideoId
from .io_formats import RetrievalRunEntry

# Depth schedule used for the track assessments: pool size 25, first 10 ranks
# certain, then three bands of 5 at decreasing probability.
TRACK_SCHEDULE = ((10, 1.0), (5, 0.3), (5, 0.2), (5, 0.1))


@dataclass(frozen=True)
class PoolBand:
    """A contiguous block of ranks sharing one inclusion probability."""

    depth: int
    probability: float

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"band depth must be >= 1, got {self.depth}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"band probability must be in [0, 1], got {self.probability}")


@dataclass(frozen=True)
class PoolSpec:
    """Band schedule plus the seed that fixes every inclusion draw."""

    bands: tuple[PoolBand, ...] = tuple(PoolBand(d, p) for d, p in TRACK_SCHEDULE)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.bands:
            raise ValueError("a pool spec needs at least one band")

    @cached_property
    def rank_probabilities(self) -> tuple[float, ...]:
        """Inclusion probability of each 1-based rank in the schedule, in order."""
        return tuple(band.probability for band in self.bands for _ in range(band.depth))

    def expected_inclusions(self) -> float:
        """Expected pool contributions of one full-depth run for one question."""
        return sum(band.depth * band.probability for band in self.bands)


def inclusion_draw(seed: int, tag: str, question: str, rank: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (run, question, rank)."""
    key = f"{seed}\x1f{tag}\x1f{question}\x1f{rank}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass
class Pool:
    """Pooled videos per question, with the runs and ranks that contributed."""

    spec: PoolSpec
    members: dict[QuestionId, dict[VideoId, list[tuple[str, int]]]]

    def videos(self, question: QuestionId) -> set[VideoId]:
        return set(self.members.get(question, ()))


def build_pool(
    runs: Sequence[Mapping[QuestionId, Sequence[RetrievalRunEntry]]],
    spec: PoolSpec = PoolSpec(),
) -> Pool:
    """Union the sampled rank prefixes of every run, deduplicated per question.

    Band membership is decided by 1-based position in each run's ranked list.
    """
    members: dict[QuestionId, dict[VideoId, list[tuple[str, int]]]] = {}
    for run in runs:
        for qid, entries in run.items():
            for position, (entry, probability) in enumerate(zip(entries, spec.rank_probabilities), start=1):
                if probability >= 1.0 or inclusion_draw(spec.seed, entry.tag, qid, position) < probability:
                    members.setdefault(qid, {}).setdefault(entry.video, []).append((entry.tag, position))
    ordered = {
        qid: {video: sorted(members[qid][video]) for video in sorted(members[qid])}
        for qid in sorted(members)
    }
    return Pool(spec, ordered)


def write_pool(pool: Pool) -> str:
    """Flat assessor file ``qid video run_tag rank``, one line per contribution."""
    lines = [
        f"# pool seed = {pool.spec.seed}",
        "# pool bands = " + ",".join(f"{b.depth}:{b.probability:g}" for b in pool.spec.bands),
    ]
    for qid, videos in pool.members.items():
        for video, contributions in videos.items():
            for tag, rank in contributions:
                lines.append(f"{qid} {video} {tag} {rank}")
    return "\n".join(lines) + "\n"
