"""Assessment pool construction from ranked submissions.

Rank positions fall into bands, each with an inclusion probability; every
rank gets its own Bernoulli draw keyed by (seed, run tag, question, rank), so
pools are reproducible, raising a band probability never removes a document,
and adding a run never perturbs the draws of other runs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence

from .core import CheckedRecord, QuestionId, VideoId, plain_number
from .io_formats import RetrievalRunEntry

# Depth schedule used for the track assessments: pool size 25, first 10 ranks
# certain, then three bands of 5 at decreasing probability.
TRACK_SCHEDULE = ((10, 1.0), (5, 0.3), (5, 0.2), (5, 0.1))


class PoolBand(CheckedRecord, namedtuple("PoolBand", "depth probability")):
    """A contiguous block of ranks sharing one inclusion probability."""

    __slots__ = ()

    def __new__(cls, depth: int, probability: float) -> PoolBand:
        if type(depth) is bool or not isinstance(depth, int) or depth < 1:
            raise ValueError(f"band depth must be an integer >= 1, got {depth!r}")
        if isinstance(probability, bool) or not 0.0 <= probability <= 1.0:
            raise ValueError(f"band probability must be in [0, 1], got {probability}")
        return tuple.__new__(cls, (depth, probability))


class PoolSpec(CheckedRecord, namedtuple("PoolSpec", "bands seed")):
    """Band schedule plus the seed that fixes every inclusion draw."""

    __slots__ = ()

    def __new__(
        cls, bands: tuple[PoolBand, ...] = tuple(PoolBand(d, p) for d, p in TRACK_SCHEDULE), seed: int = 0
    ) -> PoolSpec:
        if not bands:
            raise ValueError("a pool spec needs at least one band")
        if type(seed) is bool or not isinstance(seed, int):  # each draw is keyed by f"{seed}"
            raise ValueError(f"pool seed must be an integer, got {seed!r}")
        return tuple.__new__(cls, (bands, seed))

    @property
    def rank_probabilities(self) -> tuple[float, ...]:
        """Inclusion probability of each 1-based rank in the schedule, in order."""
        return tuple(band.probability for band in self.bands for _ in range(band.depth))


def inclusion_draw(seed: int, tag: str, question: str, rank: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (run, question, rank)."""
    import hashlib  # here, so that commands that never pool do not load OpenSSL

    key = f"{seed}\x1f{tag}\x1f{question}\x1f{rank}".encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class Pool(namedtuple("Pool", "spec members")):
    """Pooled videos per question, with the runs and ranks that contributed.

    ``members`` maps question -> video -> sorted (run tag, rank) contributions.
    """

    __slots__ = ()


def run_prefix(
    run: Mapping[QuestionId, Sequence[RetrievalRunEntry]], spec: PoolSpec = PoolSpec()
) -> dict[QuestionId, Sequence[RetrievalRunEntry]]:
    """Each question's ranked list of ``run`` cut to the schedule's depth, all that ``build_pool`` reads of it."""
    depth = len(spec.rank_probabilities)  # build_pool zips each ranked list with these
    return {qid: entries[:depth] for qid, entries in run.items()}


def build_pool(
    runs: Sequence[Mapping[QuestionId, Sequence[RetrievalRunEntry]]],
    spec: PoolSpec = PoolSpec(),
    sources: Sequence[str] | None = None,
) -> Pool:
    """Union the sampled rank prefixes of every run, deduplicated per question.

    Band membership is decided by 1-based position in each run's ranked list;
    nothing past the schedule's depth is read, so runs cut by ``run_prefix``
    pool exactly as the full runs do.
    Two runs that use one tag for one question within the schedule's depth
    would get identical draws and pool every contribution twice, so that
    raises ValueError naming the tag, the question and both runs (by
    ``sources``, one name per run, when given).
    """
    members: dict[QuestionId, dict[VideoId, list[tuple[str, int]]]] = {}
    owners: dict[tuple[str, QuestionId], int] = {}
    rank_probabilities = spec.rank_probabilities
    for index, run in enumerate(runs):
        for qid, entries in run.items():
            for position, (entry, probability) in enumerate(zip(entries, rank_probabilities), start=1):
                tag = entry.tag
                owner = owners.setdefault((tag, qid), index)
                if owner != index:
                    names = sources or [f"run {number}" for number in range(1, len(runs) + 1)]
                    raise ValueError(
                        f"run tag {tag!r} is used for question {qid!r} by both {names[owner]} and "
                        f"{names[index]}; pooled runs need distinct tags on a question they share"
                    )
                if probability >= 1.0 or inclusion_draw(spec.seed, tag, qid, position) < probability:
                    members.setdefault(qid, {}).setdefault(entry.video, []).append((tag, position))
    ordered = {
        qid: {video: sorted(members[qid][video]) for video in sorted(members[qid])}
        for qid in sorted(members)
    }
    return Pool(spec, ordered)


def _probability_text(probability: float) -> str:
    """``probability`` as ``:g`` writes it when that reads back as the same float, else all its digits."""
    short = f"{probability:g}"
    return short if float(short) == probability else plain_number(probability)


def write_pool(pool: Pool) -> str:
    """Flat assessor file ``qid video run_tag rank``, one line per contribution, after a seed and a bands header."""
    lines = [
        f"# pool seed = {pool.spec.seed}",
        "# pool bands = " + ",".join(f"{b.depth}:{_probability_text(b.probability)}" for b in pool.spec.bands),
    ]
    for qid, videos in pool.members.items():
        for video, contributions in videos.items():
            for tag, rank in contributions:
                lines.append(f"{qid} {video} {tag} {rank}")
    return "\n".join(lines) + "\n"
