"""Synthetic MovieLens/MovieTweetings-style movie review log.

Reproduces the structure the paper's main experiments rely on (Section V):
"a dataset consisting of movie ratings and reviews stored in chronological
order ... based on the distribution of the movie names, ratings and
categories of MovieLens.  The text reviews are randomly generated".

Model:

* ``num_movies`` movies; review counts follow Zipf popularity.
* Each movie is released uniformly over the dataset lifetime; its reviews
  arrive at Gamma(k, θ)-distributed offsets after release (content
  clustering, paper Section II-B).
* Records are sorted by timestamp before storage — chronological order is
  what turns temporal clustering into *block* clustering.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..hdfs.records import Record
from .clustering import ArrivalModel, GammaArrivalModel, zipf_weights
from .text import TextGenerator

__all__ = ["MovieLensGenerator", "at_rank", "most_popular", "popularity_ranking"]


def popularity_ranking(records: Iterable[Record]) -> List[str]:
    """Sub-dataset ids, most reviewed first, in ``Counter.most_common`` order."""
    return [sid for sid, _n in Counter(r.sub_id for r in records).most_common()]


def at_rank(ranking: Sequence[str], rank: int) -> str:
    """``ranking[rank]``, or a :class:`~repro.errors.ConfigError` past its end."""
    if rank >= len(ranking):
        raise ConfigError(f"rank {rank} out of range for {len(ranking)} sub-datasets")
    return ranking[rank]


def most_popular(records: Iterable[Record], rank: int = 0) -> str:
    """The ``rank``-th most reviewed sub-dataset id in a record stream.

    The paper's experiments analyze "a certain movie" with a large review
    count; rank 0 (the most popular) is the natural stand-in.
    """
    return at_rank(popularity_ranking(records), rank)


class MovieLensGenerator:
    """Generates a chronological, content-clustered movie review stream.

    Args:
        num_movies: distinct movies (sub-datasets).
        total_reviews: total records across all movies.
        duration_days: dataset lifetime; releases are uniform over
            ``[0, 0.8 * duration_days]`` so late releases still get their
            review tail inside the dataset.
        zipf_s: popularity skew across movies.
        arrival: per-movie arrival model; default Γ(k=1.2, θ=7) days — the
            parameters of the paper's Section II-B analysis.
        text: payload generator (review bodies).
        rating_levels: ratings sampled uniformly from this tuple and
            prefixed to the payload, mimicking MovieLens records.
        rng: seeded generator for deterministic streams.
    """

    def __init__(
        self,
        num_movies: int = 1000,
        total_reviews: int = 100_000,
        *,
        duration_days: float = 365.0,
        zipf_s: float = 1.1,
        arrival: Optional[ArrivalModel] = None,
        text: Optional[TextGenerator] = None,
        rating_levels: tuple = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if num_movies <= 0:
            raise ConfigError("num_movies must be positive")
        if total_reviews < 0:
            raise ConfigError("total_reviews must be non-negative")
        if duration_days <= 0:
            raise ConfigError("duration_days must be positive")
        if not rating_levels:
            raise ConfigError("rating_levels must be non-empty")
        self.num_movies = num_movies
        self.total_reviews = total_reviews
        self.duration_days = duration_days
        self.zipf_s = zipf_s
        self.rng = rng if rng is not None else np.random.default_rng()
        self.arrival = arrival or GammaArrivalModel(k=1.2, theta=7.0)
        self.text = text or TextGenerator(rng=self.rng)
        self.rating_levels = rating_levels

    def movie_id(self, index: int) -> str:
        """Canonical sub-dataset id of the ``index``-th movie."""
        return f"movie-{index:05d}"

    def review_counts(self) -> np.ndarray:
        """Number of reviews per movie (multinomial over Zipf weights)."""
        weights = zipf_weights(self.num_movies, self.zipf_s)
        return self.rng.multinomial(self.total_reviews, weights)

    def generate(self) -> List[Record]:
        """The full chronological record stream.

        Releases are drawn from a *steady-state* window: they start a
        burn-in period before the dataset's time zero (records landing
        outside ``[0, duration_days]`` are dropped), so the earliest
        blocks already mix many movies.  Without the burn-in, the first
        few released movies would own the first blocks outright — a
        start-up artifact, not content clustering.
        """
        counts = self.review_counts()
        burnin = 3.0 * self.arrival.mean_offset()
        releases = self.rng.uniform(
            -burnin, 0.8 * self.duration_days, size=self.num_movies
        )
        sids: List[str] = []
        times_parts: List[np.ndarray] = []
        for m in range(self.num_movies):
            n = int(counts[m])
            if n == 0:
                continue
            times = self.arrival.sample(float(releases[m]), n, self.rng)
            times = times[(times >= 0.0) & (times <= self.duration_days)]
            if times.size == 0:
                continue
            times_parts.append(times)
            sids.extend([self.movie_id(m)] * times.size)
        if not times_parts:
            return []
        all_times = np.concatenate(times_parts)
        ratings = self.rng.choice(self.rating_levels, size=all_times.size)
        bodies = self.text.sentences(all_times.size)
        order = np.argsort(all_times, kind="stable")
        return [
            Record(
                sub_id=sids[i],
                timestamp=float(all_times[i]),
                payload=f"{ratings[i]:.1f} {bodies[i]}",
            )
            for i in order
        ]
