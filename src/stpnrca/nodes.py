"""Node inference: map weighted failed patterns to anomalous channels.

Each failed pattern a->b implicates its two endpoint channels; a channel's
anomaly score is the weight sum of the remaining failed patterns it touches
(self-patterns counted once). Channels are selected greedily by maximum
score, removing the patterns they explain, until every failed pattern is
covered — a weighted greedy cover of the failed-pattern edge set. The same
pass ranks every channel: the cover first, then the rest by initial score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class NodeInferenceResult:
    """Every channel, ranked: the first `n_cover` are the cover in selection
    order, each with its score at selection time; the rest follow by initial
    anomaly score (descending, ties to the lowest index), with that score."""

    ranking: tuple[int, ...]
    scores: tuple[float, ...]
    n_cover: int

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.ranking[: self.n_cover]


def infer_nodes(failed, f: int) -> NodeInferenceResult:
    """Greedy cover of failed patterns by their incident channels, and the
    full channel ranking that follows it.

    `failed` is an iterable of (pattern index, weight) pairs; duplicate
    indices accumulate weight. An empty input yields an empty cover. Ties
    in the score go to the lowest channel index.
    """
    pool: dict[int, float] = {}
    for idx, weight in failed:
        idx = int(idx)
        if not 0 <= idx < f * f:
            raise DataError(f"pattern index {idx} out of range for f={f}")
        if not np.isfinite(weight):
            raise DataError(f"non-finite weight for pattern {idx}")
        pool[idx] = pool.get(idx, 0.0) + float(weight)

    ends = np.array([divmod(i, f) for i in pool], dtype=np.intp).reshape(-1, 2)
    weights = np.repeat(list(pool.values()), 2).reshape(-1, 2)
    keep = np.ones(ends.shape, bool)  # endpoint entries of the remaining patterns
    keep[:, 1] = ends[:, 0] != ends[:, 1]  # a self-pattern counts once

    # bincount adds the weights in pool order, as a loop over the pool would,
    # so the sums match that loop bit for bit; on no input it returns ints
    live = ends[keep]
    initial = node_scores = np.bincount(live, weights[keep], minlength=f).astype(float)
    cover, scores = [], []
    while live.size:
        # Only a channel that touches a remaining pattern clears one, even
        # when weights of zero or below leave an untouched channel on top.
        touching = np.flatnonzero(np.bincount(live, minlength=f))
        best = int(touching[np.argmax(node_scores[touching])])  # ties -> lowest index
        keep[(ends == best).any(axis=1)] = False
        cover.append(best)
        scores.append(float(node_scores[best]))
        live = ends[keep]
        node_scores = np.bincount(live, weights[keep], minlength=f)

    rest = [n for n in np.argsort(-initial, kind="stable").tolist() if n not in cover]
    return NodeInferenceResult(
        tuple(cover + rest), tuple(scores + initial[rest].tolist()), len(cover)
    )
