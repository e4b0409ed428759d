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
    pairs = [(int(idx), float(weight)) for idx, weight in failed]
    # as floats, which order ints as the ints do: a bad index stays out of range
    try:
        index, weight = np.array(list(zip(*pairs)) or [(), ()], dtype=float)
    except OverflowError:  # an index past the float range: clipped, it stays out of range
        index, weight = np.array([(min(max(i, -1), f * f), w) for i, w in pairs]).T
    bad_index = (index < 0) | (index >= f * f)
    bad = bad_index | ~np.isfinite(weight)
    if bad.any():
        first = int(bad.argmax())
        idx = pairs[first][0]
        if bad_index[first]:
            raise DataError(f"pattern index {idx} out of range for f={f}")
        raise DataError(f"non-finite weight for pattern {idx}")

    # the pool: each distinct index in first-occurrence order, its weights
    # summed in input order (np.add.at adds one at a time), as a dict would
    keys, seen, inverse = np.unique(index.astype(np.intp), return_index=True, return_inverse=True)
    pooled = np.zeros(keys.size)
    np.add.at(pooled, inverse, weight)
    order = np.argsort(seen)
    source, target = np.divmod(keys[order], f)
    # a self-pattern counts once: its second endpoint goes to an extra bin f
    ends = np.stack([source, np.where(source == target, f, target)], axis=1)
    weights = np.repeat(pooled[order], 2).reshape(-1, 2)

    # bincount adds the weights in pool order, as a loop over the pool would,
    # so the sums match that loop bit for bit; on no input it returns ints
    initial = np.bincount(ends.ravel(), weights.ravel(), minlength=f + 1)[:f].astype(float)
    node_scores = initial
    cover, scores = [], []
    while ends.size:
        # Only a channel that touches a remaining pattern clears one, even
        # when weights of zero or below leave an untouched channel on top.
        touching = np.flatnonzero(np.bincount(ends.ravel(), minlength=f + 1)[:f])
        best = int(touching[np.argmax(node_scores[touching])])  # ties -> lowest index
        cover.append(best)
        scores.append(float(node_scores[best]))
        left = np.flatnonzero((ends[:, 0] != best) & (ends[:, 1] != best))
        ends, weights = ends.take(left, axis=0), weights.take(left, axis=0)
        node_scores = np.bincount(ends.ravel(), weights.ravel(), minlength=f + 1)[:f]

    rest = [n for n in np.argsort(-initial, kind="stable").tolist() if n not in cover]
    return NodeInferenceResult(
        tuple(cover + rest), tuple(scores + initial[rest].tolist()), len(cover)
    )
