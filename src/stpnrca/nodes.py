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

    `failed` is the failed-pattern pool as a pair (index, weight) of
    equal-length 1-D arrays: each pattern's index, integers in strictly
    ascending order (so each pattern appears once), and its weight. Scores
    sum the weights in that order. An empty pool yields an empty cover.
    Ties in the score go to the lowest channel index. Arrays of other shapes
    or kinds, or a bad entry (an index out of range, not an integer or not
    above the one before it, or a non-finite weight), are a DataError that
    names the first bad entry.
    """
    index, weight = map(np.asarray, failed)
    numeric = index.dtype.kind in "iuf" and weight.dtype.kind in "iuf"
    if not numeric or index.ndim != 1 or index.shape != weight.shape:
        raise DataError(f"failed patterns take numeric 1-D index and weight arrays of one "
                        f"length, not {index.dtype}{index.shape} and {weight.dtype}{weight.shape}")
    out_of_range = (index < 0) | (index >= f * f)
    fractional = np.floor(index) != index  # a NaN index too
    unordered = np.r_[False, index[1:] <= index[:-1]]
    bad = out_of_range | fractional | unordered | ~np.isfinite(weight)
    if bad.any():
        k = int(bad.argmax())
        idx = index[k].item()
        if out_of_range[k]:
            raise DataError(f"pattern index {idx} out of range for f={f}")
        if fractional[k]:
            raise DataError(f"pattern index {idx} is not an integer")
        if unordered[k]:
            raise DataError(f"pattern index {idx} follows {index[k - 1].item()}: "
                            "indices must be strictly ascending")
        raise DataError(f"non-finite weight for pattern {idx}")

    source, target = np.divmod(index.astype(np.intp), f)
    # a self-pattern counts once: its second endpoint goes to an extra bin f
    ends = np.stack([source, np.where(source == target, f, target)], axis=1)
    weights = np.repeat(weight.astype(float), 2).reshape(-1, 2)

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
