"""Node inference: map weighted failed patterns to anomalous channels.

Each failed pattern a->b implicates its two endpoint channels; a channel's
anomaly score is the weight sum of the remaining failed patterns it touches
(self-patterns counted once). Channels are selected greedily by maximum
score, removing the patterns they explain, until every failed pattern is
covered — a weighted greedy cover of the failed-pattern edge set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .stpn import index_pattern


@dataclass(frozen=True)
class NodeInferenceResult:
    """Selection order, score at selection time, and every channel's
    initial anomaly score (before any selection)."""

    nodes: tuple[int, ...]
    scores: tuple[float, ...]
    initial_scores: tuple[float, ...]  # one per channel


def _node_scores(failed: dict[int, float], f: int) -> np.ndarray:
    scores = np.zeros(f)
    for idx, weight in failed.items():
        a, b = index_pattern(idx, f)
        scores[a] += weight
        if b != a:
            scores[b] += weight
    return scores


def infer_nodes(failed, f: int) -> NodeInferenceResult:
    """Greedy cover of failed patterns by their incident channels.

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

    initial = _node_scores(pool, f)
    nodes, scores = [], []
    node_scores = initial
    while pool:
        # Only a channel that touches a remaining pattern clears one, even
        # when weights of zero or below leave an untouched channel on top.
        touching = sorted({n for i in pool for n in index_pattern(i, f)})
        best = max(touching, key=lambda n: node_scores[n])  # ties -> lowest index
        for i in [i for i in pool if best in index_pattern(i, f)]:
            del pool[i]
        nodes.append(best)
        scores.append(float(node_scores[best]))
        node_scores = _node_scores(pool, f)
    return NodeInferenceResult(
        tuple(nodes), tuple(scores), tuple(float(s) for s in initial)
    )


def rank_nodes(result: NodeInferenceResult) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Full channel ranking for diagnosis-cost evaluation, from the cover
    that :func:`infer_nodes` returned.

    Covered channels come first in selection order; the rest follow by
    initial anomaly score (descending, ties to the lowest index).
    """
    initial = result.initial_scores
    rest = sorted(
        (n for n in range(len(initial)) if n not in result.nodes),
        key=lambda n: (-initial[n], n),
    )
    return (
        result.nodes + tuple(rest),
        result.scores + tuple(initial[n] for n in rest),
    )
