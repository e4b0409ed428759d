"""Evaluation metrics for pattern- and node-level root-cause results."""

from __future__ import annotations

import numpy as np


def prf_counts(tp: int, fn: int, fp: int) -> tuple[float, float, float]:
    """Recall/precision/F directly from pooled TP/FN/FP counts."""
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    precision = tp / (tp + fp) if (tp + fp) else (1.0 if (tp + fn) == 0 else 0.0)
    if recall > 0 and precision > 0:
        fmeasure = 2.0 / (1.0 / recall + 1.0 / precision)
    else:
        fmeasure = 0.0
    return recall, precision, fmeasure


def error_ratio(pred_patterns, attributable) -> float | None:
    """Share of discovered patterns not attributable to the true fault.

    `attributable` is a predicate over pattern indices. Returns None (not
    applicable) for an empty prediction.
    """
    pred = list(pred_patterns)
    if not pred:
        return None
    incorrect = sum(1 for i in pred if not attributable(i))
    return incorrect / len(pred)


def diagnosis_cost(ranking, true_node: int, n_measurements: int = 1) -> int:
    """Checked-variable cost: 1-based rank of the true node times measurements.

    A true node missing from the ranking costs (len(ranking) + 1) times the
    measurement count — a sentinel the caller should flag.
    """
    ranking = list(ranking)
    if true_node in ranking:
        rank = ranking.index(true_node) + 1
    else:
        rank = len(ranking) + 1
    return rank * int(n_measurements)


def false_alarm_pattern_fraction(rca_outputs, f: int) -> float:
    """Mean fraction of patterns flagged per nominal case."""
    outputs = [set(s) for s in rca_outputs]
    if not outputs:
        return 0.0
    total = f * f
    return float(np.mean([len(s) / total for s in outputs]))
