import numpy as np
import pytest

from stpnrca.metrics import (
    diagnosis_cost,
    error_ratio,
    false_alarm_pattern_fraction,
    prf_counts,
)
from stpnrca.pipeline import evaluate_case


def alpha1(truth: set[int], predicted: list[set[int]], f: int) -> float:
    """Pattern accuracy of per-window predictions, as `evaluate` reports it."""
    channels = [f"x{i}" for i in range(f)]
    report = {
        "method": "s3",
        "channels": channels,
        "n_analyzed": len(predicted),
        "windows": [
            {"analyzed": True, "patterns": [{"index": i} for i in sorted(s)]}
            for s in predicted
        ],
        "aggregate": {"failed_patterns": [], "nodes": [], "ranking": []},
    }
    labels = {
        "channels": channels,
        "fault": {"kind": "pattern_break"},
        "failed_patterns": sorted(truth),
    }
    return evaluate_case(report, labels)["alpha1"]


class TestPatternAccuracy:
    def test_perfect(self):
        assert alpha1({0, 3}, [{0, 3}], f=2) == 1.0

    def test_complement(self):
        assert alpha1({0, 3}, [{1, 2}], f=2) == 0.0

    def test_six_of_eight(self):
        # two windows of four cells each; one miss and one false alarm
        assert alpha1({0, 1}, [{0, 1, 3}, {0}], f=2) == 0.75

    def test_invariant_under_joint_column_permutation(self):
        rng = np.random.default_rng(0)
        truth = set(np.flatnonzero(rng.integers(0, 2, size=9)).tolist())
        pred = [set(np.flatnonzero(row).tolist()) for row in rng.integers(0, 2, size=(10, 9))]
        perm = rng.permutation(9)
        assert alpha1(truth, pred, f=3) == alpha1(
            {int(perm[i]) for i in truth}, [{int(perm[i]) for i in s} for s in pred], f=3
        )


class TestPrf:
    def test_exact_match(self):
        assert prf_counts(tp=2, fn=0, fp=0) == (1.0, 1.0, 1.0)

    def test_one_extra_prediction(self):
        recall, precision, f = prf_counts(tp=2, fn=0, fp=1)
        assert recall == 1.0
        assert precision == pytest.approx(2 / 3)
        assert f == pytest.approx(2 / (1 / recall + 1 / precision))

    def test_empty_prediction_conventions(self):
        assert prf_counts(tp=0, fn=0, fp=0) == (1.0, 1.0, 1.0)
        recall, precision, f = prf_counts(tp=0, fn=1, fp=0)
        assert (recall, precision, f) == (0.0, 0.0, 0.0)

    def test_harmonic_mean_identity(self):
        # truth {0, 1, 2} against prediction {1, 2, 3, 4}
        recall, precision, f = prf_counts(tp=2, fn=1, fp=2)
        assert f == pytest.approx(2 / (1 / recall + 1 / precision))


class TestErrorRatio:
    def test_all_attributable(self):
        assert error_ratio([1, 2, 3], lambda i: True) == 0.0

    def test_half_wrong(self):
        assert error_ratio([1, 2], lambda i: i == 1) == 0.5

    def test_empty_prediction_is_na(self):
        assert error_ratio([], lambda i: True) is None

    def test_equals_one_minus_precision_with_ground_truth(self):
        truth = {1, 4, 7}
        pred = {1, 4, 5, 8}
        _, precision, _ = prf_counts(
            tp=len(truth & pred), fn=len(truth - pred), fp=len(pred - truth)
        )
        eps = error_ratio(sorted(pred), lambda i: i in truth)
        assert eps == pytest.approx(1.0 - precision)


class TestDiagnosisCost:
    def test_rank_ten(self):
        ranking = list(range(20))
        assert diagnosis_cost(ranking, true_node=9, n_measurements=1) == 10

    def test_rank_one_scales_with_measurements(self):
        assert diagnosis_cost([3, 1, 2], true_node=3, n_measurements=7) == 7

    def test_absent_node_sentinel(self):
        assert diagnosis_cost([0, 1, 2], true_node=9, n_measurements=1) == 4


class TestFalseAlarmFraction:
    def test_no_flags(self):
        assert false_alarm_pattern_fraction([set(), set()], f=5) == 0.0

    def test_everything_flagged(self):
        full = set(range(25))
        assert false_alarm_pattern_fraction([full], f=5) == 1.0

    def test_mean_over_cases(self):
        outs = [set(), {0, 1, 2, 3, 4}]
        assert false_alarm_pattern_fraction(outs, f=5) == pytest.approx(0.1)
