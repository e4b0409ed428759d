import math
from dataclasses import replace

import numpy as np
import pytest

from stpnrca.errors import DataError, NumericalError, UsageError
from stpnrca.persist import load_bundle, save_bundle
from stpnrca.config import RunConfig
from stpnrca.rbm import RbmParams, _sigmoid, calibrate_threshold, free_energy, train_rbm
from stpnrca.stpn import scan_windows
from stpnrca.switching import s3_search


def zero_params(n_v=4, n_h=3):
    return RbmParams(np.zeros(n_v), np.zeros(n_h), np.zeros((n_v, n_h)))


class TestFreeEnergy:
    def test_all_zero_params(self):
        params = zero_params(n_v=5, n_h=3)
        v = np.array([1, 0, 1, 1, 0], dtype=float)
        assert free_energy(params, v) == pytest.approx(-3 * math.log(2))

    def test_zero_vector_any_weights(self):
        rng = np.random.default_rng(0)
        params = RbmParams(rng.normal(size=4), np.zeros(2), rng.normal(size=(4, 2)))
        assert free_energy(params, np.zeros(4)) == pytest.approx(-2 * math.log(2))

    def test_hand_computed_example(self):
        params = RbmParams(
            np.array([0.5, -0.5]), np.array([0.1]), np.array([[1.0], [-1.0]])
        )
        expected = -0.5 - math.log(1 + math.exp(1.1))
        assert free_energy(params, np.array([1.0, 0.0])) == pytest.approx(
            expected, abs=1e-10
        )
        assert expected == pytest.approx(-1.8874, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            free_energy(zero_params(4, 2), np.ones(5))

    def test_overflow_safe(self):
        params = RbmParams(np.array([700.0]), np.array([700.0]), np.array([[700.0]]))
        assert np.isfinite(free_energy(params, np.ones(1)))
        params = RbmParams(np.array([-700.0]), np.array([-700.0]), np.array([[-700.0]]))
        assert np.isfinite(free_energy(params, np.ones(1)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        params = RbmParams(rng.normal(size=6), rng.normal(size=3), rng.normal(size=(6, 3)))
        batch = (rng.random((5, 6)) < 0.5).astype(float)
        fb = free_energy(params, batch)
        for i in range(5):
            assert fb[i] == pytest.approx(free_energy(params, batch[i]))


def logaddexp_free_energy(params, rows):
    """F from np.logaddexp, the softplus the kernel replaced."""
    act = params.hidden_bias + rows @ params.weights
    return -rows @ params.visible_bias - np.logaddexp(0.0, act).sum(axis=1)


class TestSoftplusKernel:
    # pre-activations b + vW at the magnitudes where softplus changes form
    MAGNITUDES = [0.0, 1e-300, -1e-300, 30.0, -30.0, 800.0, -800.0]

    def test_matches_logaddexp_across_magnitudes(self):
        n_h = len(self.MAGNITUDES)
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        for b, w1 in [(self.MAGNITUDES, np.zeros(n_h)), (np.zeros(n_h), self.MAGNITUDES)]:
            w = np.vstack([w1, -np.asarray(w1)])
            params = RbmParams(np.array([0.5, -2.0]), np.array(b), w)
            got = free_energy(params, rows)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, logaddexp_free_energy(params, rows),
                                       rtol=1e-15, atol=0)

    def test_rows_of_exact_zeros(self):
        rng = np.random.default_rng(12)
        params = RbmParams(rng.normal(size=6), np.array(self.MAGNITUDES), rng.normal(size=(6, 7)))
        zeros = np.zeros((3, 6))
        np.testing.assert_allclose(free_energy(params, zeros),
                                   logaddexp_free_energy(params, zeros), rtol=1e-15, atol=0)
        zero_machine = zero_params(6, 7)
        assert free_energy(zero_machine, zeros) == pytest.approx([-7 * math.log(2)] * 3, rel=1e-15)

    def test_inputs_left_unchanged(self):
        # the kernel overwrites its pre-activation array; never the caller's
        rng = np.random.default_rng(13)
        params = RbmParams(rng.normal(size=8), rng.normal(size=5), rng.normal(size=(8, 5)))
        arrays = (params.visible_bias, params.hidden_bias, params.weights)
        before = [x.copy() for x in arrays]
        batch = (rng.random((4, 8)) < 0.5).astype(float)
        v = batch[0].copy()
        kept_batch, kept_v = batch.copy(), v.copy()
        free_energy(params, batch)
        free_energy(params, v)
        s3_search(params, v)
        assert np.array_equal(batch, kept_batch) and np.array_equal(v, kept_v)
        for x, y in zip(arrays, before):
            assert np.array_equal(x, y)


def masked_sigmoid(x):
    """The logistic function split by sign with boolean masks: the reference."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.7, -36.7, 800.0, -800.0,
               709.8, -745.2, np.inf, -np.inf]

    @pytest.mark.parametrize("shape", [(10, 2704), (128, 25), (128, 256), (32, 64), (7,), (64,)])
    def test_bits_equal_masked_form(self, shape):
        x = np.random.default_rng(sum(shape)).normal(0.0, 30.0, size=shape)
        x.flat[: len(self.SPECIAL)] = self.SPECIAL[: x.size]
        with np.errstate(over="raise", invalid="raise"):  # tiny values may underflow to 0
            got = _sigmoid(x)
        assert np.array_equal(got.view(np.uint64), masked_sigmoid(x).view(np.uint64))

    def test_nan_maps_to_nan(self):
        x = np.array([np.nan, 0.0, -np.nan])
        got, want = _sigmoid(x), masked_sigmoid(x)
        assert np.array_equal(np.isnan(got), np.isnan(want)) and np.isnan(got[[0, 2]]).all()
        assert got[1] == want[1] == 0.5


class TestParams:
    def test_arrays_are_read_only(self):
        """A machine's energies cannot go stale: its arrays refuse in-place
        writes, whether it was trained or built from arrays."""
        vectors = (np.random.default_rng(3).random((10, 4)) < 0.5).astype(float)
        for params in (zero_params(), train_rbm(vectors, RunConfig(rbm_hidden=3, rbm_epochs=2))):
            for arr in (params.visible_bias, params.hidden_bias, params.weights):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] += 1.0
            with pytest.raises(ValueError, match="read-only"):
                params.weights *= 2.0


class TestTraining:
    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        vectors = (rng.random((40, 8)) < 0.8).astype(float)
        cfg = RunConfig(rbm_hidden=6, rbm_epochs=30, seed=42)
        p1 = train_rbm(vectors, cfg)
        p2 = train_rbm(vectors, cfg)
        assert np.array_equal(p1.weights, p2.weights)
        assert np.array_equal(p1.visible_bias, p2.visible_bias)

    def test_nominal_below_random(self):
        rng = np.random.default_rng(2)
        nominal = (rng.random((60, 10)) < 0.9).astype(float)
        params = train_rbm(nominal, RunConfig(rbm_hidden=8, rbm_epochs=100, seed=0))
        random_vectors = (rng.random((60, 10)) < 0.5).astype(float)
        gap = np.mean(free_energy(params, random_vectors)) - np.mean(
            free_energy(params, nominal)
        )
        assert gap > 0

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            train_rbm(np.zeros((0, 4)))


    @pytest.mark.parametrize("width", [10**12, 10**20])
    def test_width_that_cannot_be_allocated_is_usage_error(self, width):
        with pytest.raises(UsageError, match=f"'rbm_hidden': a 3 x {width} weight matrix"):
            train_rbm(np.ones((2, 3)), RunConfig(rbm_hidden=width))

class TestDetector:
    def test_training_vectors_nominal_by_construction(self):
        rng = np.random.default_rng(5)
        vectors = (rng.random((50, 8)) < 0.9).astype(float)
        params = train_rbm(vectors, RunConfig(rbm_hidden=6, rbm_epochs=80, seed=1))
        threshold = calibrate_threshold(params, vectors, kappa=1.0)
        assert not np.any(free_energy(params, vectors) > threshold)

    def test_flipped_high_weight_bits_anomalous(self):
        rng = np.random.default_rng(6)
        vectors = np.ones((50, 8))
        vectors[rng.random((50, 8)) < 0.05] = 0.0
        params = train_rbm(vectors, RunConfig(rbm_hidden=6, rbm_epochs=150, seed=1))
        threshold = calibrate_threshold(params, vectors, kappa=1.0)
        broken = np.zeros(8)
        assert free_energy(params, broken) > threshold

    def test_kappa_infinite_everything_nominal(self):
        rng = np.random.default_rng(7)
        vectors = (rng.random((30, 6)) < 0.9).astype(float)
        params = train_rbm(vectors, RunConfig(rbm_hidden=4, rbm_epochs=40, seed=2))
        threshold = calibrate_threshold(params, vectors, kappa=1e9)
        assert free_energy(params, np.zeros(6)) <= threshold

    def test_threshold_past_the_float_range_is_numerical_error(self):
        """kappa times a spread above 1.8 passes the largest float: refused,
        naming the config key, not returned as inf."""
        params = RbmParams(np.array([3.0, 0.0]), np.zeros(1), np.zeros((2, 1)))
        vectors = np.array([[0.0, 0.0], [1.0, 0.0]])  # F = -log 2 and -3 - log 2: std 1.5
        assert np.isfinite(calibrate_threshold(params, vectors, kappa=1e308))
        with pytest.raises(NumericalError, match="not finite: .* detector_kappa 1e\\+308"):
            calibrate_threshold(replace(params, visible_bias=np.array([4.0, 0.0])), vectors,
                                kappa=1e308)


class TestThresholdConstruction:
    def test_no_training_vector_exceeds_threshold(self, toy_bundle, toy_nominal, toy_config):
        vectors = scan_windows(toy_bundle.stpn, toy_nominal, toy_config.stride).vectors
        f = free_energy(toy_bundle.rbm, vectors)
        assert f.max() <= toy_bundle.energy_threshold
        assert f.mean() < toy_bundle.energy_threshold


class TestRbmPersistence:
    def test_roundtrip(self, toy_bundle, tmp_path):
        rng = np.random.default_rng(9)
        n_v, n_h = toy_bundle.rbm.weights.shape
        params = RbmParams(rng.normal(size=n_v), rng.normal(size=n_h), rng.normal(size=(n_v, n_h)))
        save_bundle(replace(toy_bundle, rbm=params, energy_threshold=-12.5), tmp_path)
        loaded = load_bundle(tmp_path)
        threshold, loaded = loaded.energy_threshold, loaded.rbm
        assert threshold == -12.5
        assert np.array_equal(loaded.weights, params.weights)
        v = (rng.random(n_v) < 0.5).astype(float)
        assert free_energy(loaded, v) == free_energy(params, v)
