import numpy as np
import pytest

from stpnrca.association import (
    A3Dataset,
    MlpParams,
    _gradients,
    a3_loss,
    generate_artificial_anomalies,
    infer_a3,
    init_mlp,
    train_a3,
)
from stpnrca.config import RunConfig
from stpnrca.errors import DataError


@pytest.fixture(scope="module")
def flip_dataset():
    rng = np.random.default_rng(0)
    nominal = (rng.random((60, 12)) > 0.03).astype(float)
    return generate_artificial_anomalies(
        nominal, flip_orders=(1, 2), samples_per_order=8, seed=1
    )


@pytest.fixture(scope="module")
def trained(flip_dataset):
    cfg = RunConfig(
        a3_hidden=(48,), a3_dropout=0.2, a3_learning_rate=0.2, a3_batch_size=64,
        a3_epochs=120, a3_patience=12, seed=0,
    )
    return train_a3(flip_dataset, cfg), cfg


class TestGeneration:
    def test_no_orders_gives_unflipped_only(self):
        nominal = np.ones((4, 6))
        data = generate_artificial_anomalies(nominal, flip_orders=())
        assert data.n_examples == 4
        assert np.all(data.labels == 1)
        assert np.array_equal(data.inputs, nominal)

    def test_label_zero_exactly_at_flips(self):
        rng = np.random.default_rng(2)
        nominal = (rng.random((10, 9)) > 0.1).astype(float)
        data = generate_artificial_anomalies(
            nominal, flip_orders=(1, 2, 3), samples_per_order=5, seed=3
        )
        originals = np.repeat(nominal, data.n_examples // 10, axis=0)
        flipped_positions = data.inputs != originals
        assert np.array_equal(data.labels == 0, flipped_positions)

    def test_order_too_large(self):
        with pytest.raises(DataError):
            generate_artificial_anomalies(np.ones((2, 4)), flip_orders=(5,))

    def test_default_orders_cover_one_to_four(self):
        import inspect

        sig = inspect.signature(generate_artificial_anomalies)
        assert tuple(sig.parameters["flip_orders"].default) == (1, 2, 3, 4)

    def test_seed_determinism(self):
        nominal = np.ones((5, 8))
        a = generate_artificial_anomalies(nominal, samples_per_order=4, seed=9)
        b = generate_artificial_anomalies(nominal, samples_per_order=4, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)


class TestLoss:
    def test_decomposes_into_per_position_terms(self, flip_dataset):
        cfg = RunConfig(a3_hidden=(16,), seed=5)
        params = init_mlp(12, 12, cfg)
        total = a3_loss(params, flip_dataset.inputs, flip_dataset.labels)
        # position j's sub-problem alone: the same net cut to output j
        per_position = [
            a3_loss(
                MlpParams(
                    (*params.weights[:-1], params.weights[-1][:, [j]]),
                    (*params.biases[:-1], params.biases[-1][[j]]),
                ),
                flip_dataset.inputs,
                flip_dataset.labels[:, [j]],
            )
            for j in range(12)
        ]
        assert total == pytest.approx(sum(per_position))

    def test_gradient_matches_finite_differences(self):
        # 3-unit toy net, dropout off; biases randomized so no rectifier
        # sits exactly at its kink (where the subgradient is one-sided)
        rng = np.random.default_rng(7)
        cfg = RunConfig(a3_hidden=(3,), a3_dropout=0.0, seed=7)
        params = init_mlp(3, 3, cfg)
        weights = [w.copy() for w in params.weights]
        biases = [b + rng.normal(0.0, 0.3, size=b.shape) for b in params.biases]
        x = (rng.random((6, 3)) < 0.5).astype(float)
        y = (rng.random((6, 3)) < 0.5).astype(float)
        grads_w, grads_b = _gradients(weights, biases, x, y)

        def loss():
            return a3_loss(MlpParams(tuple(weights), tuple(biases)), x, y)

        eps = 1e-6
        for layer in range(len(weights)):
            for index in np.ndindex(weights[layer].shape):
                saved = weights[layer][index]
                weights[layer][index] = saved + eps
                up = loss()
                weights[layer][index] = saved - eps
                down = loss()
                weights[layer][index] = saved
                numeric = (up - down) / (2 * eps)
                assert grads_w[layer][index] == pytest.approx(
                    numeric, rel=1e-4, abs=1e-8
                )
            for i in range(biases[layer].size):
                saved = biases[layer][i]
                biases[layer][i] = saved + eps
                up = loss()
                biases[layer][i] = saved - eps
                down = loss()
                biases[layer][i] = saved
                numeric = (up - down) / (2 * eps)
                assert grads_b[layer][i] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


class TestTraining:
    def test_loss_not_worse_than_initial(self, flip_dataset, trained):
        params, cfg = trained
        fresh = init_mlp(12, 12, cfg)
        trained_loss = a3_loss(params, flip_dataset.inputs, flip_dataset.labels)
        initial_loss = a3_loss(fresh, flip_dataset.inputs, flip_dataset.labels)
        assert trained_loss <= initial_loss

    def test_held_out_single_flip_accuracy(self, trained):
        params, _ = trained
        rng = np.random.default_rng(10)
        correct = total = 0
        for _ in range(60):
            v = (rng.random(12) > 0.03).astype(float)
            i = int(rng.integers(0, 12))
            x = v.copy()
            x[i] = 1 - x[i]
            indicator, _ = infer_a3(params, x)
            correct += int(np.sum((indicator == 0) == (np.arange(12) == i)))
            total += 12
        assert correct / total >= 0.95

    def test_early_stopping_returns_best_epoch(self, flip_dataset):
        # with a huge learning rate late epochs diverge; the returned model
        # must still be the best-validation one, i.e. usable
        cfg = RunConfig(
            a3_hidden=(8,), a3_dropout=0.0, a3_learning_rate=2.0, a3_batch_size=32,
            a3_epochs=40, a3_patience=40, seed=3,
        )
        params = train_a3(flip_dataset, cfg)
        rng = np.random.default_rng(11)
        half = flip_dataset.n_examples // 2
        order = rng.permutation(flip_dataset.n_examples)
        va_x = flip_dataset.inputs[order[half:]]
        va_y = flip_dataset.labels[order[half:]]
        final_like = a3_loss(params, va_x, va_y)
        assert np.isfinite(final_like)

    def test_seed_determinism(self, flip_dataset):
        cfg = RunConfig(a3_hidden=(8,), a3_epochs=10, seed=21)
        p1 = train_a3(flip_dataset, cfg)
        p2 = train_a3(flip_dataset, cfg)
        for w1, w2 in zip(p1.weights, p2.weights):
            assert np.array_equal(w1, w2)

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            train_a3(A3Dataset(np.ones((1, 4)), np.ones((1, 4))))


class TestInference:
    def test_deterministic(self, trained):
        params, _ = trained
        v = np.ones(12)
        i1, p1 = infer_a3(params, v)
        i2, p2 = infer_a3(params, v)
        assert np.array_equal(i1, i2)
        assert np.array_equal(p1, p2)

    def test_cutoff_limits(self, trained):
        params, _ = trained
        v = np.ones(12)
        indicator, _ = infer_a3(params, v, cutoff=1e-12)
        assert np.all(indicator == 1)
        with pytest.raises(DataError):
            infer_a3(params, v, cutoff=0.0)

    def test_nominal_vector_all_ones(self, trained):
        params, _ = trained
        indicator, _ = infer_a3(params, np.ones(12))
        assert np.all(indicator == 1)

    def test_anomaly_weight_is_one_minus_probability(self, trained):
        params, _ = trained
        v = np.ones(12)
        v[4] = 0.0
        indicator, probs = infer_a3(params, v)
        assert indicator[4] == 0
        assert 1.0 - probs[4] > 0.5

    def test_length_mismatch(self, trained):
        params, _ = trained
        with pytest.raises(DataError):
            infer_a3(params, np.ones(5))
