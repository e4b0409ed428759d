import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpnrca import association
from stpnrca.association import (
    A3Dataset,
    MlpParams,
    _EVAL_ROWS,
    _forward,
    _gradients,
    _init_mlp,
    _logits,
    _loss,
    a3_loss,
    generate_artificial_anomalies,
    infer_a3,
    train_a3,
)
from stpnrca.config import RunConfig
from stpnrca.errors import DataError
from stpnrca.rbm import _sigmoid


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

    @pytest.mark.parametrize(
        "nominal", [[[0.5, 2.0, -1.0, 0.0]], [[1.0, 0.0], [1.0, float("nan")]]]
    )
    def test_non_binary_nominal_vectors(self, nominal):
        with pytest.raises(DataError, match="binary"):
            generate_artificial_anomalies(np.array(nominal), flip_orders=(1,))

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


class TestDataset:
    def test_dense_views_flip_the_listed_columns(self):
        nominal = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        data = A3Dataset(nominal, np.array([1, 0, 1]), np.array([[-1, -1], [2, 0], [-1, 1]]))
        assert data.n_examples == 3
        assert np.array_equal(data.inputs, [[0, 0, 1], [0, 0, 0], [0, 1, 1]])
        assert np.array_equal(data.labels, [[1, 1, 1], [0, 1, 0], [1, 0, 1]])

    @pytest.mark.parametrize(
        "rows, flips, message",
        [
            ([0, 1], [[0]], "2 rows but 1 flip lists"),
            ([2], [[0]], "rows must be integers in 0..1"),
            ([-1], [[0]], "rows must be integers in 0..1"),
            ([0.0], [[0]], "rows must be integers"),
            ([0], [[3]], "flips must be columns in 0..2"),
            ([0], [[-2]], "flips must be columns in 0..2"),
            ([0], [[1, -1, 1]], "same column twice"),
            ([0], [0], r"\(n, k\) flips"),
        ],
    )
    def test_constructor_refuses(self, rows, flips, message):
        with pytest.raises(DataError, match=message):
            A3Dataset(np.ones((2, 3)), np.array(rows), np.array(flips))


class TestDistinctInputs:
    def test_rows_are_byte_distinct_and_gather_back(self):
        """Over several blocks, with 0.0 and -0.0 kept apart and repeats
        in different blocks merged."""
        rng = np.random.default_rng(4)
        nominal = rng.choice([0.0, -0.0, 1.0], size=(6, 5))
        n = 2 * _EVAL_ROWS + 3
        flips = np.where(rng.random((n, 2)) < 0.5, rng.integers(0, 5, (n, 2)), -1)
        flips[:, 1] = np.where(flips[:, 1] == flips[:, 0], -1, flips[:, 1])
        data = A3Dataset(nominal, rng.integers(0, 6, n), flips)
        ids = rng.permutation(n)
        distinct, inverse, labels = data._distinct_inputs(ids)
        keys = [row.tobytes() for row in distinct]
        assert distinct.dtype == np.float64 and len(set(keys)) == len(keys) < n
        assert distinct[inverse].tobytes() == data.inputs[ids].tobytes()
        assert labels.dtype == bool and np.array_equal(labels, data.labels[ids])


NET_SHAPES = {"desk": (25, (256, 256)), "plant": (2704, (256, 256))}


@pytest.fixture(scope="module", params=sorted(NET_SHAPES))
def eval_net(request):
    width, hidden = NET_SHAPES[request.param]
    params = _init_mlp(width, width, RunConfig(a3_hidden=hidden, seed=6))
    rows = (np.random.default_rng(7).random((2 * _EVAL_ROWS + 1, width)) > 0.05).astype(float)
    return params, rows


class TestBlockedEvaluation:
    @pytest.mark.parametrize("n", [1, 2, _EVAL_ROWS - 1, _EVAL_ROWS, _EVAL_ROWS + 1,
                                   2 * _EVAL_ROWS + 1])
    def test_logits_equal_one_unblocked_forward(self, eval_net, n):
        params, rows = eval_net
        got = _logits(params.weights, params.biases, rows[:n])
        want = _forward(params.weights, params.biases, rows[:n])[2]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a3_loss_equals_the_loss_of_one_unblocked_forward(self, eval_net):
        params, rows = eval_net
        labels = np.random.default_rng(8).random(rows.shape) > 0.02
        want = _loss(_forward(params.weights, params.biases, rows)[2], labels.astype(float))
        got = a3_loss(params, rows, labels)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_blocks_are_near_equal_and_never_one_row(self):
        sizes = []
        with mock.patch.object(association, "_forward",
                               lambda w, b, x: sizes.append(len(x)) or _forward(w, b, x)):
            for n in (1, 2, _EVAL_ROWS + 1, 2 * _EVAL_ROWS + 1, 5 * _EVAL_ROWS):
                sizes.clear()
                _logits((np.ones((1, 1)),), (np.zeros(1),), np.ones((n, 1)))
                assert sum(sizes) == n and max(sizes) <= _EVAL_ROWS
                assert max(sizes) - min(sizes) <= 1 and (min(sizes) > 1 or n == 1)


class TestLoss:
    @pytest.mark.parametrize(
        "inputs, labels, message",
        [
            (np.ones((4, 12)), np.ones((4, 1)), r"labels must be a \(4, 12\) matrix"),
            (np.ones((4, 12)), np.ones(12), r"labels must be a \(4, 12\) matrix"),
            (np.ones((4, 12)), np.ones((12, 4)), r"labels must be a \(4, 12\) matrix"),
            (np.ones((4, 11)), np.ones((4, 12)), r"nonempty \(n, 12\) matrix"),
            (np.ones(12), np.ones(12), r"nonempty \(n, 12\) matrix"),
            (np.ones((0, 12)), np.ones((0, 12)), r"nonempty \(n, 12\) matrix"),
        ],
    )
    def test_refuses_shapes_that_do_not_match_the_net(self, inputs, labels, message):
        params = _init_mlp(12, 12, RunConfig(a3_hidden=(8,), seed=5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                a3_loss(params, inputs, labels)

    def test_decomposes_into_per_position_terms(self, flip_dataset):
        cfg = RunConfig(a3_hidden=(16,), seed=5)
        params = _init_mlp(12, 12, cfg)
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
        params = _init_mlp(3, 3, cfg)
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
        fresh = _init_mlp(12, 12, cfg)
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

    def test_no_float32_rounding_reaches_the_stored_weights(self, flip_dataset, trained):
        """Steps run in float32, but with no epoch train_a3 returns the
        initial float64 arrays bit for bit, and a trained model is float64."""
        config = RunConfig(a3_hidden=(8, 8), a3_epochs=0, seed=4)
        params, init = train_a3(flip_dataset, config), _init_mlp(12, 12, config)
        for got, want in zip(params.weights + params.biases, init.weights + init.biases):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        params, _ = trained
        assert all(a.dtype == np.float64 for a in params.weights + params.biases)

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            train_a3(A3Dataset(np.ones((1, 4)), np.zeros(1, int), np.full((1, 0), -1)))


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

    def test_matrix_refused(self, trained):
        params, _ = trained
        with pytest.raises(DataError, match="one vector"):
            infer_a3(params, np.ones((2, 12)))


# Plain reference for train_a3: validation over every row, float dropout
# masks and fresh arrays in each step. Like train_a3, it runs each step in
# float32 on float32 copies of the float64 weights, and updates those in
# float64. train_a3 must return the same bits.


def _reference_forward(weights, biases, x, dropout=0.0, rng=None):
    """Hidden activations and output logits; inverted dropout when training."""
    h = x
    hiddens, masks = [], []
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        if dropout > 0.0 and rng is not None:
            mask = ((rng.random(h.shape) >= dropout) / (1.0 - dropout)).astype(h.dtype)
            h = h * mask
            masks.append(mask)
        else:
            masks.append(None)
        hiddens.append(h)
    logits = h @ weights[-1] + biases[-1]
    return hiddens, masks, logits


def _reference_gradients(weights, biases, x, y, dropout=0.0, rng=None):
    """Analytic gradients of the batch loss, per layer (weights, biases)."""
    hiddens, masks, logits = _reference_forward(weights, biases, x, dropout, rng)
    delta = (_sigmoid(logits) - y) / x.shape[0]
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    acts = [x, *hiddens]
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
            if masks[layer - 1] is not None:
                delta = delta * masks[layer - 1]
            delta = delta * (hiddens[layer - 1] > 0.0)
    return grads_w, grads_b


def loop_reference_train_a3(data: A3Dataset, config: RunConfig = RunConfig()) -> MlpParams:
    """Train with mini-batch gradient descent plus momentum and early stopping.

    The dataset is shuffled (by seed) and split into equal training and
    validation halves; training stops when validation loss has not improved
    for `patience` epochs and the best-validation-epoch parameters are
    returned, not the last ones.
    """
    if data.n_examples < 2:
        raise DataError("need at least 2 examples to split train/validation")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(data.n_examples)
    half = data.n_examples // 2
    tr_x = data.inputs[order[:half]].astype(np.float32)
    tr_y = data.labels[order[:half]].astype(np.float32)
    va_x, va_y = data.inputs[order[half:]], data.labels[order[half:]]

    init = _init_mlp(data.inputs.shape[1], data.labels.shape[1], config)
    weights = [w.copy() for w in init.weights]
    biases = [b.copy() for b in init.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    def val_loss():
        return _loss(_reference_forward(weights, biases, va_x)[2], va_y)

    best = val_loss()
    best_w = [w.copy() for w in weights]
    best_b = [b.copy() for b in biases]
    stale = 0
    momentum, lr = config.a3_momentum, config.a3_learning_rate
    for _ in range(config.a3_epochs):
        idx = rng.permutation(tr_x.shape[0])
        for lo in range(0, tr_x.shape[0], config.a3_batch_size):
            batch = idx[lo : lo + config.a3_batch_size]
            gw, gb = _reference_gradients(
                [w.astype(np.float32) for w in weights],
                [b.astype(np.float32) for b in biases],
                tr_x[batch], tr_y[batch], config.a3_dropout, rng,
            )
            for layer in range(len(weights)):
                vel_w[layer] = momentum * vel_w[layer] - lr * gw[layer].astype(float)
                vel_b[layer] = momentum * vel_b[layer] - lr * gb[layer].astype(float)
                weights[layer] += vel_w[layer]
                biases[layer] += vel_b[layer]
        current = val_loss()
        if current < best - 1e-12:
            best = current
            best_w = [w.copy() for w in weights]
            best_b = [b.copy() for b in biases]
            stale = 0
        else:
            stale += 1
            if stale >= config.a3_patience:
                break
    return MlpParams(tuple(best_w), tuple(best_b))


# near-equal inputs: 0 and -0.0 compare equal, 0.5 and its float neighbour
# differ in the last bit, 0.004 rounds to 0 at two decimals
INPUT_VALUES = [0.0, 1.0, -0.0, 0.5, float(np.nextafter(0.5, 1.0)), 0.004, 3.0]


@st.composite
def a3_training_cases(draw):
    """A small compact set over heavily repeated nominal rows, and a config
    that stops early. Flipping 0.5 gives 0.5 again, so examples with other
    flips can have equal bytes, as examples of equal nominal rows can."""
    n = draw(st.integers(2, 40))
    width = draw(st.integers(1, 5))
    n_nominal = draw(st.integers(1, min(n, 5)))
    row = st.lists(st.sampled_from(INPUT_VALUES), min_size=width, max_size=width)
    nominal = draw(st.lists(row, min_size=n_nominal, max_size=n_nominal))
    rows = draw(st.lists(st.integers(0, n_nominal - 1), min_size=n, max_size=n))
    # up to k distinct columns per example, with -1 padding in any place
    k = draw(st.integers(0, width))
    flips = draw(st.lists(st.permutations([*range(width), *[-1] * k]).map(lambda p: p[:k]),
                          min_size=n, max_size=n))
    half = n // 2
    config = RunConfig(
        a3_hidden=tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))),
        a3_dropout=draw(st.sampled_from([0.0, 0.3, 0.5, 0.77])),
        a3_learning_rate=draw(st.sampled_from([0.05, 0.5, 3.0])),
        a3_momentum=draw(st.sampled_from([0.0, 0.9])),
        # batch sizes that leave a short last batch come first
        a3_batch_size=draw(st.sampled_from([3, 7, 1, half + 1, max(half, 1)])),
        a3_epochs=draw(st.integers(0, 8)),
        a3_patience=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    data = A3Dataset(np.array(nominal), np.array(rows), np.array(flips, dtype=int).reshape(n, k))
    return data, config


def _recording(log, loss=_loss):
    """`_loss` that also keeps a copy of the logits it is given."""

    def record(logits, y):
        log.append(logits.copy())
        return loss(logits, y)

    return record


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=a3_training_cases())
def test_train_a3_equals_loop_reference(case):
    data, config = case
    # every validation pass must score the same logits, not only reach the
    # same early-stopping decisions. A GEMM over the distinct rows may take
    # another BLAS kernel than one over all rows (numpy's gemv for a single
    # row), so logits agree to rounding; wrongly merged rows differ by more.
    seen, expected = [], []
    with mock.patch.object(association, "_loss", _recording(seen)):
        params = train_a3(data, config)
    with mock.patch.object(sys.modules[__name__], "_loss", _recording(expected)):
        reference = loop_reference_train_a3(data, config)
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        scale = 1.0 + np.max(np.abs(want), where=np.isfinite(want), initial=0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    for got, want in zip(params.weights + params.biases, reference.weights + reference.biases):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_train_a3_equals_loop_reference_at_52_channels():
    """The shape of a 52-channel model: 2,704 pattern bits, every flip order."""
    rng = np.random.default_rng(52)
    nominal = (rng.random((3, 52 * 52)) > 0.02).astype(float)
    data = generate_artificial_anomalies(nominal, samples_per_order=3, seed=5)
    config = RunConfig(a3_hidden=(16, 8), a3_batch_size=7, a3_epochs=3, a3_patience=2, seed=8)
    params = train_a3(data, config)
    reference = loop_reference_train_a3(data, config)
    for got, want in zip(params.weights + params.biases, reference.weights + reference.biases):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _a3_training_peak(n_nominal):
    """tracemalloc peak of generating and training one epoch, at the default
    widths, on `n_nominal` nominal vectors of 2,704 bits (81 examples each)."""
    rng = np.random.default_rng(52)
    nominal = (rng.random((n_nominal, 52 * 52)) > 0.02).astype(float)
    tracemalloc.start()
    try:
        train_a3(generate_artificial_anomalies(nominal, seed=3), RunConfig(a3_epochs=1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a3_training_memory_at_52_channels():
    """10 nominal vectors (810 examples) peaked at 73.4 MiB with block-wise
    evaluation and a compact validation set, against 80.7 MiB with
    full-height evaluation and 164 MiB for the dense set with its split
    copies. The bound leaves 15% for numpy and Python versions."""
    assert _a3_training_peak(10) < 1.15 * 73.4 * 2**20


def test_a3_training_memory_at_52_channels_with_40_vectors():
    """40 nominal vectors (3,240 examples) peaked at 176.9 MiB, against
    228.9 MiB with dense float64 validation inputs and labels and
    full-height evaluation. The peak is the validation pass: the distinct
    rows' logits, their gather to every row and the loss's two buffers.
    The bound leaves 5%."""
    assert _a3_training_peak(40) < 1.05 * 176.9 * 2**20


def loop_reference_generate_artificial_anomalies(
    nominal_vectors, flip_orders=(1, 2, 3, 4), samples_per_order=20, seed=0
):
    """The dense generator: one float64 input row and one label row per
    example, each a flipped copy of its nominal vector."""
    nominal = np.asarray(nominal_vectors, dtype=float)
    L = nominal.shape[1]
    orders = sorted(set(int(k) for k in flip_orders))
    rng = np.random.default_rng(seed)
    inputs, labels = [], []
    for v in nominal:
        inputs.append(v.copy())
        labels.append(np.ones(L))
        for k in orders:
            for _ in range(samples_per_order):
                idx = rng.choice(L, size=k, replace=False)
                x = v.copy()
                x[idx] = 1.0 - x[idx]
                y = np.ones(L)
                y[idx] = 0.0
                inputs.append(x)
                labels.append(y)
    return np.stack(inputs), np.stack(labels)


@st.composite
def generator_cases(draw):
    """Binary nominal matrices (-0.0 included) and orders that may be empty,
    repeated, unsorted or non-contiguous."""
    n = draw(st.integers(1, 5))
    width = draw(st.integers(1, 9))
    nominal = draw(st.lists(st.lists(st.sampled_from([0.0, 1.0, -0.0]), min_size=width,
                                     max_size=width), min_size=n, max_size=n))
    orders = draw(st.lists(st.integers(1, width), max_size=4))
    samples = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.array(nominal), orders, samples, seed


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=generator_cases())
def test_generator_equals_loop_reference(case):
    data = generate_artificial_anomalies(*case)
    inputs, labels = loop_reference_generate_artificial_anomalies(*case)
    for got, want in ((data.inputs, inputs), (data.labels, labels)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _one_line_loss(logits, y):
    per_cell = np.maximum(logits, 0.0) - logits * y + np.log1p(np.exp(-np.abs(logits)))
    return float(per_cell.sum() / logits.shape[0])


LOGITS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 36.8, -36.8, 745.2, -745.2, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
def test_loss_equals_one_line_expression(shape, data):
    size = shape[0] * shape[1]
    logits = np.array(data.draw(st.lists(LOGITS, min_size=size, max_size=size))).reshape(shape)
    if data.draw(st.booleans()):  # confident and right: every cell is tiny, so the order shows
        y = (logits > 0.0).astype(float)
    else:
        y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, -0.0]), min_size=size,
                                        max_size=size))).reshape(shape)
    kept = logits.copy()
    with np.errstate(over="ignore"):  # sums of cells near 1e308 overflow to inf on both sides
        got, want = _loss(logits, y), _one_line_loss(logits, y)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert logits.tobytes() == kept.tobytes()
