import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpnrca import symbolic
from stpnrca.bench import exact_log_metric
from stpnrca.config import RunConfig
from stpnrca.errors import DataError
from stpnrca.persist import TrainedBundle, load_bundle, save_bundle
from stpnrca.rbm import RbmParams
from stpnrca.stpn import (
    StpnModel,
    _binarize,
    index_pattern,
    pattern_index,
    scan_windows,
    train_stpn,
)
from stpnrca.symbolic import (
    PartitionScheme,
    count_matrix,
    log_inference_metric,
    states_from_symbols,
    symbolize,
)
from stpnrca.synth import simulate_var
from stpnrca.timeseries import TimeSeries


@pytest.fixture(scope="module")
def small_config():
    return RunConfig(alphabet_size=5, window_length=200, threshold_quantile=0.05)


@pytest.fixture(scope="module")
def small_model(toy_graph, small_config):
    nominal = simulate_var(toy_graph, 40 * 200, seed=17)
    return train_stpn(nominal, small_config)[0], nominal


class TestPatternIndex:
    def test_origin(self):
        assert pattern_index(0, 0, 5) == 0

    def test_row_major(self):
        assert pattern_index(1, 2, 5) == 7

    def test_roundtrip_all_pairs(self):
        for f in (1, 3, 5):
            for a in range(f):
                for b in range(f):
                    assert index_pattern(pattern_index(a, b, f), f) == (a, b)

    def test_out_of_range(self):
        with pytest.raises(DataError):
            pattern_index(5, 0, 5)
        with pytest.raises(DataError):
            index_pattern(25, 5)


class TestTrainStpn:
    def test_full_grid(self, small_model):
        model, _ = small_model
        assert model.counts.shape[:2] == (4, 4)
        assert model.n_patterns == 16

    def test_default_window_length(self):
        assert RunConfig().window_length == 1200

    def test_quantile_zero_gives_all_ones(self, toy_graph):
        config = RunConfig(alphabet_size=5, window_length=200, threshold_quantile=0.0)
        nominal = simulate_var(toy_graph, 30 * 200, seed=23)
        model = train_stpn(nominal, config)[0]
        scan = scan_windows(model, nominal)
        assert np.all(scan.vectors == 1)

    def test_insufficient_data(self, small_config):
        short = TimeSeries(("a", "b"), np.random.default_rng(0).normal(size=(150, 2)))
        with pytest.raises(DataError):
            train_stpn(short, small_config)

    def test_determinism(self, toy_graph, small_config):
        nominal = simulate_var(toy_graph, 20 * 200, seed=3)
        m1 = train_stpn(nominal, small_config)[0]
        m2 = train_stpn(nominal, small_config)[0]
        assert np.array_equal(m1.counts, m2.counts)
        assert np.array_equal(m1.thresholds, m2.thresholds)

    @pytest.mark.parametrize("stride", [0, 150])
    @pytest.mark.parametrize("lengths", [[1300], [1000, 870, 1200]])
    def test_training_vectors_are_the_scans_of_the_training_series(
        self, toy_graph, small_config, stride, lengths
    ):
        """The calibration windows are exactly those scan_windows yields on
        each training series, in series order, at the configured stride."""
        config = replace(small_config, stride=stride)
        series = [simulate_var(toy_graph, n, seed=40 + i) for i, n in enumerate(lengths)]
        with pytest.warns(UserWarning, match="nominal windows"):  # few windows, on purpose
            model, vectors = train_stpn(series, config)
        expected = np.vstack([scan_windows(model, ts, stride).vectors for ts in series])
        assert vectors.dtype == np.int8
        assert vectors.shape == (len(expected), model.n_patterns)
        assert np.array_equal(vectors, expected)

    def test_one_metric_table_per_trained_model(self, toy_graph, small_config, monkeypatch):
        """The calibrated model keeps the table built for its calibration
        scan, so scoring with it builds none."""
        builds = []
        build = symbolic._lgamma_table

        def counted(top):
            builds.append(top)
            return build(top)

        monkeypatch.setattr(symbolic, "_lgamma_table", counted)
        nominal = simulate_var(toy_graph, 20 * 200, seed=3)
        model = train_stpn(nominal, small_config)[0]
        scan_windows(model, nominal.window(0, 400))
        assert len(builds) == 1

    def test_threshold_calibration_bound(self, small_model, small_config):
        model, nominal = small_model
        scan = scan_windows(model, nominal)
        n = scan.vectors.shape[0]
        zero_rate = (scan.vectors == 0).mean(axis=0)
        assert np.all(zero_rate <= small_config.threshold_quantile + 1.0 / n)


class TestCountGrid:
    @pytest.mark.parametrize("depth,lag", [(1, 1), (2, 3)])
    @pytest.mark.parametrize("block", [None, 10])
    def test_counts_match_reference(self, toy_graph, monkeypatch, depth, lag, block):
        if block is not None:  # many small training blocks, one per few samples
            monkeypatch.setattr("stpnrca.stpn._BLOCK_ELEMENTS", block)
        nominal = simulate_var(toy_graph, 3 * 200, seed=5)
        config = RunConfig(
            alphabet_size=3, depth=depth, lag=lag, window_length=200, threshold_quantile=0.5
        )
        model = train_stpn(nominal, config)[0]
        n_symbols = model.partition.alphabet_size
        symbols = symbolize(nominal, model.partition)
        states = states_from_symbols(symbols, n_symbols, model.depth)
        for a in range(model.n_channels):
            for b in range(model.n_channels):
                expected = count_matrix(
                    states[:, a], n_symbols**model.depth, symbols[:, b], n_symbols,
                    lag=model.lag, depth=model.depth,
                )
                assert np.array_equal(model.counts[a, b], expected)

    def test_float_counts_rejected(self, small_model):
        model, _ = small_model
        with pytest.raises(DataError, match="integers"):
            replace(model, counts=model.counts.astype(float))

    def test_negative_counts_rejected(self, small_model):
        model, _ = small_model
        counts = model.counts.copy()
        counts[0, 1, 0, 0] = -1
        with pytest.raises(DataError, match="nonnegative"):
            replace(model, counts=counts)

    def test_counts_stored_as_int64(self, small_model):
        model, _ = small_model
        narrow = replace(model, counts=model.counts.astype(np.int32))
        assert narrow.counts.dtype == np.int64
        assert np.array_equal(narrow.counts, model.counts)


def symbol_model(counts, depth, lag, length):
    """A model over channels c0, c1, ... whose edges at k + 0.5 map the
    value k to symbol k, so a series of symbols symbolizes to itself."""
    f, n_symbols = counts.shape[0], counts.shape[3]
    edges = np.arange(n_symbols - 1) + 0.5
    return StpnModel(
        names=tuple(f"c{i}" for i in range(f)),
        partition=PartitionScheme(np.tile(edges, (f, 1))),
        depth=depth,
        lag=lag,
        window_length=length,
        counts=counts,
        thresholds=np.zeros((f, f)),
    )


def pattern_windows(counts, symbols, depth, lag):
    """The window counts of every (a, b) pattern, one count_matrix call each."""
    f, _, n_states, n_symbols = counts.shape
    states = states_from_symbols(symbols, n_symbols, depth)
    return [
        [
            count_matrix(
                states[:, a], n_states, symbols[:, b], n_symbols, lag=lag, depth=depth
            )
            for b in range(f)
        ]
        for a in range(f)
    ]


def per_pattern_reference(counts, symbols, depth, lag):
    """The metric of one window, one (a, b) pattern at a time."""
    windows = pattern_windows(counts, symbols, depth, lag)
    return np.array(
        [
            [log_inference_metric(counts[a, b], window) for b, window in enumerate(row)]
            for a, row in enumerate(windows)
        ]
    )


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    f=st.integers(1, 6),
    n_symbols=st.integers(2, 5),
    depth=st.integers(1, 2),
    lag=st.integers(1, 3),
    extra=st.integers(0, 60),
    max_count=st.sampled_from([1, 5, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_metrics_equal_per_pattern_reference(
    f, n_symbols, depth, lag, extra, max_count, seed
):
    """The scan's kernel reproduces the per-pattern metric bit for bit, and
    every pattern's metric is within 1e-9 of exact arithmetic."""
    rng = np.random.default_rng(seed)
    length = max(depth + lag, n_symbols) + extra
    counts = rng.integers(0, max_count + 1, size=(f, f, n_symbols**depth, n_symbols))
    model = symbol_model(counts, depth, lag, length)
    symbols = rng.integers(0, n_symbols, size=(length, f))
    expected = per_pattern_reference(counts, symbols, depth, lag)
    got = scan_windows(model, TimeSeries(model.names, symbols.astype(float))).metrics[0]
    assert np.array_equal(got, expected)
    windows = pattern_windows(counts, symbols, depth, lag)
    for a, b in np.ndindex(f, f):
        want = exact_log_metric(counts[a, b], windows[a][b])
        assert abs(got[a, b] - want) <= 1e-9 * abs(want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    f=st.integers(1, 4),
    n_symbols=st.integers(2, 4),
    depth=st.integers(1, 2),
    lag=st.integers(1, 2),
    extra=st.integers(0, 20),
    n_windows=st.integers(2, 4),
    partial=st.integers(0, 30),
    overlap=st.booleans(),
    data=st.data(),
)
def test_every_window_of_a_scan_equals_per_pattern_reference(
    f, n_symbols, depth, lag, extra, n_windows, partial, overlap, data
):
    """A series of several windows, scanned at stride 0 or at an overlapping
    stride and ending in a partial window: every window's metrics equal the
    per-pattern reference on its own slice, bit for bit."""
    length = max(depth + lag, n_symbols) + extra
    stride = data.draw(st.integers(1, length - 1)) if overlap else 0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 1001, size=(f, f, n_symbols**depth, n_symbols))
    model = symbol_model(counts, depth, lag, length)
    trailing = 1 + partial % (length - 1)  # at stride 0, a partial window no start covers
    symbols = rng.integers(0, n_symbols, size=(n_windows * length + trailing, f))
    scan = scan_windows(model, TimeSeries(model.names, symbols.astype(float)), stride)
    assert scan.starts.tolist() == list(range(0, len(symbols) - length + 1, stride or length))
    assert len(scan.starts) >= n_windows
    for start, got in zip(scan.starts, scan.metrics, strict=True):
        expected = per_pattern_reference(counts, symbols[start : start + length], depth, lag)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestWindowMetrics:
    def test_training_windows_mostly_above_threshold(self, small_model):
        model, nominal = small_model
        scan = scan_windows(model, nominal)
        assert scan.vectors.mean() >= 0.95

    def test_single_channel(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=2000)
        x[1:] += 0.5 * x[:-1]
        ts = TimeSeries(("solo",), x[:, None])
        model = train_stpn(ts, RunConfig(alphabet_size=4, window_length=300))[0]
        metrics = scan_windows(model, ts.window(0, 300)).metrics[0]
        assert metrics.shape == (1, 1)

    def test_length_mismatch(self, small_model):
        model, nominal = small_model
        with pytest.raises(DataError):
            scan_windows(model, nominal.window(0, 150))

    def test_negative_stride_is_data_error(self, small_model):
        model, nominal = small_model
        with pytest.raises(DataError, match="stride"):
            scan_windows(model, nominal, -5)
        head = nominal.window(0, 600)
        assert list(scan_windows(model, head, 0).starts) == [0, 200, 400]  # non-overlapping
        assert list(scan_windows(model, head, 150).starts) == [0, 150, 300]

    def test_broken_pattern_metric_drops(self, toy_graph, small_config):
        from stpnrca.synth import FaultSpec, inject_fault

        nominal = simulate_var(toy_graph, 40 * 200, seed=17)
        model = train_stpn(nominal, small_config)[0]
        base = simulate_var(toy_graph, 5 * 200, seed=99)
        broken = inject_fault(
            toy_graph,
            base,
            FaultSpec(kind="pattern_break", edges=((0, 1),)),
            seed=99,
        )
        nominal_vals = scan_windows(model, base).metrics[:, 0, 1]
        broken_vals = scan_windows(model, broken).metrics[:, 0, 1]
        assert np.mean(broken_vals) < np.mean(nominal_vals)


class TestBinarize:
    def test_all_above(self, small_model):
        model, _ = small_model
        metrics = model.thresholds + 1.0
        assert np.all(_binarize(metrics, model) == 1)

    def test_all_below(self, small_model):
        model, _ = small_model
        metrics = model.thresholds - 1.0
        assert np.all(_binarize(metrics, model) == 0)

    def test_exactly_at_threshold_is_one(self, small_model):
        model, _ = small_model
        assert np.all(_binarize(model.thresholds.copy(), model) == 1)

    def test_shape_mismatch(self, small_model):
        model, _ = small_model
        with pytest.raises(DataError):
            _binarize(np.zeros((3, 3)), model)


def save_in_bundle(model, config, directory):
    """Save `model` in a bundle around an all-zero energy model."""
    n_v, n_h = model.n_patterns, config.rbm_hidden
    rbm = RbmParams(np.zeros(n_v), np.zeros(n_h), np.zeros((n_v, n_h)))
    save_bundle(TrainedBundle(model, rbm, 0.0, config), directory)


class TestPersistence:
    def test_roundtrip_reproduces_metrics(self, small_model, small_config, tmp_path):
        model, nominal = small_model
        save_in_bundle(model, small_config, tmp_path)
        loaded = load_bundle(tmp_path).stpn
        window = nominal.window(400, model.window_length)
        assert np.array_equal(
            scan_windows(model, window).metrics, scan_windows(loaded, window).metrics
        )
        assert np.array_equal(model.thresholds, loaded.thresholds)

    def test_fractional_count_in_file_rejected(self, small_model, small_config, tmp_path):
        model, _ = small_model
        fractional = copy.copy(model)  # past StpnModel's own integer check
        object.__setattr__(fractional, "counts", model.counts + 0.5)
        save_in_bundle(fractional, small_config, tmp_path)
        with pytest.raises(DataError, match="integers"):
            load_bundle(tmp_path)
