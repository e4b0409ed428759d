import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stpnrca.bench import exact_log_metric, two_state_counts
from stpnrca.errors import DataError, DegeneratePartitionError
from stpnrca.symbolic import (
    PartitionScheme,
    count_matrix,
    learn_partition,
    log_inference_metric,
    states_from_symbols,
    symbolize,
)
from stpnrca.timeseries import TimeSeries


def series(*columns):
    cols = [np.asarray(c, dtype=float) for c in columns]
    names = tuple(f"c{i}" for i in range(len(cols)))
    return TimeSeries(names, np.column_stack(cols))


class TestLearnPartition:
    def test_mep_median_midpoint(self):
        scheme = learn_partition(series([1, 2, 3, 4]), 2, "mep")
        assert scheme.edges[0] == pytest.approx([2.5])

    def test_mep_nine_bins_equal_frequency(self):
        ts = series(np.arange(0, 9.9, 0.1))
        scheme = learn_partition(ts, 9, "mep")
        symbols = symbolize(ts, scheme)
        counts = np.bincount(symbols[:, 0], minlength=9)
        assert counts.max() - counts.min() <= 1

    def test_up_midpoint(self):
        scheme = learn_partition(series([0, 10]), 2, "up")
        assert scheme.edges[0] == pytest.approx([5.0])

    def test_occupancy_within_one_random_data(self):
        rng = np.random.default_rng(5)
        ts = series(rng.normal(size=1000))
        for bins in (2, 5, 9):
            scheme = learn_partition(ts, bins, "mep")
            counts = np.bincount(symbolize(ts, scheme)[:, 0], minlength=bins)
            assert counts.max() - counts.min() <= 1

    def test_alphabet_too_small(self):
        with pytest.raises(DataError):
            learn_partition(series([1, 2, 3]), 1)

    def test_constant_channel_named_in_error(self):
        ts = TimeSeries(("flat", "ok"), np.column_stack([np.ones(10), np.arange(10.0)]))
        with pytest.raises(DegeneratePartitionError, match="flat"):
            learn_partition(ts, 3)

    def test_duplicated_edges_rejected(self):
        ts = series([0.0] * 50 + [1.0, 2.0])
        with pytest.raises(DegeneratePartitionError):
            learn_partition(ts, 4, "mep")

    @pytest.mark.parametrize("method", ["mep", "up"])
    @pytest.mark.parametrize("lengths", [(7,), (3, 40), (5, 2, 30, 2)])
    def test_several_series_pool_their_samples(self, method, lengths):
        """Edges learned from several series equal, bit for bit, those
        learned from one series that stacks their samples."""
        rng = np.random.default_rng(sum(lengths))
        parts = [rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 3) for n in lengths]
        names = ("a", "b", "c")
        got = learn_partition([TimeSeries(names, p) for p in parts], 5, method)
        want = learn_partition(TimeSeries(names, np.vstack(parts)), 5, method)
        assert got.edges.tobytes() == want.edges.tobytes()

    def test_several_series_must_share_names(self):
        with pytest.raises(DataError, match="same channel names"):
            learn_partition([series([1, 2, 3]), TimeSeries(("x",), np.arange(3.0)[:, None])], 2)
        with pytest.raises(DataError, match="one or more series"):
            learn_partition([], 2)


def loop_reference_partition(ts, alphabet_size, method):
    """Edges one channel at a time, or None where a channel is constant or
    its edges tie."""
    edges = []
    for i in range(ts.n_channels):
        x = ts.channel(i)
        lo, hi = float(np.min(x)), float(np.max(x))
        if lo == hi:
            return None
        if method == "mep":
            e = np.quantile(x, np.arange(1, alphabet_size) / alphabet_size)
        else:
            e = lo + (hi - lo) * np.arange(1, alphabet_size) / alphabet_size
        if not np.all(np.diff(e) > 0):
            return None
        edges.append(e)
    return np.array(edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    method=st.sampled_from(["mep", "up"]),
    alphabet_size=st.integers(2, 17),
    data=st.data(),
)
def test_learn_partition_equals_loop_reference(method, alphabet_size, data):
    """learn_partition gives the per-channel loop's edges bit for bit (its
    equal-width edges come from one expression over all channels), and fails
    exactly where a channel is constant or its edges tie."""
    shape = (data.draw(st.integers(alphabet_size, 80)), data.draw(st.integers(1, 6)))
    # distinct values bin cleanly; a few repeated ones make ties and constant
    # channels common
    values = data.draw(st.one_of(
        arrays(float, shape, elements=st.floats(-1e300, 1e300), unique=True),
        arrays(float, shape, elements=st.sampled_from([-2.5, 0.0, 1e-300, 3.0, 7.25])),
    ))
    ts = TimeSeries(tuple(f"c{i}" for i in range(shape[1])), values)
    want = loop_reference_partition(ts, alphabet_size, method)
    if want is None:
        with pytest.raises(DegeneratePartitionError):
            learn_partition(ts, alphabet_size, method)
        return
    got = learn_partition(ts, alphabet_size, method).edges
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPartitionScheme:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("alphabet_size", [2, 4])
    def test_non_finite_edge_names_the_channel(self, bad, alphabet_size):
        edges = np.tile(np.arange(alphabet_size - 1.0), (3, 1))
        edges[1, -1] = bad
        with pytest.raises(DegeneratePartitionError, match="channel 1: bin edges are not "
                           "finite and strictly increasing") as info:
            PartitionScheme(edges)
        assert info.value.channel == 1

    @pytest.mark.parametrize("row", [[1.0, 1.0], [2.0, 1.0], [0.0, -0.0]])
    def test_non_increasing_row_names_the_channel(self, row):
        with pytest.raises(DegeneratePartitionError, match="channel 2"):
            PartitionScheme(np.array([[0.0, 1.0], [0.0, 1.0], row]))

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (2, 2, 1)])
    def test_edges_must_be_a_matrix_of_one_column_or_more(self, shape):
        with pytest.raises(DataError, match="alphabet_size >= 2"):
            PartitionScheme(np.zeros(shape))

    def test_shape_gives_the_structure(self):
        edges = np.array([[0, 1, 2], [-1, 0.5, 4]])
        scheme = PartitionScheme(edges)
        assert (scheme.n_channels, scheme.alphabet_size) == (2, 4)
        assert scheme.edges.dtype == np.float64 and not scheme.edges.flags.writeable
        assert edges.flags.writeable  # a copy is frozen, not the caller's array


class TestSymbolize:
    def test_below_lowest_edge(self):
        scheme = learn_partition(series([1, 3, 2, 4]), 2)
        assert symbolize(series([-100.0, 0.0]), scheme)[0, 0] == 0

    def test_edge_value_goes_to_higher_bin(self):
        scheme = learn_partition(series([1, 2, 3, 4]), 2)  # edge 2.5
        assert symbolize(series([2.5, 0.0]), scheme)[0, 0] == 1

    def test_direct_binning(self):
        scheme = learn_partition(series([1, 2, 3, 4]), 2)
        out = symbolize(series([1, 3, 2, 4]), scheme)
        assert out[:, 0].tolist() == [0, 1, 0, 1]

    def test_channel_count_mismatch(self):
        scheme = learn_partition(series([1, 2, 3, 4]), 2)
        two = series([1, 2], [3, 4])
        with pytest.raises(DataError):
            symbolize(two, scheme)


def searchsorted_reference(ts, scheme):
    """Symbols one channel at a time, by binary search over its edges."""
    out = np.empty((ts.n_samples, ts.n_channels), dtype=np.int64)
    for i in range(ts.n_channels):
        out[:, i] = np.searchsorted(scheme.edges[i], ts.channel(i), side="right")
    return out


# signed zeros, the smallest subnormal, a subnormal near the normal range and
# the ends of float64's finite range
SPECIAL_VALUES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308, 1.0, -1.0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    # 256 symbols still fit the count's uint8 accumulator, 257 need uint16
    alphabet_size=st.integers(2, 300) | st.sampled_from([255, 256, 257, 258]),
    n_channels=st.integers(1, 60),
    n_samples=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_symbolize_equals_searchsorted_reference(alphabet_size, n_channels, n_samples, seed):
    """Counting the edges at or below each sample gives the binary search's
    symbols, with samples on the edges, next to them, at both signed zeros,
    at subnormals and at +-1e308."""
    rng = np.random.default_rng(seed)
    edges = np.empty((n_channels, alphabet_size - 1))
    values = np.empty((n_samples, n_channels))
    for i in range(n_channels):
        scale = 10.0 ** rng.integers(-300, 300)
        pool = np.unique(np.concatenate([SPECIAL_VALUES, rng.standard_normal(alphabet_size) * scale]))
        edges[i] = np.sort(rng.choice(pool, alphabet_size - 1, replace=False))
        near = np.concatenate([edges[i], np.nextafter(edges[i], np.inf),
                               np.nextafter(edges[i], -np.inf), SPECIAL_VALUES])
        values[:, i] = rng.choice(near, n_samples)
    ts = TimeSeries(tuple(f"c{i}" for i in range(n_channels)), values)
    scheme = PartitionScheme(edges)
    got = symbolize(ts, scheme)
    assert got.dtype == np.int64 and got.shape == (n_samples, n_channels)
    assert got.flags.c_contiguous
    assert np.array_equal(got, searchsorted_reference(ts, scheme))


def loop_reference_states(symbols, n_symbols, depth):
    """States built up from a zero array, one symbol of history at a time."""
    symbols = np.asarray(symbols)
    if symbols.ndim == 1:
        symbols = symbols[:, None]
    T = symbols.shape[0]
    states = np.zeros((T - depth + 1, symbols.shape[1]), dtype=np.int64)
    for j in range(depth):
        states = states * n_symbols + symbols[j : T - depth + 1 + j]
    return states


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n_symbols=st.integers(2, 300),
    depth=st.integers(1, 4),
    n_channels=st.integers(1, 6) | st.none(),  # None: a 1-D sequence
    extra=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_states_equal_loop_reference(n_symbols, depth, n_channels, extra, seed):
    shape = (depth + extra,) if n_channels is None else (depth + extra, n_channels)
    symbols = np.random.default_rng(seed).integers(0, n_symbols, size=shape)
    got = states_from_symbols(symbols, n_symbols, depth)
    want = loop_reference_states(symbols, n_symbols, depth)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


class TestStates:
    def test_depth_one_identity(self):
        symbols = np.array([[0], [1], [0]])
        assert states_from_symbols(symbols, 2, 1)[:, 0].tolist() == [0, 1, 0]

    def test_depth_two_encoding(self):
        symbols = np.array([[0], [1], [1]])
        assert states_from_symbols(symbols, 2, 2)[:, 0].tolist() == [1, 3]

    def test_too_short(self):
        with pytest.raises(DataError):
            states_from_symbols(np.array([[0]]), 2, 2)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_encode_decode_roundtrip(self, depth):
        rng = np.random.default_rng(depth)
        symbols = rng.integers(0, 4, size=(50, 1))
        states = states_from_symbols(symbols, 4, depth)
        for k, state in enumerate(states[:, 0]):
            history = symbols[k : k + depth, 0]
            # base-4 digits, oldest symbol most significant
            expected = sum(int(s) * 4 ** (depth - 1 - j) for j, s in enumerate(history))
            assert state == expected


class TestCountMatrix:
    def test_hand_enumeration(self):
        states = np.array([0, 1, 0, 1])
        symbols = np.array([1, 1, 0, 0])
        n = count_matrix(states, 2, symbols, 2, lag=1)
        assert n.tolist() == [[1, 1], [1, 0]]

    def test_constant_sequences(self):
        T = 37
        n = count_matrix(np.zeros(T, dtype=int), 2, np.zeros(T, dtype=int), 2, lag=1)
        assert n[0, 0] == T - 1
        assert n.sum() == T - 1

    def test_self_pattern(self):
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 3, size=100)
        n = count_matrix(symbols, 3, symbols, 3, lag=1)
        assert n.sum() == 99

    @pytest.mark.parametrize("lag,depth", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_count_conservation(self, lag, depth):
        rng = np.random.default_rng(lag * 10 + depth)
        symbols = rng.integers(0, 3, size=60)
        states = states_from_symbols(symbols[:, None], 3, depth)[:, 0]
        n = count_matrix(states, 3**depth, symbols, 3, lag=lag, depth=depth)
        assert n.sum() == 60 - depth + 1 - lag

    def test_empty_overlap(self):
        with pytest.raises(DataError):
            count_matrix(np.array([0, 1]), 2, np.array([0, 1]), 2, lag=5)

    @pytest.mark.parametrize(
        "states, symbols, message",
        [
            ([0, 1, 0], [0, 3, 1], "symbols must lie in 0..1, found 3"),
            ([0, 1, 0], [0, -1, 1], "symbols must lie in 0..1, found -1"),
            ([0, 2, 0], [0, 1, 1], "states must lie in 0..1, found 2"),
            ([0, -1, 0], [0, 1, 1], "states must lie in 0..1, found -1"),
            ([0.0, 1.0, 0.0], [0, 1, 1], "states must be integers, not float64"),
            ([0, 1, 0], [0.0, 1.0, 1.0], "symbols must be integers, not float64"),
        ],
    )
    def test_bad_states_and_symbols_refused(self, states, symbols, message):
        with pytest.raises(DataError) as info:
            count_matrix(np.array(states), 2, np.array(symbols), 2)
        assert str(info.value) == message

    def test_narrow_integer_types_count_like_int64(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 200, size=80)
        want = count_matrix(symbols, 200, symbols, 200)
        narrow = symbols.astype(np.uint8)
        assert np.array_equal(count_matrix(narrow, 200, narrow, 200), want)


WHOLE = "count matrices must hold whole numbers in int64's range"


class TestLogInferenceMetric:
    def test_empty_window_is_exactly_zero(self):
        model = np.array([[4, 2], [1, 3]])
        assert log_inference_metric(model, np.zeros_like(model)) == 0.0

    def test_frozen_exact_value(self):
        # exact-arithmetic evaluation of the 2x2 example gives ln(1/4)
        model = np.array([[4, 2], [1, 3]])
        window = np.array([[2, 1], [0, 1]])
        assert log_inference_metric(model, window) == pytest.approx(
            -math.log(4.0), rel=1e-12
        )

    def test_matches_exact_oracle_spot(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            model = rng.integers(0, 60, size=(3, 4))
            window = rng.integers(0, 60, size=(3, 4))
            got = log_inference_metric(model, window)
            want = exact_log_metric(model, window)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            log_inference_metric(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_negative_counts(self):
        with pytest.raises(DataError):
            log_inference_metric(np.array([[-1, 0]]), np.array([[0, 0]]))

    @pytest.mark.parametrize(
        "model, window, message",
        [
            ([[np.nan, 1.0]], [[0.0, 0.0]], "count matrices must be finite"),
            ([[2.0, 1.0]], [[np.inf, 0.0]], "count matrices must be finite"),
            ([[2.0, 1.0]], [[0.5, 0.0]], WHOLE),
            ([[1e19, 1.0]], [[1.0, 0.0]], WHOLE),
            ([1, 2], [0, 1], "count matrices must be 2-D with at least one column, not (2,)"),
            (np.zeros((2, 0)), np.zeros((2, 0)),
             "count matrices must be 2-D with at least one column, not (2, 0)"),
        ],
    )
    def test_counts_that_are_not_count_matrices_refused(self, model, window, message):
        with pytest.raises(DataError) as info:
            log_inference_metric(np.array(model), np.array(window))
        assert str(info.value) == message

    def test_whole_float_counts_equal_integer_counts(self):
        model, window = np.array([[4, 2], [1, 3]]), np.array([[2, 1], [0, 1]])
        want = log_inference_metric(model, window)
        assert log_inference_metric(model.astype(float), window.astype(float)) == want

    def test_table_peak_memory_is_one_float_per_entry(self):
        # a row sum of 2 * 10**5 makes a log-Gamma table of about as many
        # entries; building it must not hold more than the table itself
        model, window = np.array([[200_000, 0], [3, 5]]), np.array([[1, 0], [0, 2]])
        entries = 200_000 + 2 + 1 + 2  # largest row sum, window reach, symbols, index 0
        tracemalloc.start()
        try:
            log_inference_metric(model, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * entries


class TestMetricDelta:
    """The metric variation: nominal minus anomalous log metric."""

    def test_self_difference_zero(self):
        model, nominal, unchanged = two_state_counts(24, 12, k=10, eta=0)
        delta = log_inference_metric(model, nominal) - log_inference_metric(model, unchanged)
        assert delta == 0.0

    def test_positive_for_unit_change(self):
        model, nominal, anomalous = two_state_counts(24, 12, k=10, eta=1)
        delta = log_inference_metric(model, nominal) - log_inference_metric(model, anomalous)
        assert delta > 0

    def test_monotone_in_change_count(self):
        model, nominal, _ = two_state_counts(24, 12, k=10, eta=1)
        lnl_nom = log_inference_metric(model, nominal)
        deltas = []
        for eta in (1, 2):
            _, _, anomalous = two_state_counts(24, 12, k=10, eta=eta)
            deltas.append(lnl_nom - log_inference_metric(model, anomalous))
        assert deltas[1] > deltas[0]

    @pytest.mark.parametrize("k", [10, 100])
    @pytest.mark.parametrize("ratio", [1, 2, 3])
    def test_two_state_property_full_grid(self, k, ratio):
        n21 = 12
        model, nominal, _ = two_state_counts(ratio * n21, n21, k=k, eta=1)
        lnl_nom = log_inference_metric(model, nominal)
        previous = 0.0
        for eta in range(1, 6):
            _, _, anomalous = two_state_counts(ratio * n21, n21, k=k, eta=eta)
            delta = lnl_nom - log_inference_metric(model, anomalous)
            assert delta > previous
            previous = delta


@st.composite
def count_pairs(draw):
    """A model and a window count matrix of the same small shape, with a row
    and a column permutation."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(2, 7))
    cells = st.lists(st.integers(0, 100), min_size=rows * cols, max_size=rows * cols)
    model = np.array(draw(cells)).reshape(rows, cols)
    window = np.array(draw(cells)).reshape(rows, cols)
    row_order = list(draw(st.permutations(range(rows))))
    col_order = list(draw(st.permutations(range(cols))))
    return model, window, row_order, col_order


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=count_pairs())
def test_metric_invariants_against_exact_oracle(case):
    """The metric matches exact arithmetic and ignores the order of states and
    symbols; a state seen in neither matrix adds nothing. The zero-row bound is
    rounding only: numpy regroups a sum when its length crosses a multiple of 8."""
    model, window, row_order, col_order = case
    got = log_inference_metric(model, window)
    want = exact_log_metric(model, window)
    assert abs(got - want) <= 1e-9 * abs(want)
    zero = np.zeros((1, model.shape[1]), dtype=model.dtype)
    for m, w in (
        (model[row_order], window[row_order]),
        (model[:, col_order], window[:, col_order]),
        (np.vstack([model, zero]), np.vstack([window, zero])),
    ):
        assert log_inference_metric(m, w) == pytest.approx(got, rel=1e-12, abs=1e-12)


def factorial_reference_exact_log_metric(model, window) -> float:
    """The metric's numerator and denominator as products of factorials,
    uncancelled, with their logs taken at 60 significant digits."""
    model = np.asarray(model, dtype=np.int64)
    window = np.asarray(window, dtype=np.int64)
    n_sym = model.shape[1]
    num, den = 1, 1
    for m in range(model.shape[0]):
        wrow = int(window[m].sum())
        mrow = int(model[m].sum())
        num *= math.factorial(wrow) * math.factorial(mrow + n_sym - 1)
        den *= math.factorial(wrow + mrow + n_sym - 1)
        for n in range(n_sym):
            w, c = int(window[m, n]), int(model[m, n])
            num *= math.factorial(w + c)
            den *= math.factorial(w) * math.factorial(c)
    with decimal.localcontext() as context:
        context.prec = 60
        return float(decimal.Decimal(num).ln() - decimal.Decimal(den).ln())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=count_pairs())
def test_exact_oracle_equals_factorial_reference(case):
    """Cancelling the factorials into binomial coefficients changes no bit of
    the oracle's answer, the sign of a zero included."""
    model, window, _, _ = case
    want = factorial_reference_exact_log_metric(model, window)
    assert exact_log_metric(model, window).hex() == want.hex()
