"""Learning the pattern network from nominal data.

The model is an f x f grid of state->symbol count matrices — diagonal
entries describe each channel's own dynamics (atomic patterns), off-diagonal
entries the directed cross-channel dynamics (relational patterns) — plus a
per-pattern binarization threshold on the log inference metric, calibrated
as an empirical quantile over nominal training windows. Short windows are
scored against the grid and binarized into pattern vectors of length f*f.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .config import RunConfig
from .errors import DataError
from .symbolic import (
    PartitionScheme,
    learn_partition,
    states_from_symbols,
    symbolize,
)
from .timeseries import TimeSeries


@dataclass(frozen=True, eq=False)
class StpnModel:
    """Trained pattern network: partition, count grid, and thresholds."""

    names: tuple[str, ...]
    partition: PartitionScheme
    depth: int
    lag: int
    window_length: int
    counts: np.ndarray = field(repr=False)  # (f, f, n_states, n_symbols) int64
    thresholds: np.ndarray = field(repr=False)  # (f, f) float

    def __post_init__(self):
        if min(self.depth, self.lag) < 1 or self.window_length < self.depth + self.lag:
            raise DataError("need depth, lag >= 1 and window_length >= depth + lag")
        f = len(self.names)
        counts = np.asarray(self.counts)
        if not np.issubdtype(counts.dtype, np.integer):
            raise DataError(f"count grid must hold integers, not {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        n_symbols = self.partition.alphabet_size
        shape = (f, f, n_symbols**self.depth, n_symbols)
        if counts.shape != shape:
            raise DataError(f"count grid shape {counts.shape} != {shape}")
        if counts.size and counts.min() < 0:
            raise DataError("count grid must be nonnegative")
        object.__setattr__(self, "counts", counts)
        if self.thresholds.shape != (f, f):
            raise DataError("threshold grid must be f x f")
        if not np.all(np.isfinite(self.thresholds)):
            raise DataError("thresholds must be finite")
        self.counts.setflags(write=False)
        self.thresholds.setflags(write=False)

    @property
    def n_channels(self) -> int:
        return len(self.names)

    @property
    def n_patterns(self) -> int:
        return self.n_channels**2

    @cached_property
    def _metric_tables(self):
        """Model-side terms of the log metric, built on first use.

        Every gammaln argument in the metric is an integer no larger than
        a model row sum plus the window length plus the alphabet size, so
        one table ``gammaln(k)`` serves every window scored against this
        model. Returns (table, table[counts + 1], row sums,
        table[row sums + n_symbols]).
        """
        n_symbols = self.partition.alphabet_size
        rows = self.counts.sum(axis=3)
        top = int(rows.max(initial=0)) + self.window_length + n_symbols
        table = gammaln(np.arange(top + 1, dtype=float))
        return table, table[1:][self.counts], rows, table[rows + n_symbols]


def pattern_index(a: int, b: int, f: int) -> int:
    """Row-major position of pattern a->b in a length f*f vector."""
    if not (0 <= a < f and 0 <= b < f):
        raise DataError(f"pattern ({a}, {b}) out of range for f={f}")
    return a * f + b


def index_pattern(i: int, f: int) -> tuple[int, int]:
    """Inverse of :func:`pattern_index`."""
    if not 0 <= i < f * f:
        raise DataError(f"pattern index {i} out of range for f={f}")
    return divmod(i, f)


_BLOCK_ELEMENTS = 1 << 15  # bincount index elements per training block


def _symbols_and_states(ts: TimeSeries, partition, depth):
    symbols = symbolize(ts, partition)
    states = states_from_symbols(symbols, partition.alphabet_size, depth)
    return symbols, states


def _source_counts(symbols, states, n_states, n_symbols, lag, depth):
    """Yield, for each source channel a, the state->symbol counts of a
    against every target b: shape (f, n_states, n_symbols), equal to
    ``count_matrix(states[:, a], ..., symbols[:, b], ...)`` for each b.

    One bincount per source over ``state_a * n_symbols + symbol_b + b *
    n_states * n_symbols``; looping over sources keeps the index to one
    (pairs, f) array instead of a (pairs, f, f) one.
    """
    n_pairs = states.shape[0] - lag
    if n_pairs < 1:
        raise DataError(
            f"no valid pairs after lag shift (T={symbols.shape[0]}, D={depth}, p={lag})"
        )
    f = symbols.shape[1]
    cell = n_states * n_symbols
    targets = symbols[depth - 1 + lag :] + np.arange(f) * cell
    sources = states[:n_pairs] * n_symbols
    for a in range(f):
        flat = (targets + sources[:, a, None]).ravel()
        yield np.bincount(flat, minlength=f * cell).reshape(f, n_states, n_symbols)


def train_stpn(
    nominal: TimeSeries | Sequence[TimeSeries], config: RunConfig = RunConfig()
) -> tuple[StpnModel, list[WindowScan]]:
    """Fit the pattern network from one or more nominal series.

    With several series (multiple nominal operating modes) the counts are
    pooled into a single grid; disambiguating the modes is the energy
    model's job, not the network's. Thresholds are set per pattern to the
    configured quantile of the log metric over all nominal windows. Also
    returns the binarized calibration scan of each series, so callers need
    not score the training windows again.
    """
    series = [nominal] if isinstance(nominal, TimeSeries) else list(nominal)
    if not series:
        raise DataError("no nominal series given")
    names = series[0].names
    for ts in series:
        if ts.names != names:
            raise DataError("all nominal series must share channel names")
        if ts.n_samples < 2 * config.window_length:
            raise DataError(
                f"nominal series of {ts.n_samples} samples shorter than "
                f"2 x window_length = {2 * config.window_length}"
            )
    partition = learn_partition(
        TimeSeries(names, np.vstack([ts.values for ts in series])),
        config.alphabet_size,
        config.partition_method,
    )
    n_symbols = config.alphabet_size
    n_states = n_symbols**config.depth

    f = len(names)
    counts = np.zeros((f, f, n_states, n_symbols), dtype=np.int64)
    per_series = []
    # Long series are counted in blocks of time steps, so the bincount index
    # stays about window-sized instead of growing to (n_samples, f).
    rows = max(1, _BLOCK_ELEMENTS // f)
    reach = config.depth - 1 + config.lag
    for ts in series:
        symbols, states = _symbols_and_states(ts, partition, config.depth)
        per_series.append((symbols, states))
        for lo in range(0, states.shape[0] - config.lag, rows):
            block = _source_counts(
                symbols[lo : lo + rows + reach],
                states[lo : lo + rows + config.lag],
                n_states,
                n_symbols,
                config.lag,
                config.depth,
            )
            for a, source in enumerate(block):
                counts[a] += source

    model = StpnModel(
        names=names,
        partition=partition,
        depth=config.depth,
        lag=config.lag,
        window_length=config.window_length,
        counts=counts,
        thresholds=np.zeros((f, f)),
    )

    scored = [
        _score_windows(model, symbols, states, config.stride)
        for symbols, states in per_series
    ]
    n_windows = sum(len(starts) for starts, _ in scored)
    if not n_windows:
        raise DataError("nominal data yields no calibration windows")
    if n_windows * config.threshold_quantile < 1.0:
        warnings.warn(
            f"calibrating the {config.threshold_quantile} threshold quantile on "
            f"only {n_windows} nominal windows; thresholds degenerate "
            "to training minima, so provide more nominal data for stable bits"
        )
    stacked = np.concatenate([metrics for _, metrics in scored])
    thresholds = np.quantile(stacked, config.threshold_quantile, axis=0)
    model = replace(model, thresholds=thresholds)
    return model, [_window_scan(model, starts, metrics) for starts, metrics in scored]


def _metrics_from_symbols(model: StpnModel, symbols, states) -> np.ndarray:
    """Log inference metric of every pattern for one window; shape (f, f).

    Bit-identical to ``log_inference_metric(model.counts[a, b], window
    counts)`` per pattern: the same gammaln values, read from the model's
    table, are combined in the same order and summed row by row.
    """
    table, model_cells, model_rows, model_row_terms = model._metric_tables
    f = model.n_channels
    n_symbols = model.partition.alphabet_size
    n_states = n_symbols**model.depth
    plus_one, plus_symbols = table[1:], table[n_symbols:]  # lg[k + 1], lg[k + A]
    out = np.empty((f, f))
    for a, window in enumerate(
        _source_counts(symbols, states, n_states, n_symbols, model.lag, model.depth)
    ):
        window_rows = window.sum(axis=2)
        row_terms = (
            plus_one[window_rows]
            + model_row_terms[a]
            - plus_symbols[window_rows + model_rows[a]]
        )
        cell_terms = (
            plus_one[window + model.counts[a]] - plus_one[window] - model_cells[a]
        )
        out[a] = row_terms.sum(axis=1) + cell_terms.reshape(f, -1).sum(axis=1)
    return out


def _score_windows(model: StpnModel, symbols, states, stride: int):
    """Metrics of the windows starting at 0, stride, ... of one symbolized
    series: (starts, (n, f, f) metrics). Stride 0 means non-overlapping."""
    length = model.window_length
    n_state_rows = length - model.depth + 1
    starts = range(0, symbols.shape[0] - length + 1, stride or length)
    metrics = np.empty((len(starts), model.n_channels, model.n_channels))
    for i, start in enumerate(starts):
        metrics[i] = _metrics_from_symbols(
            model,
            symbols[start : start + length],
            states[start : start + n_state_rows],
        )
    return starts, metrics


def binarize(metrics: np.ndarray, model: StpnModel) -> np.ndarray:
    """Threshold a metric grid into a flat 0/1 pattern vector of length f*f,
    or an (n, f, f) stack of grids into an (n, f*f) matrix of such vectors.

    A metric exactly at its threshold maps to 1 (inclusive rule).
    """
    metrics = np.asarray(metrics, dtype=float)
    if metrics.ndim not in (2, 3) or metrics.shape[-2:] != model.thresholds.shape:
        raise DataError(
            f"metric grid {metrics.shape} does not match model {model.thresholds.shape}"
        )
    bits = (metrics >= model.thresholds).astype(np.int8)
    return bits.reshape(metrics.shape[:-2] + (model.n_patterns,))


@dataclass(frozen=True, eq=False)
class WindowScan:
    """Per-window metrics and pattern vectors for one series."""

    starts: np.ndarray  # (n,) int
    metrics: np.ndarray  # (n, f, f) float
    vectors: np.ndarray  # (n, f*f) int8


def _window_scan(model: StpnModel, starts, metrics: np.ndarray) -> WindowScan:
    return WindowScan(
        starts=np.array(starts, dtype=np.int64),
        metrics=metrics,
        vectors=binarize(metrics, model),
    )


def scan_windows(model: StpnModel, ts: TimeSeries, stride: int = 0) -> WindowScan:
    """Slide the model's window over a series and binarize every position.

    `stride` 0 means non-overlapping windows, as in :func:`train_stpn`.
    """
    if ts.names != model.names:
        raise DataError(
            f"series channels {list(ts.names)} do not match the model's "
            f"{list(model.names)}"
        )
    if stride < 0:
        raise DataError(f"stride must be >= 0 (0 means non-overlapping), got {stride}")
    if ts.n_samples < model.window_length:
        raise DataError(
            f"series of {ts.n_samples} samples shorter than window "
            f"length {model.window_length}"
        )
    symbols, states = _symbols_and_states(ts, model.partition, model.depth)
    starts, metrics = _score_windows(model, symbols, states, stride)
    return _window_scan(model, starts, metrics)
