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

from .config import _MAX_DEPTH, RunConfig
from .errors import DataError, UsageError
from .symbolic import (
    PartitionScheme,
    _metric_tables,
    _source_counts,
    _window_metric,
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
        if (min(self.depth, self.lag) < 1 or self.depth > _MAX_DEPTH  # before the power
                or self.window_length < self.depth + self.lag):
            raise DataError(f"need 1 <= depth <= {_MAX_DEPTH}, lag >= 1 and "
                            "window_length >= depth + lag")
        f = len(self.names)
        if self.partition.n_channels != f:
            raise DataError(f"partition has {self.partition.n_channels} channels, names {f}")
        counts = np.asarray(self.counts)
        if not np.issubdtype(counts.dtype, np.integer):
            raise DataError(f"count grid must hold integers, not {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        n_symbols = self.partition.alphabet_size
        shape = (f, f, n_symbols**self.depth, n_symbols)
        if counts.shape != shape:
            raise DataError(f"count grid shape {counts.shape} != {shape} at depth {self.depth}")
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
        """The model side of the metric kernel, built on first use."""
        return _metric_tables(self.counts, self.window_length)


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


def train_stpn(
    nominal: TimeSeries | Sequence[TimeSeries], config: RunConfig = RunConfig()
) -> tuple[StpnModel, np.ndarray]:
    """Fit the pattern network from one or more nominal series.

    With several series (multiple nominal operating modes) the counts are
    pooled into a single grid; disambiguating the modes is the energy
    model's job, not the network's. Thresholds are set per pattern to the
    configured quantile of the log metric over all nominal windows, those
    :func:`scan_windows` yields on each series at the configured stride.
    Also returns their binarized pattern vectors, stacked in series order
    into one int8 (n_windows, f*f) matrix, so callers need not score the
    training windows again.
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
    partition = learn_partition(series, config.alphabet_size, config.partition_method)
    n_symbols, f = config.alphabet_size, len(names)
    n_states = n_symbols**config.depth
    try:
        counts = np.zeros((f, f, n_states, n_symbols), dtype=np.int64)
    except (ValueError, MemoryError):  # numpy cannot index, or cannot allocate, the grid
        raise UsageError(
            f"alphabet_size {n_symbols} and depth {config.depth} need a count grid of "
            f"{f * f * n_states * n_symbols} cells for {f} channels, more than fit in memory"
        ) from None
    # Long series are counted in blocks of time steps, so the bincount index
    # stays about window-sized instead of growing to (n_samples, f).
    rows = max(1, _BLOCK_ELEMENTS // f)
    reach = config.depth - 1 + config.lag
    for ts in series:
        symbols, states = _symbols_and_states(ts, partition, config.depth)
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
    del symbols, states  # so calibration, too, holds one series' symbols at a time

    model = StpnModel(
        names=names,
        partition=partition,
        depth=config.depth,
        lag=config.lag,
        window_length=config.window_length,
        counts=counts,
        thresholds=np.zeros((f, f)),
    )
    # Every series holds 2 x window_length samples, so each yields a window.
    metrics = np.concatenate([scan_windows(model, ts, config.stride).metrics for ts in series])
    if len(metrics) * config.threshold_quantile < 1.0:
        warnings.warn(
            f"calibrating the {config.threshold_quantile} threshold quantile on "
            f"only {len(metrics)} nominal windows; thresholds degenerate "
            "to training minima, so provide more nominal data for stable bits"
        )
    calibrated = replace(
        model, thresholds=np.quantile(metrics, config.threshold_quantile, axis=0)
    )
    # The metric tables depend on the counts, window length and alphabet, not
    # on the thresholds, so the calibrated model reuses the ones just built.
    object.__setattr__(calibrated, "_metric_tables", model._metric_tables)
    return calibrated, _binarize(metrics, calibrated)


def _metrics_from_symbols(model: StpnModel, symbols, states) -> np.ndarray:
    """Log inference metric of every pattern for one window; shape (f, f).

    Row a scores source a against every target at once, with the kernel
    ``log_inference_metric`` runs.
    """
    table, model_cells, model_rows, model_row_terms = model._metric_tables
    n_symbols, n_states = model.partition.alphabet_size, model.counts.shape[2]
    out = np.empty((model.n_channels, model.n_channels))
    sources = _source_counts(symbols, states, n_states, n_symbols, model.lag, model.depth)
    for a, window in enumerate(sources):
        out[a] = _window_metric(table, model.counts[a], model_cells[a], model_rows[a],
                                model_row_terms[a], window)
    return out


def _binarize(metrics: np.ndarray, model: StpnModel) -> np.ndarray:
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


def scan_windows(model: StpnModel, ts: TimeSeries, stride: int = 0) -> WindowScan:
    """Slide the model's window over a series and binarize every position.

    The windows start at 0, stride, ...; `stride` 0 means non-overlapping
    windows. This is the one windowing path: :func:`train_stpn` calibrates
    its thresholds on the metrics of these windows over each training series.
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
    length = model.window_length
    n_state_rows = length - model.depth + 1
    starts = range(0, ts.n_samples - length + 1, stride or length)
    metrics = np.empty((len(starts), model.n_channels, model.n_channels))
    for i, start in enumerate(starts):
        metrics[i] = _metrics_from_symbols(
            model,
            symbols[start : start + length],
            states[start : start + n_state_rows],
        )
    return WindowScan(
        starts=np.array(starts, dtype=np.int64),
        metrics=metrics,
        vectors=_binarize(metrics, model),
    )
