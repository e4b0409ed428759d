"""Symbolization of time series and the pattern inference metric.

Channels are discretized into symbols (equal-frequency or equal-width bins),
symbols are grouped into depth-D states, and state->symbol co-occurrence
counts summarize each directed channel pair. The log inference metric scores
how consistent a short window's counts are with the counts learned from
nominal data; its drop under an anomaly is the quantity every downstream
root-cause step consumes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, DegeneratePartitionError
from .timeseries import TimeSeries


@dataclass(frozen=True)
class PartitionScheme:
    """Interior bin edges for a common alphabet size: a read-only float64
    (channels, alphabet_size - 1) matrix, stored as is in a bundle file,
    whose every row must be finite and strictly increasing."""

    edges: np.ndarray

    def __post_init__(self):
        edges = np.array(self.edges, dtype=np.float64)
        if edges.ndim != 2 or edges.shape[1] < 1:
            raise DataError(f"partition edges of shape {edges.shape}, expected "
                            "(channels, alphabet_size - 1) with alphabet_size >= 2")
        ordered = np.isfinite(edges).all(axis=1) & (np.diff(edges, axis=1) > 0).all(axis=1)
        if not ordered.all():
            i = int(np.argmin(ordered))
            raise DegeneratePartitionError(
                f"channel {i}: bin edges are not finite and strictly increasing", i)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def alphabet_size(self) -> int:
        return self.edges.shape[1] + 1

    @property
    def n_channels(self) -> int:
        return self.edges.shape[0]


def learn_partition(
    ts: TimeSeries | Sequence[TimeSeries], alphabet_size: int, method: str = "mep"
) -> PartitionScheme:
    """Learn per-channel bin edges from training data: one series, or
    several with the same channels, whose samples are pooled per channel.

    ``mep`` places edges at empirical quantiles (equal-frequency bins,
    maximizing symbol entropy); ``up`` uses equal-width bins over the
    observed range. Constant channels are rejected: their partition is
    undefined and the caller must exclude or dither them.
    """
    series = [ts] if isinstance(ts, TimeSeries) else list(ts)
    if not series or any(s.names != series[0].names for s in series):
        raise DataError("need one or more series, all with the same channel names")
    names = series[0].names
    if sum(s.n_samples for s in series) < alphabet_size:
        raise DataError(
            f"need at least {alphabet_size} samples to fit {alphabet_size} bins"
        )
    method = method.lower()
    if method not in ("mep", "up"):
        raise DataError(f"unknown partition method {method!r} (use 'mep' or 'up')")
    lo = np.min([s.values.min(axis=0) for s in series], axis=0)
    hi = np.max([s.values.max(axis=0) for s in series], axis=0)
    if np.any(lo == hi):
        name = names[np.argmax(lo == hi)]
        raise DegeneratePartitionError(f"channel {name!r} is constant; partition undefined")
    k = np.arange(1, alphabet_size)
    if method == "mep":  # one pooled channel at a time: np.quantile copies all it is given
        edges = [np.quantile(np.concatenate([s.channel(i) for s in series]), k / alphabet_size)
                 for i in range(len(names))]
    else:
        edges = lo[:, None] + (hi - lo)[:, None] * k / alphabet_size
    try:
        return PartitionScheme(edges)
    except DegeneratePartitionError as exc:  # finite samples: tied, or past float64's range
        raise DegeneratePartitionError(
            f"channel {names[exc.channel]!r}: duplicated or non-finite bin edges (too "
            "many tied samples for equal-frequency binning)", exc.channel) from None


def symbolize(ts: TimeSeries, scheme: PartitionScheme) -> np.ndarray:
    """Map a (T, f) series to a (T, f) int64 matrix of symbols.

    Symbol k is assigned to values inside bin k; a value exactly on an edge
    goes to the higher bin. A symbol is the number of its channel's edges at
    or below the value, counted in one branch-free comparison pass per edge:
    for finite values and edges this equals ``searchsorted(side="right")``,
    and it is faster than that binary search up to an alphabet of roughly
    80-140 symbols, slower above.
    """
    if scheme.n_channels != ts.n_channels:
        raise DataError(
            f"partition has {scheme.n_channels} channels, series has {ts.n_channels}"
        )
    by_channel = np.ascontiguousarray(ts.values.T)
    counts = np.zeros(by_channel.shape, dtype=np.min_scalar_type(scheme.alphabet_size - 1))
    for edge in scheme.edges.T:
        counts += by_channel >= edge[:, None]
    return np.ascontiguousarray(counts.T, dtype=np.int64)


def states_from_symbols(symbols: np.ndarray, n_symbols: int, depth: int) -> np.ndarray:
    """Encode length-D symbol histories as integer states.

    Output row k corresponds to input rows k..k+D-1 with the oldest symbol
    most significant, so for D=1 states equal symbols. Shape (T-D+1, f).
    """
    symbols = np.asarray(symbols)
    if depth < 1:
        raise DataError("depth must be >= 1")
    T = symbols.shape[0]
    if T < depth:
        raise DataError(f"sequence of length {T} shorter than depth {depth}")
    if symbols.ndim == 1:
        symbols = symbols[:, None]
    states = symbols[: T - depth + 1].astype(np.int64)
    for j in range(1, depth):
        states = states * n_symbols + symbols[j : T - depth + 1 + j]
    return states


def count_matrix(
    states_a: np.ndarray,
    n_states: int,
    symbols_b: np.ndarray,
    n_symbols: int,
    lag: int = 1,
    depth: int = 1,
) -> np.ndarray:
    """Count state->symbol pairs (Q_a(k), S_b(k+lag)) over all valid k.

    `states_a` indexes times depth-1 .. T-1 (length T-depth+1), `symbols_b`
    indexes times 0 .. T-1 (length T). Both hold integers, states in 0 ..
    n_states-1 and symbols in 0 .. n_symbols-1. Returns an (n_states,
    n_symbols) integer matrix: one source of :func:`_source_counts`.
    """
    states_a = np.asarray(states_a).ravel()
    symbols_b = np.asarray(symbols_b).ravel()
    if lag < 1:
        raise DataError("lag must be >= 1")
    T = symbols_b.shape[0]
    if states_a.shape[0] != T - depth + 1:
        raise DataError(
            f"state sequence length {states_a.shape[0]} inconsistent with "
            f"T={T}, depth={depth}"
        )
    if T - depth + 1 - lag < 1:
        raise DataError(f"no valid pairs after lag shift (T={T}, D={depth}, p={lag})")
    for what, values, n in (("states", states_a, n_states), ("symbols", symbols_b, n_symbols)):
        if not np.issubdtype(values.dtype, np.integer):
            raise DataError(f"{what} must be integers, not {values.dtype}")
        outside = (values < 0) | (values >= n)
        if outside.any():
            raise DataError(f"{what} must lie in 0..{n - 1}, found {values[outside][0]}")
    symbols, states = (x[:, None].astype(np.int64, copy=False) for x in (symbols_b, states_a))
    return next(_source_counts(symbols, states, n_states, n_symbols, lag, depth))[0]


def _source_counts(symbols, states, n_states, n_symbols, lag, depth):
    """Yield, for each source channel a, the state->symbol counts of a
    against every target b: shape (f, n_states, n_symbols), equal to
    ``count_matrix(states[:, a], ..., symbols[:, b], ...)`` for each b.

    One bincount per source over ``state_a * n_symbols + symbol_b + b *
    n_states * n_symbols``; looping over sources keeps the index to one
    (pairs, f) array instead of a (pairs, f, f) one. Unchecked: the inputs
    must be int64 and in range, as :func:`symbolize` makes them.
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


def _lgamma_table(top: int) -> np.ndarray:
    """``math.lgamma(k)`` at index k for k = 1 .. `top`, and +inf at index 0,
    filled in one allocation of 8 bytes per entry."""
    values = itertools.chain([math.inf], map(math.lgamma, range(1, top + 1)))
    return np.fromiter(values, float, top + 1)


def _metric_tables(counts: np.ndarray, reach: int):
    """The model side of the metric kernel for integer `counts` (..., n_states,
    n_symbols), for windows whose row sums stay below `reach`: a table of
    ``math.lgamma(k)`` up to the largest argument such a window needs (index
    0 is never read and holds +inf), table[counts + 1], the row sums, and
    table[row sums + n_symbols]."""
    n_symbols = counts.shape[-1]
    rows = counts.sum(axis=-1)
    top = int(rows.max(initial=0)) + reach + n_symbols
    table = _lgamma_table(top)
    return table, table[1:][counts], rows, table[rows + n_symbols]


def _window_metric(table, model_counts, model_cells, model_rows, model_row_terms, window):
    """The one implementation of the log metric: integer `window` counts
    against `model_counts` and their :func:`_metric_tables`, summed over the
    last two axes (states, symbols)."""
    plus_one, plus_symbols = table[1:], table[window.shape[-1] :]  # lg[k + 1], lg[k + A]
    window_rows = window.sum(axis=-1)
    row_terms = plus_one[window_rows] + model_row_terms - plus_symbols[window_rows + model_rows]
    cell_terms = plus_one[window + model_counts] - plus_one[window] - model_cells
    return row_terms.sum(axis=-1) + cell_terms.sum(axis=(-2, -1))


def log_inference_metric(model: np.ndarray, window: np.ndarray) -> float:
    """Log of the pattern inference metric, up to an additive constant.

    `model` holds counts from the modeling phase, `window` the counts of a
    short subsequence: 2-D matrices of whole numbers, integer or float. The
    normalizing constant is dropped, so only differences and orderings of
    returned values are meaningful; an all-zero window returns exactly 0.
    Runs the kernel every scan runs, over a log-Gamma table built for this
    model, so the cost follows the largest model plus window row sum, not
    only the number of cells: a table of 10**6 entries takes about 0.2 s
    on a 2-core x86-64 box.
    """
    model = np.asarray(model, dtype=float)
    window = np.asarray(window, dtype=float)
    if model.shape != window.shape:
        raise DataError(f"shape mismatch: model {model.shape}, window {window.shape}")
    if np.any(model < 0) or np.any(window < 0):
        raise DataError("count matrices must be nonnegative")
    if model.ndim != 2 or model.shape[1] < 1:
        raise DataError(f"count matrices must be 2-D with at least one column, not {model.shape}")
    if not (np.isfinite(model).all() and np.isfinite(window).all()):
        raise DataError("count matrices must be finite")
    with np.errstate(invalid="ignore"):  # past int64's range a cast is wrong, and refused below
        counts, window_counts = model.astype(np.int64), window.astype(np.int64)
    if np.any(counts != model) or np.any(window_counts != window):
        raise DataError("count matrices must hold whole numbers in int64's range")
    reach = int(window_counts.sum(axis=1).max(initial=0)) + 1
    table, cells, rows, row_terms = _metric_tables(counts, reach)
    return float(_window_metric(table, counts, cells, rows, row_terms, window_counts))
