"""Artificial anomaly association: per-pattern nominal/anomalous classifier.

Training data is manufactured from nominal pattern vectors by flipping small
random bit subsets; the label vector is all ones except at flipped positions.
A feedforward net with rectifier hidden layers and logistic outputs then
solves one binary sub-problem per pattern, so a single forward pass tags
every pattern of a test vector at once.

Training runs each mini-batch step in float32 over float64 master weights,
and keeps validation, early stopping and the stored model in float64; see
`train_a3`. Every evaluation pass (validation, `a3_loss`, `infer_a3`) runs
through `_logits`, which takes the rows a block at a time, so no hidden
layer is held at full height.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import DataError
from .rbm import _check_width, _sigmoid

# Most rows an evaluation pass runs through the net at once (see `_logits`).
_EVAL_ROWS = 512


@dataclass(frozen=True, eq=False)
class A3Dataset:
    """Flipped copies of nominal pattern vectors, stored as the flips.

    Example i is nominal row `rows[i]` with the columns `flips[i]` flipped
    (x -> 1 - x); its labels are 1 (nominal) except 0 at those columns.
    `flips` is padded with -1, so an unflipped example has no column >= 0.
    An example holds no dense row: `inputs` and `labels` build the dense
    float64 matrices on each access, and training builds one float32 batch
    (and one block of validation rows) at a time.
    """

    nominal: np.ndarray = field(repr=False)  # (n_nominal, L) float64
    rows: np.ndarray = field(repr=False)  # (n,) index into nominal
    flips: np.ndarray = field(repr=False)  # (n, max order) columns, -1 padded

    def __post_init__(self):
        nominal = np.asarray(self.nominal, dtype=float)
        rows, flips = np.asarray(self.rows), np.asarray(self.flips)
        if nominal.ndim != 2 or rows.ndim != 1 or flips.ndim != 2:
            raise DataError("need an (n_nominal, L) matrix, (n,) rows and (n, k) flips")
        if flips.shape[0] != rows.size:
            raise DataError(f"{rows.size} rows but {flips.shape[0]} flip lists")
        n_nominal, L = nominal.shape
        if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n_nominal):
            raise DataError(f"rows must be integers in 0..{n_nominal - 1}")
        if flips.size and (flips.dtype.kind not in "iu" or flips.min() < -1 or flips.max() >= L):
            raise DataError(f"flips must be columns in 0..{L - 1}, or -1 for none")
        cols = np.sort(flips, axis=1)
        if ((cols[:, 1:] == cols[:, :-1]) & (cols[:, 1:] >= 0)).any():
            raise DataError("an example flips the same column twice")
        object.__setattr__(self, "nominal", nominal)
        object.__setattr__(self, "rows", rows.astype(np.intp, copy=False))
        object.__setattr__(self, "flips", flips.astype(np.intp, copy=False))

    @property
    def n_examples(self) -> int:
        return self.rows.size

    @property
    def inputs(self) -> np.ndarray:
        """Dense (n, L) input matrix."""
        return self._examples(slice(None))[0]

    @property
    def labels(self) -> np.ndarray:
        """Dense (n, L) label matrix."""
        return self._examples(slice(None))[1].astype(np.float64)

    def _examples(self, ids, dtype=np.float64):
        """Dense inputs of the examples `ids`, in order, as `dtype` (each is
        flipped in float64, then cast), and their labels as bool: an
        arithmetic operand True or False is the float 1.0 or 0.0."""
        x = self.nominal[self.rows[ids]]
        y = np.ones(x.shape, bool)
        flips = self.flips[ids]
        i, j = np.nonzero(flips >= 0)
        cols = flips[i, j]
        x[i, cols] = 1.0 - x[i, cols]
        y[i, cols] = False
        return x.astype(dtype, copy=False), y

    def _distinct_inputs(self, ids):
        """The distinct dense inputs of the examples `ids`, each example's row
        among them, and the examples' bool labels.

        Two inputs are one row only when their float64 bytes are equal. The
        dense rows are built and looked up one block at a time, so no dense
        (len(ids), L) input matrix is ever held.
        """
        L = self.nominal.shape[1]
        index, inverse = {}, np.empty(len(ids), np.intp)
        labels = np.empty((len(ids), L), bool)
        for lo in range(0, len(ids), _EVAL_ROWS):
            x, y = self._examples(ids[lo : lo + _EVAL_ROWS])
            labels[lo : lo + len(y)] = y
            for i, row in enumerate(x, lo):
                inverse[i] = index.setdefault(row.tobytes(), len(index))
        distinct = np.frombuffer(b"".join(index), np.float64).reshape(len(index), L)
        return distinct, inverse, labels


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Layer weights/biases; hidden layers are ReLU, outputs logistic. The
    dropout fraction is a training setting: train_a3 reads the config's."""

    weights: tuple[np.ndarray, ...] = field(repr=False)
    biases: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise DataError("need at least one layer, with one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            fan_in = w.shape[0] if i == 0 else self.biases[i - 1].size
            if b.ndim != 1 or w.shape != (fan_in, b.size):
                raise DataError(f"layer {i}: weights {w.shape} and biases {b.shape} do not chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise DataError("parameters must be finite")

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_outputs(self) -> int:
        return self.weights[-1].shape[1]


def generate_artificial_anomalies(
    nominal_vectors: np.ndarray,
    flip_orders=(1, 2, 3, 4),
    samples_per_order: int = 20,
    seed: int = 0,
) -> A3Dataset:
    """Build the training set of flipped vectors and indicator labels.

    Every nominal vector contributes its unflipped self (labels all ones)
    plus, per flip order k, perturbed copies with k distinct bits flipped
    and labels zeroed exactly there. Every entry must be 0 or 1. The set
    keeps the nominal matrix and each example's flipped columns, not dense
    rows (see :class:`A3Dataset`).
    """
    nominal = np.asarray(nominal_vectors, dtype=float)
    if nominal.ndim != 2 or nominal.shape[0] == 0:
        raise DataError("need a nonempty (n, L) matrix of nominal vectors")
    if not ((nominal == 0.0) | (nominal == 1.0)).all():
        raise DataError("expected binary nominal vectors: every entry 0 or 1")
    L = nominal.shape[1]
    orders = sorted(set(int(k) for k in flip_orders))
    if any(k < 1 or k > L for k in orders):
        raise DataError(f"flip orders must lie in 1..{L}")
    rng = np.random.default_rng(seed)
    sizes = [k for k in orders for _ in range(samples_per_order)]
    flips = np.full((nominal.shape[0], 1 + len(sizes), max(orders, default=0)), -1, np.intp)
    for block in flips:  # row 0 of each block is the unflipped vector
        for cols, k in zip(block[1:], sizes):
            cols[:k] = rng.choice(L, size=k, replace=False)
    rows = np.repeat(np.arange(nominal.shape[0]), flips.shape[1])
    return A3Dataset(nominal, rows, flips.reshape(rows.size, -1))


def _checked_layers(n_inputs: int, n_outputs: int, config: RunConfig) -> list[tuple[int, int]]:
    """(fan_in, fan_out) per layer; a UsageError if one cannot be allocated."""
    sizes = [n_inputs, *config.a3_hidden, n_outputs]
    layers = list(zip(sizes[:-1], sizes[1:]))
    for fan_in, fan_out in layers:
        _check_width("a3_hidden", fan_in, fan_out)
    return layers


def _init_mlp(n_inputs: int, n_outputs: int, config: RunConfig) -> MlpParams:
    """Scaled random initialization (deterministic per seed)."""
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in _checked_layers(n_inputs, n_outputs, config):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(tuple(weights), tuple(biases))


def _forward(weights, biases, x, dropout=0.0, rng=None):
    """Hidden activations and output logits; inverted dropout when training.

    Each layer is computed in place in its GEMM output. A dropout mask is
    kept as a boolean keep mask: an activation is multiplied by its keep bit
    and then by 1 / (1 - dropout), which gives the same float, signed zeros
    included, as one multiply by 0 or by the keep scale.
    """
    h = x
    hiddens, masks = [], []
    for w, b in zip(weights[:-1], biases[:-1]):
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        if dropout > 0.0 and rng is not None:
            keep = rng.random(h.shape) >= dropout
            h *= keep
            h *= 1.0 / (1.0 - dropout)
            masks.append(keep)
        else:
            masks.append(None)
        hiddens.append(h)
    logits = h @ weights[-1]
    logits += biases[-1]
    return hiddens, masks, logits


def _logits(weights, biases, x):
    """Output logits of the rows of `x`, dropout off, a block of rows at a time.

    The rows are split into near-equal blocks of at most `_EVAL_ROWS`, and
    `_forward` runs on each block, so the hidden layers are held for one
    block only. No block has a single row unless `x` has: numpy runs a
    one-row product as gemv, which can round differently from a GEMM. Each
    logit is the float one `_forward` pass over all rows gives as long as
    BLAS takes the same kernel for a block as for the whole; OpenBLAS's
    small-matrix dgemm kernel takes products of at most 1e6 multiply-adds,
    and blocks of 257 rows or more keep a 25->256->256->25 net above that.
    """
    n = x.shape[0]
    logits = np.empty((n, weights[-1].shape[1]))
    blocks = max(1, -(-n // _EVAL_ROWS))
    edges = [n * k // blocks for k in range(blocks + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        logits[lo:hi] = _forward(weights, biases, x[lo:hi])[2]
    return logits


def _loss(logits, y) -> float:
    """Per-label logistic loss on the logits, summed over labels and
    averaged over examples: max(z, 0) - z*y + log1p(exp(-|z|)). The terms
    are evaluated in that order in two buffers, so every cell is the float
    the expression gives with a fresh array per operation. Labels may be
    bool: z * True is the float z * 1.0."""
    per_cell = np.maximum(logits, 0.0)
    term = np.multiply(logits, y)
    per_cell -= term
    np.abs(logits, out=term)
    np.negative(term, out=term)
    np.exp(term, out=term)
    np.log1p(term, out=term)
    per_cell += term
    return float(per_cell.sum() / logits.shape[0])


def a3_loss(params: MlpParams, inputs, labels) -> float:
    """Mean over examples of the per-label logistic loss (dropout off),
    summed over the f*f sub-problems. Inputs must be a nonempty
    (n, n_inputs) matrix and labels an (n, n_outputs) one."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != params.n_inputs:
        raise DataError(
            f"a3 inputs must be a nonempty (n, {params.n_inputs}) matrix, got shape {x.shape}"
        )
    if y.shape != (x.shape[0], params.n_outputs):
        raise DataError(
            f"a3 labels must be a ({x.shape[0]}, {params.n_outputs}) matrix, got shape {y.shape}"
        )
    return _loss(_logits(params.weights, params.biases, x), y)


def _gradients(weights, biases, x, y, dropout=0.0, rng=None):
    """Analytic gradients of the batch loss, per layer (weights, biases).

    The output error and each back-propagated delta are updated in place.
    """
    hiddens, masks, logits = _forward(weights, biases, x, dropout, rng)
    delta = _sigmoid(logits)
    delta -= y
    delta /= x.shape[0]
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    acts = [x, *hiddens]
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
            if masks[layer - 1] is not None:
                delta *= masks[layer - 1]
                delta *= 1.0 / (1.0 - dropout)
            delta *= hiddens[layer - 1] > 0.0
    return grads_w, grads_b


def train_a3(data: A3Dataset, config: RunConfig = RunConfig()) -> MlpParams:
    """Train with mini-batch gradient descent plus momentum and early stopping.

    The examples are shuffled (by seed) and split into equal training and
    validation halves; training stops when validation loss has not improved
    for `patience` epochs and the best-validation-epoch parameters are
    returned, not the last ones. The split is of example ids: each batch's
    dense rows are built from the compact set just before its step, and are
    the bytes a dense training matrix would hold.

    Validation runs forward over the distinct validation inputs only, and
    gathers the logits back to every validation row, so the loss sums the
    same cells in the same order as a full pass. The distinct inputs are
    found once, one block of dense rows at a time, by their bytes; the
    labels are kept as bool. Each pass runs through `_logits`, a block of
    rows at a time. A GEMM over fewer rows may still round a logit
    differently when BLAS picks another kernel for the smaller row count
    (numpy takes gemv for one row); the 1e-12 margin of the stopping rule
    absorbs such last-bit differences.

    Each step runs in float32: its batch inputs are built as float32 (its
    labels as bool), float32 copies of the weights and biases are refreshed in place from the
    float64 masters, and `_forward` and `_gradients` follow that dtype.
    The gradients are widened to float64 before the momentum update
    `vel = momentum * vel - lr * g; p += vel`, which runs in place on
    float64 masters and buffers. Two parts deliberately stay float64:
    - the masters and momentum buffers: in float32, a dead unit's velocity
      decays by the momentum each step into subnormals, which made desk
      epochs slower than these mixed ones (most of a 256x256 buffer was
      subnormal when training stopped);
    - the dropout draws: float32 draws were no faster and would change the
      random stream.
    Validation, the loss and the stopping rule see float64 weights and
    inputs, and the returned arrays are float64.
    """
    if data.n_examples < 2:
        raise DataError("need at least 2 examples to split train/validation")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(data.n_examples)
    half = data.n_examples // 2
    train_ids = order[:half]

    L = data.nominal.shape[1]
    init = _init_mlp(L, L, config)  # fresh arrays, trained in place
    weights, biases = list(init.weights), list(init.biases)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    step_w = [w.astype(np.float32) for w in weights]  # what each step runs on
    step_b = [b.astype(np.float32) for b in biases]

    va_distinct, inverse, va_y = data._distinct_inputs(order[half:])

    def val_loss():
        return _loss(_logits(weights, biases, va_distinct)[inverse], va_y)

    momentum, lr = config.a3_momentum, config.a3_learning_rate

    def step(ids):  # one momentum step on the examples `ids`
        x, y = data._examples(ids, np.float32)
        for p32, p in zip(step_w + step_b, weights + biases):
            np.copyto(p32, p)
        gw, gb = _gradients(step_w, step_b, x, y, config.a3_dropout, rng)
        for vel, g, p in zip(vel_w + vel_b, gw + gb, weights + biases):
            vel *= momentum
            vel -= np.multiply(g, lr, dtype=np.float64)  # lr * g, rounded in float64
            p += vel

    best = val_loss()
    best_w = [w.copy() for w in weights]
    best_b = [b.copy() for b in biases]
    stale = 0
    for _ in range(config.a3_epochs):
        idx = rng.permutation(half)
        for lo in range(0, half, config.a3_batch_size):
            step(train_ids[idx[lo : lo + config.a3_batch_size]])
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


def infer_a3(
    params: MlpParams, v: np.ndarray, cutoff: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Indicator and probability vectors for one input (dropout disabled).

    Positions whose nominal probability falls below the cutoff carry
    indicator 0 (anomalous); their anomaly weight for node inference is
    1 - probability.
    """
    if not 0.0 < cutoff < 1.0:
        raise DataError("cutoff must lie in (0, 1)")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DataError(f"a3 input must be one vector, got shape {v.shape}")
    if v.shape[0] != params.n_inputs:
        raise DataError(f"input length {v.shape[0]} != {params.n_inputs}")
    probs = _sigmoid(_logits(params.weights, params.biases, v[None, :]))[0]
    return (probs >= cutoff).astype(np.int8), probs
