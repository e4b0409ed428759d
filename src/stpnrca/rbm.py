"""Binary restricted Boltzmann machine over pattern vectors.

Trained with single-step contrastive divergence on nominal pattern vectors,
the machine assigns low free energy to configurations it has seen and high
free energy to everything else; the free-energy threshold calibrated on the
training vectors is the anomaly detector.

F(v) = -v.a - sum_j softplus(b_j + (vW)_j) is computed only in `_free_energy`,
which both `free_energy` and `switching.s3_search` call. The kernel evaluates
softplus(x) = max(x, 0) + log1p(exp(-|x|)) with numpy's vectorised exp and
log1p, in place: it overwrites the pre-activation array it is given, so each
caller passes one it owns. np.logaddexp(0, x) evaluates the same formula
through scalar libm calls; where numpy's vectorised exp or log1p rounds
differently, an energy differs from that one in its last bits.

Each row's energy depends on that row alone, not on the other rows passed
with it. s3 relies on this: it scores only the candidates its bounds cannot
rule out, and gets the floats a sweep over every candidate would get. Its
bounds use softplus' = sigmoid. When every hidden unit is saturated, as at
f = 52, sigmoid is nearly 1, F is nearly linear in v, and a flip changes
every other candidate's F by nearly the same amount.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import DataError


@dataclass(frozen=True, eq=False)
class RbmParams:
    """Visible biases, hidden biases, and the weight matrix."""

    visible_bias: np.ndarray = field(repr=False)  # (n_v,)
    hidden_bias: np.ndarray = field(repr=False)  # (n_h,)
    weights: np.ndarray = field(repr=False)  # (n_v, n_h)

    def __post_init__(self):
        a = np.asarray(self.visible_bias, dtype=float)
        b = np.asarray(self.hidden_bias, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (a.size, b.size):
            raise DataError(
                f"weights {w.shape} inconsistent with biases ({a.size}, {b.size})"
            )
        for arr in (a, b, w):
            if not np.all(np.isfinite(arr)):
                raise DataError("parameters must be finite")
        object.__setattr__(self, "visible_bias", a)
        object.__setattr__(self, "hidden_bias", b)
        object.__setattr__(self, "weights", w)

    @property
    def n_visible(self) -> int:
        return self.visible_bias.size

    @property
    def n_hidden(self) -> int:
        return self.hidden_bias.size


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def train_rbm(vectors: np.ndarray, config: RunConfig = RunConfig()) -> RbmParams:
    """Fit the machine to binary vectors with CD-1; deterministic per seed."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise DataError("training set must be a nonempty (n, n_v) matrix")
    n, n_v = vectors.shape
    rng = np.random.default_rng(config.seed)
    w = rng.normal(0.0, 0.01, size=(n_v, config.rbm_hidden))
    a = np.zeros(n_v)
    b = np.zeros(config.rbm_hidden)
    lr = config.rbm_learning_rate

    for _ in range(config.rbm_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.rbm_batch_size):
            v0 = vectors[order[lo : lo + config.rbm_batch_size]]
            m = v0.shape[0]
            ph0 = _sigmoid(v0 @ w + b)
            h0 = (rng.random(ph0.shape) < ph0).astype(float)
            pv1 = _sigmoid(h0 @ w.T + a)
            v1 = (rng.random(pv1.shape) < pv1).astype(float)
            ph1 = _sigmoid(v1 @ w + b)
            w += lr * (v0.T @ ph0 - v1.T @ ph1) / m
            a += lr * (v0 - v1).mean(axis=0)
            b += lr * (ph0 - ph1).mean(axis=0)
    return RbmParams(visible_bias=a, hidden_bias=b, weights=w)


def _free_energy(act: np.ndarray, visible_term) -> np.ndarray:
    """F per row from the hidden pre-activations `act` (rows, n_h), each
    b + vW, and the visible terms v.a. Overwrites `act` with softplus(act).

    softplus(x) = max(x, 0) + log1p(exp(-|x|)), the overflow-safe form that
    np.logaddexp(0, x) evaluates, built from numpy's vectorised exp and log1p.
    """
    positive = np.maximum(act, 0.0)
    np.abs(act, out=act)
    np.negative(act, out=act)
    np.exp(act, out=act)
    np.log1p(act, out=act)
    act += positive
    return -visible_term - act.sum(axis=1)


def free_energy(params: RbmParams, v: np.ndarray) -> float | np.ndarray:
    """Free energy of one vector or a batch of row vectors.

    F(v) = -sum_i v_i a_i - sum_j softplus(b_j + sum_i v_i W_ij).
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    rows = v[None, :] if single else v
    if rows.shape[1] != params.n_visible:
        raise DataError(
            f"vector length {rows.shape[1]} != n_visible {params.n_visible}"
        )
    f = _free_energy(rows @ params.weights + params.hidden_bias, rows @ params.visible_bias)
    return float(f[0]) if single else f


def calibrate_threshold(
    params: RbmParams, nominal_vectors: np.ndarray, kappa: float = 1.0
) -> float:
    """Detection threshold: max nominal free energy plus kappa sigma margin."""
    f = np.atleast_1d(free_energy(params, nominal_vectors))
    if f.size == 0:
        raise DataError("need at least one nominal vector to calibrate")
    return float(np.max(f) + kappa * np.std(f))
