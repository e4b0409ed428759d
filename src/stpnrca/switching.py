"""Sequential state switching: greedy pattern-flip search over free energy.

Starting from an anomalous pattern vector, repeatedly flip the single
pattern bit whose flip lowers the free energy the most; the flipped set is
the pattern-level root cause, each member weighted by the relative energy
drop its lone flip produces.

Free energies come from `rbm._free_energy`. The search shifts b + vW and v.a
by one weight row per flip, so a sweep over the remaining candidates costs
O(n_cand * n_h) rather than a matrix rebuild. The signed rows +-W_i and +-a_i
are built once per search; each step gathers the remaining candidates' rows,
in index order, into one (n_v, n_h) block allocated once, adds b + vW in
place, and hands the block to the kernel, which overwrites it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DataError
from .rbm import RbmParams, _free_energy, free_energy

# Minimum strict decrease for a flip to be accepted; avoids float livelock.
DESCENT_TOL = 1e-9


@dataclass(frozen=True)
class S3Result:
    """Selected pattern indices (in order), their weights, and the F trace."""

    anomalous_patterns: tuple[int, ...]
    weights: tuple[float, ...]
    trace: tuple[float, ...]

    @property
    def final_energy(self) -> float:
        return self.trace[-1]


def s3_search(params: RbmParams, v: np.ndarray) -> S3Result:
    """Greedy minimization of free energy by single-bit flips.

    Candidates are the positions whose lone flip lowers F(v); each step
    flips the remaining candidate with the largest decrease (ties to the
    lowest index) until no flip on top of the accumulated set helps.
    Weights come from flipping each selected bit alone on the original
    vector: (F_flipped - F0) / F0, falling back to the absolute difference
    when F0 is (numerically) zero.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != params.n_visible:
        raise DataError(f"expected a length-{params.n_visible} vector")
    w, a = params.weights, params.visible_bias
    act = params.hidden_bias + v @ w
    visible_term = float(v @ a)
    f0 = float(_free_energy(act[None, :].copy(), visible_term)[0])
    # Flipping bit i adds (sign[i] * w[i], sign[i] * a[i]) to (b + vW, v.a).
    # A flipped bit leaves the candidates, so its sign is only ever read on v.
    sign = 1.0 - 2.0 * v
    signed_w, signed_a = sign[:, None] * w, sign * a
    # one (n_v, n_h) block, reused: the lone flips, then each step's
    # remaining candidates gathered into its leading rows in index order
    block = signed_w + act
    single = _free_energy(block, visible_term + signed_a)
    candidates = single < f0 - DESCENT_TOL

    f_current = f0
    selected: list[int] = []
    trace = [f0]
    while candidates.any():
        cand = np.flatnonzero(candidates)
        rows = np.take(signed_w, cand, axis=0, out=block[: cand.size])
        rows += act
        f_cand = _free_energy(rows, visible_term + signed_a[cand])
        best = int(np.argmin(f_cand))  # argmin takes the lowest index on ties
        if f_cand[best] >= f_current - DESCENT_TOL:
            break
        idx = int(cand[best])
        act = act + signed_w[idx]
        visible_term += signed_a[idx]
        f_current = float(f_cand[best])
        selected.append(idx)
        trace.append(f_current)
        candidates[idx] = False

    scale = 1.0 if abs(f0) < 1e-12 else f0
    weights = [float((single[i] - f0) / scale) for i in selected]
    return S3Result(
        anomalous_patterns=tuple(selected),
        weights=tuple(weights),
        trace=tuple(trace),
    )


ORACLE_MAX_BITS = 16


def exhaustive_switch_oracle(
    params: RbmParams, v: np.ndarray
) -> tuple[tuple[int, ...], float]:
    """Globally optimal flip set by brute force over all 2**n_v subsets.

    Ties break toward the smaller subset, then lexicographically. Only
    usable for vectors of at most ORACLE_MAX_BITS bits; serves as the
    ground truth the greedy search is measured against.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if n > ORACLE_MAX_BITS:
        raise DataError(f"{n} bits exceeds the oracle's {ORACLE_MAX_BITS}-bit limit")
    best_set: tuple[int, ...] = ()
    best_f = free_energy(params, v)
    for size in range(1, n + 1):
        subsets = list(combinations(range(n), size))
        rows = np.repeat(v[None, :], len(subsets), axis=0)
        for r, subset in enumerate(subsets):
            cols = list(subset)
            rows[r, cols] = 1.0 - rows[r, cols]
        f = free_energy(params, rows)
        k = int(np.argmin(f))
        if f[k] < best_f:  # strict: earlier (smaller, lex-first) subset wins ties
            best_f = float(f[k])
            best_set = subsets[k]
    return best_set, best_f
