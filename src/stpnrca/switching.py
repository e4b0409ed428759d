"""Sequential state switching: greedy pattern-flip search over free energy.

Starting from an anomalous pattern vector, repeatedly flip the single
pattern bit whose flip lowers the free energy the most; the flipped set is
the pattern-level root cause, each member weighted by the relative energy
drop its lone flip produces.

Free energies come from `rbm._free_energy`. The search shifts b + vW and v.a
by one weight row per flip. The signed rows +-W_i and +-a_i are built once
per search. The first step takes the lone-flip energies of every bit, scored
in one (n_v, n_h) block; later steps score only the candidates that can
still win, gathered in index order into the leading rows of that block.

Bounds. Flipping bit k, with signed row d = +-W_k and signed bias +-a_k,
changes a remaining candidate c's F by

    -(+-a_k) - sum_j [softplus(x_cj + d_j) - softplus(x_cj)]
        = -(+-a_k) - sum_j d_j sigmoid(xi_cj),

where x_c = b + vW +- W_c and xi_cj lies between x_cj and x_cj + d_j (mean
value theorem; softplus' = sigmoid). The sigmoid is increasing, and each
candidate's signed row lies between the column-wise min `lo` and max `hi`
of the candidates' signed rows, taken once per search, so every xi_cj lies
in [(b + vW)_j + lo_j + min(d_j, 0), (b + vW)_j + hi_j + max(d_j, 0)]. Each
flip therefore yields one smallest and one largest change that every
candidate shares, at O(n_h) cost. The search adds them to a lower and an
upper bound per candidate, and resets both to the exact F whenever it
scores that candidate. A candidate whose lower bound is at or above the
smallest upper bound plus a slack is strictly worse than the best one, so
it is not scored. The best candidate, and every candidate that ties with
it, is always scored. The choice, including ties to the lowest index,
is thus the one a sweep over every remaining candidate makes. A row's
energy does not depend on the other rows in the block, so selections,
trace and weights are bit-identical to that sweep's. This is Minoux's lazy
greedy (1978), with an exact bound in place of submodularity.

Slack. The bounds hold in exact arithmetic on the computed b + vW. Let
M = 1 + n_h + sum|a| + sum|b| + 3 sum|W|. For any v it bounds |F|, each
change of F, and sum_j |x_j| for every pre-activation x the search scores
or bounds: b + vW plus at most two signed rows. With u = 2**-53, each
scored energy, each per-flip bound, and each update of b + vW or of a bound
is then exact to within (n_h + 10) u M. A bound collects at most one such
error per step between two scorings, and there are at most n_v steps, so
two bounds compared are off by at most 2 n_v (n_h + 10) u M. The slack,
SLACK_PER_ROUNDING * n_v * (n_h + 10) * M, is 32 times that: 1.4e-9 M at
f = 52 with 64 hidden units, or 2.6e-5 on perfbench's plant-cli bundle.

Saturation. At f = 52 the bounds are nearly exact. On perfbench's
plant-cli bundles (seeds 911 and 5, 64 hidden units) every hidden unit is
saturated on every upset window: b + vW starts between 12.8 and 41.8 and
only grows as bits flip, to 108. So 1 - sigmoid stays below 3e-6 over every
flip's range, and F is nearly linear in v. One flip's bound width was at
most 7e-9, and the median gap between the best and the runner-up 6.6e-4.
Each of the eight upset windows of the two seeds took 1,662-1,912 steps and
scored about one row per step beyond the 2,704 lone flips, where a sweep
scores about 1.6 million rows. On a 2-core x86-64 box, s3 took 71-102 ms
per window, against 750-1,000 ms for the sweep. On these windows s3 flipped
every candidate, in the order of its lone-flip energy: the RBM sets the
order and the weights, not the selected set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import expit

from .errors import DataError
from .rbm import RbmParams, _free_energy, free_energy

# Minimum strict decrease for a flip to be accepted; avoids float livelock.
DESCENT_TOL = 1e-9
# Slack on the pruning bounds per rounding a bound can collect, relative to
# the magnitude M of the module docstring: 64 units of 2**-53.
SLACK_PER_ROUNDING = 64 * 2.0**-53


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

    Each step after the first scores only the candidates whose lower bound
    (module docstring) is below the smallest upper bound plus a slack; every
    other candidate is strictly worse than the best, so the selections,
    trace and weights equal those of a sweep over every candidate.
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
    # re-scored candidates gathered into its leading rows in index order
    block = signed_w + act
    single = _free_energy(block, visible_term + signed_a)
    cand = (single < f0 - DESCENT_TOL).nonzero()[0]
    f_cand = single[cand]  # step 0 scores every candidate: the lone flips
    rows = signed_w.take(cand, axis=0, out=block[: cand.size])
    lo, hi = rows.min(axis=0, initial=np.inf), rows.max(axis=0, initial=-np.inf)

    # lower <= F <= upper per candidate, exact where last scored; +inf retires
    lower = np.full(v.size, np.inf)
    lower[cand] = f_cand
    upper = lower.copy()
    magnitude = 1.0 + act.size + np.abs(a).sum() + np.abs(params.hidden_bias).sum()
    magnitude += 3.0 * np.abs(w).sum()  # M of the module docstring
    slack = SLACK_PER_ROUNDING * v.size * (act.size + 10) * magnitude

    f_current = f0
    selected: list[int] = []
    trace = [f0]
    n_candidates = cand.size
    while cand.size:
        best = int(f_cand.argmin())  # argmin takes the lowest index on ties
        if f_cand[best] >= f_current - DESCENT_TOL:
            break
        idx = int(cand[best])
        f_current = float(f_cand[best])
        selected.append(idx)
        trace.append(f_current)
        if len(selected) == n_candidates:
            break
        lower[idx] = upper[idx] = np.inf
        d = signed_w[idx]
        # the least and the most any candidate's F can change by this flip
        pos, neg = np.maximum(d, 0.0), np.minimum(d, 0.0)
        s_lo, s_hi = expit(act + lo + neg), expit(act + hi + pos)
        lower += -signed_a[idx] - (pos @ s_hi + neg @ s_lo)
        upper += -signed_a[idx] - (pos @ s_lo + neg @ s_hi)
        act += d
        visible_term += signed_a[idx]
        cand = (lower < upper.min() + slack).nonzero()[0]
        rows = signed_w.take(cand, axis=0, out=block[: cand.size])
        rows += act
        f_cand = _free_energy(rows, visible_term + signed_a[cand])
        lower[cand] = upper[cand] = f_cand

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
