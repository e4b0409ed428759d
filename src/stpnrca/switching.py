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
After each such step a chain of speculated flips may commit a run of
further steps at once (Chains, below).

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
is then exact to within (n_h + 10) u M. One rule, `_bound_changes`,
computes every per-flip bound, for the ordinary step and the chain alike.
A bound is one sum over j of min(d_j, 0) and max(d_j, 0) times sigmoids. At
most n_h of those products are nonzero, and adding a zero is exact, so the
sum takes n_h u M of that budget in any summation order; the sigmoids take
a few u M of the rest. Each is computed in place as 1/(1 + exp(-x)) and
lies within a few u of the sigmoid at the exact x: numpy's exp, the add and
the reciprocal each round by about u relative, and as |x| sigmoid'(x) <
0.23, rounding x itself moves the value by under u/2. (Sampled, exp erred by
at most 1.1 u, and the sigmoid over x in [-745, 745] by at most 1.5 u.)
Each sigmoid multiplies one |d_j|, and sum_j |d_j| <= M, so the sigmoids
take at most 4 u M. Below x = -709, exp(-x) overflows to inf and the
sigmoid computes as 0, off by less than 1e-308. The sum then rounds once
more in the subtraction from the bias term. The ordinary step adds a flip's
bound to each candidate's bound; a chain takes the running sum of its
flips' bounds and adds it to each bound once. Each flip's bound is at most
|a_k| + sum_j |W_kj| in size, and the flips are of distinct bits, so every
partial sum is at most M in size. Either way a flip costs one more rounding
of at most u M, and a chain, which commits at least one flip, one more. So
a bound collects at most (n_h + 7) u M per step between two scorings, and
there are at most n_v steps, so two bounds compared are off by at most
2 n_v (n_h + 10) u M. The slack, SLACK_PER_ROUNDING * n_v * (n_h + 10) * M,
is twice that: 8.9e-11 M at f = 52 with 64 hidden units, or 1.6e-6 on
perfbench's plant-cli bundle. The other half covers the one rounding of
each comparison, by at most u M: the add of the slack, and in a chain also
the add of the shift.

Chains. After each ordinary step, with at least CHAIN_LENGTH candidates
left, the search speculates a chain: the candidates of least upper bound,
in ascending order (ties by index), flipped one after another. A chain has
twice as many flips as the previous chain committed, but at least
CHAIN_LENGTH, at most MAX_CHAIN_LENGTH and at most the candidates left. So
where chains commit in full, as at f = 52, each chain is twice as long as
the first, and where they fail early, as at f = 20, each speculates no more
than before. One np.cumsum over [b + vW, d_1, d_2, ...] gives b + vW before
each chain flip and after the last, and one over [v.a, +-a_1, ...] the
visible terms. np.cumsum adds in sequence, so these are the floats that the
sweep's adds `act + d`, one flip at a time, make. One `_free_energy` block
scores each member p_j at the state before its flip: the energy F_j that
the sweep scores for p_j at that step, if it picked p_1 ... p_j-1 before.
One `_bound_changes` call gives the bounds of every chain flip, each at the
state before that flip, and their running sums give the shift of every
other candidate's bounds. The search commits the longest prefix in which
each member p_j
  (a) passes the sweep's descent test, F_j < F_j-1 - DESCENT_TOL, with F_0
      the current energy, and
  (b) beats every rival: the least lower bound among the candidates outside
      the chain and the members after p_j, plus the summed lower bounds of
      the flips before p_j, is at least F_j + slack.
By (b), F_j lies strictly below every other remaining candidate's energy,
so the sweep picks p_j at that step; a tie fails (b) and is left to the
ordinary step. So every committed selection, trace entry, b + vW and v.a
is the float the sweep computes. The bounds then shift once by the sums
over the committed flips, and the ordinary step resumes. A search with
fewer than CHAIN_LENGTH candidates left never speculates: at f = 5 a
pattern vector has 25 bits, so there s3 runs the ordinary steps alone.

Saturation. At f = 52 the bounds are nearly exact. On perfbench's
plant-cli bundles (seeds 911 and 5, 64 hidden units) every hidden unit is
saturated on every upset window: b + vW starts between 12.8 and 41.8 and
only grows as bits flip, to 108. So 1 - sigmoid stays below 3e-6 over every
flip's range, and F is nearly linear in v. One flip's bound width was at
most 7e-9, and the median gap between the best and the runner-up 6.6e-4.
On these windows s3 flipped every candidate, in the order of its lone-flip
energy: the RBM sets the order and the weights, not the selected set. That
order is the order of the upper bounds, so most chains commit. On the eight
upset windows of perfbench's plant-cli seeds 7001 and 7002 (1,765-1,969
steps each), chains committed 96.7-98.4% of the steps: 29-33 chains and
29-58 ordinary steps per window, most of the latter among the last 31
candidates, and 59-89 `_free_energy` calls instead of one per step. Only
2-6 chains per window stopped short. Each stopped at the member the sweep
picked next: a rival's lower bound lay 2.2e-8 to 1.4e-6 above its energy,
within the slack of 1.6e-6, so (b) could not prove the pick. With a slack
16 times wider and chains of 32 flips, 38-60 chains per window stopped so.
On a 2-core x86-64 box s3 took 7.3-9.4 ms per window (best of 5), against
13.6-16.6 ms with that slack, 39-45 ms with one ordinary step per flip and,
on earlier windows, 750-1,000 ms for the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DataError
from .rbm import RbmParams, _free_energy, free_energy

# Minimum strict decrease for a flip to be accepted; avoids float livelock.
DESCENT_TOL = 1e-9
# Slack on the pruning bounds per rounding a bound can collect, relative to
# the magnitude M of the module docstring: 4 units of 2**-53.
SLACK_PER_ROUNDING = 4 * 2.0**-53
# The least and the most flips speculated per chain after an ordinary step;
# in between, twice the previous chain's committed run (module docstring).
CHAIN_LENGTH = 32
MAX_CHAIN_LENGTH = 64


@dataclass(frozen=True)
class S3Result:
    """Selected pattern indices (in order), their weights, and the F trace."""

    anomalous_patterns: tuple[int, ...]
    weights: tuple[float, ...]
    trace: tuple[float, ...]

    @property
    def final_energy(self) -> float:
        return self.trace[-1]


def _binary_vector(params: RbmParams, v) -> np.ndarray:
    """`v` as a float vector of the machine's length, every entry 0 or 1."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != params.n_visible:
        raise DataError(f"expected a length-{params.n_visible} vector")
    if not {0.0, 1.0}.issuperset(v.tolist()):
        raise DataError("expected a binary vector: every entry 0 or 1")
    return v


def _bound_changes(d, acts, a, neg_bounds):
    """The least and the most change each flip makes to every other
    candidate's F (module docstring, Bounds): flips of signed rows `d` and
    signed biases `a`, each at its state b + vW in `acts`, with `neg_bounds`
    the negated column-wise min and max of the candidates' signed rows.
    `d` and `acts` are one row (n_h,) or k rows (k, n_h), `a` one value or k."""
    split = np.empty(d.shape[:-1] + (2, d.shape[-1]))  # min(d, 0) and max(d, 0)
    np.minimum(d, 0.0, out=split[..., 0, :])
    np.maximum(d, 0.0, out=split[..., 1, :])
    # the sigmoid 1 / (1 + exp(-x)) at x = (act + lo) + min(d, 0) and (act + hi) + max(d, 0);
    # rounding is symmetric, so (-lo - act) - min(d, 0) is exactly -x
    sig = neg_bounds - acts[..., None, :]
    sig -= split
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    return (-a - (split * sig).sum(axis=(-2, -1)),
            -a - (split * sig[..., ::-1, :]).sum(axis=(-2, -1)))


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
    other candidate is strictly worse than the best. After each such step,
    a chain of CHAIN_LENGTH to MAX_CHAIN_LENGTH speculated flips commits the
    run of them that the bounds prove the sweep would make. So the
    selections, trace and weights equal those of a sweep over every
    candidate.
    """
    v = _binary_vector(params, v)
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
    slack = SLACK_PER_ROUNDING * v.size * (act.size + 10) * params._s3_magnitude

    f_current = f0
    selected: list[int] = []
    trace = [f0]
    n_candidates = cand.size
    run = 0  # flips the last chain committed
    neg_bounds = np.negative([lo, hi])
    # below x = -709, exp(-x) overflows to inf and the sigmoid is 0, as it should be
    with np.errstate(over="ignore"):
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
            low, up = _bound_changes(signed_w[idx], act, signed_a[idx], neg_bounds)
            lower += low
            upper += up
            act += signed_w[idx]
            visible_term += signed_a[idx]
            left = n_candidates - len(selected)
            if left >= CHAIN_LENGTH:
                # speculate the next flips: the candidates of least upper bound, in
                # ascending order (ties by index). A tie at the cut may go either
                # way; the checks below hold for any chain.
                length = min(max(2 * run, CHAIN_LENGTH), MAX_CHAIN_LENGTH, left)
                chain = np.argpartition(upper, length - 1)[:length]
                chain = chain[np.lexsort((chain, upper[chain]))]
                d, chain_a = signed_w[chain], signed_a[chain]
                # the state before each chain flip and after the last: cumsum makes
                # the sweep's sequential adds, act + d_1, (act + d_1) + d_2, ...
                acts = np.cumsum(np.vstack([act, d]), axis=0)
                terms = np.cumsum(np.concatenate([[visible_term], chain_a]))
                f_chain = _free_energy(d + acts[:-1], terms[:-1] + chain_a)
                # each flip's bound changes at the state before it, summed along the chain
                low, up = _bound_changes(d, acts[:-1], chain_a, neg_bounds)
                low_shift, up_shift = np.cumsum(low), np.cumsum(up)
                # each member's rivals at its step are the candidates outside the
                # chain and the members after it: their least lower bound
                chain_lower = lower[chain]
                lower[chain] = np.inf
                rivals = np.concatenate([[lower.min()], chain_lower[:0:-1]])
                rivals = np.minimum.accumulate(rivals)[::-1]
                lower[chain] = chain_lower
                # commit the longest prefix in which each member passes the descent
                # test and beats its rivals' lower bounds, shifted by the flips
                # before it, by the slack
                descends = f_chain < np.concatenate([[f_current], f_chain[:-1]]) - DESCENT_TOL
                wins = rivals + np.concatenate([[0.0], low_shift[:-1]]) >= f_chain + slack
                run = int(np.logical_and.accumulate(descends & wins).sum())
                if run:
                    committed = chain[:run]
                    selected += committed.tolist()
                    trace += f_chain[:run].tolist()
                    f_current = trace[-1]
                    act, visible_term = acts[run], terms[run]
                    lower[committed] = upper[committed] = np.inf
                    lower += low_shift[run - 1]
                    upper += up_shift[run - 1]
                    if len(selected) == n_candidates:
                        break
            cand = (lower < upper.min() + slack).nonzero()[0]
            rows = signed_w.take(cand, axis=0, out=block[: cand.size])
            rows += act
            f_cand = _free_energy(rows, visible_term + signed_a[cand])
            lower[cand] = upper[cand] = f_cand

    scale = 1.0 if abs(f0) < 1e-12 else f0
    weights = ((single[selected] - f0) / scale).tolist()
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
    ground truth the greedy search is measured against. Rejects what
    `s3_search` rejects: a vector of the wrong length or not binary.
    """
    v = _binary_vector(params, v)
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
