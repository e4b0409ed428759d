import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stpnrca import switching
from stpnrca.errors import DataError
from stpnrca.config import RunConfig
from stpnrca.rbm import RbmParams, _free_energy, free_energy, train_rbm
from stpnrca.switching import DESCENT_TOL, S3Result, exhaustive_switch_oracle, s3_search


@pytest.fixture(scope="module")
def toy_rbm():
    # machine trained on a single 4-bit prototype, 1100 with light noise
    rng = np.random.default_rng(0)
    prototype = np.array([1.0, 1.0, 0.0, 0.0])
    train = np.tile(prototype, (60, 1))
    noise = rng.random(train.shape) < 0.03
    train = np.abs(train - noise)
    return train_rbm(
        train, RunConfig(rbm_hidden=4, rbm_epochs=200, rbm_learning_rate=0.1, seed=1)
    )


class TestS3Search:
    def test_nominal_vector_yields_empty_set(self, toy_rbm):
        result = s3_search(toy_rbm, np.array([1.0, 1.0, 0.0, 0.0]))
        assert result.anomalous_patterns == ()
        assert len(result.trace) == 1

    def test_restores_single_flip(self, toy_rbm):
        result = s3_search(toy_rbm, np.array([0.0, 1.0, 0.0, 0.0]))
        assert result.anomalous_patterns == (0,)
        oracle_set, oracle_f = exhaustive_switch_oracle(
            toy_rbm, np.array([0.0, 1.0, 0.0, 0.0])
        )
        assert oracle_set == (0,)
        assert result.final_energy == pytest.approx(oracle_f)

    def test_trace_strictly_decreasing(self, toy_rbm):
        result = s3_search(toy_rbm, np.array([0.0, 0.0, 1.0, 0.0]))
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) < 0)

    def test_idempotent_after_correction(self, toy_rbm):
        v = np.array([0.0, 1.0, 1.0, 0.0])
        result = s3_search(toy_rbm, v)
        corrected = v.copy()
        for i in result.anomalous_patterns:
            corrected[i] = 1 - corrected[i]
        assert s3_search(toy_rbm, corrected).anomalous_patterns == ()

    def test_weights_positive_for_restoring_flips(self, toy_rbm):
        result = s3_search(toy_rbm, np.array([0.0, 1.0, 0.0, 0.0]))
        assert all(w > 0 for w in result.weights)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        train = (rng.random((50, 6)) < 0.8).astype(float)
        params = train_rbm(train, RunConfig(rbm_hidden=5, rbm_epochs=120, seed=0))
        v = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        base = s3_search(params, v)
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted_params = RbmParams(
            params.visible_bias[perm], params.hidden_bias, params.weights[perm]
        )
        permuted = s3_search(permuted_params, v[perm])
        # new position i holds old position perm[i], so old j maps to argsort(perm)[j]
        inverse = np.argsort(perm)
        expected = {int(inverse[j]) for j in base.anomalous_patterns}
        assert set(permuted.anomalous_patterns) == expected
        assert permuted.final_energy == pytest.approx(base.final_energy)

    def test_wrong_length(self, toy_rbm):
        with pytest.raises(DataError):
            s3_search(toy_rbm, np.ones(5))

    @pytest.mark.parametrize(
        "v", [[0.5, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.0, -1.0, 1.0, 0.0],
              [0.0, 0.0, float("nan"), 1.0]],
    )
    def test_non_binary_vector(self, toy_rbm, v):
        with pytest.raises(DataError, match="binary"):
            s3_search(toy_rbm, np.array(v))


class TestExhaustiveOracle:
    def test_single_bit_checks_both_subsets(self):
        params = RbmParams(np.array([2.0]), np.array([0.0]), np.array([[0.0]]))
        # active bit is rewarded, so flipping a zero bit is optimal
        flip_set, f_opt = exhaustive_switch_oracle(params, np.zeros(1))
        assert flip_set == (0,)
        assert f_opt == pytest.approx(free_energy(params, np.ones(1)))
        flip_set, _ = exhaustive_switch_oracle(params, np.ones(1))
        assert flip_set == ()

    def test_oracle_never_above_greedy(self):
        rng = np.random.default_rng(5)
        for case in range(30):
            params = RbmParams(
                rng.normal(size=7), rng.normal(size=4), rng.normal(size=(7, 4))
            )
            v = (rng.random(7) < 0.5).astype(float)
            greedy = s3_search(params, v)
            _, f_opt = exhaustive_switch_oracle(params, v)
            assert f_opt <= greedy.final_energy + 1e-9

    def test_too_many_bits(self):
        params = RbmParams(np.zeros(20), np.zeros(2), np.zeros((20, 2)))
        with pytest.raises(DataError):
            exhaustive_switch_oracle(params, np.zeros(20))

    @pytest.mark.parametrize("v", [[0.5, 2.0, -1.0, 0.0], [0.0, 0.0, float("nan"), 1.0]])
    def test_non_binary_vector(self, toy_rbm, v):
        with pytest.raises(DataError, match="binary"):
            exhaustive_switch_oracle(toy_rbm, np.array(v))

    def test_tie_breaks_to_smaller_then_lexicographic(self):
        # symmetric zero-parameter machine: all subsets tie, empty set wins
        params = RbmParams(np.zeros(3), np.zeros(2), np.zeros((3, 2)))
        flip_set, _ = exhaustive_switch_oracle(params, np.zeros(3))
        assert flip_set == ()


@st.composite
def rbm_and_vector(draw):
    """A small random machine and a binary vector of its width."""
    n_v, n_h = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    values = st.floats(-5.0, 5.0)
    params = RbmParams(
        draw(arrays(float, n_v, elements=values)),
        draw(arrays(float, n_h, elements=values)),
        draw(arrays(float, (n_v, n_h), elements=values)),
    )
    return params, draw(arrays(float, n_v, elements=st.sampled_from([0.0, 1.0])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=rbm_and_vector())
def test_s3_trace_decreases_strictly_with_finite_weights(case):
    params, v = case
    result = s3_search(params, v)
    assert result.trace[0] == free_energy(params, v)
    assert np.all(np.diff(result.trace) < 0)
    assert len(result.weights) == len(result.anomalous_patterns) == len(result.trace) - 1
    assert np.all(np.isfinite(result.weights))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=rbm_and_vector())
def test_s3_incremental_energies_match_explicit_free_energy(case):
    # the search updates b + vW and v.a one flip at a time; every trace entry
    # and every weight must agree with F evaluated on the whole flipped vector
    params, v = case
    result = s3_search(params, v)
    current = v.copy()
    for k, idx in enumerate(result.anomalous_patterns, start=1):
        current[idx] = 1.0 - current[idx]
        assert result.trace[k] == pytest.approx(free_energy(params, current), rel=1e-9, abs=1e-12)
    f0 = free_energy(params, v)
    for idx, weight in zip(result.anomalous_patterns, result.weights):
        lone = v.copy()
        lone[idx] = 1.0 - lone[idx]
        drop = free_energy(params, lone) - f0
        expected = drop if abs(f0) < 1e-12 else drop / f0
        assert weight == pytest.approx(expected, rel=1e-9, abs=1e-12)


def loop_reference_s3(params, v):
    """s3_search as it was before the reused candidate block and the
    vectorised softplus: each step gathers sign[cand, None] * w[cand] afresh
    and evaluates softplus with np.logaddexp."""

    def energies(act, visible_term):
        return -visible_term - np.logaddexp(0.0, act).sum(axis=1)

    w, a = params.weights, params.visible_bias
    act = params.hidden_bias + v @ w
    visible_term = float(v @ a)
    f0 = float(energies(act[None, :], visible_term)[0])
    sign = 1.0 - 2.0 * v
    single = energies(act + sign[:, None] * w, visible_term + sign * a)
    candidates = single < f0 - DESCENT_TOL
    f_current, selected, trace = f0, [], [f0]
    while candidates.any():
        cand = np.flatnonzero(candidates)
        f_cand = energies(act + sign[cand, None] * w[cand], visible_term + sign[cand] * a[cand])
        best = int(np.argmin(f_cand))
        if f_cand[best] >= f_current - DESCENT_TOL:
            break
        idx = int(cand[best])
        act = act + sign[idx] * w[idx]
        visible_term += sign[idx] * a[idx]
        f_current = float(f_cand[best])
        selected.append(idx)
        trace.append(f_current)
        candidates[idx] = False
    scale = 1.0 if abs(f0) < 1e-12 else f0
    weights = tuple(float((single[i] - f0) / scale) for i in selected)
    return S3Result(tuple(selected), weights, tuple(trace))


def assert_matches_loop_reference(params, v):
    # same selections in the same order; energies within a float64 tolerance
    # fixed in advance, since the softplus differs from np.logaddexp in the last bit
    result, reference = s3_search(params, v), loop_reference_s3(params, v)
    assert result.anomalous_patterns == reference.anomalous_patterns
    tol = 1e-12 * (1.0 + np.max(np.abs(reference.trace)))
    np.testing.assert_allclose(result.trace, reference.trace, rtol=0, atol=tol)

    def drops(r):  # each selected bit's lone-flip energy drop, undoing the scale
        return np.array(r.weights) * (1.0 if abs(r.trace[0]) < 1e-12 else r.trace[0])

    np.testing.assert_allclose(drops(result), drops(reference), rtol=0, atol=tol)
    return result


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=rbm_and_vector())
def test_s3_matches_loop_reference(case):
    assert_matches_loop_reference(*case)


def test_s3_tie_goes_to_lowest_index():
    # bits 1 and 3 have identical rows, so their flips tie at every step
    rng = np.random.default_rng(11)
    w = rng.normal(size=(5, 4))
    w[3] = w[1]
    a = np.array([0.0, 3.0, 0.0, 3.0, 0.0])
    params = RbmParams(a, rng.normal(size=4), w)
    result = assert_matches_loop_reference(params, np.zeros(5))
    assert result.anomalous_patterns[:2] == (1, 3)


def sweep_reference_s3(params, v):
    """s3_search without the pruning bounds: every step scores every remaining
    candidate, gathered in index order into one reused block."""
    w, a = params.weights, params.visible_bias
    act = params.hidden_bias + v @ w
    visible_term = float(v @ a)
    f0 = float(_free_energy(act[None, :].copy(), visible_term)[0])
    sign = 1.0 - 2.0 * v
    signed_w, signed_a = sign[:, None] * w, sign * a
    block = signed_w + act
    single = _free_energy(block, visible_term + signed_a)
    candidates = single < f0 - DESCENT_TOL
    f_current, selected, trace = f0, [], [f0]
    while candidates.any():
        cand = np.flatnonzero(candidates)
        rows = np.take(signed_w, cand, axis=0, out=block[: cand.size])
        rows += act
        f_cand = _free_energy(rows, visible_term + signed_a[cand])
        best = int(np.argmin(f_cand))
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
    weights = tuple(float((single[i] - f0) / scale) for i in selected)
    return S3Result(tuple(selected), weights, tuple(trace))


@st.composite
def s3_machine(draw):
    """A machine and a vector for the exactness property: biases and weights
    each up to +-1, +-5 or +-800, so hidden units can saturate as they do at
    f = 52, and some bits copying another bit's bias, row and value, so that
    their flips tie at every step."""
    n_v, n_h = draw(st.integers(1, 40)), draw(st.integers(1, 12))

    def values(shape):
        bound = draw(st.sampled_from([1.0, 5.0, 800.0]))
        return draw(arrays(float, shape, elements=st.floats(-bound, bound)))

    a, b, w = values(n_v), values(n_h), values((n_v, n_h))
    v = draw(arrays(float, n_v, elements=st.sampled_from([0.0, 1.0])))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n_v - 1), st.integers(0, n_v - 1)),
                                  max_size=n_v // 2)):
        a[dst], w[dst], v[dst] = a[src], w[src], v[src]
    return RbmParams(a, b, w), v


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=s3_machine())
def test_s3_equals_sweep_reference(case):
    # the bounds only skip candidates that cannot win: same selections, and
    # the same floats in the weights and the trace
    params, v = case
    assert s3_search(params, v) == sweep_reference_s3(params, v)


def exact_energy(params, v):
    """F(v) in 60-digit decimal arithmetic on the float parameters, whose
    values Decimal takes exactly: far finer than any slack."""
    with localcontext() as ctx:
        ctx.prec = 60
        on = v.astype(bool)
        x = [Decimal(b) + sum(map(Decimal, col[on].tolist()), Decimal(0))
             for b, col in zip(params.hidden_bias.tolist(), params.weights.T)]
        visible = sum(map(Decimal, params.visible_bias[on].tolist()), Decimal(0))
        return -visible - sum(((1 + xj.exp()).ln() for xj in x), Decimal(0))


@st.composite
def bound_case(draw):
    """A small machine with values up to +-800, so that exp overflows, a
    vector, a candidate set, and a chain of distinct candidates to flip."""
    n_v, n_h = draw(st.integers(2, 6)), draw(st.integers(1, 4))

    def values(shape):
        bound = draw(st.sampled_from([1.0, 5.0, 800.0]))
        return draw(arrays(float, shape, elements=st.floats(-bound, bound)))

    a, b, w = values(n_v), values(n_h), values((n_v, n_h))
    v = draw(arrays(float, n_v, elements=st.sampled_from([0.0, 1.0])))
    cands = draw(st.lists(st.integers(0, n_v - 1), min_size=2, unique=True))
    chain = draw(st.permutations(cands))[: draw(st.integers(1, len(cands) - 1))]
    return RbmParams(a, b, w), v, cands, chain


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=bound_case())
def test_bound_changes_hold_every_exact_change(case):
    # flip k of a chain, at the state before it, changes every remaining
    # candidate c's energy by F(v + k + c) - F(v + c), exactly; the bound rule,
    # asked for the whole chain or for one flip, must hold that change within
    # its least and most change, up to the slack
    params, v, cands, chain = case
    sign = 1.0 - 2.0 * v
    signed_w, signed_a = sign[:, None] * params.weights, sign * params.visible_bias
    rows = signed_w[cands]
    neg_bounds = np.negative([rows.min(axis=0), rows.max(axis=0)])
    acts = np.cumsum(np.vstack([params.hidden_bias + v @ params.weights, signed_w[chain]]), axis=0)
    with np.errstate(over="ignore"):
        low, up = switching._bound_changes(signed_w[chain], acts[:-1], signed_a[chain], neg_bounds)
    slack = switching.SLACK_PER_ROUNDING * v.size * (params.n_hidden + 10) * params._s3_magnitude

    def flipped(base, *bits):
        out = base.copy()
        out[list(bits)] = 1.0 - out[list(bits)]
        return out

    before = v
    for j, k in enumerate(chain):
        with np.errstate(over="ignore"):  # one flip, as the ordinary step asks
            lone = switching._bound_changes(signed_w[k], acts[j], signed_a[k], neg_bounds)
        for c in set(cands) - set(chain[: j + 1]):
            change = exact_energy(params, flipped(before, k, c)) - exact_energy(params, flipped(before, c))
            for least, most in ((low[j], up[j]), lone):
                assert Decimal(least - slack) <= change <= Decimal(most + slack)
        before = flipped(before, k)


def test_s3_scores_few_rows_per_step_on_a_saturated_machine(monkeypatch):
    # hidden units saturated as at f = 52 (b + vW between 14 and 42): the bounds
    # are tight, so a step scores a few rows, not every remaining candidate
    rng = np.random.default_rng(7)
    n_v, n_h = 1500, 16
    params = RbmParams(
        rng.uniform(0.5, 1.5, n_v), rng.uniform(20.0, 30.0, n_h), rng.normal(0.0, 0.05, (n_v, n_h))
    )
    v = (rng.random(n_v) < 0.1).astype(float)
    rows = []

    def counting(act, visible_term):
        rows.append(act.shape[0])
        return _free_energy(act, visible_term)

    monkeypatch.setattr(switching, "_free_energy", counting)
    result = s3_search(params, v)
    steps = len(result.anomalous_patterns)
    assert steps >= 1000
    assert sum(rows) <= n_v + 4 * steps
    assert result == sweep_reference_s3(params, v)


def test_s3_bounds_past_exp_overflow_match_sweep_reference():
    # two hidden units sit near -2000, so every pre-activation the bounds
    # meet there is below -709 and exp(-x) overflows to inf; the search
    # neither warns nor departs from the sweep
    rng = np.random.default_rng(11)
    n_v = 12
    params = RbmParams(
        rng.uniform(0.5, 2.0, n_v), np.array([-2000.0, -1500.0, 0.3]),
        rng.normal(0.0, 1.0, (n_v, 3)),
    )
    v = np.zeros(n_v)
    # b + vW plus two signed rows stays within 3 sum|W| of b
    assert (params.hidden_bias[:2] + 3 * np.abs(params.weights).sum(axis=0)[:2] < -709).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = s3_search(params, v)
    assert len(result.anomalous_patterns) >= 3
    assert result == sweep_reference_s3(params, v)


def saturated_machine(seed, n_v, n_h, weight_scale, copies, gated):
    """A machine saturated as at f = 52, and a vector: hidden biases 10-40 and
    small weights keep b + vW high, so F is nearly linear in v and flips come
    in the order of their bounds. Visible biases of 0.5-1.5 make most zero
    bits candidates. `copies` bits copy another bit's bias, row and value, so
    that their flips tie.

    `gated` adds an unsaturated gate unit. Half the bits raise its
    pre-activation by 2 when flipped and the other half lower it by 2; it
    starts near 0. Its curvature makes the bounds wide at first, so the order
    of the upper bounds is not the greedy order. Once a few raising flips are
    in, each lowering flip costs about 2 more than its bias gains, so the
    search ends on the descent test with lowering candidates left."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, n_v)
    b = rng.uniform(10.0, 40.0, n_h)
    w = rng.normal(0.0, weight_scale, (n_v, n_h))
    v = (rng.random(n_v) < 0.2).astype(float)
    if gated:  # signed gate rows (1 - 2v) w of +-2
        w = np.column_stack([w, 2.0 * rng.choice([-1.0, 1.0], n_v) * (1.0 - 2.0 * v)])
    for src, dst in rng.integers(0, n_v, (copies, 2)):
        a[dst], w[dst], v[dst] = a[src], w[src], v[src]
    if gated:
        b = np.append(b, rng.uniform(-2.0, 2.0) - v @ w[:, -1])
    return RbmParams(a, b, w), v


@st.composite
def saturated_s3_machine(draw):
    return saturated_machine(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_v=draw(st.integers(40, 300)),
        n_h=draw(st.integers(1, 12)),
        weight_scale=draw(st.sampled_from([0.01, 0.05, 0.3])),
        copies=draw(st.integers(0, 20)),
        gated=draw(st.booleans()),
    )


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=saturated_s3_machine())
def test_s3_chains_equal_sweep_reference_on_saturated_machines(case):
    # wide enough for the chains of switching.CHAIN_LENGTH flips or more: each
    # committed run must hold the sweep's selections and floats, ties and
    # curvature included
    params, v = case
    assert s3_search(params, v) == sweep_reference_s3(params, v)


def test_s3_equals_sweep_reference_at_plant_width():
    # 2,704 bits and 64 hidden units, as at f = 52: 2,125 steps, most of them
    # committed in chains of up to switching.MAX_CHAIN_LENGTH flips
    params, v = saturated_machine(52, 2704, 64, 0.05, 20, gated=False)
    result = s3_search(params, v)
    assert len(result.anomalous_patterns) == 2125
    assert result == sweep_reference_s3(params, v)


def test_s3_descent_tolerance_ends_the_search_inside_a_chain(monkeypatch):
    # the gated machine stops on the descent test with candidates left; the last
    # chain scored the final committed flip and, after it, the flip that failed
    params, v = saturated_machine(3, 200, 8, 0.05, 10, gated=True)
    scored = []

    def recording(act, visible_term):
        f = _free_energy(act, visible_term)
        scored.append(f)
        return f

    monkeypatch.setattr(switching, "_free_energy", recording)
    result = s3_search(params, v)
    lone = scored[1]
    f0 = free_energy(params, v)
    assert len(result.anomalous_patterns) < int((lone < f0 - DESCENT_TOL).sum())
    # after the lone flips, each ordinary step scores a chain and then its
    # candidates, as CHAIN_LENGTH or more candidates stay left; the first chain
    # has CHAIN_LENGTH flips, the others follow the runs before them
    chains = scored[2::2]
    assert len(scored) % 2 == 0 and chains[0].size == switching.CHAIN_LENGTH
    assert all(switching.CHAIN_LENGTH <= c.size <= switching.MAX_CHAIN_LENGTH for c in chains)
    chain = chains[-1].tolist()
    last = chain.index(result.final_energy)  # the final flip was committed by the chain
    assert last + 1 < len(chain)
    assert chain[last + 1] >= result.final_energy - DESCENT_TOL
    assert result == sweep_reference_s3(params, v)


def test_s3_commits_chains_of_flips_on_a_saturated_machine(monkeypatch):
    # the machine of the row-count test above: flips come in the order of their
    # bounds, so most steps are committed in chains, not by a candidate pass each
    rng = np.random.default_rng(7)
    n_v, n_h = 1500, 16
    params = RbmParams(
        rng.uniform(0.5, 1.5, n_v), rng.uniform(20.0, 30.0, n_h), rng.normal(0.0, 0.05, (n_v, n_h))
    )
    v = (rng.random(n_v) < 0.1).astype(float)
    calls = []

    def counting(act, visible_term):
        calls.append(act.shape[0])
        return _free_energy(act, visible_term)

    monkeypatch.setattr(switching, "_free_energy", counting)
    result = s3_search(params, v)
    steps = len(result.anomalous_patterns)
    assert steps >= 1000
    assert len(calls) <= 70  # 63 measured, plus about 10%
    assert result == sweep_reference_s3(params, v)
