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
