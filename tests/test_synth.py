import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpnrca import synth
from stpnrca.errors import DataError
from stpnrca.stpn import pattern_index
from stpnrca.synth import (
    BREAKABLE_EDGES,
    CausalGraph,
    FaultSpec,
    builtin_modes,
    inject_fault,
    pattern_fault_cases,
    random_graph,
    simulate_case,
    simulate_var,
    var_fit,
    var_rca_baseline,
)


class TestCausalGraph:
    def test_unstable_rejected(self):
        coeffs = np.array([[[1.05]]])
        with pytest.raises(DataError, match="unstable"):
            CausalGraph(coeffs, np.array([0.1]))

    def test_zero_noise_rejected(self):
        with pytest.raises(DataError):
            CausalGraph(np.zeros((1, 2, 2)), np.zeros(2))

    def test_edges_listing(self):
        coeffs = np.zeros((1, 3, 3))
        coeffs[0, 1, 0] = 0.3
        coeffs[0, 2, 2] = 0.4
        g = CausalGraph(coeffs, np.full(3, 0.1))
        assert set(g.edges()) == {(0, 1), (2, 2)}

    def test_multi_lag_spectral_radius(self):
        coeffs = np.zeros((2, 2, 2))
        coeffs[0] = 0.4 * np.eye(2)
        coeffs[1] = 0.3 * np.eye(2)
        g = CausalGraph(coeffs, np.full(2, 0.1))
        # AR(2) with a=0.4, b=0.3: companion root of x^2-0.4x-0.3
        expected = (0.4 + np.sqrt(0.16 + 1.2)) / 2
        assert g.spectral_radius() == pytest.approx(expected, abs=1e-9)


class TestSimulateVar:
    def test_no_coupling_is_pure_noise(self):
        g = CausalGraph(np.zeros((1, 3, 3)), np.full(3, 0.5))
        ts = simulate_var(g, 20000, seed=0)
        bound = 4 * 0.5 / np.sqrt(20000)
        assert np.all(np.abs(ts.values.mean(axis=0)) < bound)

    def test_seed_determinism(self):
        g = builtin_modes()[0]
        a = simulate_var(g, 500, seed=9)
        b = simulate_var(g, 500, seed=9)
        assert np.array_equal(a.values, b.values)
        c = simulate_var(g, 500, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_length(self):
        g = builtin_modes()[0]
        assert simulate_var(g, 321, seed=1).n_samples == 321

    def test_too_short(self):
        g = builtin_modes()[0]
        with pytest.raises(DataError):
            simulate_var(g, 5, seed=0)

    def test_two_lags_draw_the_noise_stream_of_the_loop(self):
        """simulate_var draws the noise the per-sample loop drew, after the
        same burn-in; the scan's sums differ from the loop's by rounding."""
        coeffs = np.zeros((2, 3, 3))
        coeffs[0] = [[0.4, 0.0, 0.1], [0.2, 0.3, 0.0], [0.0, 0.25, 0.35]]
        coeffs[1] = [[0.1, 0.05, 0.0], [0.0, -0.1, 0.1], [0.15, 0.0, 0.05]]
        g = CausalGraph(coeffs, np.array([0.1, 0.2, 0.3]))
        T, burn = 200, 20
        noise = np.random.default_rng(4).normal(0.0, 1.0, size=(T + burn, 3)) * g.noise_std
        assert_close_to_loop(simulate_var(g, T, seed=4).values, coeffs, noise)

    def test_memory_at_52_channels(self):
        """24,000 samples of a 52-channel graph peaked at 29.8 MiB of
        tracemalloc'd memory with the per-sample loop (noise, states and the
        returned copy) and at 20.2 MiB with the scan (noise and states; the
        scan's temporaries are one chunk). The bound is the loop's peak plus
        5% for numpy and Python versions."""
        g = random_graph(52, seed=911)
        tracemalloc.start()
        try:
            simulate_var(g, 24_000, seed=912)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * 29.8 * 2**20


def loop_reference_simulate_var(coeffs, noise):
    """The per-sample loop simulate_var ran before the scan: from a zero
    state, y_t = noise_t + A_1 y_{t-1} + ... + A_p y_{t-p}, one row of y per
    row of noise."""
    p = coeffs.shape[0]
    total, f = noise.shape
    y = np.zeros((total + p, f))
    for t in range(total):
        acc = noise[t] + coeffs[0] @ y[p + t - 1]
        for k in range(1, p):
            acc += coeffs[k] @ y[p + t - 1 - k]
        y[p + t] = acc
    return y[p:]


# Worst difference between the scan and the loop over 38,000 draws of
# stable_systems below, in units of eps times the sum of the absolute terms
# (the loop run on |A_k| and |noise|): 21.9. The bound is four times that.
SCAN_ERROR_EPS = 4 * 21.9


def assert_close_to_loop(got, coeffs, noise):
    """`got` equals the last rows of the loop on `noise` within
    SCAN_ERROR_EPS, relative to the sum of the absolute values of the terms."""
    skip = len(noise) - len(got)
    want = loop_reference_simulate_var(coeffs, noise)[skip:]
    scale = loop_reference_simulate_var(np.abs(coeffs), np.abs(noise))[skip:]
    excess = np.abs(got - want) - SCAN_ERROR_EPS * np.finfo(float).eps * scale
    assert np.all(excess <= 0.0), float(np.max(excess))


def nilpotent_coeffs(f, p, seed, chain):
    """Strictly lower-triangular dyadic lag matrices, so the companion matrix
    is nilpotent and, with integer noise, every value of the recursion and
    every partial sum of its terms is exact.

    Dense: every entry below the diagonal at every lag is 0, ±1/4 or ±1/2.
    With f = 4 a shock passes through at most 3 other channels, so the
    response dies within a block of 64. Chain: channel i reads channel i-1
    alone, at one lag, with coefficient ±2 (i odd) or ±1/2 (i even), so the
    response runs along all f channels, across many blocks, and every
    product of consecutive coefficients is ±1/2, ±1 or ±2.
    """
    rng = np.random.default_rng(seed)
    if chain:
        coeffs = np.zeros((p, f, f))
        for i in range(1, f):
            sign = rng.choice([-1.0, 1.0])
            coeffs[rng.integers(p), i, i - 1] = sign * (2.0 if i % 2 else 0.5)
    else:
        coeffs = np.tril(rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5], size=(p, f, f)), k=-1)
    return coeffs


@st.composite
def stable_systems(draw):
    """f of 1-8 channels, 1-3 lags, random lag matrices scaled so that the
    companion matrix of |A_k| has spectral radius 0.05-0.95 (so the absolute
    terms of the recursion stay bounded), per-channel noise scales 0.05-2.7,
    a length within 2 samples of a multiple of the block and chunks of 1-4
    blocks."""
    f, p = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    block = synth._block_length(f * p)
    total = max(1, draw(st.integers(1, 6)) * block + draw(st.integers(-2, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.normal(size=(p, f, f))
    radius = np.max(np.abs(np.linalg.eigvals(synth._companion(np.abs(coeffs)))))
    coeffs *= draw(st.floats(0.05, 0.95)) / radius
    noise = rng.normal(size=(total, f)) * np.exp(rng.uniform(-3.0, 1.0, size=f))
    return coeffs, noise, draw(st.integers(1, 4)) * (block - 1) * (f * p) ** 2


class TestScan:
    """synth._simulate, the scan behind simulate_var, against the loop."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_dense_nilpotent_recursion_is_exact(self, monkeypatch, p):
        f = 4
        block = synth._block_length(f * p)
        assert block == 64
        # two blocks per chunk, so chunks carry into chunks too
        monkeypatch.setattr(synth, "CHUNK_WORK", 2 * (block - 1) * (f * p) ** 2)
        coeffs = nilpotent_coeffs(f, p, seed=p, chain=False)
        total = 5 * block + 17
        noise = np.random.default_rng(10 + p).integers(-8, 9, size=(total, f)).astype(float)
        got = synth._simulate(coeffs, noise)
        assert np.array_equal(got, loop_reference_simulate_var(coeffs, noise))

    @pytest.mark.parametrize("f, p, block", [(60, 1, 8), (40, 2, 4), (100, 1, 2), (130, 1, 1)])
    def test_chain_recursion_across_blocks_and_chunks_is_exact(self, monkeypatch, f, p, block):
        assert synth._block_length(f * p) == block
        coeffs = nilpotent_coeffs(f, p, seed=f, chain=True)
        # the response outlives a block: carries between blocks are not zero
        assert np.any(np.linalg.matrix_power(synth._companion(coeffs), block))
        monkeypatch.setattr(synth, "CHUNK_WORK", 3 * max(1, (block - 1) * (f * p) ** 2))
        total = 4 * f * p + 3
        noise = np.random.default_rng(f).integers(-8, 9, size=(total, f)).astype(float)
        got = synth._simulate(coeffs, noise)
        assert np.array_equal(got, loop_reference_simulate_var(coeffs, noise))

    def test_block_length_shrinks_with_the_state(self):
        lengths = [synth._block_length(n) for n in (1, 5, 22, 23, 52, 100, 128, 129, 200)]
        assert lengths == [64, 64, 64, 32, 8, 2, 2, 1, 1]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=stable_systems())
    def test_follows_the_loop_on_stable_graphs(self, case):
        coeffs, noise, chunk = case
        with mock.patch.object(synth, "CHUNK_WORK", chunk):
            got = synth._simulate(coeffs, noise)
        assert got.shape == noise.shape
        assert_close_to_loop(got, coeffs, noise)


class TestBuiltinModes:
    def test_six_stationary_distinct_modes(self):
        modes = builtin_modes()
        assert len(modes) == 6
        edge_sets = [frozenset(m.edges()) for m in modes]
        assert len(set(edge_sets)) == 6
        for m in modes:
            assert m.spectral_radius() < 1.0

    def test_mode1_contains_self_loop_4_4(self):
        # channel index 3 is display node 4
        assert (3, 3) in builtin_modes()[0].edges()

    def test_named_cycles_present(self):
        modes = builtin_modes()
        edges1 = set(modes[0].edges())
        assert {(0, 1), (1, 4), (4, 0)} <= edges1  # 1->2->5->1
        assert {(0, 1), (1, 2), (2, 0)} <= edges1  # 1->2->3->1
        assert {(1, 2), (2, 1)} <= set(modes[2].edges())  # 2->3->2

    def test_breakable_edges_in_every_mode(self):
        for m in builtin_modes():
            assert set(BREAKABLE_EDGES) <= set(m.edges())

    def test_thirty_cases(self):
        cases = pattern_fault_cases()
        assert len(cases) == 30
        sizes = [len(c) for c in cases]
        assert sizes.count(1) == 5
        assert sizes.count(2) == 10
        assert sizes.count(3) == 10
        assert sizes.count(4) == 5


class TestInjectFault:
    def test_pattern_break_zeroes_coefficient(self):
        g = builtin_modes()[0]
        spec = FaultSpec(kind="pattern_break", edges=((1, 4),))
        ts = inject_fault(g, simulate_var(g, 1000, seed=4), spec, seed=4)
        assert ts.n_samples == 1000
        # re-fit recovers a near-zero coefficient where the edge was broken
        fitted = var_fit(inject_fault(g, simulate_var(g, 20000, seed=5), spec, seed=5), 1)
        assert abs(fitted[0, 4, 1]) < 0.05
        assert fitted[0, 1, 0] > 0.1  # unbroken edge survives

    def test_pattern_break_unknown_edge(self):
        g = builtin_modes()[0]
        with pytest.raises(DataError):
            inject_fault(
                g,
                simulate_var(g, 500, seed=0),
                FaultSpec(kind="pattern_break", edges=((1, 3),)),
                seed=0,
            )

    def test_node_delay_shifts_channel(self):
        g = builtin_modes()[0]
        base = simulate_var(g, 400, seed=6)
        delayed = inject_fault(g, base, FaultSpec(kind="node_delay", node=2, delay=7), seed=6)
        assert np.array_equal(delayed.values[7:, 2], base.values[:-7, 2])
        assert np.all(delayed.values[:7, 2] == base.values[0, 2])
        others = [c for c in range(5) if c != 2]
        assert np.array_equal(delayed.values[:, others], base.values[:, others])

    def test_invalid_specs(self):
        with pytest.raises(DataError):
            FaultSpec(kind="node_delay", node=1, delay=0)
        with pytest.raises(DataError):
            FaultSpec(kind="pattern_break")
        with pytest.raises(DataError):
            FaultSpec(kind="gremlins")

    def test_labels_for_pattern_break(self):
        spec = FaultSpec(kind="pattern_break", edges=((1, 4), (0, 1)))
        _, labels = simulate_case(builtin_modes()[0], spec, 100, seed=3, case_id="case01")
        assert set(labels["failed_patterns"]) == {
            pattern_index(1, 4, 5), pattern_index(0, 1, 5)
        }
        assert labels["failed_nodes"] == [0, 1, 4]

    def test_labels_for_node_delay(self):
        g = random_graph(4, seed=0)
        spec = FaultSpec(kind="node_delay", node=3, delay=5)
        _, labels = simulate_case(g, spec, 100, seed=0, case_id="x")
        assert labels["failed_nodes"] == [3]
        assert labels["failed_patterns"] == []


class TestSimulateCase:
    """The builder equals simulate, inject the fault, then label."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = []

        def counting(g, T, seed=0):
            calls.append(seed)
            return simulate_var(g, T, seed=seed)

        monkeypatch.setattr(synth, "simulate_var", counting)
        return calls

    @pytest.mark.parametrize(
        "spec, fault, failed_patterns, failed_nodes",
        [
            (None, None, [], []),
            (
                FaultSpec(kind="pattern_break", edges=((1, 4), (2, 3))),
                {"kind": "pattern_break", "edges": [[1, 4], [2, 3]]},
                [9, 13],
                [1, 2, 3, 4],
            ),
            (
                FaultSpec(kind="node_delay", node=2, delay=5),
                {"kind": "node_delay", "node": 2, "delay": 5},
                [],
                [2],
            ),
        ],
        ids=["nominal", "pattern_break", "node_delay"],
    )
    def test_equals_simulate_inject_label(
        self, counted, spec, fault, failed_patterns, failed_nodes
    ):
        g = builtin_modes()[2]
        ts, labels = simulate_case(g, spec, 600, seed=31, case_id="c7", mode=2)
        assert len(counted) == 1
        want = simulate_var(g, 600, seed=31)
        if spec is not None:
            want = inject_fault(g, want, spec, seed=31)
        assert ts.names == want.names
        assert np.array_equal(ts.values, want.values)
        assert labels == {
            "case_id": "c7",
            "mode": 2,
            "channels": list(g.names),
            "seed": 31,
            "fault": fault,
            "failed_patterns": failed_patterns,
            "failed_nodes": failed_nodes,
        }

    def test_unknown_edge_rejected_before_simulating(self, counted):
        spec = FaultSpec(kind="pattern_break", edges=((1, 3),))
        with pytest.raises(DataError, match="not present"):
            simulate_case(builtin_modes()[0], spec, 600, seed=0, case_id="c")
        assert counted == []


class TestVarFit:
    def test_recovers_coefficients(self):
        g = random_graph(3, n_edges=3, seed=3, cross_coeff=0.3, self_coeff=0.45)
        ts = simulate_var(g, 10000, seed=3)
        fitted = var_fit(ts, 1)
        assert np.max(np.abs(fitted - g.coeffs)) < 0.05

    def test_zero_coupling_fits_zero(self):
        g = CausalGraph(np.zeros((1, 3, 3)), np.full(3, 0.1))
        fitted = var_fit(simulate_var(g, 10000, seed=1), 1)
        assert np.max(np.abs(fitted)) < 0.05

    def test_extra_lag_near_zero(self):
        g = random_graph(3, n_edges=3, seed=3, cross_coeff=0.3, self_coeff=0.45)
        fitted = var_fit(simulate_var(g, 10000, seed=4), 2)
        assert np.max(np.abs(fitted[1])) < 0.05

    def test_needs_enough_samples(self):
        g = builtin_modes()[0]
        with pytest.raises(DataError):
            var_fit(simulate_var(g, 40, seed=0), 1)


class TestVarBaseline:
    def test_identical_fits_empty(self):
        a = np.zeros((1, 4, 4))
        with pytest.warns(UserWarning):
            assert var_rca_baseline(a, a.copy()) == []

    def test_single_perturbed_entry(self):
        a = np.zeros((1, 4, 4))
        b = a.copy()
        b[0, 2, 1] = 0.5  # influence of channel 1 on channel 2
        assert var_rca_baseline(a, b) == [pattern_index(1, 2, 4)]

    def test_relative_threshold_default(self):
        a = np.zeros((1, 3, 3))
        b = a.copy()
        b[0, 0, 1] = 1.0
        b[0, 1, 2] = 0.39  # below 0.4 * max
        b[0, 2, 0] = 0.41  # above
        failed = var_rca_baseline(a, b)
        assert pattern_index(1, 0, 3) in failed
        assert pattern_index(0, 2, 3) in failed
        assert pattern_index(2, 1, 3) not in failed

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            var_rca_baseline(np.zeros((1, 3, 3)), np.zeros((1, 4, 4)))

    @pytest.mark.parametrize(
        "shape", [(3, 3), (3,), (1, 3, 2), (1, 2, 3), (0, 3, 3)],
        ids=["matrix", "vector", "1x3x2", "1x2x3", "no-lags"],
    )
    def test_only_square_coefficient_tensors(self, shape):
        """Two fits of one shape that is not (p, f, f) are refused, not read
        along the wrong axes; the last coefficient differs, so a silent
        answer would have a change to report."""
        a = np.zeros(shape)
        b = a.copy()
        if b.size:
            b.flat[-1] = 1.0
        with pytest.raises(DataError, match=r"\(p, f, f\)"):
            var_rca_baseline(a, b)


class TestRandomGraph:
    def test_heterogeneous_noise_range(self):
        g = random_graph(8, n_edges=10, seed=0, noise_std=(0.05, 0.3))
        assert np.all(g.noise_std >= 0.05) and np.all(g.noise_std <= 0.3)
        assert g.noise_std.min() < g.noise_std.max()

    def test_stationary_by_construction(self):
        for seed in range(5):
            g = random_graph(12, n_edges=30, seed=seed, cross_coeff=0.4)
            assert g.spectral_radius() < 1.0
