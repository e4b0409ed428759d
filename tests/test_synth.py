import numpy as np
import pytest

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

    def test_two_lags_follow_the_recursion(self):
        coeffs = np.zeros((2, 3, 3))
        coeffs[0] = [[0.4, 0.0, 0.1], [0.2, 0.3, 0.0], [0.0, 0.25, 0.35]]
        coeffs[1] = [[0.1, 0.05, 0.0], [0.0, -0.1, 0.1], [0.15, 0.0, 0.05]]
        g = CausalGraph(coeffs, np.array([0.1, 0.2, 0.3]))
        T, burn = 200, 20
        noise = np.random.default_rng(4).normal(0.0, 1.0, size=(T + burn, 3)) * g.noise_std
        y = np.zeros((T + burn + 2, 3))
        for t in range(T + burn):
            # y_t = noise_t + A_1 y_{t-1} + A_2 y_{t-2}, from a zero state
            y[t + 2] = noise[t] + coeffs[0] @ y[t + 1]
            y[t + 2] += coeffs[1] @ y[t]
        assert np.array_equal(simulate_var(g, T, seed=4).values, y[2 + burn :])


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
