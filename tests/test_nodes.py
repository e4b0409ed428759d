from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpnrca.errors import DataError
from stpnrca.nodes import infer_nodes
from stpnrca.stpn import index_pattern, pattern_index


def as_failed(edges, f, weight=1.0):
    return [(pattern_index(a, b, f), weight) for a, b in edges]


class TestInferNodes:
    def test_empty_input(self):
        result = infer_nodes([], f=5)
        assert result.nodes == ()

    def test_single_cross_pattern_tie_to_lower_endpoint(self):
        result = infer_nodes(as_failed([(2, 4)], f=5), f=5)
        assert result.nodes == (2,)
        assert result.scores[: result.n_cover] == (1.0,)

    def test_hub_scores_and_selection(self):
        # failed 1->2, 1->3, 1->1 each weight 1: node 1 scores 3, others 1
        failed = as_failed([(1, 2), (1, 3), (1, 1)], f=4)
        result = infer_nodes(failed, f=4)
        assert result.nodes == (1,)
        assert result.scores[: result.n_cover] == (3.0,)

    def test_self_pattern_counted_once(self):
        result = infer_nodes(as_failed([(2, 2)], f=3, weight=0.5), f=3)
        assert result.nodes == (2,)
        assert result.scores[: result.n_cover] == (0.5,)

    def test_duplicate_indices_accumulate(self):
        idx = pattern_index(0, 1, 3)
        result = infer_nodes([(idx, 1.0), (idx, 2.0)], f=3)
        assert result.scores[: result.n_cover] == (3.0,)

    def test_termination_and_coverage(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = int(rng.integers(2, 7))
            n_patterns = int(rng.integers(1, f * f + 1))
            indices = rng.choice(f * f, size=n_patterns, replace=False)
            failed = [(int(i), float(rng.random() + 0.1)) for i in indices]
            result = infer_nodes(failed, f=f)
            assert len(result.nodes) <= n_patterns
            uncovered = {int(i) for i in indices}
            for node in result.nodes:
                step = {i for i in uncovered if node in index_pattern(i, f)}
                assert len(step) >= 1
                uncovered -= step
            assert not uncovered

    def test_selection_invariant_to_weight_scaling(self):
        rng = np.random.default_rng(1)
        indices = rng.choice(25, size=8, replace=False)
        failed = [(int(i), float(rng.random() + 0.05)) for i in indices]
        base = infer_nodes(failed, f=5)
        scaled = infer_nodes([(i, 7.3 * w) for i, w in failed], f=5)
        assert base.nodes == scaled.nodes

    def test_weights_of_zero_or_below_terminate(self):
        # s3 weights fall to zero or below when the original free energy is
        # zero or positive; an untouched channel then tops the score
        assert infer_nodes([(pattern_index(2, 2, 3), 0.0)], f=3).nodes == (2,)
        result = infer_nodes([(pattern_index(1, 2, 3), -1.0)], f=3)
        assert result.nodes == (1,) and result.scores[: result.n_cover] == (-1.0,)

    def test_bad_index(self):
        with pytest.raises(DataError):
            infer_nodes([(25, 1.0)], f=5)

    def test_nonfinite_weight(self):
        with pytest.raises(DataError):
            infer_nodes([(0, float("nan"))], f=5)

    @pytest.mark.parametrize("failed, message", [
        ([(0, float("nan")), (25, 1.0)], "non-finite weight for pattern 0"),
        ([(25, 1.0), (0, float("nan"))], "pattern index 25 out of range for f=5"),
        ([(25, float("nan"))], "pattern index 25 out of range for f=5"),
        ([(0, 1.0), (-(10**400), 1.0)], f"pattern index {-(10**400)} out of range for f=5"),
    ])
    def test_first_bad_pair_is_named(self, failed, message):
        # pairs are checked in input order, and a pair's index before its weight
        with pytest.raises(DataError) as err:
            infer_nodes(failed, f=5)
        assert str(err.value) == message


def min_vertex_cover_size(edges, f):
    """Brute-force smallest node set covering every edge (desk-scale only)."""
    nodes = sorted({n for e in edges for n in e})
    for size in range(0, len(nodes) + 1):
        for subset in combinations(nodes, size):
            chosen = set(subset)
            if all(a in chosen or b in chosen for a, b in edges):
                return size
    return len(nodes)


class TestGreedyCoverQuality:
    def test_star_instances_exactly_optimal(self):
        for f in (3, 5, 6):
            edges = [(0, b) for b in range(1, f)]
            result = infer_nodes(as_failed(edges, f), f=f)
            assert len(result.nodes) == 1 == min_vertex_cover_size(edges, f)

    def test_matching_instances_exactly_optimal(self):
        edges = [(0, 1), (2, 3), (4, 5)]
        result = infer_nodes(as_failed(edges, 6), f=6)
        assert len(result.nodes) == 3 == min_vertex_cover_size(edges, 6)

    def test_random_instances_vs_cover_oracle(self):
        # greedy must always cover; equality with the optimum can fail on
        # adversarial instances, so deviations are reported, not hidden
        rng = np.random.default_rng(2)
        deviations = []
        for case in range(200):
            f = int(rng.integers(3, 7))
            pairs = [(a, b) for a in range(f) for b in range(f) if a != b]
            size = int(rng.integers(1, min(8, len(pairs) + 1)))
            chosen = rng.choice(len(pairs), size=size, replace=False)
            edges = sorted({pairs[int(c)] for c in chosen})
            result = infer_nodes(as_failed(edges, f), f=f)
            optimum = min_vertex_cover_size(edges, f)
            assert len(result.nodes) >= optimum
            if len(result.nodes) > optimum:
                deviations.append((case, edges, len(result.nodes), optimum))
        if deviations:
            print(f"\ngreedy cover exceeded the optimum on {len(deviations)}/200: "
                  f"{deviations[:3]}")
        assert len(deviations) <= 20  # tripwire, not a guarantee


class TestRankNodes:
    def test_full_ranking_covers_all_channels(self):
        failed = as_failed([(1, 2), (1, 3)], f=5)
        result = infer_nodes(failed, f=5)
        assert sorted(result.ranking) == [0, 1, 2, 3, 4]
        assert result.ranking[0] == 1
        assert len(result.scores) == 5

    def test_uninvolved_nodes_ranked_by_initial_score(self):
        failed = as_failed([(0, 1)], f=4, weight=2.0) + as_failed([(2, 2)], f=4)
        ranking = infer_nodes(failed, f=4).ranking
        # node 0 covers 0->1; node 2 covers 2->2; node 1 has initial score 2,
        # node 3 has none
        assert ranking.index(1) < ranking.index(3)

    def test_empty_failed_list(self):
        result = infer_nodes([], f=3)
        assert sorted(result.ranking) == [0, 1, 2]
        assert all(s == 0 for s in result.scores)


@st.composite
def failed_sets(draw):
    """A channel count and weighted failed patterns, duplicates allowed."""
    f = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, f * f - 1), st.floats(-10.0, 10.0))
    return f, draw(st.lists(pairs, max_size=2 * f * f))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=failed_sets())
def test_cover_and_ranking_are_valid(case):
    f, failed = case
    result = infer_nodes(failed, f)
    ranking, scores = result.ranking, result.scores
    for i, _ in failed:
        assert set(index_pattern(i, f)) & set(result.nodes)
    assert ranking[: len(result.nodes)] == result.nodes
    assert sorted(ranking) == list(range(f))
    assert len(scores) == f and result.n_cover == len(result.nodes)


def loop_reference_cover(failed, f):
    """The greedy cover and ranking as plain Python loops over the pattern
    pool: (ranking, scores, cover). Scores are summed in pool order, as
    :func:`infer_nodes` must sum them."""
    pool = {}
    for idx, weight in failed:
        pool[int(idx)] = pool.get(int(idx), 0.0) + float(weight)

    def node_scores():
        scores = np.zeros(f)
        for idx, weight in pool.items():
            a, b = index_pattern(idx, f)
            scores[a] += weight
            if b != a:
                scores[b] += weight
        return scores

    initial = [float(s) for s in node_scores()]
    cover, cover_scores = [], []
    scores = initial
    while pool:
        touching = sorted({n for i in pool for n in index_pattern(i, f)})
        best = max(touching, key=lambda n: scores[n])
        for i in [i for i in pool if best in index_pattern(i, f)]:
            del pool[i]
        cover.append(best)
        cover_scores.append(float(scores[best]))
        scores = node_scores()
    rest = sorted((n for n in range(f) if n not in cover), key=lambda n: (-initial[n], n))
    return tuple(cover + rest), tuple(cover_scores + [initial[n] for n in rest]), tuple(cover)


def assert_matches_loop_reference(failed, f):
    result = infer_nodes(failed, f)
    ranking, scores, cover = loop_reference_cover(failed, f)
    assert result.ranking == ranking
    assert result.nodes == cover
    assert result.scores == scores
    assert [s.hex() for s in result.scores] == [s.hex() for s in scores]  # bit for bit


WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-10.0, 10.0),
    st.floats(-1e6, 1e6),
    st.floats(1e-9, 1e-3),
)


@st.composite
def pooled_failed_sets(draw):
    """A channel count up to 8 and failed patterns drawn from a few indices,
    so duplicates are common."""
    f = draw(st.integers(1, 8))
    indices = st.integers(0, f * f - 1)
    hot = draw(st.lists(indices, min_size=1, max_size=f + 1))
    index = st.one_of(indices, st.sampled_from(hot))
    return f, draw(st.lists(st.tuples(index, WEIGHTS), max_size=3 * f * f))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=pooled_failed_sets())
def test_cover_equals_loop_reference(case):
    f, failed = case
    assert_matches_loop_reference(failed, f)


def test_cover_equals_loop_reference_at_52_channels():
    # about as many failed patterns as an f = 52 upset window gives s3
    rng = np.random.default_rng(52)
    f = 52
    indices = rng.choice(f * f, size=1_800, replace=False)
    weights = rng.lognormal(-6.0, 2.0, size=indices.size)
    failed = [(int(i), float(w)) for i, w in zip(indices, weights)]
    failed += [(int(i), 0.0) for i in indices[:20]] + [(int(indices[0]), -1e-4)]
    assert_matches_loop_reference(failed, f)
