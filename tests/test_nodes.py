from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpnrca.errors import DataError
from stpnrca.nodes import infer_nodes
from stpnrca.stpn import index_pattern, pattern_index


def as_failed(edges, f, weight=1.0):
    """The pool of `edges`, each of weight `weight`: (index, weight) arrays in
    ascending index order."""
    index = np.sort([pattern_index(a, b, f) for a, b in edges]).astype(int)
    return index, np.full(index.size, weight)


def pool(pairs):
    """(index, weight) arrays from (index, weight) pairs given in pool order."""
    index, weight = zip(*pairs) if pairs else ((), ())
    return np.array(index, dtype=int), np.array(weight, dtype=float)


class TestInferNodes:
    def test_empty_input(self):
        result = infer_nodes(([], []), f=5)
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

    def test_duplicated_index_is_refused(self):
        # the pool arrives pooled: a repeated index is an error, not a sum
        idx = pattern_index(0, 1, 3)
        with pytest.raises(DataError, match=f"pattern index {idx} follows {idx}"):
            infer_nodes(([idx, idx], [1.0, 2.0]), f=3)

    def test_unsorted_index_is_refused(self):
        with pytest.raises(DataError, match="pattern index 2 follows 5: indices must be strictly"):
            infer_nodes(([1, 5, 2], [1.0, 1.0, 1.0]), f=3)

    def test_lists_and_integral_float_indices_read_as_integer_arrays(self):
        index, weight = as_failed([(0, 1), (1, 2), (2, 2)], f=3, weight=0.25)
        expected = infer_nodes((index, weight), f=3)
        assert infer_nodes((index.tolist(), weight.tolist()), f=3) == expected
        assert infer_nodes((index.astype(float), weight), f=3) == expected
        assert infer_nodes((index.astype(np.uint8), weight.astype(np.float32)), f=3) == expected

    @pytest.mark.parametrize("failed", [
        ([0, 1], [1.0]),
        ([[0, 1]], [[1.0, 1.0]]),
        (3, 1.0),
        (np.array(["0"]), [1.0]),
        ([0], [None]),
        ([True], [1.0]),
    ], ids=["lengths", "2-D", "scalars", "text-index", "object-weight", "bool-index"])
    def test_arrays_of_another_shape_or_kind_are_refused(self, failed):
        with pytest.raises(DataError, match="numeric 1-D index and weight arrays of one length"):
            infer_nodes(failed, f=3)

    def test_termination_and_coverage(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = int(rng.integers(2, 7))
            n_patterns = int(rng.integers(1, f * f + 1))
            indices = np.sort(rng.choice(f * f, size=n_patterns, replace=False))
            result = infer_nodes((indices, rng.random(n_patterns) + 0.1), f=f)
            assert len(result.nodes) <= n_patterns
            uncovered = {int(i) for i in indices}
            for node in result.nodes:
                step = {i for i in uncovered if node in index_pattern(i, f)}
                assert len(step) >= 1
                uncovered -= step
            assert not uncovered

    def test_selection_invariant_to_weight_scaling(self):
        rng = np.random.default_rng(1)
        indices = np.sort(rng.choice(25, size=8, replace=False))
        weights = rng.random(8) + 0.05
        base = infer_nodes((indices, weights), f=5)
        scaled = infer_nodes((indices, 7.3 * weights), f=5)
        assert base.nodes == scaled.nodes

    def test_weights_of_zero_or_below_terminate(self):
        # s3 weights fall to zero or below when the original free energy is
        # zero or positive; an untouched channel then tops the score
        assert infer_nodes(as_failed([(2, 2)], f=3, weight=0.0), f=3).nodes == (2,)
        result = infer_nodes(as_failed([(1, 2)], f=3, weight=-1.0), f=3)
        assert result.nodes == (1,) and result.scores[: result.n_cover] == (-1.0,)

    def test_bad_index(self):
        with pytest.raises(DataError):
            infer_nodes(([25], [1.0]), f=5)

    def test_nonfinite_weight(self):
        with pytest.raises(DataError):
            infer_nodes(([0], [float("nan")]), f=5)

    @pytest.mark.parametrize("failed, message", [
        (([0, 25], [float("nan"), 1.0]), "non-finite weight for pattern 0"),
        (([25, 0], [1.0, float("nan")]), "pattern index 25 out of range for f=5"),
        (([25], [float("nan")]), "pattern index 25 out of range for f=5"),
        (([0, -(10**18)], [1.0, 1.0]), f"pattern index {-(10**18)} out of range for f=5"),
        (([0, 2.5], [1.0, float("inf")]), "pattern index 2.5 is not an integer"),
        (([float("nan")], [1.0]), "pattern index nan is not an integer"),
        (([3, 3, 30], [1.0, 1.0, 1.0]),
         "pattern index 3 follows 3: indices must be strictly ascending"),
        (([4, 3], [float("nan"), 1.0]), "non-finite weight for pattern 4"),
        (([4, 3], [1.0, float("nan")]),
         "pattern index 3 follows 4: indices must be strictly ascending"),
    ])
    def test_first_bad_pair_is_named(self, failed, message):
        # entries are checked in pool order, and an entry's index before its weight
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
        failed = pool([(pattern_index(0, 1, 4), 2.0), (pattern_index(2, 2, 4), 1.0)])
        ranking = infer_nodes(failed, f=4).ranking
        # node 0 covers 0->1; node 2 covers 2->2; node 1 has initial score 2,
        # node 3 has none
        assert ranking.index(1) < ranking.index(3)

    def test_empty_failed_list(self):
        result = infer_nodes(([], []), f=3)
        assert sorted(result.ranking) == [0, 1, 2]
        assert all(s == 0 for s in result.scores)


def failed_pools(weights):
    """Strategy: a channel count up to 8 and a failed-pattern pool of its
    patterns, as (index, weight) pairs in ascending index order."""

    @st.composite
    def draw_pool(draw):
        f = draw(st.integers(1, 8))
        pairs = st.tuples(st.integers(0, f * f - 1), weights)
        return f, sorted(draw(st.lists(pairs, max_size=f * f, unique_by=lambda p: p[0])))

    return draw_pool()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=failed_pools(st.floats(-10.0, 10.0)))
def test_cover_and_ranking_are_valid(case):
    f, failed = case
    result = infer_nodes(pool(failed), f)
    ranking, scores = result.ranking, result.scores
    for i, _ in failed:
        assert set(index_pattern(i, f)) & set(result.nodes)
    assert ranking[: len(result.nodes)] == result.nodes
    assert sorted(ranking) == list(range(f))
    assert len(scores) == f and result.n_cover == len(result.nodes)


def loop_reference_cover(failed, f):
    """The greedy cover and ranking as plain Python loops over the pattern
    pool, given as (index, weight) pairs: (ranking, scores, cover). Scores are
    summed in pool order, as :func:`infer_nodes` must sum them."""
    pool = {int(idx): float(weight) for idx, weight in failed}

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
    result = infer_nodes(pool(failed), f)
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


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=failed_pools(WEIGHTS))
def test_cover_equals_loop_reference(case):
    f, failed = case
    assert_matches_loop_reference(failed, f)


def test_cover_equals_loop_reference_at_52_channels():
    # about as many failed patterns as an f = 52 upset window gives s3
    rng = np.random.default_rng(52)
    f = 52
    indices = np.sort(rng.choice(f * f, size=1_800, replace=False))
    weights = rng.lognormal(-6.0, 2.0, size=indices.size)
    weights[rng.choice(indices.size, size=20, replace=False)] = 0.0
    weights[rng.integers(indices.size)] = -1e-4
    assert_matches_loop_reference(list(zip(indices.tolist(), weights.tolist())), f)
