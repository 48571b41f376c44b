"""Tests for leader-follower graph handling."""

import numpy as np
import pytest

from conftest import random_digraph
from coopreg import (
    Digraph,
    adjacency,
    connectivity_spectral_check,
    h_matrix,
    has_leader_spanning_tree,
    laplacian,
)
from coopreg.errors import ConfigurationError
from coopreg.matrixops import eigenvalues
from coopreg.reference import reference_graph


# A valid graph whose in-weights reach 1e5 (follower 1 hears 0.1, 1e5 and 33334).
HEAVY_EDGES = ((0, 1, 0.1), (0, 2, 1.0), (2, 1, 1e5), (3, 1, 33334.0), (1, 3, 1.0), (1, 4, 1.0))


class TestValidation:
    def test_edge_into_leader_rejected(self):
        with pytest.raises(ConfigurationError, match=r"edges\[0\].*leader"):
            Digraph(n_followers=2, edges=((1, 0, 1.0),))

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError, match="self-loop"):
            Digraph(n_followers=2, edges=((1, 1, 1.0),))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="weight"):
            Digraph(n_followers=2, edges=((0, 1, 0.0),))
        with pytest.raises(ConfigurationError, match="weight"):
            Digraph(n_followers=2, edges=((0, 1, -0.5),))

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            Digraph(n_followers=2, edges=((0, 3, 1.0),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Digraph(n_followers=2, edges=((0, 1, 1.0), (0, 1, 2.0)))

    @pytest.mark.parametrize(
        "edge, message",
        [
            pytest.param((0, 1), "expected (source, target, weight), got (0, 1)", id="edge-pair"),
            pytest.param((0, "x", 1.0), "node indices must be integers, got (0, 'x')", id="node-str"),
            pytest.param((1.5, 2, 1.0), "node indices must be integers, got (1.5, 2)", id="node-float"),
            pytest.param((True, 2, 1.0), "node indices must be integers, got (True, 2)", id="node-bool"),
            pytest.param((0, 1, "heavy"), "weight must be a real number, got 'heavy'", id="weight-str"),
            pytest.param((0, 1, True), "weight must be a real number, got True", id="weight-bool"),
            pytest.param((0, 1, None), "weight must be a real number, got None", id="weight-none"),
        ],
    )
    def test_malformed_edge_entries_rejected(self, edge, message):
        # int()/float() used to raise a bare ValueError here, or truncate
        # 1.5 and True to node 1
        with pytest.raises(ConfigurationError) as info:
            Digraph(n_followers=2, edges=((0, 2, 1.0), edge))
        assert str(info.value) == f"graph.edges[1]: {message}"

    def test_numpy_scalars_accepted(self):
        g = Digraph(n_followers=2, edges=((np.int64(0), np.int32(1), np.float64(1.5)), (1, 2, 2)))
        assert g.edges == ((0, 1, 1.5), (1, 2, 2.0))
        assert all(type(v) is int for src, dst, _ in g.edges for v in (src, dst))

    def test_zero_followers_rejected(self):
        with pytest.raises(ConfigurationError):
            Digraph(n_followers=0)

    @pytest.mark.parametrize("n", [True, False])
    def test_bool_follower_count_rejected(self, n):
        # bool is an int subclass: True used to give a one-follower graph
        with pytest.raises(ConfigurationError) as info:
            Digraph(n, ())
        assert str(info.value) == f"graph.n_followers: must be a positive integer, got {n!r}"

    def test_in_edges(self):
        g = Digraph(n_followers=3, edges=((0, 1, 2.0), (1, 2, 0.5), (3, 2, 1.5)))
        assert g.in_edges(2) == [(1, 0.5), (3, 1.5)]
        assert g.in_edges(1) == [(0, 2.0)]
        assert g.in_edges(3) == []


class TestMatrices:
    def test_adjacency_convention(self):
        # edge (j -> i, w) must land in row i, column j
        g = Digraph(n_followers=3, edges=((1, 3, 0.7),))
        a = adjacency(g)
        assert a[3, 1] == 0.7
        assert np.count_nonzero(a) == 1

    def test_laplacian_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_digraph(rng, n_max=6)
            lap = laplacian(g)
            assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
            assert np.allclose(lap[0], 0.0)  # leader receives nothing

    def test_benchmark_h_and_delta(self):
        # Hand-computed from the four-follower benchmark topology:
        # leader -> {1, 2}, follower 1 -> {3, 4}, all unit weights.
        h, delta = h_matrix(reference_graph())
        h_expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.array_equal(h, h_expected)
        assert np.array_equal(delta, np.diag([1.0, 1.0, 0.0, 0.0]))
        # its spectrum is {1, 1, 1, 1}
        assert np.allclose(eigenvalues(h), np.ones(4), atol=1e-12)

    def test_row_sum_identity_scales_with_in_weight(self):
        # Follower 1's in-weights sum to 133334.1; its row sum rounds off
        # by 5.8e-12, past an absolute 1e-12 but far inside 1e-12 times
        # the in-weight sum.
        g = Digraph(4, HEAVY_EDGES)
        h, delta = h_matrix(g)
        assert np.array_equal(h, laplacian(g)[1:, 1:])
        assert np.array_equal(delta, np.diag([0.1, 1.0, 0.0, 0.0]))
        residual = h @ np.ones(4) - delta @ np.ones(4)
        assert 1e-12 < np.max(np.abs(residual)) <= 1e-12 * 133334.1

    def test_row_sum_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = random_digraph(rng, n_max=7)
            h, delta = h_matrix(g)
            ones = np.ones(g.n_followers)
            assert np.allclose(h @ ones, delta @ ones, atol=1e-12)


class TestConnectivity:
    def test_benchmark_is_rooted(self):
        g = reference_graph()
        assert has_leader_spanning_tree(g)
        assert connectivity_spectral_check(g)

    def test_unreachable_follower(self):
        g = Digraph(n_followers=2, edges=((0, 1, 1.0),))  # follower 2 isolated
        assert not has_leader_spanning_tree(g)
        assert not connectivity_spectral_check(g)
        h, _ = h_matrix(g)
        assert np.min(np.abs(eigenvalues(h))) < 1e-12  # a zero mode appears

    def test_chain_is_rooted(self):
        g = Digraph(n_followers=3, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
        assert has_leader_spanning_tree(g)
        assert connectivity_spectral_check(g)

    def test_cycle_without_leader_access(self):
        g = Digraph(n_followers=3, edges=((1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)))
        assert not has_leader_spanning_tree(g)
        assert not connectivity_spectral_check(g)

    def test_equivalence_on_random_digraphs(self):
        # Combinatorial reachability vs the sign of the H spectrum must
        # agree on every sample; both branches must actually occur.
        rng = np.random.default_rng(42)
        seen = {True: 0, False: 0}
        for _ in range(150):
            g = random_digraph(rng, n_max=8)
            tree = has_leader_spanning_tree(g)
            spectral = connectivity_spectral_check(g)
            assert tree == spectral, f"disagreement on {g}"
            seen[tree] += 1
        assert seen[True] >= 20 and seen[False] >= 20
