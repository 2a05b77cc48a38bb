import math

import numpy as np
import pytest

from conftest import make_doc
from oracles import (
    adjacency,
    net_from_edges,
    oracle_betweenness,
    oracle_clustering,
    oracle_distances,
    oracle_modularity,
    oracle_rings,
    random_connected_graph,
)
from prosenet import ProsenetError
from prosenet.graph import bfs_distances, build_network
from prosenet.metrics import (
    betweenness,
    closeness,
    clustering,
    degree,
    detect_communities,
    eccentricity,
    eigenvector_centrality,
    modularity,
    neighborhood_connectivity,
    pagerank,
)


def complete(n):
    return net_from_edges(n, {(i, j) for i in range(n) for j in range(i + 1, n)})


def star(leaves):
    return net_from_edges(leaves + 1, {(0, i) for i in range(1, leaves + 1)})


def cycle(n):
    return net_from_edges(n, {(i, (i + 1) % n) for i in range(n)})


def two_triangles_bridged():
    return net_from_edges(6, {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)})


class TestDegree:
    def test_complete(self):
        assert (degree(complete(5)).values == 4).all()

    def test_star(self):
        values = degree(star(4)).values
        assert values[0] == 4 and (values[1:] == 1).all()

    def test_degree_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            assert degree(net).values.sum() == 2 * net.edge_count


class TestNeighborhoodConnectivity:
    def test_path_center(self):
        net = build_network(make_doc(list("abcde")))
        assert neighborhood_connectivity(net, 2).values[2] == 2

    def test_h1_recovers_degree(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            assert (neighborhood_connectivity(net, 1).values == degree(net).values).all()

    def test_matches_bfs_ring_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            adj = adjacency(n, edges)
            for h in (2, 3):
                values = neighborhood_connectivity(net, h).values
                for i in range(n):
                    assert values[i] == len(oracle_rings(adj, n, i).get(h, set()))

    def test_cumulative_counts_within(self):
        net = build_network(make_doc(list("abcde")))
        assert neighborhood_connectivity(net, 2, cumulative=True).values[0] == 2


class TestClustering:
    def test_triangle(self):
        assert (clustering(complete(3)).values == 1.0).all()

    def test_star_center(self):
        assert clustering(star(4)).values[0] == 0.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            expected = oracle_clustering(adjacency(n, edges), n)
            assert np.allclose(clustering(net).values, expected)


class TestBetweenness:
    def test_path_counts_ordered_pairs(self):
        net = build_network(make_doc(["a", "b", "c"]))
        assert betweenness(net).values.tolist() == [0.0, 2.0, 0.0]

    def test_complete_all_zero(self):
        assert (betweenness(complete(4)).values == 0).all()

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, edges = random_connected_graph(rng, 4, 10)
            net = net_from_edges(n, edges)
            expected = oracle_betweenness(adjacency(n, edges), n)
            assert np.allclose(betweenness(net).values, expected, atol=1e-10)

    def test_disconnected_marks_missing(self):
        net = net_from_edges(5, {(0, 1), (1, 2), (3, 4)})
        nm = betweenness(net)
        assert nm.missing.tolist() == [False, False, False, True, True]


class TestCloseness:
    def test_path_literal_mean(self):
        net = build_network(make_doc(["a", "b", "c"]))
        assert np.isclose(closeness(net).values[1], 2 / 3)

    def test_complete(self):
        assert np.allclose(closeness(complete(4)).values, 3 / 4)

    def test_reciprocal_option(self):
        net = build_network(make_doc(["a", "b", "c"]))
        assert np.isclose(closeness(net, reciprocal=True).values[1], 3 / 2)

    def test_matches_distance_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            dist = oracle_distances(adjacency(n, edges), n)
            assert np.allclose(closeness(net).values, dist.mean(axis=1))


class TestEccentricity:
    def test_path(self):
        net = build_network(make_doc(["a", "b", "c"]))
        assert eccentricity(net).values.tolist() == [2.0, 1.0, 2.0]

    def test_complete(self):
        assert (eccentricity(complete(4)).values == 1).all()

    def test_max_is_diameter(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            dist = oracle_distances(adjacency(n, edges), n)
            values = eccentricity(net).values
            assert values.max() == dist.max()
            assert np.allclose(values, dist.max(axis=1))


class TestSharedDistances:
    def test_dist_argument_does_not_change_results(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n1, e1 = random_connected_graph(rng, 3, 9)
            n2, e2 = random_connected_graph(rng, 3, 9)
            n = n1 + n2 + 1  # the last node is isolated
            perm = rng.permutation(n)
            edges = {(u, v) for u, v in e1} | {(u + n1, v + n1) for u, v in e2}
            edges = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
            net = net_from_edges(n, edges)
            dist = bfs_distances(net, np.arange(n))
            for fn in (betweenness, closeness, eccentricity):
                plain, shared = fn(net), fn(net, dist=dist)
                assert np.array_equal(plain.values, shared.values), fn.__name__
                assert np.array_equal(plain.missing, shared.missing), fn.__name__
                assert plain.missing.sum() == n - max(n1, n2)
            plain = closeness(net, reciprocal=True)
            shared = closeness(net, reciprocal=True, dist=dist)
            assert np.array_equal(plain.values, shared.values)


class TestEigenvector:
    def test_complete_uniform(self):
        assert np.allclose(eigenvector_centrality(complete(4)).values, 0.25)

    def test_star_ratio_is_sqrt_degree(self):
        values = eigenvector_centrality(star(4)).values
        assert np.isclose(values[0] / values[1], 2.0, atol=1e-8)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n, edges = random_connected_graph(rng, 4, 8)
            net = net_from_edges(n, edges)
            a = np.zeros((n, n))
            for u, v in edges:
                a[u, v] = a[v, u] = 1.0
            eigvals, eigvecs = np.linalg.eigh(a)
            lead = np.abs(eigvecs[:, -1])
            lead /= lead.sum()
            assert np.allclose(eigenvector_centrality(net).values, lead, atol=1e-8)

    def test_non_convergence_reports_residual(self):
        from prosenet import ConvergenceError

        with pytest.raises(ConvergenceError) as err:
            eigenvector_centrality(star(4), tol=1e-30, max_iter=2)
        assert err.value.residual > 0


class TestPagerank:
    def test_cycle_fixed_point(self):
        values = pagerank(cycle(6), 0.85).values
        assert np.allclose(values, 1 / 0.15)

    def test_isolated_node_guard(self):
        net = net_from_edges(1, set())
        assert pagerank(net).values.tolist() == [1.0]

    def test_plug_back_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            pr = pagerank(net, 0.85).values
            a = np.zeros((n, n))
            for u, v in edges:
                a[u, v] = a[v, u] = 1.0
            k = np.maximum(a.sum(axis=1), 1.0)
            residual = np.abs(0.85 * a @ (pr / k) + 1.0 - pr).max()
            assert residual < 1e-12

    def test_small_alpha_tends_to_ones(self):
        net = cycle(5)
        assert np.allclose(pagerank(net, 1e-9).values, 1.0, atol=1e-8)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            pagerank(cycle(4), 1.5)


class TestModularity:
    def test_single_community_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            assert modularity(net, np.zeros(n)) == pytest.approx(0.0, abs=1e-15)

    def test_two_triangles_hand_value(self):
        # hand evaluation: M=7, each triangle has 3 internal edges and degree
        # sum 7, so Q = 2 * (3/7 - (7/14)^2) = 5/14
        net = two_triangles_bridged()
        labels = [0, 0, 0, 1, 1, 1]
        expected = oracle_modularity(6, set(net.edges()), labels)
        assert math.isclose(expected, 5 / 14, rel_tol=1e-12)
        assert math.isclose(modularity(net, np.array(labels)), 5 / 14, rel_tol=1e-12)

    def test_relabeling_invariance(self):
        net = two_triangles_bridged()
        q1 = modularity(net, np.array([0, 0, 0, 1, 1, 1]))
        q2 = modularity(net, np.array([7, 7, 7, 3, 3, 3]))
        assert q1 == q2

    def test_edgeless_rejected(self):
        with pytest.raises(ProsenetError):
            modularity(net_from_edges(3, set()), np.zeros(3))


class TestCommunities:
    def test_two_triangles_recovered(self):
        net = two_triangles_bridged()
        result = detect_communities(net)
        assert result.labels[0] == result.labels[1] == result.labels[2]
        assert result.labels[3] == result.labels[4] == result.labels[5]
        assert result.labels[0] != result.labels[3]

    def test_exhaustive_partition_search_confirms_optimum(self):
        from oracles import all_partitions

        net = two_triangles_bridged()
        best_q = max(
            oracle_modularity(6, set(net.edges()), labels)
            for labels in all_partitions(6)
        )
        assert detect_communities(net).q == pytest.approx(best_q, abs=1e-12)

    def test_complete_graph_single_community(self):
        result = detect_communities(complete(5))
        assert len(set(result.labels.tolist())) == 1
        assert result.q == pytest.approx(0.0, abs=1e-15)

    def test_reported_q_matches_recomputation(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            result = detect_communities(net)
            assert result.q == pytest.approx(modularity(net, result.labels), abs=1e-12)
            assert result.q >= -1e-15  # never below the single-community baseline

    def test_edgeless_graph(self):
        result = detect_communities(net_from_edges(3, set()))
        assert result.q == 0.0


class TestPermutationEquivariance:
    def test_all_measures(self):
        rng = np.random.default_rng(12)
        n, edges = random_connected_graph(rng, 6, 9)
        perm = rng.permutation(n)
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
        net1 = net_from_edges(n, edges)
        net2 = net_from_edges(n, mapped)
        for fn in (degree, clustering, betweenness, closeness, eccentricity,
                   eigenvector_centrality, pagerank):
            v1 = fn(net1).values
            v2 = fn(net2).values
            assert np.allclose(v1, v2[perm], atol=1e-8), fn.__name__
