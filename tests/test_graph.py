import json

import numpy as np
import pytest

from conftest import make_doc
from oracles import adjacency, net_from_edges, oracle_distances, random_connected_graph
from prosenet import ProsenetError
from prosenet.graph import (
    bfs_distances,
    build_network,
    component_labels,
    largest_component,
    network_to_json,
)


class TestBuildNetwork:
    def test_collapses_parallel_and_reversed_pairs(self):
        net = build_network(make_doc(["a", "b", "a", "c"]))
        assert net.node_labels == ["a", "b", "c"]
        assert net.edges() == [(0, 1), (0, 2)]

    def test_self_loops_dropped(self):
        net = build_network(make_doc(["a", "a", "a"]))
        assert net.node_count == 1
        assert net.edge_count == 0

    def test_too_short(self):
        with pytest.raises(ProsenetError):
            build_network(make_doc(["a"]))

    def test_edge_count_bounded_by_tokens(self):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}ax" for i in range(12)]
        for _ in range(60):
            n = int(rng.integers(2, 80))
            toks = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(n)]
            net = build_network(make_doc(toks))
            # one candidate pair per consecutive position
            assert net.edge_count <= n - 1

    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            assert net.degrees.sum() == 2 * net.edge_count

    def test_label_invariance(self):
        toks = ["a", "b", "c", "a", "b"]
        net1 = build_network(make_doc(toks, label="informative"))
        net2 = build_network(make_doc(toks, label="imaginative"))
        assert net1.edges() == net2.edges()
        assert net1.node_labels == net2.node_labels

    def test_window_two_adds_skip_pairs(self):
        net = build_network(make_doc(["a", "b", "c"]), window=2)
        assert net.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_frequency_and_stopword_flags(self):
        doc = make_doc(["the", "cat", "the"], stop_mask=[True, False, True])
        net = build_network(doc)
        assert net.node_frequency.tolist() == [2, 1]
        assert net.stopword_flag.tolist() == [True, False]


class TestComponents:
    def test_largest_of_two(self):
        # component {0,1,2} and component {3,4}
        net = net_from_edges(5, {(0, 1), (1, 2), (3, 4)})
        sub = largest_component(net)
        assert sub.node_count == 3
        assert sub.node_labels == ["n0", "n1", "n2"]

    def test_connected_identity(self):
        net = net_from_edges(4, {(0, 1), (1, 2), (2, 3)})
        assert largest_component(net) is net

    def test_sizes_partition_nodes(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(3, 14))
            edges = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.2
            }
            net = net_from_edges(n, edges)
            labels = component_labels(net)
            # union-find style recount
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in edges:
                parent[find(u)] = find(v)
            groups = {}
            for i in range(n):
                groups.setdefault(find(i), set()).add(i)
            expected = {frozenset(g) for g in groups.values()}
            got = {frozenset(np.flatnonzero(labels == c)) for c in set(labels.tolist())}
            assert got == expected

    def test_preserves_adjacency_exactly(self):
        net = net_from_edges(6, {(0, 2), (2, 4), (0, 4), (1, 3)})
        sub = largest_component(net)
        kept = {sub.node_labels[u]: u for u in range(sub.node_count)}
        assert set(sub.edges()) == {
            (kept["n0"], kept["n2"]),
            (kept["n0"], kept["n4"]),
            (kept["n2"], kept["n4"]),
        }


class TestDistances:
    def test_path(self):
        net = build_network(make_doc(["a", "b", "c"]))
        dist = bfs_distances(net, np.arange(net.node_count))
        assert dist[0, 2] == 2

    def test_complete(self):
        net = net_from_edges(4, {(i, j) for i in range(4) for j in range(i + 1, 4)})
        dist = bfs_distances(net, np.arange(4))
        off = dist[~np.eye(4, dtype=bool)]
        assert (off == 1).all()

    def test_matches_path_enumeration_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n, edges = random_connected_graph(rng, 4, 9)
            net = net_from_edges(n, edges)
            expected = oracle_distances(adjacency(n, edges), n)
            got = bfs_distances(net, np.arange(n))
            assert (got == expected).all()

    def test_bfs_unreachable_marked(self):
        net = net_from_edges(4, {(0, 1), (2, 3)})
        dist = bfs_distances(net, np.array([0]))
        assert dist[0].tolist() == [0, 1, -1, -1]


class TestExport:
    def test_json_roundtrip_fields(self):
        doc = make_doc(["the", "cat", "the"], stop_mask=[True, False, True])
        payload = json.loads(network_to_json(build_network(doc)))
        assert payload["edges"] == [[0, 1]]
        assert payload["nodes"][0] == {
            "frequency": 2, "id": 0, "label": "the", "stopword": True,
        }
