"""Property tests of the numpy network kernels against the scipy kernels and
the re-pushing community search they replaced (``oracles``).

Graphs come from ``conftest.networks``: edge lists with isolated nodes,
disconnected parts and hubs, and token networks. Distances, geodesic counts,
betweenness, clustering, the iterative centralities, component labels and
communities must be identical, and so must the distances and betweenness
of the blocked geodesic pass for every block size, which ``row_blocks`` cuts
greedily within the budget, and the backbone symmetry of the one
concentric-walk kernel and of the walk over the BFS's geodesic levels that it
replaced, for any budget; ``Ag`` from the truncated Taylor series of exp(P)
instead of ``scipy.linalg.expm``, within 1e-12 relative at every node and
within 1e-13 relative at given rows (the normalized rows within 1e-14
absolute).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import geodesic, networks, zipf_doc
from oracles import (
    levels_backbone_symmetry,
    net_from_edges,
    oracle_ag,
    repush_detect_communities,
    scipy_betweenness,
    scipy_bfs_distances,
    scipy_clustering,
    scipy_component_labels,
    scipy_eigenvector_centrality,
    scipy_pagerank,
    scipy_transition_matrix,
)
from prosenet import graph
from prosenet.graph import (
    bfs_distances,
    build_network,
    component_labels,
    geodesic_row_bytes,
    row_blocks,
)
from prosenet.metrics import (
    betweenness,
    clustering,
    detect_communities,
    eigenvector_centrality,
    pagerank,
)
from prosenet.walks import (
    backbone_symmetry_batch,
    expm,
    generalized_accessibility,
    merged_row_bytes,
)

PROPERTY = settings(max_examples=80, deadline=None)


def same_measure(got, want):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.missing, want.missing)


def blocked_pass(net):
    """The distance rows ``betweenness`` returns block by block, stacked,
    and ``B`` of the geodesic pass."""
    n = net.node_count
    total = np.zeros(n)
    dist = np.vstack([betweenness(net, np.arange(part.start, part.stop), total)
                      for part in row_blocks(np.full(n, geodesic_row_bytes(net)))])
    return dist, geodesic(net)["B"]


@PROPERTY
@given(networks, st.data())
def test_bfs_levels_are_every_geodesic_edge_in_order(net, data):
    n = net.node_count
    sources = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    levels = []
    dist = bfs_distances(net, sources, levels)
    assert np.array_equal(dist, scipy_bfs_distances(net, sources))

    want = [(s * n + v, s * n + int(w))
            for s in range(len(sources)) for v in range(n) if dist[s, v] >= 0
            for w in net.neighbors(v) if dist[s, w] == dist[s, v] + 1]
    got = [(int(t), int(h)) for lev in levels for t, h in zip(lev.tails, lev.heads)]
    assert sorted(got) == sorted(want)
    for depth, lev in enumerate(levels, start=1):
        assert np.all(dist.ravel()[lev.heads] == depth)
        keys = lev.tails * (len(sources) * n) + lev.heads
        assert np.all(np.diff(keys) > 0)  # (s, v, w) order


@PROPERTY
@given(networks, st.data())
def test_geodesic_pass_is_the_same_for_every_block_size(net, data):
    n = net.node_count
    rows = data.draw(st.integers(1, n))

    def blocked(per_block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "BLOCK_BYTES", per_block * geodesic_row_bytes(net))
            assert next(row_blocks(np.full(n, geodesic_row_bytes(net)))) == slice(0, per_block)
            return blocked_pass(net)

    dist, b = blocked(rows)
    whole_dist, whole_b = blocked(n)
    assert np.array_equal(whole_dist, scipy_bfs_distances(net, np.arange(n)))
    same_measure(whole_b, scipy_betweenness(net))
    assert np.array_equal(dist, whole_dist)
    same_measure(b, whole_b)


@PROPERTY
@given(st.lists(st.integers(0, 100), max_size=30), st.integers(0, 300))
def test_row_blocks_are_consecutive_greedy_and_within_budget(row_bytes, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "BLOCK_BYTES", budget)
        blocks = list(row_blocks(np.array(row_bytes, dtype=np.int64)))
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(len(row_bytes)))
    for b in blocks:
        size = sum(row_bytes[b])
        assert size <= budget or b.stop - b.start == 1  # a row over the budget is alone
        if b.stop < len(row_bytes):  # the next row would not have fit
            assert size + row_bytes[b.stop] > budget


@pytest.mark.parametrize("per_block", [1, 3, 7])
def test_blocks_add_betweenness_in_source_order(per_block):
    # at about 50 nodes, adding a block's rows in another order changes B's
    # last bits; the hypothesis networks are too small to show it
    net = build_network(zipf_doc(60))
    n = net.node_count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "BLOCK_BYTES", per_block * geodesic_row_bytes(net))
        dist, b = blocked_pass(net)
    same_measure(b, scipy_betweenness(net))
    assert np.array_equal(dist, scipy_bfs_distances(net, np.arange(n)))


@PROPERTY
@given(networks)
def test_component_labels_match_csgraph(net):
    assert np.array_equal(component_labels(net), scipy_component_labels(net))


@PROPERTY
@given(networks)
def test_betweenness_matches_level_synchronous_brandes(net):
    same_measure(geodesic(net)["B"], scipy_betweenness(net))


@PROPERTY
@given(networks)
def test_clustering_and_centralities_match_sparse_products(net):
    same_measure(clustering(net), scipy_clustering(net))
    with pytest.MonkeyPatch.context() as patch:  # one CSR entry per block
        patch.setattr(graph, "BLOCK_BYTES", 0)
        same_measure(clustering(net), scipy_clustering(net))
    same_measure(eigenvector_centrality(net), scipy_eigenvector_centrality(net))
    for alpha in (0.5, 0.85):
        same_measure(pagerank(net, alpha), scipy_pagerank(net, alpha))


# the 4-cycle: merging (0, 1) leaves (0, 3) a stale key equal to the fresh
# key of (2, 3); (0, 3) pops first and must be re-pushed at its lower gain
@example(net_from_edges(4, {(0, 1), (1, 2), (2, 3), (0, 3)}))
@PROPERTY
@given(networks)
def test_communities_match_the_repushing_search(net):
    got, want = detect_communities(net), repush_detect_communities(net)
    assert np.array_equal(got.labels, want.labels)
    assert got.q == want.q


@PROPERTY
@given(networks)
def test_ag_within_1e12_of_scipy_expm(net):
    oracle = scipy_transition_matrix(net)
    for exclude_self in (False, True):
        got = generalized_accessibility(net, np.arange(net.node_count), exclude_self)
        want = oracle_ag(oracle, exclude_self)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@PROPERTY
@given(networks, st.data())
def test_ag_rows_by_taylor_within_1e13_of_scipy_expm(net, data):
    n = net.node_count
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    oracle = scipy_transition_matrix(net)
    mixture = expm(net, rows)
    mixture /= mixture.sum(axis=1)[:, None]
    assert np.all(np.abs(mixture - oracle.walk_mixture[rows]) <= 1e-14)
    for exclude_self in (False, True):
        got = generalized_accessibility(net, rows, exclude_self)
        want = oracle_ag(oracle, exclude_self)[rows]
        assert got.shape == rows.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@PROPERTY
@given(networks, st.data())
def test_backbone_equals_the_walk_over_geodesic_levels(net, data):
    n = net.node_count
    everyone = np.arange(n)
    subset = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    h_values = (1, 2, 3, 5)
    # from one source per block (0) to every source in one block
    budget = data.draw(st.integers(0, n * merged_row_bytes(net)))
    dist = bfs_distances(net, everyone)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "BLOCK_BYTES", budget)
        every = backbone_symmetry_batch(net, everyone, h_values, dist)
        part = backbone_symmetry_batch(net, subset, h_values, dist[subset])
    assert np.array_equal(every, levels_backbone_symmetry(net, everyone, h_values))
    assert np.array_equal(part, levels_backbone_symmetry(net, subset, h_values))
