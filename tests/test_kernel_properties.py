"""Property tests of the numpy network kernels against the scipy kernels and
the re-pushing community search they replaced (``oracles``).

Graphs come from ``conftest.networks``: edge lists with isolated nodes,
disconnected parts and hubs, and token networks. Distances, geodesic counts,
betweenness, clustering, the iterative centralities, component labels and
communities must be identical; ``Ag``, now from a symmetric
eigendecomposition instead of ``scipy.linalg.expm``, within 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import networks
from oracles import (
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
from prosenet.graph import bfs_distances, component_labels, geodesic_rows
from prosenet.metrics import (
    betweenness,
    clustering,
    detect_communities,
    eigenvector_centrality,
    pagerank,
)
from prosenet.walks import backbone_symmetry_batch, generalized_accessibility

PROPERTY = settings(max_examples=80, deadline=None)


def same_measure(got, want):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.missing, want.missing)


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
@given(networks, st.sampled_from([1, 2, 5]))
def test_bfs_sliced_expansion_changes_nothing(net, block):
    everyone = np.arange(net.node_count)
    whole = []
    dist = bfs_distances(net, everyone, whole)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "EXPAND_BLOCK", block)
        sliced = []
        assert np.array_equal(bfs_distances(net, everyone, sliced), dist)
    assert len(sliced) == len(whole)
    for got, want in zip(sliced, whole):
        assert np.array_equal(got.tails, want.tails)
        assert np.array_equal(got.heads, want.heads)


@PROPERTY
@given(networks)
def test_component_labels_match_csgraph(net):
    assert np.array_equal(component_labels(net), scipy_component_labels(net))


@PROPERTY
@given(networks)
def test_betweenness_matches_level_synchronous_brandes(net):
    want = scipy_betweenness(net)
    same_measure(betweenness(net), want)
    levels = []
    bfs_distances(net, np.arange(net.node_count), levels)
    same_measure(betweenness(net, levels=levels), want)


@PROPERTY
@given(networks)
def test_clustering_and_centralities_match_sparse_products(net):
    same_measure(clustering(net), scipy_clustering(net))
    same_measure(eigenvector_centrality(net), scipy_eigenvector_centrality(net))
    for alpha in (0.5, 0.85):
        same_measure(pagerank(net, alpha), scipy_pagerank(net, alpha))


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
        got = generalized_accessibility(net, exclude_self).values
        want = generalized_accessibility(net, exclude_self, tm=oracle).values
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@PROPERTY
@given(networks, st.data())
def test_backbone_from_an_all_node_pass_equals_its_own_pass(net, data):
    n = net.node_count
    sources = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    h_values = (1, 2, 3, 5)
    levels = []
    dist = bfs_distances(net, np.arange(n), levels)
    shared = backbone_symmetry_batch(net, sources, h_values, dist=dist[sources],
                                     levels=geodesic_rows(levels, n, sources))
    assert np.array_equal(shared, backbone_symmetry_batch(net, sources, h_values))
