import math

import numpy as np
import pytest

from conftest import make_doc, zipf_doc
from oracles import (
    accessibility,
    adjacency,
    backbone_transform,
    concentric_levels,
    merged_transform,
    net_from_edges,
    oracle_accessibility,
    oracle_monte_carlo_saw,
    oracle_rings,
    oracle_saw,
    oracle_symmetry,
    oracle_taylor_expm,
    random_connected_graph,
    saw_distribution,
    symmetry,
    transition_probabilities,
)
from prosenet.graph import build_network
from prosenet.walks import (
    accessibility_batch,
    backbone_symmetry_batch,
    expm,
    generalized_accessibility,
    merged_symmetry_batch,
)


def star(leaves):
    return net_from_edges(leaves + 1, {(0, i) for i in range(1, leaves + 1)})


def cycle(n):
    return net_from_edges(n, {(i, (i + 1) % n) for i in range(n)})


def path(n):
    return net_from_edges(n, {(i, i + 1) for i in range(n - 1)})


class TestConcentricLevels:
    def test_star_center(self):
        levels = concentric_levels(star(4), 0, 1)
        assert levels.rings[1].tolist() == [1, 2, 3, 4]
        assert levels.dead_end_counts == [0, 4]

    def test_path_from_end(self):
        levels = concentric_levels(path(4), 0, 3)
        assert [r.tolist() for r in levels.rings] == [[0], [1], [2], [3]]
        assert levels.dead_end_counts == [0, 0, 0, 1]

    def test_rings_match_bfs_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            adj = adjacency(n, edges)
            for src in range(n):
                expected = oracle_rings(adj, n, src)
                levels = concentric_levels(net, src, 4)
                for r, ring in enumerate(levels.rings):
                    assert set(ring.tolist()) == expected.get(r, set())


class TestSawDistribution:
    def test_star_center_one_step(self):
        dist = saw_distribution(star(5), 0, 1)
        assert dist.probs == {i: pytest.approx(1 / 5) for i in range(1, 6)}
        assert dist.dead_end_mass == 0.0

    def test_star_leaf_two_steps(self):
        dist = saw_distribution(star(5), 1, 2)
        assert dist.probs == {i: pytest.approx(1 / 4) for i in range(2, 6)}

    def test_cycle_two_steps(self):
        dist = saw_distribution(cycle(6), 0, 2)
        assert dist.probs == {2: pytest.approx(0.5), 4: pytest.approx(0.5)}

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            saw_distribution(cycle(6), 0, 5)

    def test_exact_against_fraction_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            n, edges = random_connected_graph(rng, 4, 10)
            net = net_from_edges(n, edges)
            adj = adjacency(n, edges)
            src = int(rng.integers(0, n))
            for h in (1, 2, 3):
                got = saw_distribution(net, src, h)
                probs, dead = oracle_saw(adj, src, h)
                assert got.dead_end_mass == pytest.approx(float(dead), abs=1e-12)
                assert set(got.probs) == set(probs)
                for node, p in probs.items():
                    assert got.probs[node] == pytest.approx(float(p), abs=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            for h in (2, 3, 4):
                dist = saw_distribution(net, int(rng.integers(0, n)), h)
                assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_cross_check(self):
        # one fixed awkward graph: star with a triangle hung off one leaf
        edges = {(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (4, 5)}
        net = net_from_edges(6, edges)
        adj = adjacency(6, edges)
        rng = np.random.default_rng(63)
        exact = saw_distribution(net, 0, 2)
        sampled, dead_rate = oracle_monte_carlo_saw(adj, 0, 2, 1_000_000, rng)
        for node, p in exact.probs.items():
            assert sampled.get(node, 0.0) == pytest.approx(p, abs=1.5e-3)
        assert dead_rate == pytest.approx(exact.dead_end_mass, abs=1.5e-3)


class TestAccessibility:
    def test_star_center(self):
        assert accessibility(star(5), 0, 1) == pytest.approx(5.0)

    def test_star_leaf_level_two(self):
        assert accessibility(star(5), 1, 2) == pytest.approx(4.0)

    def test_cycle_level_two(self):
        assert accessibility(cycle(6), 0, 2) == pytest.approx(2.0)

    def test_zero_when_level_unreached(self):
        # triangle: every 2-step walk ends on a ring-1 node
        assert accessibility(net_from_edges(3, {(0, 1), (0, 2), (1, 2)}), 0, 2) == 0.0

    def test_uneven_access_below_ring_size(self):
        rng = np.random.default_rng(64)
        checked = 0
        for _ in range(40):
            n, edges = random_connected_graph(rng, 5, 10)
            net = net_from_edges(n, edges)
            adj = adjacency(n, edges)
            for src in range(n):
                for h in (2, 3):
                    rings = oracle_rings(adj, n, src)
                    ring_h = rings.get(h, set())
                    if not ring_h:
                        continue
                    a = accessibility(net, src, h)
                    expected = oracle_accessibility(adj, n, src, h)
                    assert a == pytest.approx(expected, abs=1e-10)
                    probs, _ = oracle_saw(adj, src, h)
                    ring_mass = {v: p for v, p in probs.items() if v in ring_h}
                    uniform = (
                        len(ring_mass) == len(ring_h)
                        and len({p for p in ring_mass.values()}) == 1
                        and math.isclose(float(sum(ring_mass.values())), 1.0)
                    )
                    if uniform:
                        assert a == pytest.approx(len(ring_h))
                    elif sum(ring_mass.values()) == 1:  # full mass, uneven split
                        assert a < len(ring_h)
                        checked += 1
        assert checked > 10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(65)
        n, edges = random_connected_graph(rng, 6, 10)
        net = net_from_edges(n, edges)
        batch = accessibility_batch(net, np.arange(n), (2, 3))
        for src in range(n):
            assert batch[src, 0] == pytest.approx(accessibility(net, src, 2), abs=1e-12)
            assert batch[src, 1] == pytest.approx(accessibility(net, src, 3), abs=1e-12)


class TestTransitionMatrix:
    """Rows of exp(P) from ``expm``."""

    def test_single_edge_analytic(self):
        w = expm(net_from_edges(2, {(0, 1)}), np.arange(2))
        assert w[0, 0] == pytest.approx(math.cosh(1), abs=1e-12)
        assert w[0, 1] == pytest.approx(math.sinh(1), abs=1e-12)

    def test_identity_on_zero_matrix(self):
        assert np.array_equal(expm(net_from_edges(4, set()), np.arange(4)), np.eye(4))

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(66)
        for _ in range(15):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            expected = oracle_taylor_expm(transition_probabilities(net), terms=60)
            assert np.allclose(expm(net, np.arange(n)), expected, atol=1e-10)

    def test_row_sums_equal_e(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            n, edges = random_connected_graph(rng)
            rows = expm(net_from_edges(n, edges), np.arange(n))
            assert np.abs(rows.sum(axis=1) - math.e).max() < 1e-10


class TestGeneralizedAccessibility:
    def test_complete_graph_vertex_transitive(self):
        net = net_from_edges(5, {(i, j) for i in range(5) for j in range(i + 1, 5)})
        values = generalized_accessibility(net).values
        assert np.allclose(values, values[0])

    def test_single_edge_hand_value(self):
        row = np.array([math.cosh(1), math.sinh(1)]) / math.e
        expected = math.exp(-(row * np.log(row)).sum())
        values = generalized_accessibility(net_from_edges(2, {(0, 1)})).values
        assert np.allclose(values, expected, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(68)
        n, edges = random_connected_graph(rng, 5, 9)
        perm = rng.permutation(n)
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
        v1 = generalized_accessibility(net_from_edges(n, edges)).values
        v2 = generalized_accessibility(net_from_edges(n, mapped)).values
        assert np.allclose(v1, v2[perm], atol=1e-12)

    def test_exclude_self_flag(self):
        net = net_from_edges(2, {(0, 1)})
        values = generalized_accessibility(net, exclude_self=True).values
        assert np.allclose(values, 1.0)  # all off-diagonal mass on one node


class TestTransforms:
    def test_triangle_backbone_removes_intra_edge(self):
        net = net_from_edges(3, {(0, 1), (0, 2), (1, 2)})
        pat = backbone_transform(net, 0, 1)
        edges = {(min(u, int(v)), max(u, int(v)))
                 for u in range(pat.node_count) for v in pat.neighbors(u)}
        assert edges == {(0, 1), (0, 2)}

    def test_triangle_merged_collapses_level(self):
        net = net_from_edges(3, {(0, 1), (0, 2), (1, 2)})
        pat = merged_transform(net, 0, 1)
        assert pat.node_count == 2
        assert sorted(pat.members[1].tolist()) == [1, 2]

    def test_tree_identity_both(self):
        rng = np.random.default_rng(69)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
            net = net_from_edges(n, edges)
            for variant, fn in (("backbone", backbone_transform), ("merged", merged_transform)):
                pat = fn(net, 0, 4)
                reachable = sum(len(r) for r in pat.rings)
                assert pat.node_count == reachable
                pat_edges = {
                    (min(u, int(v)), max(u, int(v)))
                    for u in range(pat.node_count) for v in pat.neighbors(u)
                }
                assert len(pat_edges) <= len(edges)
                assert all(len(m) == 1 for m in pat.members), variant

    def test_backbone_removes_all_intra_level_edges(self):
        rng = np.random.default_rng(70)
        for _ in range(15):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            src = int(rng.integers(0, n))
            pat = backbone_transform(net, src, 3)
            ring_of = {}
            for r, ring in enumerate(pat.rings):
                for p in ring:
                    ring_of[int(p)] = r
            for u in range(pat.node_count):
                for v in pat.neighbors(u):
                    assert abs(ring_of[u] - ring_of[int(v)]) == 1

    def test_merged_level_sizes_count_components(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            adj = adjacency(n, edges)
            src = int(rng.integers(0, n))
            pat = merged_transform(net, src, 3)
            rings = oracle_rings(adj, n, src)
            for r, ring in enumerate(pat.rings):
                members = rings.get(r, set())
                # count intra-ring components by DFS
                pending = set(members)
                comps = 0
                while pending:
                    comps += 1
                    stack = [min(pending)]
                    pending.discard(stack[0])
                    while stack:
                        u = stack.pop()
                        for v in adj[u]:
                            if v in pending and v in members:
                                pending.discard(v)
                                stack.append(v)
                assert len(ring) == comps


class TestSymmetry:
    def test_cycle_is_perfectly_symmetric(self):
        net = cycle(6)
        assert symmetry(net, 0, 2, "backbone") == pytest.approx(1.0)
        assert symmetry(net, 0, 2, "merged") == pytest.approx(1.0)
        assert symmetry(net, 0, 3, "backbone") == pytest.approx(1.0)

    def test_star_center_level_two_is_zero(self):
        assert symmetry(star(5), 0, 2, "backbone") == 0.0
        assert symmetry(star(5), 0, 2, "merged") == 0.0

    def test_complete_graph_level_one(self):
        net = net_from_edges(4, {(i, j) for i in range(4) for j in range(i + 1, 4)})
        assert symmetry(net, 0, 1, "backbone") == pytest.approx(1.0)
        assert symmetry(net, 0, 1, "merged") == pytest.approx(1.0)

    def test_bounded_and_matches_fraction_oracle(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            n, edges = random_connected_graph(rng, 4, 12)
            net = net_from_edges(n, edges)
            adj = adjacency(n, edges)
            for src in range(n):
                for h in (2, 3):
                    for variant in ("backbone", "merged"):
                        s = symmetry(net, src, h, variant)
                        assert 0.0 <= s <= 1.0 + 1e-12
                        expected = oracle_symmetry(adj, n, src, h, variant)
                        assert s == pytest.approx(expected, abs=1e-10), (variant, h)

    def test_variants_coincide_on_trees(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            n = int(rng.integers(4, 11))
            edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
            net = net_from_edges(n, edges)
            for src in range(n):
                for h in (2, 3):
                    assert symmetry(net, src, h, "backbone") == pytest.approx(
                        symmetry(net, src, h, "merged"), abs=1e-12
                    )

    def test_batches_match_per_source(self):
        rng = np.random.default_rng(74)
        for _ in range(10):
            n, edges = random_connected_graph(rng)
            net = net_from_edges(n, edges)
            sources = np.arange(n)
            sb = backbone_symmetry_batch(net, sources, (2, 3, 4))
            sm = merged_symmetry_batch(net, sources, (2, 3, 4))
            for i in range(n):
                for col, h in enumerate((2, 3, 4)):
                    assert sb[i, col] == pytest.approx(
                        symmetry(net, i, h, "backbone"), abs=1e-12
                    )
                    assert sm[i, col] == pytest.approx(
                        symmetry(net, i, h, "merged"), abs=1e-12
                    )

    @pytest.mark.parametrize("batch", [backbone_symmetry_batch, merged_symmetry_batch])
    def test_a_repeated_depth_fills_both_columns(self, batch):
        net = build_network(zipf_doc(300))
        sources = np.arange(net.node_count)
        got = batch(net, sources, (2, 2))
        once = batch(net, sources, (2,))
        assert np.array_equal(got[:, 1], got[:, 0])
        assert np.array_equal(got[:, :1], once)
        assert got[:, 0].any()

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            symmetry(cycle(4), 0, 2, "angular")
