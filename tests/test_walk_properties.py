"""Property tests of the batch walk kernels on adversarial graphs.

Graphs come from ``conftest.networks``: an edge list (disconnected parts,
isolated nodes and a hub joined to many nodes) or a token sequence read with
a window of 1 to 3. Every batch kernel matches its per-source reference,
and a kernel's rows for any subset of sources, blocked by any budget, are
exactly the rows of an all-node call, which is what lets a cache entry
gather walk values node by node; so are the Taylor rows of ``Ag``. The SAW
enumerator matches its earlier
form, which also tracked the dead-end mass, and the non-backtracking walk
counts behind its byte bound match a brute-force count and are at least the
SAW prefix counts (equal up to two steps). Merged symmetry's ring entropies,
summed a group of equal-length rows at a time, equal the per-row sums bit
for bit, and the entropy rows that take logs only of the cells with mass
equal the rows that take the log of every cell.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import networks
from oracles import (
    accessibility,
    oracle_nonbacktracking_counts,
    oracle_saw_prefix_counts,
    ring_exp_entropies_per_row,
    saw_levels,
    symmetry,
    where_exp_entropy_rows,
)
from prosenet import graph, walks
from prosenet.graph import bfs_distances
from prosenet.walks import (
    _exp_entropy_rows,
    _ring_exp_entropies,
    _saw_levels,
    accessibility_batch,
    backbone_symmetry_batch,
    generalized_accessibility,
    merged_row_bytes,
    merged_symmetry_batch,
    nonbacktracking_walks,
    saw_row_bytes,
    taylor_row_bytes,
)

H_ACCESS = (1, 2, 3, 4)
H_SYMMETRY = (1, 2, 3, 5)
PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(networks)
def test_batches_match_per_source_references(net):
    sources = np.arange(net.node_count)
    dist = bfs_distances(net, sources)
    acc = accessibility_batch(net, sources, H_ACCESS, dist)
    sb = backbone_symmetry_batch(net, sources, H_SYMMETRY, dist)
    sm = merged_symmetry_batch(net, sources, H_SYMMETRY, dist)
    for s in sources:
        for col, h in enumerate(H_ACCESS):
            assert acc[s, col] == pytest.approx(accessibility(net, int(s), h), abs=1e-12)
        for col, h in enumerate(H_SYMMETRY):
            assert sb[s, col] == pytest.approx(symmetry(net, int(s), h, "backbone"), abs=1e-12)
            assert sm[s, col] == pytest.approx(symmetry(net, int(s), h, "merged"), abs=1e-12)


@PROPERTY
@given(networks, st.data())
def test_subset_rows_equal_all_node_rows(net, data):
    n = net.node_count
    everyone = np.arange(n)
    dist_all = bfs_distances(net, everyone)
    subset = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    # from one row per block (0) to every row in one block
    widest = max(saw_row_bytes(net, everyone, max(H_ACCESS)).max(), merged_row_bytes(net))
    budget = data.draw(st.integers(0, n * int(widest)))
    dist = bfs_distances(net, subset)

    full_acc = accessibility_batch(net, everyone, H_ACCESS, dist_all)
    full_sm = merged_symmetry_batch(net, everyone, H_SYMMETRY, dist_all)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "BLOCK_BYTES", budget)
        part_acc = accessibility_batch(net, subset, H_ACCESS, dist)
        part_sm = merged_symmetry_batch(net, subset, H_SYMMETRY, dist)
    assert np.array_equal(part_acc, full_acc[subset])
    assert np.array_equal(part_sm, full_sm[subset])

    full = backbone_symmetry_batch(net, everyone, H_SYMMETRY, dist_all)
    part = backbone_symmetry_batch(net, subset, H_SYMMETRY, dist)
    assert np.array_equal(part, full[subset])


@PROPERTY
@given(networks, st.data())
def test_ag_rows_do_not_depend_on_the_rows_sharing_their_block(net, data):
    n = net.node_count
    subset = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    # from one row per block (0) to every row in one block
    budget = data.draw(st.integers(0, n * taylor_row_bytes(net)))
    for exclude_self in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "BLOCK_BYTES", n * taylor_row_bytes(net))
            full = generalized_accessibility(net, np.arange(n), exclude_self)
            patch.setattr(graph, "BLOCK_BYTES", budget)
            part = generalized_accessibility(net, subset, exclude_self)
        assert np.array_equal(part, full[subset])


@PROPERTY
@given(networks)
def test_saw_levels_equal_the_enumerator_with_dead_mass(net):
    sources = np.arange(net.node_count)
    want, _ = saw_levels(net, sources, max(H_ACCESS))
    got = _saw_levels(net, sources, max(H_ACCESS))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@PROPERTY
@given(networks)
def test_nonbacktracking_walks_bound_the_saw_prefixes(net):
    h_max = max(H_ACCESS)
    nb = nonbacktracking_walks(net, h_max)
    adj = {v: [int(w) for w in net.neighbors(v)] for v in range(net.node_count)}
    for s in range(net.node_count):
        assert list(nb[:, s]) == oracle_nonbacktracking_counts(adj, s, h_max)
        saw = oracle_saw_prefix_counts(adj, s, h_max)
        assert list(nb[:3, s]) == saw[:3]
        assert np.all(nb[:, s] >= saw)


@PROPERTY
@given(networks)
def test_merged_symmetry_equals_its_per_row_ring_entropies(net):
    sources = np.arange(net.node_count)
    h_values = (1, 2, 3, 4, 5)
    dist = bfs_distances(net, sources)
    grouped = merged_symmetry_batch(net, sources, h_values, dist)
    with mock.patch.object(walks, "_ring_exp_entropies", ring_exp_entropies_per_row):
        per_row = merged_symmetry_batch(net, sources, h_values, dist)
    assert np.array_equal(grouped, per_row)


@PROPERTY
@given(st.integers(0, 40), st.integers(1, 700), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_grouped_ring_entropies_equal_the_per_row_sums(n_rows, width, density, seed):
    # wide rows reach numpy's unrolled and blocked pairwise summation
    rng = np.random.default_rng(seed)
    rows = rng.random((n_rows, width)) * (rng.random((n_rows, width)) < density)
    rows /= np.maximum(rows.sum(axis=1, keepdims=True), 1.0)
    assert np.array_equal(_ring_exp_entropies(rows), ring_exp_entropies_per_row(rows))


@PROPERTY
@given(st.integers(0, 40), st.integers(1, 700), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
       st.booleans())
def test_exp_entropy_rows_equal_the_log_of_every_cell(n_rows, width, density, seed, normalized):
    rng = np.random.default_rng(seed)
    rows = rng.random((n_rows, width)) * (rng.random((n_rows, width)) < density)
    if normalized:
        rows /= np.maximum(rows.sum(axis=1, keepdims=True), 1.0)
    assert np.array_equal(_exp_entropy_rows(rows), where_exp_entropy_rows(rows))
