"""Property tests of the batch walk kernels on adversarial graphs.

Graphs come from ``conftest.networks``: an edge list (disconnected parts,
isolated nodes and a hub joined to many nodes) or a token sequence read with
a window of 1 to 3. Two properties: every batch kernel matches its
per-source reference, and a kernel's rows for any subset of sources are
exactly the rows of an all-node call, which is what lets a cache entry
gather walk values node by node.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import networks
from oracles import accessibility, symmetry
from prosenet.graph import bfs_distances
from prosenet.walks import accessibility_batch, backbone_symmetry_batch, merged_symmetry_batch

H_ACCESS = (1, 2, 3, 4)
H_SYMMETRY = (1, 2, 3, 5)
PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(networks)
def test_batches_match_per_source_references(net):
    sources = np.arange(net.node_count)
    acc = accessibility_batch(net, sources, H_ACCESS)
    sb = backbone_symmetry_batch(net, sources, H_SYMMETRY)
    sm = merged_symmetry_batch(net, sources, H_SYMMETRY)
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
    chunk = data.draw(st.sampled_from([1, 2, 3, 64]))
    dist = bfs_distances(net, subset)

    full = accessibility_batch(net, everyone, H_ACCESS, dist_block=dist_all)
    part = accessibility_batch(net, subset, H_ACCESS, chunk=chunk, dist_block=dist)
    assert np.array_equal(part, full[subset])

    full = backbone_symmetry_batch(net, everyone, H_SYMMETRY, dist=dist_all)
    part = backbone_symmetry_batch(net, subset, H_SYMMETRY, dist=dist)
    assert np.array_equal(part, full[subset])

    full = merged_symmetry_batch(net, everyone, H_SYMMETRY, dist=dist_all)
    part = merged_symmetry_batch(net, subset, H_SYMMETRY, dist=dist, chunk=chunk)
    assert np.array_equal(part, full[subset])
