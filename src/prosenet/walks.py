"""Walk-based measurements: self-avoiding-walk accessibility, the
matrix-exponential walk mixture, and concentric symmetry.

Self-avoiding walks are enumerated exactly: the set of alive walk prefixes is
kept in flat arrays (endpoint, probability, short visited history) and grown
one step at a time, so the whole frontier advances with a handful of numpy
operations per level. Depth is capped at 4, which also bounds the history to
three columns; sources go in blocks sized by a per-source byte bound.

Concentric symmetry is evaluated on the backbone/merged pattern with the
concentric walk: at each step the walker moves uniformly among the pattern
neighbors one level further out, and pattern nodes without outward edges
absorb their mass as dead ends. Both patterns are layered (their only edges
join consecutive levels), so outward trajectories never revisit a node and
the walk is self-avoiding by construction. One kernel serves both from the
sources' distance rows: the backbone keeps the edges one hop outward inside
the ball, and the merged pattern contracts each ring-internal connected
group into one node and keeps each outward super-edge once.
"""

from __future__ import annotations

import numpy as np

from .graph import WordNetwork, bfs_distances, min_labels, row_blocks, unique_codes
from .metrics import NodeMeasures

DEFAULT_DEPTH_CAP = 4


def _saw_levels(net: WordNetwork, sources: np.ndarray, h_max: int) -> list[np.ndarray]:
    """Exact SAW position distributions: levels[t-1][s, v] is the probability
    that the walker from sources[s] stands on v after t steps."""
    n_src, n = len(sources), net.node_count
    indptr, indices, degrees = net.indptr, net.indices, net.degrees
    src_idx = np.arange(n_src, dtype=np.int64)
    cur = sources.astype(np.int64)
    prob = np.ones(n_src, dtype=np.float64)
    hist: list[np.ndarray] = []  # each prefix's nodes before its end, the source first
    levels = []
    for _ in range(h_max):
        deg = degrees[cur]
        path_id = np.repeat(np.arange(len(cur), dtype=np.int64), deg)
        nbr = indices[np.arange(len(path_id)) + np.repeat(indptr[cur] - np.cumsum(deg) + deg, deg)]
        mask = np.ones(len(nbr), dtype=bool)  # no self-loops: no end is its own neighbour
        for col in hist:
            mask &= nbr != col[path_id]
        sel = path_id[mask]
        del path_id  # the candidate arrays go before the next level is built
        prob = prob[sel] / np.bincount(sel, minlength=len(cur))[sel]
        hist = [col[sel] for col in hist] + [cur[sel]]
        src_idx = src_idx[sel]
        cur = nbr[mask].astype(np.int64)
        del nbr, mask
        flat = np.bincount(src_idx * n + cur, weights=prob, minlength=n_src * n)
        levels.append(flat.reshape(n_src, n))
    return levels


PREFIX_BYTES = 96  # bytes ``_saw_levels`` holds per candidate step, with headroom
ENTROPY_CELL_BYTES = 24  # ``_exp_entropy_rows``: a mask, a float64 temporary, headroom


def nonbacktracking_walks(net: WordNetwork, h_max: int) -> np.ndarray:
    """NB[t, s]: non-backtracking walks of t = 0..h_max steps from s, at least
    the self-avoiding ones (as many up to t = 2). Per CSR entry v -> w, g_1 = 1
    and g_t(v -> w) = sum of g_{t-1}(w -> x) over x in N(w) - g_{t-1}(w -> v);
    NB_t(s) sums g_t out of s. CSR rows are sorted: one sort finds reverses."""
    heads, tails = net.heads(), net.indices
    reverse = np.lexsort((heads, tails))
    out = np.ones((h_max + 1, net.node_count), dtype=np.float64)
    g = np.ones(len(tails), dtype=np.float64)
    for t in range(1, h_max + 1):
        out[t] = np.bincount(heads, weights=g, minlength=net.node_count)
        g = out[t][tails] - g[reverse]
    return out


def saw_row_bytes(net: WordNetwork, sources: np.ndarray, h_max: int) -> np.ndarray:
    """An upper bound on the bytes each source adds to a block of
    ``accessibility_batch``: at depth t, ``_saw_levels`` holds at most
    NB_{t-1} + NB_t prefixes and candidate steps; per node, the dense level
    rows, one more being summed, and the ring mass whose entropy is taken."""
    nb = nonbacktracking_walks(net, h_max)[:, sources]
    dense = (8 * h_max + 17 + ENTROPY_CELL_BYTES) * net.node_count
    return PREFIX_BYTES * (nb[1:] + nb[:-1]).max(axis=0) + dense


def _ring_exp_entropies(rows: np.ndarray) -> np.ndarray:
    """exp of the Shannon entropy of each row's positive cells (0 for a row
    without any). The rows are ordered by their count c of positive cells,
    and the rows of each c are summed as one contiguous (rows, c) array
    along its rows, which equals summing each row's cells alone, bit for bit."""
    positive = rows > 0
    counts = np.count_nonzero(positive, axis=1)
    order = np.argsort(counts, kind="stable")
    pos = rows[order][positive[order]]
    terms = pos * np.log(pos)
    sums = np.zeros(len(rows), dtype=np.float64)
    row = cell = 0
    values, sizes = np.unique(counts, return_counts=True)
    for c, k in zip(values.tolist(), sizes.tolist()):
        if c:
            sums[row:row + k] = terms[cell:cell + c * k].reshape(k, c).sum(axis=1)
        row, cell = row + k, cell + c * k
    out = np.zeros(len(rows), dtype=np.float64)
    out[order] = np.where(counts[order] > 0, np.exp(-sums), 0.0)
    return out


def _exp_entropy_rows(rows: np.ndarray) -> np.ndarray:
    """exp of the Shannon entropy of each nonnegative mass row (0 for a row
    without mass), in ``row_blocks``; each row is summed whole either way."""
    out = np.empty(len(rows), dtype=np.float64)
    for part in row_blocks(np.full(len(rows), ENTROPY_CELL_BYTES * rows.shape[1])):
        mass = rows[part]
        positive = mass > 0
        terms = np.log(mass, out=np.zeros(mass.shape), where=positive)
        terms *= mass
        out[part] = np.where(positive.any(axis=1), np.exp(-terms.sum(axis=1)), 0.0)
    return out


def accessibility_batch(
    net: WordNetwork,
    sources: np.ndarray,
    h_values: tuple[int, ...],
    dist_block: np.ndarray | None = None,
) -> np.ndarray:
    """Accessibility at each h in h_values (1..DEFAULT_DEPTH_CAP, as
    ``saw_row_bytes`` assumes) for many sources; shape (S, len(h)). The
    sources go in ``row_blocks`` by ``saw_row_bytes``."""
    if not all(1 <= h <= DEFAULT_DEPTH_CAP for h in h_values):
        raise ValueError(f"h must lie in 1..{DEFAULT_DEPTH_CAP}")
    h_max = max(h_values)
    sources = np.asarray(sources)
    out = np.zeros((len(sources), len(h_values)), dtype=np.float64)
    for part in row_blocks(saw_row_bytes(net, sources, h_max)):
        batch = sources[part]
        levels = _saw_levels(net, batch, h_max)
        dist = bfs_distances(net, batch) if dist_block is None else dist_block[part]
        for col, h in enumerate(h_values):
            out[part, col] = _exp_entropy_rows(np.where(dist == h, levels[h - 1], 0.0))
    return out


TAYLOR_TERMS = 18  # K: for a stochastic P the tail sum of 1/k! over k > K is below 3e-17


def taylor_row_bytes(net: WordNetwork) -> int:
    """An upper bound on one row's bytes in a block of
    ``generalized_accessibility``: per CSR entry, the flat head and tail ids
    and the mass carried along the edge; per node, the sum, the term, its
    share per neighbour, the next term, the temporaries of ``exclude_self``
    and the entropy cells."""
    return 24 * len(net.indices) + (40 + ENTROPY_CELL_BYTES) * net.node_count


def expm(net: WordNetwork, nodes: np.ndarray) -> np.ndarray:
    """Rows ``nodes`` of exp(P), P_vw = a_vw / k_v, as the sum of
    e_i^T P^k / k! for k = 0..TAYLOR_TERMS (Moler & Van Loan, SIAM Rev. 2003).

    Each step is one ``np.bincount`` over the CSR edges of every row of the
    block (row i's copy of node v is i*n + v), which adds each cell's
    contributions in CSR order whatever rows share the block; no BLAS call
    is made, so the bits do not depend on its thread count. A walk never
    leaves its component, and an isolated node's row stays e_i."""
    n = net.node_count
    copies = np.arange(len(nodes), dtype=np.int64)[:, None] * n
    heads = (copies + net.heads()).ravel()
    tails = (copies + net.indices).ravel()
    del copies
    share = np.maximum(net.degrees, 1).astype(np.float64)
    term = np.zeros((len(nodes), n), dtype=np.float64)
    term[np.arange(len(nodes)), nodes] = 1.0
    total = term.copy()
    for k in range(1, TAYLOR_TERMS + 1):
        moved = (term / share).ravel()[heads]
        term = np.bincount(tails, weights=moved, minlength=term.size).reshape(term.shape) / k
        del moved
        total += term
    return total


def generalized_accessibility(net: WordNetwork, exclude_self: bool = False,
                              rows: np.ndarray | None = None) -> NodeMeasures:
    """Per-node exp-entropy of the walk-mixture rows (all walk lengths at once).

    Only the nodes ``rows`` are measured (every node when None) and the
    others are missing. Each row of exp(P) comes from ``expm`` in
    ``row_blocks`` of ``taylor_row_bytes`` and is normalized to sum 1. With
    ``exclude_self`` each row then drops its own node and is renormalized; a
    row left without mass gets 0. A row's bits do not depend on which rows
    share its block."""
    n = net.node_count
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    values = np.zeros(n, dtype=np.float64)
    missing = np.ones(n, dtype=bool)
    missing[rows] = False
    for part in row_blocks(np.full(len(rows), taylor_row_bytes(net))):
        nodes = rows[part]
        mixture = expm(net, nodes)
        mixture /= mixture.sum(axis=1)[:, None]
        if exclude_self:
            mixture[np.arange(len(nodes)), nodes] = 0.0
            sums = mixture.sum(axis=1)
            good = sums > 0
            mixture[good] /= sums[good, None]
            mixture[~good] = 0.0
        values[nodes] = _exp_entropy_rows(mixture)
    return NodeMeasures(values, missing)


def merged_row_bytes(net: WordNetwork) -> int:
    """An upper bound on one source's bytes in a block of either symmetry
    batch: per CSR entry, masks, distances, ids and keys; per node, labels
    and mass."""
    return 64 * len(net.indices) + 64 * net.node_count


def _copy_edges(mask: np.ndarray, heads: np.ndarray, tails: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR entries e of each copy i where mask[i, e] holds, as flat
    (i*n + head, i*n + tail) ids in (copy, entry) order; ``np.nonzero`` of
    the 2-d mask is ~4x slower."""
    flat = np.flatnonzero(mask)
    copy = flat // len(tails)
    e = flat - copy * len(tails)
    return copy * n + heads[e], copy * n + tails[e]


def _concentric_symmetry(
    net: WordNetwork,
    sources: np.ndarray,
    h_values: tuple[int, ...],
    dist: np.ndarray | None,
    merge: bool,
) -> np.ndarray:
    """Merged (``merge``) or backbone symmetry for many sources; shape (S, len(h_values)).

    Sources go in ``row_blocks`` by ``merged_row_bytes``, each with its own
    copy of the network (node v of copy i is i*n + v). A block's outward
    edges are the CSR entries v -> w with dist[w] == dist[v] + 1 inside the
    ball, in (copy, v, w) order. The merged pattern contracts them: one
    ``min_labels`` call labels the ring-internal groups of the whole block
    and one sort of (head group, tail group) keys deduplicates the outward
    super-edges. Each concentric-walk step is one ``np.bincount`` over the
    edges out of one ring. The ring entropies stay per pattern: the backbone's
    ``_exp_entropy_rows`` and the merged ``_ring_exp_entropies`` sum in
    different orders, and either one for both moves the other's last bits.
    ``dist`` holds the sources' distance rows (recomputed when None).
    Matches the per-pattern reference ``symmetry`` (``tests/oracles.py``).
    """
    h_max = max(h_values)
    sources = np.asarray(sources)
    if dist is None:
        dist = bfs_distances(net, sources)
    n = net.node_count
    heads = net.heads()
    tails = net.indices.astype(np.int64)
    rings = h_max + 2
    entropy = _ring_exp_entropies if merge else _exp_entropy_rows
    out = np.zeros((len(sources), len(h_values)), dtype=np.float64)

    for part in row_blocks(np.full(len(sources), merged_row_bytes(net))):
        d = dist[part]
        copies = len(d)
        size = copies * n
        in_ball = (d >= 0) & (d <= h_max)
        d_head, d_tail = d[:, heads], d[:, tails]
        # no test of d_head >= 0: an unreached head's neighbours are unreached too
        e_head, e_tail = _copy_edges((d_tail == d_head + 1) & (d_head < h_max), heads, tails, n)
        root = in_ball.ravel()
        if merge:
            group = min_labels(size, *_copy_edges(in_ball[:, heads] & (d_head == d_tail),
                                                  heads, tails, n))
            key = unique_codes(group[e_head] * size + group[e_tail])
            e_head, e_tail = key // size, key % size
            root = root & (group == np.arange(size))
        out_count = np.bincount(e_head, minlength=size)

        d_flat = d.ravel()
        groups = np.flatnonzero(root)
        slot = (groups // n) * rings + d_flat[groups]  # (copy, ring) of each group
        ring_counts = np.bincount(slot, minlength=copies * rings).reshape(copies, rings)
        dead = np.bincount(slot[out_count[groups] == 0], minlength=copies * rings)
        eta_cum = np.cumsum(dead.reshape(copies, rings), axis=1)

        mass = np.zeros(size, dtype=np.float64)
        mass[np.arange(copies) * n + sources[part]] = 1.0  # a source is its own group
        head_ring = d_flat[e_head]
        for r in range(h_max):
            level = r + 1
            step = head_ring == r
            src = e_head[step]
            mass = np.bincount(e_tail[step], weights=mass[src] / out_count[src], minlength=size)
            cols = [col for col, h in enumerate(h_values) if h == level]
            if cols:
                ring = np.flatnonzero(ring_counts[:, level])
                denom = ring_counts[ring, level] + eta_cum[ring, level - 1]
                values = entropy(mass.reshape(copies, n)[ring]) / denom
                for col in cols:  # a depth listed twice fills both columns
                    out[part.start + ring, col] = values
    return out


def backbone_symmetry_batch(
    net: WordNetwork,
    sources: np.ndarray,
    h_values: tuple[int, ...],
    dist: np.ndarray | None = None,
) -> np.ndarray:
    """Backbone symmetry for many sources; shape (S, len(h_values))."""
    return _concentric_symmetry(net, sources, h_values, dist, merge=False)


def merged_symmetry_batch(
    net: WordNetwork,
    sources: np.ndarray,
    h_values: tuple[int, ...],
    dist: np.ndarray | None = None,
) -> np.ndarray:
    """Merged symmetry for many sources; shape (S, len(h_values))."""
    return _concentric_symmetry(net, sources, h_values, dist, merge=True)
