"""Per-node and global network measurements.

Distance-based measurements (betweenness, closeness, eccentricity) and the
iterative centralities (eigenvector, PageRank) are evaluated on the largest
connected component; nodes outside it carry a missing marker and are excluded
from any later aggregation. All other measurements cover every node.

Betweenness sums over ordered source/target pairs (i, j) with i != u != j,
so a middle node of a 3-path scores 2, not 1.

Every kernel is plain numpy over the CSR arrays. The geodesic pass, a BFS
from every node, runs one block of source rows per ``betweenness`` call,
which adds the block's Brandes dependencies to a running total and returns
the block's distance rows; ``neighborhood_connectivity``, ``closeness`` and
``eccentricity`` reduce those rows at once, so no caller needs every row at
the same time. The iterative centralities multiply by the adjacency with
``np.bincount`` (each row summed in ascending neighbour order, as a CSR
product sums it), and clustering counts common neighbours by looking each
candidate up among the sorted CSR entries. Eigenvector centrality is
``leading_eigenvector``: power iteration on the shifted operator A + I.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import ConvergenceError, ProsenetError
from .graph import (GeodesicLevel, WordNetwork, _expand, bfs_distances, largest_component_nodes,
                    row_blocks)


@dataclass
class NodeMeasures:
    """Per-node values of one measurement over one network."""

    values: np.ndarray
    missing: np.ndarray = field(repr=False)

    def __post_init__(self):
        assert not np.isnan(self.values).any(), "missing values use the mask, not NaN"

    def present_values(self) -> np.ndarray:
        return self.values[~self.missing]


def _full(values: np.ndarray) -> NodeMeasures:
    return NodeMeasures(np.asarray(values, dtype=np.float64), np.zeros(len(values), dtype=bool))


def _on_component(net: WordNetwork, comp: np.ndarray, comp_values: np.ndarray) -> NodeMeasures:
    values = np.zeros(net.node_count, dtype=np.float64)
    missing = np.ones(net.node_count, dtype=bool)
    values[comp] = comp_values
    missing[comp] = False
    return NodeMeasures(values, missing)


def degree(net: WordNetwork) -> NodeMeasures:
    return _full(net.degrees.astype(np.float64))


def neighborhood_connectivity(dist: np.ndarray, h: int, cumulative: bool = False) -> np.ndarray:
    """Per row of hop distances ``dist``, the number of nodes at distance
    exactly h (or within h when cumulative), as float64."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if cumulative:
        counts = ((dist > 0) & (dist <= h)).sum(axis=1)
    else:
        counts = (dist == h).sum(axis=1)
    return counts.astype(np.float64)


CANDIDATE_BYTES = 64  # ``clustering`` per looked-up neighbour: ids, code, position, headroom


def clustering_row_bytes(net: WordNetwork) -> np.ndarray:
    """An upper bound on the bytes ``clustering`` takes per CSR entry u -> v:
    one looked-up candidate per neighbour of the end with fewer neighbours,
    and one more for the entry's own ids."""
    k = net.degrees
    return CANDIDATE_BYTES * (np.minimum(k[net.heads()], k[net.indices]) + 1)


def clustering(net: WordNetwork) -> NodeMeasures:
    """Fraction of connected neighbor pairs; 0 for nodes of degree < 2.

    The common neighbours of each CSR entry u -> v, in ``row_blocks`` of
    entries by ``clustering_row_bytes``: each neighbour w of the end with
    fewer neighbours is looked up, as the code (other end) * n + w, among
    the CSR entries' codes head * n + tail, which ascend because the rows
    are sorted. The counts are integers, so no order of summing them moves
    a bit."""
    n = net.node_count
    k = net.degrees
    heads, tails = net.heads(), net.indices.astype(np.int64)
    codes = heads * n + tails
    scan = np.where(k[tails] < k[heads], tails, heads)
    other = heads + tails - scan
    common = np.zeros(len(heads), dtype=np.int64)
    for part in row_blocks(clustering_row_bytes(net)):
        _, query = _expand(other[part] * n + scan[part], n, net.indptr, net.indices, k)
        found = codes.take(np.searchsorted(codes, query), mode="clip") == query
        deg = k[scan[part]]
        common[part] = np.add.reduceat(found, np.cumsum(deg) - deg, dtype=np.int64)
    triangles = np.bincount(heads, weights=common, minlength=n) / 2.0
    pairs = k * (k - 1.0) / 2.0
    cc = np.divide(triangles, pairs, out=np.zeros_like(triangles), where=pairs > 0)
    return _full(cc)


def _component_edges(net: WordNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The largest component's nodes and its edges (heads, tails), numbered
    within the component, in CSR order."""
    comp = largest_component_nodes(net)
    heads, tails = net.heads(), net.indices.astype(np.int64)
    if len(comp) == net.node_count:
        return comp, heads, tails
    rank = np.full(net.node_count, -1, dtype=np.int64)
    rank[comp] = np.arange(len(comp))
    keep = rank[heads] >= 0
    return comp, rank[heads[keep]], rank[tails[keep]]


def betweenness(net: WordNetwork, sources: np.ndarray, total: np.ndarray) -> np.ndarray:
    """One block of the geodesic pass: the int32 hop distances from the
    consecutive node ids ``sources`` to every node, returned as a C-ordered
    (sources, n) array, and their Brandes dependencies added into ``total``.

    Geodesic counts sigma flow forward level by level over the BFS's
    geodesic edges, the dependencies delta flow back, each step one
    ``np.bincount`` over a level's edges. Each source row's sigma and delta
    depend on that row's edges alone, and the rows are added to ``total`` in
    source order, so blocks taken in ascending order give the same bits
    whatever their size. A source outside the largest component adds exactly
    0 to its nodes, so the component's values of the total after every block
    are its betweenness over ordered pairs.
    """
    levels: list[GeodesicLevel] = []
    dist = bfs_distances(net, sources, levels)
    _brandes(sources, levels, net.node_count, total)
    return dist


def _brandes(sources: np.ndarray, levels: list[GeodesicLevel], n: int,
             total: np.ndarray) -> None:
    """Add the dependencies of each source row to ``total``, in row order."""
    size = len(sources) * n
    sigma = np.zeros(size, dtype=np.float64)
    sigma[np.arange(len(sources)) * n + sources] = 1.0
    for lev in levels:
        sigma += np.bincount(lev.heads, weights=sigma[lev.tails], minlength=size)

    delta = np.zeros(size, dtype=np.float64)
    for lev in reversed(levels[1:]):  # the first level only feeds the sources
        coeff = (1.0 + delta[lev.heads]) / sigma[lev.heads]
        spread = np.bincount(lev.tails, weights=coeff, minlength=size)
        delta[lev.tails] = spread[lev.tails] * sigma[lev.tails]
    # a column sum of the C-ordered (rows, n) block adds the rows in order,
    # so carrying the total in as part of the first row keeps that order
    rows = delta.reshape(len(sources), n)
    rows[0] += total
    rows.sum(axis=0, out=total)


def closeness(dist: np.ndarray, reciprocal: bool = False) -> np.ndarray:
    """Per row of hop distances ``dist`` (a component's nodes to every node
    of that component), the mean distance, self included; optionally its
    reciprocal (0 where the mean is 0)."""
    mean_dist = dist.mean(axis=1)
    if reciprocal:
        return np.divide(1.0, mean_dist, out=np.zeros_like(mean_dist), where=mean_dist > 0)
    return mean_dist


def eccentricity(dist: np.ndarray) -> np.ndarray:
    """Per row of hop distances ``dist`` (a component's nodes to every node
    of that component), the largest distance, as float64."""
    return dist.max(axis=1).astype(np.float64)


def leading_eigenvector(
    matvec,
    n: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Nonnegative leading eigenvector (sum 1) of a nonnegative operator.

    Power iteration on the shifted operator x -> A x + x, which keeps
    convergence monotone on bipartite graphs. ``matvec`` applies A. Raises
    ConvergenceError with the residual when the eigen-residual stays above
    ``tol``.
    """
    x = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iter):
        ax = matvec(x)
        lam = float(x @ ax) / float(x @ x)
        residual = float(np.abs(ax - lam * x).sum())
        if residual < tol:
            return x / x.sum()
        y = ax + x
        x = y / y.sum()
    raise ConvergenceError("power iteration did not converge", residual)


def eigenvector_centrality(net: WordNetwork, tol: float = 1e-10,
                           max_iter: int = 10_000) -> NodeMeasures:
    """Leading adjacency eigenvector, nonnegative and normalized to sum 1."""
    comp, heads, tails = _component_edges(net)
    n = len(comp)
    if n == 1:
        return _on_component(net, comp, np.ones(1))
    vec = leading_eigenvector(
        lambda x: np.bincount(heads, weights=x[tails], minlength=n), n, tol=tol, max_iter=max_iter
    )
    return _on_component(net, comp, vec)


def pagerank(net: WordNetwork, alpha: float = 0.85, tol: float = 1e-12,
             max_iter: int = 200_000) -> NodeMeasures:
    """Fixed point of pr = alpha * A D^-1 pr + 1 on the largest component.

    D is the out-degree diagonal clamped below at 1, which makes a single
    isolated node score exactly 1.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    comp, heads, tails = _component_edges(net)
    n = len(comp)
    kguard = np.maximum(net.degrees[comp].astype(np.float64), 1.0)

    def step(x: np.ndarray) -> np.ndarray:
        return alpha * np.bincount(heads, weights=(x / kguard)[tails], minlength=n) + 1.0

    pr = np.ones(n, dtype=np.float64)
    prev_delta = np.inf
    stall = 0
    for _ in range(max_iter):
        nxt = step(pr)
        delta = float(np.abs(nxt - pr).max())
        pr = nxt
        if delta == 0.0:
            break
        if delta >= prev_delta:
            stall += 1
            if stall > 20:
                break
        else:
            stall = 0
        prev_delta = delta
    residual = float(np.abs(step(pr) - pr).max())
    if residual >= tol:
        raise ConvergenceError("pagerank iteration did not converge", residual)
    return _on_component(net, comp, pr)


@dataclass
class CommunityAssignment:
    """Community id per node plus the modularity of the partition."""

    labels: np.ndarray
    q: float


def detect_communities(net: WordNetwork) -> CommunityAssignment:
    """Greedy agglomerative modularity maximization.

    Repeatedly merges the community pair with the best modularity gain until
    no merge improves it; ties break toward the smallest (id, id) pair. The
    merged community keeps the smaller id.

    The heap is lazy: a merge pushes only the pairs whose edge count grew,
    the dropped community's neighbours. Every other pair of the kept
    community can only lose gain, as its degree sum grew and IEEE rounding is
    monotone, so its old key stays an upper bound. A popped pair is checked
    against its recomputed gain and re-pushed at it when its key is higher;
    the first key equal to its pair's gain is the best (gain, pair).
    """
    n = net.node_count
    m = net.edge_count
    if m == 0:
        return CommunityAssignment(np.arange(n, dtype=np.int64), 0.0)

    k = net.degrees.astype(np.float64)
    two_m = 2.0 * m
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    ksum: dict[int, float] = {i: float(k[i]) for i in range(n)}
    # the network is simple: one edge between each linked pair
    between = {i: dict.fromkeys(net.neighbors(i).tolist(), 1) for i in range(n)}

    def gain(a: int, b: int) -> float:
        return between[a][b] / m - 2.0 * ksum[a] * ksum[b] / (two_m * two_m)

    heap = [(-gain(a, b), a, b) for a, b in net.edges()]
    heapq.heapify(heap)  # equal keys of one pair are equal tuples: the order is layout-free

    deltas: list[float] = []
    while heap:
        neg_key, a, b = heapq.heappop(heap)
        if a not in between or b not in between:
            continue  # a side was merged away
        if -neg_key <= 0:
            break  # the largest upper bound: no merge gains
        dq = gain(a, b)
        if dq != -neg_key:
            heapq.heappush(heap, (-dq, a, b))  # stale: a merge into a side lowered the gain
            continue
        deltas.append(dq)

        keep, drop = a, b  # a < b by construction
        members[keep].extend(members.pop(drop))
        ksum[keep] += ksum.pop(drop)
        merged = between.pop(drop)
        bk = between[keep]
        bk.pop(drop, None)
        merged.pop(keep, None)
        for nbr, w in merged.items():
            bk[nbr] = bk.get(nbr, 0) + w
            bn = between[nbr]
            bn.pop(drop, None)
            bn[keep] = bk[nbr]
            lo, hi = min(keep, nbr), max(keep, nbr)
            heapq.heappush(heap, (-gain(lo, hi), lo, hi))

    singleton_q = -math.fsum((float(ki) / two_m) ** 2 for ki in k)
    q = singleton_q + math.fsum(deltas)
    if q < 0.0:  # never report worse than the all-in-one partition
        return CommunityAssignment(np.zeros(n, dtype=np.int64), 0.0)

    labels = np.zeros(n, dtype=np.int64)
    for new_id, cid in enumerate(sorted(members, key=lambda c: min(members[c]))):
        for node in members[cid]:
            labels[node] = new_id
    return CommunityAssignment(labels, q)
