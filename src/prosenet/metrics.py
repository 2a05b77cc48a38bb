"""Per-node and global network measurements.

Distance-based measurements (betweenness, closeness, eccentricity) and the
iterative centralities (eigenvector, PageRank) are evaluated on the largest
connected component; nodes outside it carry a missing marker and are excluded
from any later aggregation. All other measurements cover every node.

Betweenness sums over ordered source/target pairs (i, j) with i != u != j,
so a middle node of a 3-path scores 2, not 1.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import ConvergenceError, ProsenetError
from .graph import WordNetwork, bfs_distances, largest_component_nodes


@dataclass
class NodeMeasures:
    """Per-node values of one named measurement over one network."""

    measure_name: str
    values: np.ndarray
    missing: np.ndarray = field(repr=False)
    doc_id: str = ""

    def __post_init__(self):
        if self.missing is None:
            self.missing = np.zeros(len(self.values), dtype=bool)
        assert not np.isnan(self.values).any(), "missing values use the mask, not NaN"

    def present_values(self) -> np.ndarray:
        return self.values[~self.missing]


def _full(net: WordNetwork, name: str, values: np.ndarray) -> NodeMeasures:
    return NodeMeasures(name, np.asarray(values, dtype=np.float64),
                        np.zeros(net.node_count, dtype=bool), net.doc_id)


def _on_component(net: WordNetwork, name: str, comp: np.ndarray,
                  comp_values: np.ndarray) -> NodeMeasures:
    values = np.zeros(net.node_count, dtype=np.float64)
    missing = np.ones(net.node_count, dtype=bool)
    values[comp] = comp_values
    missing[comp] = False
    return NodeMeasures(name, values, missing, net.doc_id)


def degree(net: WordNetwork) -> NodeMeasures:
    return _full(net, "k", net.degrees.astype(np.float64))


def neighborhood_connectivity(net: WordNetwork, h: int, cumulative: bool = False,
                              dist: np.ndarray | None = None) -> NodeMeasures:
    """Number of nodes at hop distance exactly h (or within h when cumulative)."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if dist is None:
        dist = bfs_distances(net, np.arange(net.node_count))
    if cumulative:
        counts = ((dist > 0) & (dist <= h)).sum(axis=1)
    else:
        counts = (dist == h).sum(axis=1)
    return _full(net, f"N{h}", counts.astype(np.float64))


def clustering(net: WordNetwork) -> NodeMeasures:
    """Fraction of connected neighbor pairs; 0 for nodes of degree < 2."""
    adj = net.adjacency()
    a2 = adj @ adj
    triangles = np.asarray(adj.multiply(a2).sum(axis=1)).ravel() / 2.0
    k = net.degrees.astype(np.float64)
    pairs = k * (k - 1.0) / 2.0
    cc = np.divide(triangles, pairs, out=np.zeros_like(triangles), where=pairs > 0)
    return _full(net, "cc", cc)


def _component_subgraph(net: WordNetwork):
    comp = largest_component_nodes(net)
    return comp, net.adjacency()[comp][:, comp]


def _component_distances(net: WordNetwork, comp: np.ndarray,
                         dist: np.ndarray | None) -> np.ndarray:
    """The component's block of the all-pairs hop distances ``dist``."""
    if dist is None:
        dist = bfs_distances(net, np.arange(net.node_count))
    return dist[np.ix_(comp, comp)]


def betweenness(net: WordNetwork, dist: np.ndarray | None = None) -> NodeMeasures:
    """Shortest-path betweenness over ordered pairs, on the largest component.

    Brandes accumulation over the component's hop distances, run
    level-synchronously for all sources at once: sigma (geodesic counts) and
    the dependency sweep advance one distance level per sparse product.
    """
    comp, adj = _component_subgraph(net)
    n = len(comp)
    if n <= 2:
        return _on_component(net, "B", comp, np.zeros(n))

    dist = _component_distances(net, comp, dist)
    max_level = int(dist.max())
    sigma = np.eye(n, dtype=np.float64)
    for lev in range(1, max_level + 1):
        counts = np.where(dist == lev - 1, sigma, 0.0) @ adj
        ring = dist == lev
        sigma[ring] = counts[ring]

    delta = np.zeros((n, n), dtype=np.float64)
    for lev in range(max_level, 0, -1):
        mask = dist == lev
        coeff = np.where(mask, (1.0 + delta) / np.where(sigma > 0, sigma, 1.0), 0.0)
        spread = coeff @ adj
        lower = dist == lev - 1
        delta[lower] += (spread * sigma)[lower]
    np.fill_diagonal(delta, 0.0)
    return _on_component(net, "B", comp, delta.sum(axis=0))


def closeness(net: WordNetwork, reciprocal: bool = False,
              dist: np.ndarray | None = None) -> NodeMeasures:
    """Mean geodesic distance (self included); optionally its reciprocal."""
    comp = largest_component_nodes(net)
    mean_dist = _component_distances(net, comp, dist).mean(axis=1)
    if reciprocal:
        values = np.divide(1.0, mean_dist, out=np.zeros_like(mean_dist), where=mean_dist > 0)
        return _on_component(net, "C", comp, values)
    return _on_component(net, "C", comp, mean_dist)


def eccentricity(net: WordNetwork, dist: np.ndarray | None = None) -> NodeMeasures:
    comp = largest_component_nodes(net)
    ecc = _component_distances(net, comp, dist).max(axis=1)
    return _on_component(net, "E", comp, ecc.astype(np.float64))


def eigenvector_centrality(net: WordNetwork, tol: float = 1e-10,
                           max_iter: int = 10_000) -> NodeMeasures:
    """Leading adjacency eigenvector, nonnegative and normalized to sum 1."""
    from .linalg import leading_eigenvector

    comp, adj = _component_subgraph(net)
    n = len(comp)
    if n == 1:
        return _on_component(net, "Ec", comp, np.ones(1))
    vec, _ = leading_eigenvector(lambda x: adj @ x, n, tol=tol, max_iter=max_iter)
    return _on_component(net, "Ec", comp, vec)


def pagerank(net: WordNetwork, alpha: float = 0.85, tol: float = 1e-12,
             max_iter: int = 200_000) -> NodeMeasures:
    """Fixed point of pr = alpha * A D^-1 pr + 1 on the largest component.

    D is the out-degree diagonal clamped below at 1, which makes a single
    isolated node score exactly 1.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    comp, adj = _component_subgraph(net)
    n = len(comp)
    kguard = np.maximum(np.asarray(adj.sum(axis=1)).ravel(), 1.0)
    pr = np.ones(n, dtype=np.float64)
    prev_delta = np.inf
    stall = 0
    for _ in range(max_iter):
        nxt = alpha * (adj @ (pr / kguard)) + 1.0
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
    residual = float(np.abs(alpha * (adj @ (pr / kguard)) + 1.0 - pr).max())
    if residual >= tol:
        raise ConvergenceError("pagerank iteration did not converge", residual)
    return _on_component(net, "Pr", comp, pr)


@dataclass
class CommunityAssignment:
    """Community id per node plus the modularity of the partition."""

    labels: np.ndarray
    q: float


def modularity(net: WordNetwork, labels: np.ndarray) -> float:
    """Literal modularity of a partition: intra-edge excess over chance."""
    m = net.edge_count
    if m == 0:
        raise ProsenetError("modularity is undefined on an edgeless network")
    labels = np.asarray(labels)
    if len(labels) != net.node_count:
        raise ValueError("labels must cover every node")
    k = net.degrees.astype(np.float64)
    internal: dict[int, int] = {}
    for u, v in net.edges():
        if labels[u] == labels[v]:
            internal[labels[u]] = internal.get(int(labels[u]), 0) + 1
    degree_sums: dict[int, float] = {}
    for node, lab in enumerate(labels):
        degree_sums[int(lab)] = degree_sums.get(int(lab), 0.0) + k[node]
    terms = [
        internal.get(c, 0) / m - (degree_sums[c] / (2.0 * m)) ** 2
        for c in sorted(degree_sums)
    ]
    return math.fsum(terms)


def detect_communities(net: WordNetwork) -> CommunityAssignment:
    """Greedy agglomerative modularity maximization.

    Repeatedly merges the community pair with the best modularity gain until
    no merge improves it; ties break toward the smallest (id, id) pair. The
    merged community keeps the smaller id.
    """
    n = net.node_count
    m = net.edge_count
    if m == 0:
        return CommunityAssignment(np.arange(n, dtype=np.int64), 0.0)

    k = net.degrees.astype(np.float64)
    two_m = 2.0 * m
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    ksum: dict[int, float] = {i: float(k[i]) for i in range(n)}
    between: dict[int, dict[int, int]] = {i: {} for i in range(n)}
    for u, v in net.edges():
        between[u][v] = between[u].get(v, 0) + 1
        between[v][u] = between[v].get(u, 0) + 1
    epoch = {i: 0 for i in range(n)}

    def gain(a: int, b: int) -> float:
        return between[a][b] / m - 2.0 * ksum[a] * ksum[b] / (two_m * two_m)

    heap: list[tuple[float, int, int, int, int]] = []
    for a, nbrs in between.items():
        for b in nbrs:
            if a < b:
                heapq.heappush(heap, (-gain(a, b), a, b, 0, 0))

    deltas: list[float] = []
    while heap:
        neg_dq, a, b, ea, eb = heapq.heappop(heap)
        if a not in members or b not in members:
            continue
        if epoch[a] != ea or epoch[b] != eb:
            dq = gain(a, b)
            if dq > 0:
                heapq.heappush(heap, (-dq, a, b, epoch[a], epoch[b]))
            continue
        if -neg_dq <= 0:
            break
        deltas.append(-neg_dq)

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
        epoch[keep] += 1
        epoch.pop(drop)
        for nbr in sorted(bk):
            lo, hi = min(keep, nbr), max(keep, nbr)
            heapq.heappush(heap, (-gain(lo, hi), lo, hi, epoch[lo], epoch[hi]))

    singleton_q = -math.fsum((float(ki) / two_m) ** 2 for ki in k)
    q = singleton_q + math.fsum(deltas)
    if q < 0.0:  # never report worse than the all-in-one partition
        return CommunityAssignment(np.zeros(n, dtype=np.int64), 0.0)

    labels = np.zeros(n, dtype=np.int64)
    for new_id, cid in enumerate(sorted(members, key=lambda c: min(members[c]))):
        for node in members[cid]:
            labels[node] = new_id
    return CommunityAssignment(labels, q)
