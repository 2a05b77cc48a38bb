"""Word-adjacency networks: construction, components, shortest-path distances.

Networks are undirected, unweighted, simple graphs stored in CSR form
(numpy ``indptr``/``indices`` arrays) so that per-source traversals and the
heavier measurements can run vectorized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import ProsenetError
from .corpus import Document


@dataclass
class WordNetwork:
    """Undirected unweighted graph over the distinct lemmas of one document."""

    node_labels: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    node_frequency: np.ndarray
    stopword_flag: np.ndarray
    doc_id: str = ""

    @property
    def node_count(self) -> int:
        return len(self.node_labels)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def edges(self) -> list[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, sorted."""
        out = []
        for u in range(self.node_count):
            for v in self.neighbors(u):
                if u < v:
                    out.append((u, int(v)))
        return out

    def node_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.node_labels)}

    def adjacency(self) -> sparse.csr_matrix:
        data = np.ones(len(self.indices), dtype=np.float64)
        n = self.node_count
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


def _csr_from_edges(n: int, pairs: set[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR arrays from a set of (u, v) pairs with u != v."""
    if pairs:
        arr = np.array(sorted(pairs), dtype=np.int64)
        heads = np.concatenate([arr[:, 0], arr[:, 1]])
        tails = np.concatenate([arr[:, 1], arr[:, 0]])
        order = np.lexsort((tails, heads))
        heads, tails = heads[order], tails[order]
    else:
        heads = tails = np.empty(0, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, heads + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, tails.astype(np.int32)


def build_network(doc: Document, window: int = 1) -> WordNetwork:
    """One node per distinct lemma; edges between tokens up to ``window`` apart.

    Repeated pairs collapse to one edge; self-loops are dropped.
    """
    if len(doc.tokens) < 2:
        raise ProsenetError(f"document {doc.id!r} has fewer than 2 tokens")
    if window < 1:
        raise ValueError("window must be >= 1")

    labels: list[str] = []
    index: dict[str, int] = {}
    for tok in doc.tokens:
        if tok not in index:
            index[tok] = len(labels)
            labels.append(tok)
    ids = np.array([index[t] for t in doc.tokens], dtype=np.int64)

    pairs: set[tuple[int, int]] = set()
    for off in range(1, window + 1):
        for a, b in zip(ids[:-off], ids[off:]):
            if a != b:
                pairs.add((min(a, b), max(a, b)))

    indptr, indices = _csr_from_edges(len(labels), pairs)
    freq = np.bincount(ids, minlength=len(labels)).astype(np.int64)
    stop = np.zeros(len(labels), dtype=bool)
    for tok, flag in zip(doc.tokens, doc.stopword_mask):
        if flag:
            stop[index[tok]] = True
    return WordNetwork(labels, indptr, indices, freq, stop, doc.id)


def component_labels(net: WordNetwork) -> np.ndarray:
    """Connected-component id per node; ids are the smallest node id inside."""
    from scipy.sparse import csgraph

    _, raw = csgraph.connected_components(net.adjacency(), directed=False)
    # csgraph numbers components by first occurrence, so the first index seen
    # for each raw label is that component's smallest node id
    _, first = np.unique(raw, return_index=True)
    return first[raw].astype(np.int64)


def largest_component_nodes(net: WordNetwork) -> np.ndarray:
    """Sorted node ids of the largest component (ties: smallest minimum id)."""
    comp = component_labels(net)
    ids, counts = np.unique(comp, return_counts=True)
    best = ids[np.argmax(counts)]  # np.unique sorts ids, argmax takes first max
    return np.flatnonzero(comp == best)


def largest_component(net: WordNetwork) -> WordNetwork:
    """Induced subgraph on the largest connected node set."""
    keep = largest_component_nodes(net)
    if len(keep) == net.node_count:
        return net
    remap = np.full(net.node_count, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    pairs = {
        (int(remap[u]), int(remap[v]))
        for u, v in net.edges()
        if remap[u] >= 0 and remap[v] >= 0
    }
    indptr, indices = _csr_from_edges(len(keep), pairs)
    return WordNetwork(
        [net.node_labels[i] for i in keep],
        indptr,
        indices,
        net.node_frequency[keep].copy(),
        net.stopword_flag[keep].copy(),
        net.doc_id,
    )


def bfs_distances(net: WordNetwork, sources: np.ndarray) -> np.ndarray:
    """Hop distances from each source row to every node; -1 when unreachable.

    Level-synchronous BFS over all sources at once: the frontier is a dense
    boolean (S, V) matrix advanced by one sparse product per level.
    """
    n = net.node_count
    adj = net.adjacency()
    dist = np.full((len(sources), n), -1, dtype=np.int32)
    dist[np.arange(len(sources)), sources] = 0
    frontier = np.zeros((len(sources), n), dtype=np.float64)
    frontier[np.arange(len(sources)), sources] = 1.0
    level = 0
    while True:
        level += 1
        reached = (frontier @ adj) > 0
        new = reached & (dist < 0)
        if not new.any():
            break
        dist[new] = level
        frontier = new.astype(np.float64)
    return dist


def network_to_json(net: WordNetwork) -> str:
    """Debug/plot export: nodes with metadata plus the deduplicated edge list."""
    payload = {
        "nodes": [
            {
                "id": i,
                "label": net.node_labels[i],
                "frequency": int(net.node_frequency[i]),
                "stopword": bool(net.stopword_flag[i]),
            }
            for i in range(net.node_count)
        ],
        "edges": [[u, v] for u, v in net.edges()],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
