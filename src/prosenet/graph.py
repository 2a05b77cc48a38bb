"""Word-adjacency networks: construction, components, shortest-path distances.

A network is an undirected, unweighted, simple graph and nothing more than
its CSR arrays: the node labels, ``indptr`` and ``indices``. It is built from
the document's token-id array with array operations (one sort of pair codes
that also drops repeated pairs, and one ``np.bincount``), and every traversal
and measurement reads the same arrays, so they run vectorized.

Shortest-path structure comes from one frontier-expanding BFS over the CSR
arrays. Besides the hop distances it yields every level's geodesic edges:
the (source s, v -> w) steps with dist[s, w] == dist[s, v] + 1, as flat ids
s * n + v and s * n + w in (s, v, w) order. The geodesic pass searches
from every node, one block of source rows at a time: ``metrics.betweenness``
searches a block and runs Brandes accumulation over its edges with
``np.bincount``, whose sequential accumulation sums each target's terms in
ascending (s, v) order, and every other measure that needs shortest paths
reduces that block's distance rows before the next block is searched. Every
batched kernel, this pass among them, runs over ``row_blocks`` sized from its
own bound on one row's bytes; each block's work is used and dropped before
the next block starts.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import ProsenetError
from .corpus import Document


@dataclass
class WordNetwork:
    """Undirected unweighted graph over the distinct lemmas of one document,
    in CSR form: node v's neighbours are ``indices[indptr[v]:indptr[v + 1]]``,
    ascending."""

    node_labels: list[str]
    indptr: np.ndarray
    indices: np.ndarray

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
        heads = self.heads()
        upper = heads < self.indices
        return list(zip(heads[upper].tolist(), self.indices[upper].tolist()))

    def heads(self) -> np.ndarray:
        """The head node of each CSR entry: edge e runs heads()[e] -> indices[e]."""
        return np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)


def unique_codes(codes: np.ndarray) -> np.ndarray:
    """The distinct values of non-negative integer ``codes``, ascending.

    One sort and a mask of the first of each run: ``np.unique`` hashes first,
    several times slower on these arrays, and numpy 2.4 imports ``numpy.ma``
    for it, about a megabyte more in each process."""
    codes = np.sort(codes)
    return codes[np.diff(codes, prepend=-1) != 0]


def _csr(n: int, heads: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR arrays over ``n`` nodes with an edge heads[i] -- tails[i]
    for each i, none a self-loop; a repeated edge counts once."""
    codes = unique_codes(np.concatenate([heads * n + tails, tails * n + heads]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes // n, minlength=n), out=indptr[1:])
    return indptr, (codes % n).astype(np.int32)


def build_network(doc: Document, window: int = 1) -> WordNetwork:
    """One node per distinct lemma, in order of first occurrence; edges
    between tokens up to ``window`` apart.

    For each offset the token ids ``ids[:-off]`` pair with ``ids[off:]``;
    self-pairs are dropped, and ``_csr`` keeps one edge per repeated pair.
    """
    if len(doc.tokens) < 2:
        raise ProsenetError(f"document {doc.id!r} has fewer than 2 tokens")
    if window < 1:
        raise ValueError("window must be >= 1")

    index = {tok: i for i, tok in enumerate(dict.fromkeys(doc.tokens))}
    ids = np.array([index[t] for t in doc.tokens], dtype=np.int64)
    a = np.concatenate([ids[:-off] for off in range(1, window + 1)])
    b = np.concatenate([ids[off:] for off in range(1, window + 1)])
    pair = a != b
    indptr, indices = _csr(len(index), a[pair], b[pair])
    return WordNetwork(list(index), indptr, indices)


def min_labels(size: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Per node, the smallest node id of its connected component.

    ``heads``/``tails`` list every edge in both directions. Min-label
    propagation with pointer jumping: while an edge joins two labels, the
    larger label's root is hooked onto the smaller, then every label is
    followed to its root.
    """
    label = np.arange(size, dtype=np.int64)
    while True:
        lh, lt = label[heads], label[tails]
        if np.array_equal(lh, lt):
            return label
        np.minimum.at(label, lh, lt)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def component_labels(net: WordNetwork) -> np.ndarray:
    """Connected-component id per node; ids are the smallest node id inside."""
    return min_labels(net.node_count, net.heads(), net.indices)


def largest_component_nodes(net: WordNetwork) -> np.ndarray:
    """Sorted node ids of the largest component (ties: smallest minimum id)."""
    comp = component_labels(net)
    ids, counts = np.unique(comp, return_counts=True)
    best = ids[np.argmax(counts)]  # np.unique sorts ids, argmax takes first max
    return np.flatnonzero(comp == best)


BLOCK_BYTES = 8 << 20  # transient bytes of one block of any batched kernel


def row_blocks(row_bytes: np.ndarray) -> Iterator[slice]:
    """Consecutive slices of rows, as many as fit in ``BLOCK_BYTES`` by their
    byte bounds ``row_bytes``; a row over the budget forms a block alone."""
    ends = np.cumsum(row_bytes)
    start = 0
    while start < len(ends):
        limit = ends[start] - row_bytes[start] + BLOCK_BYTES
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        yield slice(start, stop)
        start = stop


@dataclass
class GeodesicLevel:
    """The geodesic edges (s, v -> w) into the nodes at one hop distance,
    as flat ids ``tails`` = s * n + v and ``heads`` = s * n + w, in (s, v, w)
    order."""

    tails: np.ndarray
    heads: np.ndarray


def geodesic_row_bytes(net: WordNetwork) -> int:
    """An upper bound on one source row's bytes in a block of a geodesic pass:
    per CSR entry, a held geodesic edge (two int32 ids) and a level's
    expansion (about 28 bytes); per node, the float64 rows of Brandes' sigma,
    delta and sums, with room to spare."""
    return 32 * len(net.indices) + 64 * net.node_count


def bfs_distances(net: WordNetwork, sources: np.ndarray,
                  levels: list[GeodesicLevel] | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Hop distances from each source row to every node; -1 when unreachable.

    Frontier-expanding BFS over all sources at once: the frontier is a sorted
    array of flat ids s * n + v, and each level expands it over the CSR
    neighbour lists. The number of source rows bounds the memory a level
    takes, so a caller that needs a bound searches from blocks of sources.
    When ``levels`` is given, the geodesic edges into distance 1, 2, ... are
    appended to it, one ``GeodesicLevel`` per level. The distances are
    written into ``out`` when given (a C-ordered int32 (sources, n) array).
    Flat ids are int32 unless s * n overflows it.
    """
    n = net.node_count
    sources = np.asarray(sources, dtype=np.int64)
    ids = np.int32 if len(sources) * n < 2**31 else np.int64
    if out is None:
        out = np.empty((len(sources), n), dtype=np.int32)
    dist = out.reshape(-1)
    dist.fill(-1)
    frontier = (np.arange(len(sources), dtype=np.int64) * n + sources).astype(ids)
    dist[frontier] = 0
    level = 0
    while len(frontier):
        level += 1
        tails, heads = _expand(frontier, n, net.indptr, net.indices, net.degrees)
        fresh = dist[heads] < 0
        tails, heads = tails[fresh], heads[fresh]
        dist[heads] = level
        frontier = np.flatnonzero(dist == level).astype(ids)
        if levels is not None and len(frontier):
            levels.append(GeodesicLevel(tails, heads))
    return out


def _expand(frontier: np.ndarray, n: int, indptr: np.ndarray, indices: np.ndarray,
            degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every step (s, v -> w) out of the flat ids s * n + v in ``frontier``,
    as flat (tails, heads) in (s, v, w) order."""
    node = frontier % n
    deg = degrees[node]
    tails = np.repeat(frontier, deg)
    first = np.cumsum(deg) - deg
    pos = np.arange(len(tails), dtype=np.int64) + np.repeat(indptr[node] - first, deg)
    heads = np.repeat(frontier - node, deg) + indices[pos].astype(frontier.dtype)
    return tails, heads


def network_to_json(net: WordNetwork, doc: Document) -> str:
    """Debug/plot export of ``net``, built from ``doc``: nodes with each
    lemma's token count and stopword flag, read from the document, plus the
    deduplicated edge list."""
    frequency = Counter(doc.tokens)
    stopwords = {tok for tok, flag in zip(doc.tokens, doc.stopword_mask) if flag}
    payload = {
        "nodes": [
            {"id": i, "label": label, "frequency": frequency[label], "stopword": label in stopwords}
            for i, label in enumerate(net.node_labels)
        ],
        "edges": [[u, v] for u, v in net.edges()],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
