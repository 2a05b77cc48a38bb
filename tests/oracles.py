"""Independent brute-force reference implementations used by the tests.

Everything here is written against plain adjacency dictionaries and exact
rational arithmetic where possible, deliberately sharing no algorithmic code
with the package: path-based quantities enumerate simple paths outright, walk
distributions recurse over walk prefixes with Fractions, and the matrix
exponential is a truncated Taylor sum. Information gain is counted one
column and one (bin, label) cell at a time, and the frequency decorrelation
filter correlates one column at a time. The learners are the plain forms
of what ``prosenet.learn`` vectorises: a single-row KNN vote, a CART that
masks the rows once per threshold, and a relevance sweep that sums one
subset's distances at a time. The relevance ledger and omega come from a
full subset-by-feature bit matrix, and its CSVs are whole strings built
from one name string per mask, as ``prosenet.pipeline`` once built them.
The binomial significance is the Fraction it was once rounded from, and the
baselines' relative-frequency tables are counted one token and one
character bigram at a time. Test networks are built from edge sets through
``prosenet.graph._csr``.

Three later sections hold earlier forms of package code. The per-source
reference walks (SAW distributions, accessibility, the backbone and merged
patterns, concentric symmetry, one ring entropy at a time) were the
package's own slow paths, built on its BFS and on its earlier SAW enumerator
``saw_levels``, which also tracks the mass of walks stranded early; they now
serve as references for the batch kernels, as does the backbone walk over
the BFS's geodesic levels that the one concentric-walk kernel replaced.
The scipy kernels (sparse-product BFS, Brandes betweenness, clustering,
eigenvector, PageRank, component labels, ``scipy.linalg.expm`` and ``Ag``
from its rows) and the greedy community search that re-pushes stale heap
entries are what the numpy kernels replaced, kept to show the replacements
give identical results, or, for ``Ag``, results within a stated tolerance. The network builder that collected token pairs in a Python set,
and the edge list read one node at a time, do the same for the CSR builder.
Modularity has two forms here and none in the package, which reports only
the greedy search's own Q: the vectorised one over the CSR edges that the
package once held, and the pairwise sum it is checked against.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.linalg import expm as scipy_expm
from scipy.sparse import csgraph

from prosenet import ConvergenceError, ProsenetError
from prosenet.features import DocumentMeasures, FeatureMatrix, _impute_column_means
from prosenet.graph import (GeodesicLevel, WordNetwork, _csr, bfs_distances,
                            largest_component_nodes)
from prosenet.learn import RelevanceReport, _CartNode
from prosenet.metrics import (CommunityAssignment, NodeMeasures, _full, _on_component,
                              leading_eigenvector)
from prosenet.walks import DEFAULT_DEPTH_CAP


def csr_from_edges(n: int, pairs: set[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR arrays from a set of (u, v) pairs with u != v."""
    arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return _csr(n, arr[:, 0], arr[:, 1])


def net_from_edges(n: int, edges: set[tuple[int, int]]) -> WordNetwork:
    indptr, indices = csr_from_edges(n, edges)
    return WordNetwork([f"n{i}" for i in range(n)], indptr, indices)


def adjacency(n: int, edges: set[tuple[int, int]]) -> dict[int, list[int]]:
    adj = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for u in adj:
        adj[u].sort()
    return adj


def random_connected_graph(rng, n_min: int = 4, n_max: int = 12):
    """(n, edges) of a connected Erdos-Renyi-ish graph."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        p = float(rng.uniform(0.2, 0.7))
        edges = {
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        }
        adj = adjacency(n, edges)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            return n, edges


def shortest_path_length_bb(adj, source: int, target: int) -> int:
    """Shortest simple-path length by branch-and-bound DFS (-1 if none)."""
    best = [len(adj) + 1]

    def walk(node, visited, depth):
        if depth >= best[0]:
            return
        if node == target:
            best[0] = depth
            return
        for nbr in adj[node]:
            if nbr not in visited:
                visited.add(nbr)
                walk(nbr, visited, depth + 1)
                visited.remove(nbr)

    walk(source, {source}, 0)
    return -1 if best[0] > len(adj) else best[0]


def geodesics(adj, source: int, target: int, length: int):
    """Every simple path of exactly ``length`` hops source -> target."""
    found = []

    def walk(node, visited, acc):
        if len(acc) - 1 > length:
            return
        if node == target:
            if len(acc) - 1 == length:
                found.append(list(acc))
            return
        for nbr in adj[node]:
            if nbr not in visited:
                visited.add(nbr)
                acc.append(nbr)
                walk(nbr, visited, acc)
                acc.pop()
                visited.remove(nbr)

    walk(source, {source}, [source])
    return found


def oracle_distances(adj, n: int) -> np.ndarray:
    """All-pairs hop distances by per-pair branch-and-bound path search."""
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        for t in range(n):
            if t != s:
                dist[s, t] = shortest_path_length_bb(adj, s, t)
    return dist


def oracle_betweenness(adj, n: int) -> np.ndarray:
    """Ordered-pair betweenness from explicitly enumerated geodesics."""
    b = np.zeros(n, dtype=np.float64)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            d = shortest_path_length_bb(adj, s, t)
            if d < 0:
                continue
            paths = geodesics(adj, s, t, d)
            for u in range(n):
                if u in (s, t):
                    continue
                through = sum(1 for p in paths if u in p[1:-1])
                b[u] += through / len(paths)
    return b


def oracle_clustering(adj, n: int) -> np.ndarray:
    cc = np.zeros(n, dtype=np.float64)
    for u in range(n):
        nbrs = adj[u]
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            if nbrs[j] in adj[nbrs[i]]
        )
        cc[u] = links / (k * (k - 1) / 2)
    return cc


def oracle_rings(adj, n: int, source: int) -> dict[int, set[int]]:
    """Distance partition via plain frontier BFS."""
    rings = {0: {source}}
    seen = {source}
    r = 0
    while True:
        nxt = set()
        for u in rings[r]:
            for v in adj[u]:
                if v not in seen:
                    nxt.add(v)
        if not nxt:
            return rings
        r += 1
        rings[r] = nxt
        seen |= nxt


def oracle_saw(adj, source: int, h: int):
    """Exact SAW endpoint distribution with Fractions.

    Returns (probs: node -> Fraction over walks completing h steps,
    dead: Fraction of walks stranded earlier).
    """
    probs: dict[int, Fraction] = {}
    dead = Fraction(0)

    def walk(node, visited, p, steps):
        nonlocal dead
        if steps == h:
            probs[node] = probs.get(node, Fraction(0)) + p
            return
        options = [v for v in adj[node] if v not in visited]
        if not options:
            dead += p
            return
        share = p / len(options)
        for v in options:
            visited.add(v)
            walk(v, visited, share, steps + 1)
            visited.remove(v)

    walk(source, {source}, Fraction(1), 0)
    return probs, dead


def oracle_saw_prefix_counts(adj, source: int, h: int) -> list[int]:
    """counts[t]: the self-avoiding walks of t steps from source, t = 0..h."""
    counts = [0] * (h + 1)

    def walk(node, visited, steps):
        counts[steps] += 1
        if steps < h:
            for v in adj[node]:
                if v not in visited:
                    visited.add(v)
                    walk(v, visited, steps + 1)
                    visited.remove(v)

    walk(source, {source}, 0)
    return counts


def oracle_nonbacktracking_counts(adj, source: int, h: int) -> list[int]:
    """counts[t]: the walks of t steps from source that never step straight
    back to the node they came from, t = 0..h, counted per (node, previous
    node) state."""
    states = {(source, None): 1}
    counts = [1]
    for _ in range(h):
        following: dict = {}
        for (node, previous), ways in states.items():
            for v in adj[node]:
                if v != previous:
                    following[(v, node)] = following.get((v, node), 0) + ways
        states = following
        counts.append(sum(states.values()))
    return counts


def oracle_accessibility(adj, n: int, source: int, h: int) -> float:
    """exp-entropy of the SAW endpoint mass restricted to ring h."""
    rings = oracle_rings(adj, n, source)
    ring_h = rings.get(h, set())
    probs, _ = oracle_saw(adj, source, h)
    masses = [float(p) for node, p in probs.items() if node in ring_h]
    if not masses:
        return 0.0
    return float(np.exp(-sum(m * np.log(m) for m in masses)))


def oracle_monte_carlo_saw(adj, source: int, h: int, samples: int, rng):
    """Sampled SAW endpoint distribution (plus dead-end rate)."""
    counts: dict[int, int] = {}
    dead = 0
    for _ in range(samples):
        node = source
        visited = {source}
        for _step in range(h):
            options = [v for v in adj[node] if v not in visited]
            if not options:
                dead += 1
                break
            node = options[int(rng.integers(0, len(options)))]
            visited.add(node)
        else:
            counts[node] = counts.get(node, 0) + 1
    return {k: v / samples for k, v in counts.items()}, dead / samples


def oracle_symmetry(adj, n: int, source: int, h: int, variant: str) -> float:
    """Concentric symmetry recomputed from scratch with Fractions.

    Builds the transformed pattern as explicit sets, walks outward level by
    level, and applies the level-size + dead-end normalization.
    """
    rings = oracle_rings(adj, n, source)
    if h not in rings:
        return 0.0
    ring_of = {v: r for r, nodes in rings.items() for v in nodes}

    if variant == "backbone":
        group_of = {v: (ring_of[v], v) for v in ring_of if ring_of[v] <= h}
    else:
        group_of = {}
        for r, nodes in rings.items():
            if r > h:
                continue
            pending = set(nodes)
            while pending:
                start = min(pending)
                comp = {start}
                stack = [start]
                while stack:
                    u = stack.pop()
                    for v in adj[u]:
                        if v in pending and v not in comp and ring_of[v] == r:
                            comp.add(v)
                            stack.append(v)
                pending -= comp
                gid = (r, min(comp))
                for v in comp:
                    group_of[v] = gid

    groups = sorted(set(group_of.values()))
    out_edges = {g: set() for g in groups}
    for u in group_of:
        for v in adj[u]:
            if v in group_of and ring_of[v] == ring_of[u] + 1:
                out_edges[group_of[u]].add(group_of[v])

    mass = {group_of[source]: Fraction(1)}
    eta_total = 0
    for r in range(h):
        level_groups = [g for g in groups if g[0] == r]
        eta_total += sum(1 for g in level_groups if not out_edges[g])
        nxt: dict[tuple, Fraction] = {}
        for g in level_groups:
            if g not in mass or not out_edges[g]:
                continue
            share = mass[g] / len(out_edges[g])
            for tgt in out_edges[g]:
                nxt[tgt] = nxt.get(tgt, Fraction(0)) + share
        mass = nxt
    level_h = [g for g in groups if g[0] == h]
    if not level_h:
        return 0.0
    masses = [float(mass[g]) for g in level_h if g in mass and mass[g] > 0]
    numer = float(np.exp(-sum(m * np.log(m) for m in masses))) if masses else 0.0
    return numer / (len(level_h) + eta_total)


def oracle_taylor_expm(p: np.ndarray, terms: int = 60) -> np.ndarray:
    out = np.eye(p.shape[0])
    term = np.eye(p.shape[0])
    for k in range(1, terms + 1):
        term = term @ p / k
        out = out + term
    return out


def dense_adjacency(net: WordNetwork) -> np.ndarray:
    """Dense boolean adjacency matrix."""
    adj = np.zeros((net.node_count, net.node_count), dtype=bool)
    adj[net.heads(), net.indices] = True
    return adj


def transition_probabilities(net: WordNetwork) -> np.ndarray:
    """Dense P_ij = a_ij / k_i; an isolated node keeps an all-zero row."""
    k = net.degrees.astype(np.float64)
    return dense_adjacency(net) / np.where(k == 0, 1.0, k)[:, None]


def modularity(net: WordNetwork, labels: np.ndarray) -> float:
    """Literal modularity of a partition: intra-edge excess over chance,
    vectorised over the CSR edges."""
    m = net.edge_count
    if m == 0:
        raise ProsenetError("modularity is undefined on an edgeless network")
    labels = np.asarray(labels)
    if len(labels) != net.node_count:
        raise ValueError("labels must cover every node")
    communities, comm = np.unique(labels, return_inverse=True)
    head_comm = comm[net.heads()]
    inside = head_comm == comm[net.indices]  # each internal edge twice, once per end
    internal = np.bincount(head_comm[inside], minlength=len(communities)) // 2
    degree_sums = np.bincount(comm, weights=net.degrees, minlength=len(communities))
    return math.fsum((internal / m - (degree_sums / (2.0 * m)) ** 2).tolist())


def oracle_modularity(n: int, edges: set[tuple[int, int]], labels) -> float:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    k = a.sum(axis=1)
    two_m = a.sum()
    total = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                total += a[i, j] - k[i] * k[j] / two_m
    return total / two_m


def all_partitions(n: int):
    """Every partition of range(n) as a label list (restricted growth strings)."""
    labels = [0] * n

    def grow(i, max_label):
        if i == n:
            yield list(labels)
            return
        for lab in range(max_label + 2):
            labels[i] = lab
            yield from grow(i + 1, max(max_label, lab))

    yield from grow(1, 0)


def oracle_mutual_information(x_bins: np.ndarray, y: np.ndarray) -> float:
    """Contingency-table MI in bits, straight from counts."""
    n = len(x_bins)
    total = 0.0
    for xv in set(x_bins.tolist()):
        for yv in set(y.tolist()):
            nxy = int(((x_bins == xv) & (y == yv)).sum())
            if nxy == 0:
                continue
            nx = int((x_bins == xv).sum())
            ny = int((y == yv).sum())
            total += (nxy / n) * np.log2(n * nxy / (nx * ny))
    return total


# ---------------------------------------------------------------------------
# information gain: the per-column form of prosenet.features.rank_features
# ---------------------------------------------------------------------------

def equal_frequency_bins(x: np.ndarray, bins: int = 10) -> np.ndarray:
    """One column's equal-frequency bins: inverted-CDF cut points, ties share a bin."""
    qs = np.quantile(x, [i / bins for i in range(1, bins)], method="inverted_cdf")
    return np.searchsorted(qs, x, side="right")


def information_gain(fm: FeatureMatrix, feature: str | int, bins: int = 10) -> float:
    """Mutual information (bits) between the discretized feature and the label."""
    j = fm.feature_names.index(feature) if isinstance(feature, str) else feature
    x = equal_frequency_bins(fm.values[:, j], bins)
    label_names = sorted(set(fm.labels))
    y = np.array([label_names.index(l) for l in fm.labels])
    return mutual_information_bits(x, y)


def mutual_information_bits(x: np.ndarray, y: np.ndarray) -> float:
    """Plug-in mutual information of two discrete sequences, in bits."""
    xs = np.unique(x)
    ys = np.unique(y)
    total = 0.0
    for xv in xs:
        px = (x == xv).mean()
        for yv in ys:
            pxy = ((x == xv) & (y == yv)).mean()
            if pxy > 0:
                py = (y == yv).mean()
                total += pxy * math.log2(pxy / (px * py))
    return max(total, 0.0)


def oracle_rank_features(fm: FeatureMatrix, bins: int = 10) -> list[tuple[str, float]]:
    """Every column's ``information_gain``, best first; ties by name."""
    gains = [(name, information_gain(fm, j, bins)) for j, name in enumerate(fm.feature_names)]
    gains.sort(key=lambda t: (-t[1], t[0]))
    return gains


# ---------------------------------------------------------------------------
# the per-column form of prosenet.features.frequency_decorrelation_filter
# ---------------------------------------------------------------------------

def pearson(x: np.ndarray, y: np.ndarray) -> float:
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def oracle_local_features(doc_measures: list[DocumentMeasures],
                          word_list: list[str]) -> FeatureMatrix:
    """``features.local_features`` one cell at a time: documents, then
    measures, then words."""
    measure_names = sorted(doc_measures[0].measures)
    names = [f"{m}@{w}" for m in measure_names for w in word_list]
    values = np.zeros((len(doc_measures), len(names)), dtype=np.float64)
    missing = np.ones((len(doc_measures), len(names)), dtype=bool)
    for i, dm in enumerate(doc_measures):
        index = {w: node for node, w in enumerate(dm.node_labels)}
        col = 0
        for m in measure_names:
            nm = dm.measures[m]
            for w in word_list:
                node = index.get(w)
                if node is not None and not nm.missing[node]:
                    values[i, col] = nm.values[node]
                    missing[i, col] = False
                col += 1
    return FeatureMatrix([dm.doc_id for dm in doc_measures], [dm.label for dm in doc_measures],
                         names, _impute_column_means(values, missing))


def oracle_decorrelation_filter(
    fm: FeatureMatrix,
    frequencies: dict[str, dict[str, int]],
    rho_max: float = 0.5,
) -> FeatureMatrix:
    """Each local column's ``pearson`` with its word's frequency, one at a time."""
    keep = []
    for j, name in enumerate(fm.feature_names):
        if "@" not in name:
            keep.append(name)
            continue
        word = name.split("@", 1)[1]
        freq = np.array(
            [frequencies.get(d, {}).get(word, 0) for d in fm.doc_ids], dtype=np.float64
        )
        if abs(pearson(fm.values[:, j], freq)) <= rho_max:
            keep.append(name)
    return fm.subset(keep)


# ---------------------------------------------------------------------------
# learners: the per-row, per-threshold and per-subset forms of prosenet.learn
# ---------------------------------------------------------------------------

def knn_classify(
    train_x: np.ndarray, train_y: list[str], row: np.ndarray, k: int = 1
) -> str:
    """Majority label among the K nearest training rows (Euclidean).

    Rows tied with the K-th distance all vote; label ties go to the
    lexicographically smaller label. Inputs are assumed already normalized.
    """
    if len(train_x) == 0:
        raise ValueError("empty training set")
    d2 = ((train_x - row) ** 2).sum(axis=1)
    kth = np.partition(d2, min(k, len(d2)) - 1)[min(k, len(d2)) - 1]
    voters = d2 <= kth
    labels = sorted(set(train_y))
    counts = {lab: 0 for lab in labels}
    for lab, v in zip(train_y, voters):
        if v:
            counts[lab] += 1
    return sorted(labels, key=lambda lab: (-counts[lab], lab))[0]


def oracle_gini(y: np.ndarray) -> float:
    _, counts = np.unique(y, return_counts=True)
    p = counts / counts.sum()
    return 1.0 - float((p * p).sum())


def oracle_cart_train(train_x: np.ndarray, train_y: list[str], min_split: int = 2) -> _CartNode:
    """Binary Gini tree that tries every threshold with a mask over the rows.

    A midpoint that rounds onto a column's largest value sends every row left
    and makes the recursion endless (RecursionError); ``cart_train`` treats it
    as no split.
    """
    y = np.asarray(train_y, dtype=object)

    def majority(labels: np.ndarray) -> str:
        vals, counts = np.unique(labels, return_counts=True)
        order = sorted(range(len(vals)), key=lambda i: (-counts[i], vals[i]))
        return str(vals[order[0]])

    def build(x: np.ndarray, labels: np.ndarray) -> _CartNode:
        if len(set(labels)) == 1 or len(labels) < min_split:
            return _CartNode(label=majority(labels))
        best = None  # (weighted_gini, feature, threshold)
        for f in range(x.shape[1]):
            col = x[:, f]
            uniq = np.unique(col)
            for a, b in zip(uniq[:-1], uniq[1:]):
                thr = (a + b) / 2.0
                mask = col <= thr
                n_l = int(mask.sum())
                impurity = (
                    n_l * oracle_gini(labels[mask])
                    + (len(labels) - n_l) * oracle_gini(labels[~mask])
                ) / len(labels)
                cand = (impurity, f, float(thr))
                if best is None or cand < best:
                    best = cand
        if best is None:
            return _CartNode(label=majority(labels))
        _, f, thr = best
        mask = x[:, f] <= thr
        node = _CartNode(feature=f, threshold=thr)
        node.left = build(x[mask], labels[mask])
        node.right = build(x[~mask], labels[~mask])
        return node

    return build(np.asarray(train_x, dtype=np.float64), y)


def oracle_knn_subset_accuracies(x: np.ndarray, y01: np.ndarray, k: int) -> np.ndarray:
    """LOO KNN accuracy of every nonempty column subset, one subset at a time."""
    n, phi = x.shape
    deltas = np.empty((phi, n, n), dtype=np.float64)
    for f in range(phi):
        col = x[:, f]
        deltas[f] = (col[:, None] - col[None, :]) ** 2
    s = x.sum(axis=0)
    ss = (x * x).sum(axis=0)
    mean_i = (s - x) / (n - 1)
    var_i = (ss - x * x) / (n - 1) - mean_i**2
    w = np.ones_like(var_i)
    np.divide(1.0, var_i, out=w, where=var_i > 1e-300)
    kk = min(k, n - 1)
    diag = np.arange(n)
    accuracies = np.zeros(2**phi - 1, dtype=np.float64)
    for mask in range(1, 2**phi):
        feats = [f for f in range(phi) if mask >> f & 1]
        d2 = np.einsum("if,fij->ij", w[:, feats], deltas[feats])
        d2[diag, diag] = np.inf
        kth = np.partition(d2, kk - 1, axis=1)[:, kk - 1]
        voters = d2 <= kth[:, None]
        ones = voters @ y01
        zeros = voters.sum(axis=1) - ones
        preds = (ones > zeros).astype(np.int64)
        accuracies[mask - 1] = float((preds == y01).mean())
    return accuracies


def oracle_rank_subsets(
    feature_names: list[str], accuracies: np.ndarray
) -> tuple[list[tuple[int, float]], np.ndarray, dict[str, int]]:
    """The ledger, omega and index from a (2^phi - 1) x phi bit matrix."""
    phi = len(feature_names)
    masks = np.arange(1, 2**phi)
    bits = masks[:, None] >> np.arange(phi) & 1
    order = np.lexsort((masks, bits.sum(axis=1), -accuracies))
    ledger = [(int(m), float(a)) for m, a in zip(masks[order], accuracies[order])]
    omega = bits[order[: 2 ** (phi - 1)]].cumsum(axis=0).T
    r_index = {feature_names[f]: int(omega[f].sum()) for f in range(phi)}
    return ledger, omega, r_index


def relevance_csvs(report: RelevanceReport) -> tuple[str, str, str]:
    """The ledger, index and omega CSVs as whole strings, with one joined
    name string per mask."""
    feats = [""]
    for mask in range(1, 2 ** len(report.feature_names)):
        low = mask & -mask
        name = report.feature_names[low.bit_length() - 1]
        feats.append(name if mask == low else f"{name};{feats[mask ^ low]}")
    ledger_lines = ["rank,bitmask,features,accuracy"]
    for rank, (mask, acc) in enumerate(report.ledger.tolist(), start=1):
        ledger_lines.append(f"{rank},{mask},{feats[mask]},{acc!r}")
    index_lines = ["feature,r_index"]
    order = sorted(report.r_index, key=lambda f: (-report.r_index[f], f))
    for feat in order:
        index_lines.append(f"{feat},{report.r_index[feat]}")
    omega_lines = ["k," + ",".join(report.feature_names)]
    for k in range(report.omega.shape[1]):
        omega_lines.append(f"{k + 1}," + ",".join(str(v) for v in report.omega[:, k]))
    return (
        "\n".join(ledger_lines) + "\n",
        "\n".join(index_lines) + "\n",
        "\n".join(omega_lines) + "\n",
    )


def fraction_significance(accuracy: float, n: int) -> float:
    """P(X >= round(accuracy*n)) at p = 1/2, rounded once from the exact Fraction."""
    hits = round(accuracy * n)
    return float(Fraction(sum(math.comb(n, k) for k in range(hits, n + 1)), 2**n))


def relative_frequency_matrix(docs, vocabulary: list[str]) -> np.ndarray:
    """Each document's relative frequency of each vocabulary word, one token
    at a time: a row of zeros for an empty document."""
    rows = np.zeros((len(docs), len(vocabulary)), dtype=np.float64)
    index = {w: j for j, w in enumerate(vocabulary)}
    for i, doc in enumerate(docs):
        for tok in doc.tokens:
            j = index.get(tok)
            if j is not None:
                rows[i, j] += 1.0
        if doc.tokens:
            rows[i] /= len(doc.tokens)
    return rows


def bigram_frequency_matrix(texts: list[str], vocabulary: list[str]) -> np.ndarray:
    """Each text's relative frequency of each word-internal character bigram
    in ``vocabulary``, which must hold every bigram of the texts, counted one
    bigram at a time: a row of zeros for a text without bigrams."""
    rows = np.zeros((len(texts), len(vocabulary)), dtype=np.float64)
    index = {bg: j for j, bg in enumerate(vocabulary)}
    for i, text in enumerate(texts):
        total = 0
        for word in re.findall(r"[a-z]+", text.lower()):
            for a, b in zip(word[:-1], word[1:]):
                rows[i, index[a + b]] += 1.0
                total += 1
        if total:
            rows[i] /= total
    return rows


# ---------------------------------------------------------------------------
# per-source reference walks, formerly prosenet.walks
# ---------------------------------------------------------------------------

def ring_entropy_exp(probs: np.ndarray) -> float:
    """exp of the Shannon entropy of a (possibly sub-unit) mass vector."""
    pos = probs[probs > 0]
    if len(pos) == 0:
        return 0.0
    return float(np.exp(-np.sum(pos * np.log(pos))))


def where_exp_entropy_rows(rows: np.ndarray) -> np.ndarray:
    """exp of the Shannon entropy of each nonnegative mass row (0 for a row
    without mass), as ``walks._exp_entropy_rows`` took it: the log of every
    cell, with ``np.where`` putting 1 in place of the cells without mass."""
    positive = rows > 0
    ent = -np.sum(np.where(positive, rows * np.log(np.where(positive, rows, 1.0)), 0.0), axis=1)
    return np.where(rows.sum(axis=1) > 0, np.exp(ent), 0.0)


def ring_exp_entropies_per_row(rows: np.ndarray) -> np.ndarray:
    """``ring_entropy_exp`` of each row's positive cells, one row at a time,
    as ``merged_symmetry_batch`` took them."""
    return np.array([ring_entropy_exp(row[row > 0]) for row in rows], dtype=np.float64)


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
    indptr, indices = csr_from_edges(len(keep), pairs)
    return WordNetwork([net.node_labels[i] for i in keep], indptr, indices)


@dataclass
class WalkDistribution:
    """Endpoint distribution of exact h-step self-avoiding walks from one node.

    ``probs`` maps each endpoint reached after completing all h steps to its
    probability; walks stranded earlier contribute to ``dead_end_mass``.
    """

    source: int
    h: int
    probs: dict[int, float]
    dead_end_mass: float

    def total(self) -> float:
        return math.fsum(self.probs.values()) + self.dead_end_mass


@dataclass
class ConcentricLevels:
    """BFS rings around a source plus per-ring dead-end counts."""

    source: int
    rings: list[np.ndarray]
    dead_end_counts: list[int]


@dataclass
class ConcentricPattern:
    """Backbone or merged local pattern around a source, up to depth h.

    Pattern nodes are numbered 0..P-1; ``members[p]`` lists the original node
    ids collapsed into pattern node p (a single id for backbone patterns).
    Edges only join consecutive rings.
    """

    source: int
    variant: str
    rings: list[np.ndarray]
    members: list[np.ndarray]
    indptr: np.ndarray
    indices: np.ndarray
    dead_end_counts: list[int]

    @property
    def node_count(self) -> int:
        return len(self.members)

    def neighbors(self, p: int) -> np.ndarray:
        return self.indices[self.indptr[p] : self.indptr[p + 1]]


def concentric_levels(net: WordNetwork, source: int, h_max: int) -> ConcentricLevels:
    """Rings of nodes at distance 0..h_max and dead-end counts per ring."""
    dist = bfs_distances(net, np.array([source]))[0]
    rings = []
    for r in range(h_max + 1):
        ring = np.flatnonzero(dist == r)
        if len(ring) == 0 and r > 0:
            break
        rings.append(ring)
    eta = []
    for r, ring in enumerate(rings):
        count = 0
        for v in ring:
            if not (dist[net.neighbors(int(v))] == r + 1).any():
                count += 1
        eta.append(count)
    return ConcentricLevels(source, rings, eta)


def saw_levels(
    net: WordNetwork,
    sources: np.ndarray,
    h_max: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact SAW position distributions for a batch of sources.

    Returns (levels, dead) where levels[t-1][s, v] is the probability that the
    walker from sources[s] stands on v after t steps, and dead[s, t] is the
    mass of walks from sources[s] that could not complete t steps.
    """
    n_src = len(sources)
    n = net.node_count
    indptr, indices = net.indptr, net.indices

    src_idx = np.arange(n_src, dtype=np.int64)
    src_node = sources.astype(np.int64)
    cur = sources.astype(np.int64)
    prob = np.ones(n_src, dtype=np.float64)
    hist: list[np.ndarray] = []

    levels = [np.zeros((n_src, n), dtype=np.float64) for _ in range(h_max)]
    dead = np.zeros((n_src, h_max + 1), dtype=np.float64)
    dead_running = np.zeros(n_src, dtype=np.float64)

    for t in range(1, h_max + 1):
        if len(cur) == 0:
            dead[:, t] = dead_running
            continue
        deg = (indptr[cur + 1] - indptr[cur]).astype(np.int64)
        total = int(deg.sum())
        path_id = np.repeat(np.arange(len(cur), dtype=np.int64), deg)
        cum = np.concatenate(([0], np.cumsum(deg)))
        pos = indptr[cur][path_id] + (np.arange(total, dtype=np.int64) - cum[path_id])
        nbr = indices[pos].astype(np.int64)

        mask = nbr != src_node[src_idx[path_id]]
        for col in hist:
            mask &= nbr != col[path_id]

        branch = np.bincount(path_id[mask], minlength=len(cur)).astype(np.float64)
        stuck = branch == 0
        if stuck.any():
            np.add.at(dead_running, src_idx[stuck], prob[stuck])

        sel = path_id[mask]
        prob = prob[sel] / branch[sel]
        hist = [col[sel] for col in hist] + [cur[sel]]
        src_idx = src_idx[sel]
        cur = nbr[mask]

        dead[:, t] = dead_running
        if len(cur):
            flat = np.bincount(src_idx * n + cur, weights=prob, minlength=n_src * n)
            levels[t - 1] = flat.reshape(n_src, n)
    return levels, dead


def saw_distribution(
    net: WordNetwork,
    source: int,
    h: int,
    cap: int = DEFAULT_DEPTH_CAP,
) -> WalkDistribution:
    """Exact endpoint distribution of h-step self-avoiding walks from source."""
    if not 1 <= h <= cap:
        raise ValueError(f"h must lie in 1..{cap}")
    levels, dead = saw_levels(net, np.array([source]), h)
    row = levels[h - 1][0]
    probs = {int(v): float(row[v]) for v in np.flatnonzero(row > 0)}
    return WalkDistribution(source, h, probs, float(dead[0, h]))


def accessibility(
    net: WordNetwork,
    source: int,
    h: int,
    cap: int = DEFAULT_DEPTH_CAP,
) -> float:
    """Effective number of nodes reached at concentric level h.

    exp of the entropy of the level-h access probabilities: the h-step walk
    endpoint mass restricted to nodes at hop distance exactly h. Zero when no
    walk reaches that level.
    """
    dist = bfs_distances(net, np.array([source]))[0]
    walk = saw_distribution(net, source, h, cap=cap)
    ring_probs = np.array(
        [p for node, p in sorted(walk.probs.items()) if dist[node] == h], dtype=np.float64
    )
    return ring_entropy_exp(ring_probs)


def _pattern_from_layers(
    source: int,
    variant: str,
    dist: np.ndarray,
    net: WordNetwork,
    h: int,
) -> ConcentricPattern:
    """Build the backbone or merged pattern on rings 0..h."""
    in_ball = (dist >= 0) & (dist <= h)
    nodes = np.flatnonzero(in_ball)

    if variant == "backbone":
        members = [np.array([v]) for v in nodes]
        pat_of = {int(v): i for i, v in enumerate(nodes)}
        ring_of = {int(v): int(dist[v]) for v in nodes}
    elif variant == "merged":
        from scipy.sparse import csgraph, csr_matrix

        # connected components of each ring under intra-ring edges
        rows, cols = [], []
        for u in nodes:
            for v in net.neighbors(int(u)):
                if in_ball[v] and dist[v] == dist[u]:
                    rows.append(int(u))
                    cols.append(int(v))
        sub = csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(net.node_count, net.node_count)
        )
        _, raw = csgraph.connected_components(sub, directed=False)
        groups: dict[int, list[int]] = {}
        for v in nodes:
            groups.setdefault(int(raw[v]), []).append(int(v))
        ordered = sorted(groups.values(), key=min)
        members = [np.array(g) for g in ordered]
        pat_of = {v: i for i, g in enumerate(ordered) for v in g}
        ring_of = {i: int(dist[g[0]]) for i, g in enumerate(ordered)}
        ring_of = {v: ring_of[pat_of[v]] for v in pat_of}
    else:
        raise ValueError(f"unknown symmetry variant {variant!r}")

    edges: set[tuple[int, int]] = set()
    for u in nodes:
        for v in net.neighbors(int(u)):
            if in_ball[v] and abs(int(dist[v]) - int(dist[u])) == 1:
                a, b = pat_of[int(u)], pat_of[int(v)]
                edges.add((min(a, b), max(a, b)))

    n_pat = len(members)
    indptr, indices = csr_from_edges(n_pat, edges)
    rings = []
    for r in range(h + 1):
        ring = np.array(
            sorted(p for p in range(n_pat) if int(dist[members[p][0]]) == r), dtype=np.int64
        )
        if len(ring) == 0 and r > 0:
            break
        rings.append(ring)

    eta = []
    for r, ring in enumerate(rings):
        count = 0
        nxt = set(rings[r + 1].tolist()) if r + 1 < len(rings) else set()
        for p in ring:
            nbrs = indices[indptr[p] : indptr[p + 1]]
            if not any(int(q) in nxt for q in nbrs):
                count += 1
        eta.append(count)
    return ConcentricPattern(pat_of[source], variant, rings, members, indptr, indices, eta)


def backbone_transform(net: WordNetwork, source: int, h: int) -> ConcentricPattern:
    """Induced subgraph on rings 0..h with intra-ring edges deleted."""
    dist = bfs_distances(net, np.array([source]))[0]
    return _pattern_from_layers(source, "backbone", dist, net, h)


def merged_transform(net: WordNetwork, source: int, h: int) -> ConcentricPattern:
    """Rings 0..h with each intra-ring connected group collapsed to one node."""
    dist = bfs_distances(net, np.array([source]))[0]
    return _pattern_from_layers(source, "merged", dist, net, h)


def pattern_level_distribution(pattern: ConcentricPattern, h: int) -> np.ndarray:
    """Concentric-walk access probabilities over the pattern's level-h nodes.

    Mass starts at the source and moves outward one ring per step, split
    uniformly over the outward pattern neighbors; nodes without outward edges
    absorb their mass. Returns the mass per level-h pattern node (aligned with
    pattern.rings[h]), an empty array when the pattern has no level h.
    """
    if h >= len(pattern.rings):
        return np.zeros(0, dtype=np.float64)
    mass = np.zeros(pattern.node_count, dtype=np.float64)
    mass[pattern.source] = 1.0
    ring_index = np.full(pattern.node_count, -1, dtype=np.int64)
    for r, ring in enumerate(pattern.rings):
        ring_index[ring] = r
    for r in range(h):
        nxt = np.zeros(pattern.node_count, dtype=np.float64)
        for p in pattern.rings[r]:
            out = [int(q) for q in pattern.neighbors(int(p)) if ring_index[q] == r + 1]
            if out and mass[p] > 0:
                share = mass[p] / len(out)
                for q in out:
                    nxt[q] += share
        mass = nxt
    return mass[pattern.rings[h]]


def symmetry(net: WordNetwork, source: int, h: int, variant: str) -> float:
    """Concentric symmetry at level h: exp-entropy of the pattern access
    distribution over level h, normalized by the level size plus the dead
    ends accumulated on the way out. Zero when the pattern has no level h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if variant not in ("backbone", "merged"):
        raise ValueError(f"unknown symmetry variant {variant!r}")
    pattern = (backbone_transform if variant == "backbone" else merged_transform)(
        net, source, h
    )
    probs = pattern_level_distribution(pattern, h)
    if len(probs) == 0:
        return 0.0
    numerator = ring_entropy_exp(probs)
    denominator = len(pattern.rings[h]) + sum(pattern.dead_end_counts[:h])
    return numerator / denominator


def levels_backbone_symmetry(net: WordNetwork, sources: np.ndarray,
                             h_values: tuple[int, ...]) -> np.ndarray:
    """Backbone symmetry as ``backbone_symmetry_batch`` took it from the
    geodesic levels of a BFS from the sources: outward degrees and each walk
    step are one ``np.bincount`` over a level's edges; shape (S, len(h_values))."""
    h_max = max(h_values)
    sources = np.asarray(sources)
    levels: list[GeodesicLevel] = []
    dist = bfs_distances(net, sources, levels)
    n_src, n = len(sources), net.node_count
    size = n_src * n
    mass = np.zeros(size, dtype=np.float64)
    mass[np.arange(n_src) * n + sources] = 1.0
    eta_cum = np.zeros(n_src, dtype=np.float64)
    out = np.zeros((n_src, len(h_values)), dtype=np.float64)
    none = np.zeros(0, dtype=np.int64)
    for r in range(h_max):
        lev = levels[r] if r < len(levels) else GeodesicLevel(none, none)
        outward = np.bincount(lev.tails, minlength=size)
        dead = (dist == r) & (outward.reshape(n_src, n) == 0)
        eta_cum += dead.sum(axis=1)
        contrib = mass[lev.tails] / outward[lev.tails]
        mass = np.bincount(lev.heads, weights=contrib, minlength=size)
        level = r + 1
        if level in h_values:
            col = h_values.index(level)
            numer = where_exp_entropy_rows(mass.reshape(n_src, n))
            ring_count = (dist == level).sum(axis=1)
            denom = ring_count + eta_cum
            out[:, col] = np.where(ring_count > 0, numer / np.where(denom > 0, denom, 1.0), 0.0)
    return out


# ---------------------------------------------------------------------------
# the scipy kernels and the re-pushing community search the package replaced
# ---------------------------------------------------------------------------

def sparse_adjacency(net: WordNetwork) -> sparse.csr_matrix:
    data = np.ones(len(net.indices), dtype=np.float64)
    n = net.node_count
    return sparse.csr_matrix((data, net.indices, net.indptr), shape=(n, n))


def scipy_component_labels(net: WordNetwork) -> np.ndarray:
    """Component id per node (its smallest node id) from ``csgraph``."""
    _, raw = csgraph.connected_components(sparse_adjacency(net), directed=False)
    _, first = np.unique(raw, return_index=True)
    return first[raw].astype(np.int64)


def scipy_bfs_distances(net: WordNetwork, sources: np.ndarray) -> np.ndarray:
    """Level-synchronous BFS: a dense frontier advanced by one sparse product per level."""
    n = net.node_count
    adj = sparse_adjacency(net)
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


def _sparse_component(net: WordNetwork):
    comp = largest_component_nodes(net)
    return comp, sparse_adjacency(net)[comp][:, comp]


def scipy_betweenness(net: WordNetwork) -> NodeMeasures:
    """Level-synchronous Brandes: sigma and delta advance one distance level
    per sparse product, for all sources at once."""
    comp, adj = _sparse_component(net)
    n = len(comp)
    if n <= 2:
        return _on_component(net, comp, np.zeros(n))

    dist = scipy_bfs_distances(net, np.arange(net.node_count))[np.ix_(comp, comp)]
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
    return _on_component(net, comp, delta.sum(axis=0))


def scipy_clustering(net: WordNetwork) -> NodeMeasures:
    adj = sparse_adjacency(net)
    a2 = adj @ adj
    triangles = np.asarray(adj.multiply(a2).sum(axis=1)).ravel() / 2.0
    k = net.degrees.astype(np.float64)
    pairs = k * (k - 1.0) / 2.0
    cc = np.divide(triangles, pairs, out=np.zeros_like(triangles), where=pairs > 0)
    return _full(cc)


def scipy_eigenvector_centrality(net: WordNetwork, tol: float = 1e-10,
                                 max_iter: int = 10_000) -> NodeMeasures:
    comp, adj = _sparse_component(net)
    n = len(comp)
    if n == 1:
        return _on_component(net, comp, np.ones(1))
    vec = leading_eigenvector(lambda x: adj @ x, n, tol=tol, max_iter=max_iter)
    return _on_component(net, comp, vec)


def scipy_pagerank(net: WordNetwork, alpha: float = 0.85, tol: float = 1e-12,
                   max_iter: int = 200_000) -> NodeMeasures:
    comp, adj = _sparse_component(net)
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
    return _on_component(net, comp, pr)


@dataclass
class TransitionMatrix:
    """The normalized exponential of the uniform-neighbor transition matrix."""

    walk_mixture: np.ndarray = field(repr=False)


def scipy_transition_matrix(net: WordNetwork) -> TransitionMatrix:
    """exp(P)/row-sum of P = D^-1 A with ``scipy.linalg.expm`` on P itself."""
    w = scipy_expm(transition_probabilities(net))
    return TransitionMatrix(w / w.sum(axis=1)[:, None])


def oracle_ag(tm: TransitionMatrix, exclude_self: bool) -> np.ndarray:
    """Ag of every node from ``tm``'s rows, one row at a time: exp of the
    Shannon entropy of the row's positive cells, the row first dropping its
    own node and renormalized when ``exclude_self``; 0 for a row left
    without mass."""
    out = np.zeros(len(tm.walk_mixture))
    for i, row in enumerate(tm.walk_mixture):
        if exclude_self:
            row = row.copy()
            row[i] = 0.0
            total = row.sum()
            if total <= 0:
                continue
            row /= total
        p = row[row > 0]
        out[i] = math.exp(-float(np.sum(p * np.log(p)))) if len(p) else 0.0
    return out


def repush_detect_communities(net: WordNetwork) -> CommunityAssignment:
    """Greedy modularity merging that re-pushes each stale heap entry it pops
    with a recomputed gain."""
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

        keep, drop = a, b
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
    if q < 0.0:
        return CommunityAssignment(np.zeros(n, dtype=np.int64), 0.0)

    labels = np.zeros(n, dtype=np.int64)
    for new_id, cid in enumerate(sorted(members, key=lambda c: min(members[c]))):
        for node in members[cid]:
            labels[node] = new_id
    return CommunityAssignment(labels, q)


# ---------------------------------------------------------------------------
# the pair-set network builder and the per-node edge loop the CSR arrays replaced
# ---------------------------------------------------------------------------

def pairset_build_network(doc, window: int = 1) -> WordNetwork:
    """``build_network`` as a Python set of (min, max) token-id pairs, turned
    into CSR arrays by one lexsort and ``np.add.at`` on the row counts."""
    labels: list[str] = []
    index: dict[str, int] = {}
    for tok in doc.tokens:
        if tok not in index:
            index[tok] = len(labels)
            labels.append(tok)
    ids = [index[t] for t in doc.tokens]
    pairs: set[tuple[int, int]] = set()
    for off in range(1, window + 1):
        for a, b in zip(ids[:-off], ids[off:]):
            if a != b:
                pairs.add((min(a, b), max(a, b)))

    n = len(labels)
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
    return WordNetwork(labels, indptr, tails.astype(np.int32))


def loop_edges(net: WordNetwork) -> list[tuple[int, int]]:
    """``WordNetwork.edges`` one node and one neighbour at a time."""
    out = []
    for u in range(net.node_count):
        for v in net.neighbors(u):
            if u < v:
                out.append((u, int(v)))
    return out
