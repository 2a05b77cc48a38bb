"""Independent brute-force reference implementations used by the tests.

Everything here is written against plain adjacency dictionaries and exact
rational arithmetic where possible, deliberately sharing no algorithmic code
with the package: path-based quantities enumerate simple paths outright, walk
distributions recurse over walk prefixes with Fractions, and the matrix
exponential is a truncated Taylor sum. Information gain is counted one
column and one (bin, label) cell at a time. The learners are the plain forms
of what ``prosenet.learn`` vectorises: a single-row KNN vote, a CART that
masks the rows once per threshold, and a relevance sweep that sums one
subset's distances at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from prosenet.features import FeatureMatrix
from prosenet.graph import WordNetwork, _csr_from_edges
from prosenet.learn import _CartNode


def net_from_edges(n: int, edges: set[tuple[int, int]], doc_id: str = "t") -> WordNetwork:
    indptr, indices = _csr_from_edges(n, edges)
    return WordNetwork(
        [f"n{i}" for i in range(n)],
        indptr,
        indices,
        np.ones(n, dtype=np.int64),
        np.zeros(n, dtype=bool),
        doc_id,
    )


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
