"""Walk-based measurements: self-avoiding-walk access, accessibility,
matrix-exponential walk mixtures, and concentric symmetry.

Self-avoiding walks are enumerated exactly: the set of alive walk prefixes is
kept in flat arrays (endpoint, probability, short visited history) and grown
one step at a time, so the whole frontier advances with a handful of numpy
operations per level. Depth is capped (default 4), which also bounds the
history to three columns.

Concentric symmetry is evaluated on the backbone/merged pattern with the
concentric walk: at each step the walker moves uniformly among the pattern
neighbors one level further out, and pattern nodes without outward edges
absorb their mass as dead ends. Both patterns are layered (their only edges
join consecutive levels), so outward trajectories never revisit a node and
the walk is self-avoiding by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csgraph, csr_matrix

from .graph import WordNetwork, bfs_distances

DEFAULT_DEPTH_CAP = 4


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
class TransitionMatrix:
    """Uniform-neighbor transition matrix and its normalized exponential."""

    p: np.ndarray = field(repr=False)
    walk_mixture: np.ndarray = field(repr=False)
    isolated: np.ndarray = field(repr=False)
    row_sum_error: float = 0.0


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


def _saw_levels(
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
    levels, dead = _saw_levels(net, np.array([source]), h)
    row = levels[h - 1][0]
    probs = {int(v): float(row[v]) for v in np.flatnonzero(row > 0)}
    return WalkDistribution(source, h, probs, float(dead[0, h]))


def _ring_entropy_exp(probs: np.ndarray) -> float:
    """exp of the Shannon entropy of a (possibly sub-unit) mass vector."""
    pos = probs[probs > 0]
    if len(pos) == 0:
        return 0.0
    return float(np.exp(-np.sum(pos * np.log(pos))))


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
    return _ring_entropy_exp(ring_probs)


def accessibility_batch(
    net: WordNetwork,
    sources: np.ndarray,
    h_values: tuple[int, ...],
    cap: int = DEFAULT_DEPTH_CAP,
    chunk: int = 16,
    dist_block: np.ndarray | None = None,
) -> np.ndarray:
    """Accessibility at each h in h_values for many sources; shape (S, len(h))."""
    for h in h_values:
        if not 1 <= h <= cap:
            raise ValueError(f"h must lie in 1..{cap}")
    h_max = max(h_values)
    out = np.zeros((len(sources), len(h_values)), dtype=np.float64)
    for start in range(0, len(sources), chunk):
        batch = np.asarray(sources[start : start + chunk])
        levels, _ = _saw_levels(net, batch, h_max)
        if dist_block is None:
            dist = bfs_distances(net, batch)
        else:
            dist = dist_block[start : start + len(batch)]
        for col, h in enumerate(h_values):
            p = np.where(dist == h, levels[h - 1], 0.0)
            ent = -np.sum(np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0), axis=1)
            has_mass = p.sum(axis=1) > 0
            out[start : start + len(batch), col] = np.where(has_mass, np.exp(ent), 0.0)
    return out


def transition_matrix(net: WordNetwork) -> TransitionMatrix:
    """P_ij = a_ij / k_i and its normalized exponential exp(P)/e.

    Rows of exp(P) sum to e for row-stochastic P; the realized deviation is
    recorded in ``row_sum_error`` and rows are renormalized afterwards so the
    entropy in the generalized accessibility is taken over a distribution.
    Isolated nodes keep an all-zero P row and are flagged.
    """
    n = net.node_count
    k = net.degrees.astype(np.float64)
    isolated = k == 0
    p = net.adjacency().toarray()
    p[~isolated] /= k[~isolated, None]
    w = expm(p)
    sums = w.sum(axis=1)
    err = float(np.abs(sums[~isolated] - math.e).max()) if (~isolated).any() else 0.0
    mixture = w / sums[:, None]
    return TransitionMatrix(p, mixture, isolated, err)


def generalized_accessibility(
    net: WordNetwork,
    exclude_self: bool = False,
    tm: TransitionMatrix | None = None,
):
    """Per-node exp-entropy of the walk-mixture rows (all walk lengths at once)."""
    from .metrics import NodeMeasures

    if tm is None:
        tm = transition_matrix(net)
    rows = tm.walk_mixture.copy()
    if exclude_self:
        np.fill_diagonal(rows, 0.0)
        sums = rows.sum(axis=1)
        good = sums > 0
        rows[good] /= sums[good, None]
        rows[~good] = 0.0
    ent = -np.sum(np.where(rows > 0, rows * np.log(np.where(rows > 0, rows, 1.0)), 0.0), axis=1)
    values = np.exp(ent)
    values[rows.sum(axis=1) == 0] = 0.0
    return NodeMeasures("Ag", values, np.zeros(net.node_count, dtype=bool), net.doc_id)


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
    from .graph import _csr_from_edges

    indptr, indices = _csr_from_edges(n_pat, edges)
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
    numerator = _ring_entropy_exp(probs)
    denominator = len(pattern.rings[h]) + sum(pattern.dead_end_counts[:h])
    return numerator / denominator


def backbone_symmetry_batch(
    net: WordNetwork,
    sources: np.ndarray,
    h_values: tuple[int, ...],
    dist: np.ndarray | None = None,
) -> np.ndarray:
    """Backbone symmetry for many sources at once; shape (S, len(h_values)).

    Works directly on the full graph: ring membership per source comes from a
    BFS distance block, outward degrees from one sparse product per level.
    """
    h_max = max(h_values)
    adj = net.adjacency()
    if dist is None:
        dist = bfs_distances(net, np.asarray(sources))
    n_src = len(sources)
    mass = np.zeros((n_src, net.node_count), dtype=np.float64)
    mass[np.arange(n_src), sources] = 1.0
    eta_cum = np.zeros(n_src, dtype=np.float64)
    out = np.zeros((n_src, len(h_values)), dtype=np.float64)

    for r in range(h_max):
        ring_r = dist == r
        next_ind = (dist == r + 1).astype(np.float64)
        outward = np.asarray(next_ind @ adj)
        dead = ring_r & (outward == 0)
        eta_cum += dead.sum(axis=1)
        contrib = np.where(ring_r & (outward > 0), mass / np.where(outward > 0, outward, 1.0), 0.0)
        mass = np.where(dist == r + 1, np.asarray(contrib @ adj), 0.0)
        level = r + 1
        if level in h_values:
            col = h_values.index(level)
            ent = -np.sum(np.where(mass > 0, mass * np.log(np.where(mass > 0, mass, 1.0)), 0.0), axis=1)
            numer = np.where(mass.sum(axis=1) > 0, np.exp(ent), 0.0)
            ring_count = (dist == level).sum(axis=1)
            denom = ring_count + eta_cum
            out[:, col] = np.where(ring_count > 0, numer / np.where(denom > 0, denom, 1.0), 0.0)
    return out


def merged_symmetry_batch(
    net: WordNetwork,
    sources: np.ndarray,
    h_values: tuple[int, ...],
    dist: np.ndarray | None = None,
) -> np.ndarray:
    """Merged symmetry for many sources; shape (S, len(h_values)).

    Per source: ring-internal connected components collapse via one
    connected-components call, outward super-edges deduplicate through sorted
    integer keys, and the concentric walk runs as array updates over those
    edges. Matches the per-pattern ``symmetry`` exactly.
    """
    h_max = max(h_values)
    sources = np.asarray(sources)
    if dist is None:
        dist = bfs_distances(net, sources)
    n = net.node_count
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.indptr))
    tails = net.indices.astype(np.int64)
    ones = np.ones(len(heads), dtype=np.int8)
    out = np.zeros((len(sources), len(h_values)), dtype=np.float64)

    for i, source in enumerate(sources):
        d = dist[i]
        in_ball = (d >= 0) & (d <= h_max)
        edge_ok = in_ball[heads] & in_ball[tails]
        intra = edge_ok & (d[heads] == d[tails])
        sub = csr_matrix((ones[intra], (heads[intra], tails[intra])), shape=(n, n))
        _, raw = csgraph.connected_components(sub, directed=False)
        _, first = np.unique(raw, return_index=True)
        comp = first[raw]  # canonical label: smallest node id inside

        outward = edge_ok & (d[tails] == d[heads] + 1)
        key = comp[heads[outward]] * n + comp[tails[outward]]
        uniq = np.unique(key)
        e_head = uniq // n
        e_tail = uniq % n
        out_count = np.bincount(e_head, minlength=n)

        comps = np.unique(comp[in_ball])
        ring_of = d[comps]  # component label is a member node id
        dead = comps[out_count[comps] == 0]
        eta_by_ring = np.bincount(ring_of[out_count[comps] == 0], minlength=h_max + 2) \
            if len(dead) else np.zeros(h_max + 2, dtype=np.int64)
        ring_counts = np.bincount(ring_of, minlength=h_max + 2)

        mass = np.zeros(n, dtype=np.float64)
        mass[comp[source]] = 1.0
        head_ring = d[e_head]
        for r in range(h_max):
            level = r + 1
            step = head_ring == r
            nxt = np.zeros(n, dtype=np.float64)
            if step.any():
                share = mass[e_head[step]] / out_count[e_head[step]]
                np.add.at(nxt, e_tail[step], share)
            mass = nxt
            if level in h_values:
                col = h_values.index(level)
                if ring_counts[level] == 0:
                    out[i, col] = 0.0
                else:
                    denom = ring_counts[level] + eta_by_ring[:level].sum()
                    out[i, col] = _ring_entropy_exp(mass[mass > 0]) / denom
    return out
