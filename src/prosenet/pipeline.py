"""End-to-end orchestration: measurement (with caching), feature assembly,
classification, relevance sweeps, baselines, and deterministic output files.

Every command is a pure function of (config, input files): outputs are written
atomically and byte-identical across reruns, including parallel ones, because
per-document work is pure and results are reduced in manifest order.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import (CostGuardError, EmptyDocumentError, ProsenetError, UnreadablePathError,
               __version__)
from .corpus import (
    CorpusManifest,
    Document,
    LemmaDictionary,
    atomic_write,
    atomic_write_blocks,
    content_words,
    load_lemma_dictionary,
    load_manifest,
    preprocess,
    word_frequencies,
)
from .features import (
    DocumentMeasures,
    FeatureMatrix,
    frequency_decorrelation_filter,
    global_features,
    local_features,
    rank_features,
    select_top_k,
    select_word_list,
)
from . import graph
from .graph import (WordNetwork, build_network, geodesic_row_bytes, largest_component_nodes,
                    network_to_json, row_blocks)
from .learn import (
    ClassificationReport,
    ClassifierSpec,
    RelevanceReport,
    baseline_char_bigrams,
    baseline_stopword_frequency,
    baseline_word_lsa,
    loo_evaluate,
    pca_project,
    refuse_large_sweep,
    relevance_index,
)
from .metrics import (
    NodeMeasures,
    clustering,
    clustering_row_bytes,
    betweenness,
    closeness,
    degree,
    detect_communities,
    eccentricity,
    eigenvector_centrality,
    neighborhood_connectivity,
    pagerank,
)
from .walks import (
    DEFAULT_DEPTH_CAP,
    ENTROPY_CELL_BYTES,
    accessibility_batch,
    backbone_symmetry_batch,
    generalized_accessibility,
    merged_row_bytes,
    merged_symmetry_batch,
    saw_row_bytes,
    taylor_row_bytes,
)

# SHA-256 from the interpreter's built-in module, as random.py takes sha512:
# hashlib always loads OpenSSL's libcrypto (3.7 MB of RSS) for the same digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

STRATEGIES = ("GS", "LS", "LSS")
CLASSIFIERS = ("knn", "cart", "nb")
RELEVANCE_BLOCK_ROWS = 4096  # rows of one streamed block of the relevance ledger CSV
OMEGA_FORMAT_ROWS = 256  # rows of one streamed block of the omega CSV


@dataclass
class RunConfig:
    """Fully resolved run parameters; embedded in every report for provenance."""

    manifest: str = ""
    strategy: str = "LSS"
    classifier: str = "all"
    knn_k: int = 1
    top_k: int = 15
    word_list_size: int = 50
    min_doc_fraction: float = 0.9
    h_access: tuple[int, ...] = (2, 3)
    h_symmetry: tuple[int, ...] = (2, 3, 4)
    alpha: float = 0.85
    rho_max: float = 0.5
    closeness: str = "mean"  # mean | reciprocal
    cumulative: bool = False
    ag_exclude_self: bool = False
    gs_walks: bool = True
    window: int = 1
    phi: int = 8
    baseline_top_k: int = 15
    lemmas: str = ""
    stoplist: str = ""
    out: str = "out"
    jobs: int = 1

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ProsenetError(f"strategy must be one of {STRATEGIES}")
        if self.classifier not in CLASSIFIERS + ("all",):
            raise ProsenetError(f"classifier must be one of {CLASSIFIERS + ('all',)}")
        if not (0 < self.alpha < 1):
            raise ProsenetError("alpha must lie in (0, 1)")
        if self.closeness not in ("mean", "reciprocal"):
            raise ProsenetError("closeness must be 'mean' or 'reciprocal'")
        if not self.h_access or any(h < 1 or h > DEFAULT_DEPTH_CAP for h in self.h_access):
            raise ProsenetError(f"walk depths (--h) must lie in 1..{DEFAULT_DEPTH_CAP}")
        if not self.h_symmetry or any(h < 1 for h in self.h_symmetry):
            raise ProsenetError("symmetry depths must be >= 1")
        for name in ("h_access", "h_symmetry"):
            depths = getattr(self, name)
            if len(set(depths)) < len(depths):
                raise ProsenetError(f"config key {name!r} repeats a walk depth: {list(depths)}")
        for name, ok, rule in (
            ("knn_k", self.knn_k >= 1, ">= 1"),
            ("top_k", self.top_k >= 2, ">= 2"),  # PCA projects onto two columns
            ("word_list_size", self.word_list_size >= 1, ">= 1"),
            ("min_doc_fraction", 0 < self.min_doc_fraction <= 1, "in (0, 1]"),
            ("rho_max", self.rho_max >= 0, ">= 0"),
            ("window", self.window >= 1, ">= 1"),
            ("phi", self.phi >= 1, ">= 1"),
            ("baseline_top_k", self.baseline_top_k >= 1, ">= 1"),
            ("jobs", self.jobs >= 1, ">= 1"),
        ):
            if not ok:
                flag = "--" + name.replace("_", "-")
                raise ProsenetError(f"{flag} must be {rule}, got {getattr(self, name)!r}")

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "version": __version__}


def parse_config_file(path: str | Path) -> dict:
    """Flat key=value file; '#' starts a comment."""
    path = Path(path)
    if not path.is_file():
        raise UnreadablePathError(f"config file {path} does not exist")
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProsenetError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_EXPECTED = {bool: "one of 1/true/yes/0/false/no", int: "an integer", float: "a number",
             tuple: "a comma list of integers"}


def config_from_sources(file_values: dict, overrides: dict) -> RunConfig:
    """Build a RunConfig from config-file values plus CLI overrides; a value
    that does not parse as its key's type is a ``ProsenetError``."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig()
    for key, raw in merged.items():
        if not hasattr(cfg, key):
            raise ProsenetError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        try:
            if isinstance(current, bool):
                value = raw if isinstance(raw, bool) else _BOOLEANS[str(raw).strip().lower()]
            elif isinstance(current, int):
                value = int(raw)
            elif isinstance(current, float):
                value = float(raw)
            elif isinstance(current, tuple):
                if isinstance(raw, (tuple, list)):
                    value = tuple(int(v) for v in raw)
                else:
                    value = tuple(int(v) for v in str(raw).split(",") if v.strip())
            else:
                value = str(raw)
        except (KeyError, ValueError):
            raise ProsenetError(
                f"config key {key!r} must be {_EXPECTED[type(current)]}, got {raw!r}"
            ) from None
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# measurement of one document
# ---------------------------------------------------------------------------

MEASURE_BUDGET = 1 << 30  # bytes one document's measurement may take at its peak
# per node, what ``measure_document`` holds until it returns: about 20
# measures of 9 bytes (float64 values and a bool mask), the node labels and
# the word frequencies, with headroom
NODE_OUTPUT_BYTES = 512
# what ``measure_document`` holds whatever the node count: its objects and
# array headers, and on a process's first call the interpreter's caches; at
# most 28 KiB over the other terms at a 1-byte block, with headroom
DOCUMENT_FIXED_BYTES = 48 << 10


def measurement_bytes(net: WordNetwork, sources: np.ndarray, h_access: tuple[int, ...]) -> int:
    """Estimated peak bytes of measuring ``net`` and walking from
    ``sources``, an upper bound on the ``tracemalloc`` peak of
    ``measure_document``: the per-node outputs (``NODE_OUTPUT_BYTES``), a
    fixed per-document term (``DOCUMENT_FIXED_BYTES``), one block of a
    batched kernel (``graph.BLOCK_BYTES``, read when called, as
    ``row_blocks`` reads it), the largest single row of any such kernel, as
    a row over the budget forms a block alone, and the int32 distance rows
    the geodesic pass holds for the walk kernels: one per source, at most
    one geodesic block of them."""
    n = net.node_count
    rows = [geodesic_row_bytes(net), clustering_row_bytes(net).max(initial=0),
            ENTROPY_CELL_BYTES * n, merged_row_bytes(net), taylor_row_bytes(net),
            saw_row_bytes(net, sources, max(h_access)).max(initial=0)]
    held = min(len(sources), _geodesic_blocks(net)[0].stop)
    return (NODE_OUTPUT_BYTES * n + DOCUMENT_FIXED_BYTES + graph.BLOCK_BYTES + int(max(rows))
            + 4 * n * held)


def measure_document(doc: Document, cfg: RunConfig,
                     walk_sources: list[str] | None) -> DocumentMeasures:
    """All measures for one document's network, ``Q`` among them.

    ``walk_sources`` limits the expensive walk measures (``_walk_names``: A,
    Sb, Sm and Ag) to the named words; None measures every node and an empty
    list omits them. One geodesic pass (``geodesic_measures``) gives every
    distance-based measure and feeds the walk kernels block by block, so no
    n x n array is ever held. No measure reads the strategy, so a cache
    entry's content follows from what its key names. A network whose
    estimated peak exceeds ``MEASURE_BUDGET`` is refused with
    ``CostGuardError`` before any distance is searched or any walk
    enumerated.
    """
    net = build_network(doc, cfg.window)
    n = net.node_count
    requested = _source_mask(net.node_labels, walk_sources)
    need = measurement_bytes(net, np.flatnonzero(requested), cfg.h_access)
    if need > MEASURE_BUDGET:
        raise CostGuardError(
            f"document {doc.id!r}: measuring its {n}-node network needs about "
            f"{need / 2**20:.1f} MiB, over the {MEASURE_BUDGET / 2**20:.1f} MiB budget"
        )
    measures = _classic_measures(net, cfg)
    q = detect_communities(net).q
    measures.update(geodesic_measures(net, cfg, None if walk_sources == [] else requested))
    return DocumentMeasures(
        doc_id=doc.id,
        label=doc.label,
        node_labels=list(net.node_labels),
        measures=measures,
        modularity_q=q,
        word_frequencies=word_frequencies(doc),
    )


def _classic_measures(net: WordNetwork, cfg: RunConfig) -> dict:
    """Every all-node measure that needs neither the geodesic pass nor walk sources."""
    return {"k": degree(net), "cc": clustering(net), "Ec": eigenvector_centrality(net),
            "Pr": pagerank(net, cfg.alpha)}


def _geodesic_blocks(net: WordNetwork) -> list[slice]:
    """The blocks of source rows of the geodesic pass, by ``geodesic_row_bytes``;
    every block but the last holds as many rows as the first."""
    return list(row_blocks(np.full(net.node_count, geodesic_row_bytes(net))))


def geodesic_measures(net: WordNetwork, cfg: RunConfig,
                      requested: np.ndarray | None = None) -> dict[str, NodeMeasures]:
    """``B``, the ``N`` counts, ``C`` and ``E`` from one geodesic pass over
    ``net``, and the walk measures (``_walk_names``) at the nodes the mask
    ``requested`` names (no walk measures when None).

    Each block of ``_geodesic_blocks``, in ascending order, is measured
    whole before the next starts: ``betweenness`` searches it and adds its
    Brandes dependencies, the neighbourhood counts reduce all its rows, and
    closeness and eccentricity the rows of the largest component over that
    component's columns. The distance rows of requested nodes are held until
    the next block's would make them outgrow one block, or the pass ends;
    then A, Sb and Sm run on them, the rows are dropped, and ``Ag`` runs on
    the same nodes. A walk kernel's value at a source does not depend on
    which sources share its call, and the reductions are integer counts,
    sums and maxima, so no bit depends on the block size.
    """
    n = net.node_count
    comp = largest_component_nodes(net)
    on_comp = np.zeros(n, dtype=bool)
    on_comp[comp] = True
    between = np.zeros(n, dtype=np.float64)
    near = np.zeros((len(cfg.h_access), n), dtype=np.float64)
    close = np.zeros(n, dtype=np.float64)
    ecc = np.zeros(n, dtype=np.float64)
    names = [] if requested is None else _walk_names(cfg)
    walking = np.zeros(n, dtype=bool) if requested is None else requested
    walked = np.zeros((len(names), n), dtype=np.float64)
    held: list[tuple[np.ndarray, np.ndarray]] = []  # walk sources and their distance rows

    def walk() -> None:
        sources = np.concatenate([rows for rows, _ in held])
        dist = held[0][1] if len(held) == 1 else np.concatenate([d for _, d in held])
        held.clear()
        acc = accessibility_batch(net, sources, cfg.h_access, dist_block=dist)
        sb = backbone_symmetry_batch(net, sources, cfg.h_symmetry, dist=dist)
        sm = merged_symmetry_batch(net, sources, cfg.h_symmetry, dist=dist)
        del dist  # Ag reads no distances
        ag = generalized_accessibility(net, cfg.ag_exclude_self, rows=sources)
        walked[:, sources] = np.vstack([acc.T, sb.T, sm.T, ag.values[sources]])

    parts = _geodesic_blocks(net)
    for part in parts:
        rows = np.arange(part.start, part.stop)
        chosen = rows[walking[part]]
        if sum(len(s) for s, _ in held) + len(chosen) > parts[0].stop:
            walk()  # before this block's search: no more than one block's rows are held
        dist = betweenness(net, rows, between)
        for i, h in enumerate(cfg.h_access):
            near[i, part] = neighborhood_connectivity(dist, h, cfg.cumulative)
        inside = on_comp[part]
        block = dist if len(comp) == n else dist[np.ix_(inside, comp)]
        close[part][inside] = closeness(block, reciprocal=cfg.closeness == "reciprocal")
        ecc[part][inside] = eccentricity(block)
        del block
        if len(chosen):
            held.append((chosen, dist if len(chosen) == len(rows) else dist[chosen - part.start]))
        del dist
    if held:
        walk()

    between[~on_comp] = 0.0
    measures = {"B": NodeMeasures(between, ~on_comp), "C": NodeMeasures(close, ~on_comp),
                "E": NodeMeasures(ecc, ~on_comp)}
    for h, counts in zip(cfg.h_access, near):
        measures[f"N{h}"] = NodeMeasures(counts, np.zeros(n, dtype=bool))
    for name, values in zip(names, walked, strict=True):
        measures[name] = NodeMeasures(values, ~walking)
    return measures


def _walk_names(cfg: RunConfig) -> list[str]:
    """The measures taken at the walk sources only, in ``measure_document``'s order."""
    return ([f"A{h}" for h in cfg.h_access] + [f"Sb{h}" for h in cfg.h_symmetry]
            + [f"Sm{h}" for h in cfg.h_symmetry] + ["Ag"])


def _source_mask(node_labels: list[str], walk_sources: list[str] | None) -> np.ndarray:
    """Which nodes ``walk_sources`` names; None names every node."""
    if walk_sources is None:
        return np.ones(len(node_labels), dtype=bool)
    wanted = set(walk_sources)
    return np.array([label in wanted for label in node_labels], dtype=bool)


def _walked(dm: DocumentMeasures, cfg: RunConfig) -> np.ndarray:
    """Nodes with walk values: a walked node is never missing a walk measure."""
    first = dm.measures.get(_walk_names(cfg)[0])
    return np.zeros(len(dm.node_labels), dtype=bool) if first is None else ~first.missing


def _covers(dm: DocumentMeasures, cfg: RunConfig, walk_sources: list[str] | None) -> bool:
    """Whether ``dm`` holds walk values at every requested node."""
    return not (_source_mask(dm.node_labels, walk_sources) & ~_walked(dm, cfg)).any()


def _with_walked(dm: DocumentMeasures, cfg: RunConfig,
                 walk_sources: list[str] | None) -> list[str] | None:
    """``walk_sources`` plus the nodes ``dm`` has walked: measured afresh
    from these, an entry keeps every walk value it had."""
    if walk_sources is None:
        return None
    walked = [label for label, done in zip(dm.node_labels, _walked(dm, cfg)) if done]
    return walk_sources + walked


def _restrict(dm: DocumentMeasures, cfg: RunConfig,
              walk_sources: list[str] | None) -> DocumentMeasures:
    """``dm`` as a fresh ``measure_document(..., walk_sources)`` returns it:
    walk values only at the requested nodes and none at all for an empty
    list. A walk measure taken at exactly the requested nodes is shared, not
    copied: the cache-hit commands hold every document's measures at once."""
    names = _walk_names(cfg)
    measures = {name: nm for name, nm in dm.measures.items() if name not in names}
    if walk_sources != []:
        requested = _source_mask(dm.node_labels, walk_sources)
        for name in names:
            nm = dm.measures.get(name)
            if nm is None or not np.array_equal(nm.missing, ~requested):
                values = np.zeros(len(requested), dtype=np.float64)
                if nm is not None:
                    values[requested] = nm.values[requested]
                nm = NodeMeasures(values, ~requested)
            measures[name] = nm
    return dataclasses.replace(dm, measures=measures)


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def _dictionary_digest(dictionary: LemmaDictionary) -> str:
    """sha256 of the lemma mapping and stoplist, independent of their order."""
    blob = json.dumps([sorted(dictionary.mapping.items()), sorted(dictionary.stoplist)])
    return sha256(blob.encode("utf-8")).hexdigest()


# an entry is the hex SHA-256 of the rest and a newline, a JSON header and a
# newline, then each measure's little-endian float64 values and mask bytes in
# one raw block; every Ag is from the Taylor rows of exp(P). Part of the key,
# so entries of other layouts are never read
CACHE_LAYOUT = "sha256-json-raw-f8le/ag-taylor-rows"


def _measure_cache_key(raw_text: str, cfg: RunConfig, dictionary_digest: str,
                       keep_stopwords: bool, doc_id: str = "") -> str:
    """Names one document's network and its measure settings, not the walk
    sources: an entry gathers walk values node by node."""
    payload = json.dumps(
        {
            "version": __version__,
            "doc_id": doc_id,
            "content": sha256(raw_text.encode("utf-8")).hexdigest(),
            "dictionary": dictionary_digest,
            "keep_stopwords": keep_stopwords,
            "window": cfg.window,
            "h_access": list(cfg.h_access),
            "h_symmetry": list(cfg.h_symmetry),
            "alpha": cfg.alpha,
            "closeness": cfg.closeness,
            "cumulative": cfg.cumulative,
            "ag_exclude_self": cfg.ag_exclude_self,
            "layout": CACHE_LAYOUT,
        },
        sort_keys=True,
    )
    return sha256(payload.encode("utf-8")).hexdigest()


def _cache_load(path: Path, key: str, label: str) -> DocumentMeasures | None:
    """The entry ``_cache_store`` wrote for ``key``, labelled ``label`` (the
    key holds no label, so the manifest's is the one that counts), or None:
    an unreadable file, a checksum that is not the SHA-256 of the rest, a
    header that is not JSON, lacks a field or names another key, and a block
    that is not 9 bytes per node and measure are all misses."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    checksum, _, rest = data.partition(b"\n")
    if sha256(rest).hexdigest().encode("ascii") != checksum:
        return None
    head, _, block = rest.partition(b"\n")
    try:
        header = json.loads(head)
        n, names = len(header["node_labels"]), header["measures"]
        if header["key"] != key or len(block) != 9 * n * len(names):
            return None
        measures = {
            name: NodeMeasures(np.frombuffer(block, "<f8", n, 9 * n * i).astype(np.float64),
                               np.frombuffer(block, "u1", n, 9 * n * i + 8 * n).astype(bool))
            for i, name in enumerate(names)
        }
        return DocumentMeasures(header["doc_id"], label, header["node_labels"], measures,
                                header["modularity_q"], header["word_frequencies"])
    except (ValueError, KeyError, TypeError):
        return None


def _cache_store(path: Path, key: str, dm: DocumentMeasures) -> None:
    """Write the entry for ``dm`` under ``key`` in the layout ``CACHE_LAYOUT``
    names, its measures in sorted order."""
    names = sorted(dm.measures)
    header = json.dumps({"key": key, "doc_id": dm.doc_id, "node_labels": dm.node_labels,
                         "word_frequencies": dm.word_frequencies,
                         "modularity_q": dm.modularity_q, "measures": names}, sort_keys=True)
    rest = b"".join([header.encode("utf-8"), b"\n"] + [
        part for name in names
        for part in (dm.measures[name].values.astype("<f8").tobytes(),
                     dm.measures[name].missing.astype(np.uint8).tobytes())])
    atomic_write_blocks(path, (sha256(rest).hexdigest().encode("ascii") + b"\n", rest))


# ---------------------------------------------------------------------------
# corpus-level measurement with parallelism
# ---------------------------------------------------------------------------

def _dictionary_for(cfg: RunConfig) -> LemmaDictionary:
    return load_lemma_dictionary(cfg.lemmas or None, cfg.stoplist or None)


def _measure_task(args) -> tuple[str, DocumentMeasures | None, str | None]:
    """(doc_id, measures, error or None); a measured document's entry is
    stored at once, so an interrupted run resumes from it."""
    doc, sources, cfg, key, path = args
    try:
        dm = measure_document(doc, cfg, sources)
    except Exception as exc:  # noqa: BLE001 - reported per document by the caller
        return doc.id, None, f"{type(exc).__name__}: {exc}"
    _cache_store(path, key, dm)
    return doc.id, dm, None


def compute_corpus_measures(manifest: CorpusManifest, cfg: RunConfig, cache_dir: Path):
    """Measure every document for ``cfg.strategy``, through the cache in
    ``cache_dir`` and an optional process pool.

    Each document is read and hashed once, then its cache entry is loaded. A
    cache entry belongs to one document's network and measure settings. It
    holds the classic measures, ``Q``, the word frequencies and the walk
    values of every node walked so far, so an entry that covers the
    requested sources is served without preprocessing or measuring.
    Otherwise the document is preprocessed and measured afresh, walked from
    the requested sources and from every node its entry had walked, so an
    entry only grows. Each entry is stored as soon as its document
    completes, which lets an interrupted run resume from the documents it
    finished. A loaded entry takes its label from the manifest. LS and LSS
    walk from the word list, taken from each document's word frequencies.

    Returns (measures, failures, walk_sources): the DocumentMeasures in
    manifest order, with walk values at the requested sources only and
    without the failed documents; (doc_id, error) pairs in manifest order;
    and the sources walked (None for every node, [] for none).
    """
    keep_stopwords = cfg.strategy == "LSS"
    dictionary = _dictionary_for(cfg)
    dictionary_digest = _dictionary_digest(dictionary)
    errors: dict[str, str] = {}

    def prepared(entry, raw: str) -> Document | None:
        try:
            return preprocess(raw, dictionary, keep_stopwords, entry.doc_id, entry.label)
        except EmptyDocumentError as exc:
            errors[entry.doc_id] = f"{type(exc).__name__}: {exc}"
            return None

    read = []
    for entry in manifest.entries:
        raw = entry.path.read_text(encoding="utf-8", errors="replace")
        key = _measure_cache_key(raw, cfg, dictionary_digest, keep_stopwords, entry.doc_id)
        path = cache_dir / f"{key}.bin"
        known = _cache_load(path, key, entry.label)
        if known is not None:
            read.append((entry, raw, key, path, known, None))
        elif (doc := prepared(entry, raw)) is not None:
            read.append((entry, None, key, path, None, doc))

    if cfg.strategy == "GS":
        walk_sources = None if cfg.gs_walks else []
    else:
        frequencies = [word_frequencies(doc) if known is None else known.word_frequencies
                       for *_, known, doc in read]
        walk_sources = select_word_list(frequencies, cfg.word_list_size, cfg.min_doc_fraction)
        if not walk_sources:
            _raise_failures(list(errors.items()))  # e.g. every document was empty
            raise ProsenetError(
                "no words satisfy the document-coverage threshold; lower min_doc_fraction"
            )

    results: dict[str, DocumentMeasures] = {}
    pending = []
    for entry, raw, key, path, known, doc in read:
        if known is not None and _covers(known, cfg, walk_sources):
            results[entry.doc_id] = _restrict(known, cfg, walk_sources)
        elif (doc := doc or prepared(entry, raw)) is not None:
            sources = walk_sources if known is None else _with_walked(known, cfg, walk_sources)
            pending.append((doc, sources, cfg, key, path))

    if pending and cfg.jobs > 1:
        # imported here: a run that starts no pool skips multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(_measure_task, pending))
    else:
        outcomes = map(_measure_task, pending)
    for doc_id, dm, error in outcomes:
        if error is not None:
            errors[doc_id] = error
        else:
            results[doc_id] = _restrict(dm, cfg, walk_sources)

    ordered = [results[e.doc_id] for e in manifest.entries if e.doc_id in results]
    failures = [(e.doc_id, errors[e.doc_id]) for e in manifest.entries if e.doc_id in errors]
    return ordered, failures, walk_sources


def _raise_failures(failures: list[tuple[str, str]]) -> None:
    if failures:
        summary = "; ".join(f"{doc_id}: {msg}" for doc_id, msg in failures)
        raise ProsenetError(f"{len(failures)} document(s) failed: {summary}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def measures_to_csv(dm: DocumentMeasures) -> str:
    """Long-format dump: doc_id,node_label,measure,value (missing cells empty)."""
    lines = ["doc_id,node_label,measure,value"]
    for name in sorted(dm.measures):
        nm = dm.measures[name]
        for node, label in enumerate(dm.node_labels):
            cell = "" if nm.missing[node] else repr(float(nm.values[node]))
            lines.append(f"{dm.doc_id},{label},{name},{cell}")
    lines.append(f"{dm.doc_id},,V,{repr(float(len(dm.node_labels)))}")
    lines.append(f"{dm.doc_id},,Q,{repr(float(dm.modularity_q))}")
    return "\n".join(lines) + "\n"


def build_feature_matrix(cfg: RunConfig, manifest: CorpusManifest, cache_dir: Path,
                         need: int = 1) -> FeatureMatrix:
    """Measure the corpus through ``cache_dir`` and assemble the configured
    strategy's features. Fewer than ``need`` columns left by the
    decorrelation filter (GS always has more) is a ``ProsenetError``."""
    doc_measures, failures, sources = compute_corpus_measures(manifest, cfg, cache_dir)
    _raise_failures(failures)
    if cfg.strategy == "GS":
        return global_features(doc_measures)
    fm = local_features(doc_measures, sources)
    frequencies = {dm.doc_id: dm.word_frequencies for dm in doc_measures}
    fm = frequency_decorrelation_filter(fm, frequencies, cfg.rho_max)
    if len(fm.feature_names) < need:
        raise ProsenetError(
            f"--rho-max {cfg.rho_max} leaves {len(fm.feature_names)} {cfg.strategy} feature "
            f"column(s); this command needs at least {need}"
        )
    return fm


def _refuse_lone_nb_class(manifest: CorpusManifest, classifiers: tuple[str, ...]) -> None:
    """Naive Bayes cannot score the leave-one-out fold of a class's only
    document: that fold trains without the class."""
    lone = [label for label, count in manifest.class_counts().items() if count == 1]
    if "nb" in classifiers and lone:
        raise ProsenetError(
            f"naive Bayes leave-one-out needs at least two documents per class; "
            f"class {lone[0]!r} has one (use --classifier knn or cart)"
        )


def cmd_measure(cfg: RunConfig) -> list[Path]:
    """Compute and write per-document measure CSVs for the configured strategy.

    Failures are collected per document so one broken file does not hide the
    rest; after every processable document is written, any failure raises.
    """
    manifest = load_manifest(cfg.manifest)
    out = Path(cfg.out)
    doc_measures, failures, _ = compute_corpus_measures(manifest, cfg, out / "cache")
    written = []
    for dm in doc_measures:
        path = out / "measures" / f"{dm.doc_id}.csv"
        atomic_write(path, measures_to_csv(dm))
        written.append(path)
    _raise_failures(failures)
    return written


def _report_json(report: ClassificationReport, cfg: RunConfig) -> str:
    data = {
        "classifier": report.classifier,
        "accuracy": report.accuracy,
        "confusion": report.confusion,
        "p_value": report.p_value,
        "features": report.feature_names,
        "n": report.n,
        "config": {**cfg.as_dict(), **report.config},
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def cmd_classify(cfg: RunConfig) -> dict[str, ClassificationReport]:
    """Features -> decorrelation (local) -> IG top-k -> LOO -> report + PCA."""
    manifest = load_manifest(cfg.manifest)
    names = CLASSIFIERS if cfg.classifier == "all" else (cfg.classifier,)
    _refuse_lone_nb_class(manifest, names)
    out = Path(cfg.out)
    fm = build_feature_matrix(cfg, manifest, out / "cache", need=2)

    ranked = rank_features(fm)
    atomic_write(
        out / f"ranking_{cfg.strategy}.csv",
        "feature,information_gain\n" + "".join(f"{n},{float(g)!r}\n" for n, g in ranked),
    )
    top = fm.subset([name for name, _ in ranked[: cfg.top_k]])
    atomic_write(out / f"features_{cfg.strategy}.csv", top.to_csv())

    projection = FeatureMatrix(top.doc_ids, top.labels, ["pc1", "pc2"], pca_project(top))
    atomic_write(out / f"projection_{cfg.strategy}.csv", projection.to_csv())

    reports = {}
    for name in names:
        spec = ClassifierSpec(name, knn_k=cfg.knn_k)
        report = loo_evaluate(top, spec)
        reports[name] = report
        atomic_write(out / f"report_{cfg.strategy}_{name}.json", _report_json(report, cfg))
    return reports


def _mask_names(names: list[str]) -> list[str]:
    """Each mask's ';'-joined names, in feature order: the name of its lowest
    bit, then the string of the mask without that bit."""
    joined = [""]
    for mask in range(1, 2 ** len(names)):
        low = mask & -mask
        name = names[low.bit_length() - 1]
        joined.append(name if mask == low else f"{name};{joined[mask ^ low]}")
    return joined


def ledger_csv_blocks(report: RelevanceReport) -> Iterator[str]:
    """The ledger CSV in blocks of ``RELEVANCE_BLOCK_ROWS`` rows.

    A mask's names join those of its low phi // 2 bits and of its high bits,
    each read from a table of 2^(bits) strings; each distinct accuracy of a
    block is formatted once.
    """
    rows = RELEVANCE_BLOCK_ROWS
    split = len(report.feature_names) // 2
    low_names = _mask_names(report.feature_names[:split])
    high_names = _mask_names(report.feature_names[split:])
    high_tails = [""] + [f";{name}" for name in high_names[1:]]
    low_bits = (1 << split) - 1
    yield "rank,bitmask,features,accuracy\n"
    for start in range(0, len(report.ledger), rows):
        block = report.ledger[start:start + rows]
        values, which = np.unique(block["accuracy"], return_inverse=True)
        texts = [repr(v) for v in values.tolist()]
        lines = []
        for rank, mask, i in zip(range(start + 1, start + rows + 1),
                                 block["mask"].tolist(), which.tolist()):
            low, high = mask & low_bits, mask >> split
            feats = low_names[low] + high_tails[high] if low else high_names[high]
            lines.append(f"{rank},{mask},{feats},{texts[i]}\n")
        yield "".join(lines)


def omega_csv_blocks(report: RelevanceReport) -> Iterator[str]:
    """The omega CSV (one row per rank k) in blocks of ``OMEGA_FORMAT_ROWS`` rows.

    Each block is one %-format of its ranks and counts, so only that many
    rows are Python ints at a time.
    """
    n_ranks = report.omega.shape[1]
    line = ",".join(["%d"] * (len(report.feature_names) + 1)) + "\n"
    yield "k," + ",".join(report.feature_names) + "\n"
    for lo in range(0, n_ranks, OMEGA_FORMAT_ROWS):
        hi = min(lo + OMEGA_FORMAT_ROWS, n_ranks)
        table = np.vstack([np.arange(lo + 1, hi + 1), report.omega[:, lo:hi]]).T
        yield line * (hi - lo) % tuple(table.ravel().tolist())


def write_relevance(report: RelevanceReport, out: Path, strategy: str) -> None:
    """The ledger, index and omega CSVs; the ledger and omega are streamed."""
    atomic_write_blocks(out / f"relevance_ledger_{strategy}.csv",
                        (block.encode("utf-8") for block in ledger_csv_blocks(report)))
    index = [f"{f},{r}\n" for f, r in report.r_index.items()]
    atomic_write(out / f"relevance_index_{strategy}.csv", "".join(["feature,r_index\n"] + index))
    atomic_write_blocks(out / f"relevance_omega_{strategy}.csv",
                        (block.encode("utf-8") for block in omega_csv_blocks(report)))


def cmd_relevance(cfg: RunConfig) -> RelevanceReport:
    """Exhaustive subset sweep over the top-phi features of the strategy."""
    refuse_large_sweep(cfg.phi)  # before any document is measured
    manifest = load_manifest(cfg.manifest)
    spec = ClassifierSpec(cfg.classifier if cfg.classifier != "all" else "knn", knn_k=cfg.knn_k)
    _refuse_lone_nb_class(manifest, (spec.name,))
    out = Path(cfg.out)
    fm = build_feature_matrix(cfg, manifest, out / "cache")
    top = select_top_k(fm, min(cfg.phi, len(fm.feature_names)))
    report = relevance_index(top, spec)
    write_relevance(report, out, cfg.strategy)
    return report


def cmd_baselines(cfg: RunConfig) -> dict[str, ClassificationReport]:
    """Stopword-frequency and char-bigram reports plus the word-LSA projection."""
    manifest = load_manifest(cfg.manifest)
    out = Path(cfg.out)
    dictionary = _dictionary_for(cfg)

    raw_docs = [
        (e.doc_id, e.label, e.path.read_text(encoding="utf-8", errors="replace"))
        for e in manifest.entries
    ]
    docs_with_stops = [preprocess(raw, dictionary, True, doc_id, label)
                       for doc_id, label, raw in raw_docs]
    docs_content = [content_words(doc) for doc in docs_with_stops]

    spec = ClassifierSpec("knn", knn_k=cfg.knn_k)
    stop_report = baseline_stopword_frequency(
        docs_with_stops, dictionary.stoplist, cfg.baseline_top_k, spec
    )
    bigram_report = baseline_char_bigrams(raw_docs, cfg.baseline_top_k, spec)

    lsa_fm, lsa_coords = baseline_word_lsa(docs_content)
    atomic_write(out / "lsa_features.csv", lsa_fm.to_csv())
    lsa_projection = FeatureMatrix(lsa_fm.doc_ids, lsa_fm.labels, ["pc1", "pc2"], lsa_coords)
    atomic_write(out / "lsa_projection.csv", lsa_projection.to_csv())
    atomic_write(out / "baseline_stopwords.json", _report_json(stop_report, cfg))
    atomic_write(out / "baseline_bigrams.json", _report_json(bigram_report, cfg))
    return {"stopwords": stop_report, "bigrams": bigram_report}


def cmd_export_network(cfg: RunConfig, doc_id: str, keep_stopwords: bool) -> Path:
    """Write one document's network as JSON for debugging and plotting."""
    manifest = load_manifest(cfg.manifest)
    entry = next((e for e in manifest.entries if e.doc_id == doc_id), None)
    if entry is None:
        raise ProsenetError(f"document id {doc_id!r} not in manifest")
    raw = entry.path.read_text(encoding="utf-8", errors="replace")
    doc = preprocess(raw, _dictionary_for(cfg), keep_stopwords, entry.doc_id, entry.label)
    net = build_network(doc, cfg.window)
    path = Path(cfg.out) / f"network_{doc_id}.json"
    atomic_write(path, network_to_json(net, doc) + "\n")
    return path

