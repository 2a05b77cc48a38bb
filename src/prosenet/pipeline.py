"""End-to-end orchestration: measurement (with caching), feature assembly,
classification, relevance sweeps, baselines, and deterministic output files.

Every command is a pure function of (config, input files): outputs are written
atomically and byte-identical across reruns, including parallel ones, because
per-document work is pure and results are reduced in manifest order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ProsenetError, __version__
from .corpus import (
    CorpusManifest,
    Document,
    LemmaDictionary,
    load_lemma_dictionary,
    load_manifest,
    preprocess,
    tokenize,
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
from .graph import build_network, network_to_json
from .learn import (
    ClassificationReport,
    ClassifierSpec,
    RelevanceReport,
    baseline_char_bigrams,
    baseline_stopword_frequency,
    baseline_word_lsa,
    loo_evaluate,
    pca_project,
    relevance_index,
)
from .metrics import (
    clustering,
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
    accessibility_batch,
    backbone_symmetry_batch,
    generalized_accessibility,
    merged_symmetry_batch,
)

STRATEGIES = ("GS", "LS", "LSS")
CLASSIFIERS = ("knn", "cart", "nb")


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
        if not self.h_access or any(h < 1 or h > 4 for h in self.h_access):
            raise ProsenetError("walk depths (--h) must lie in 1..4")
        if not self.h_symmetry or any(h < 1 for h in self.h_symmetry):
            raise ProsenetError("symmetry depths must be >= 1")

    def as_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["h_access"] = list(self.h_access)
        data["h_symmetry"] = list(self.h_symmetry)
        data["version"] = __version__
        return data


def parse_config_file(path: str | Path) -> dict:
    """Flat key=value file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProsenetError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def config_from_sources(file_values: dict, overrides: dict) -> RunConfig:
    """Build a RunConfig from config-file values plus CLI overrides."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig()
    for key, raw in merged.items():
        if not hasattr(cfg, key):
            raise ProsenetError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        if isinstance(current, bool):
            value = raw if isinstance(raw, bool) else str(raw).lower() in ("1", "true", "yes")
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
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# measurement of one document
# ---------------------------------------------------------------------------

def measure_document(
    doc: Document,
    cfg: RunConfig,
    walk_sources: list[str] | None,
) -> DocumentMeasures:
    """All measures for one document's network.

    ``walk_sources`` limits the expensive walk measures (A, Sb, Sm) to the
    named words; None measures every node.
    """
    net = build_network(doc, cfg.window)
    from .graph import bfs_distances

    dist_all = bfs_distances(net, np.arange(net.node_count))
    measures = {}
    measures["k"] = degree(net)
    for h in cfg.h_access:
        measures[f"N{h}"] = neighborhood_connectivity(net, h, cfg.cumulative, dist=dist_all)
    measures["cc"] = clustering(net)
    measures["B"] = betweenness(net, dist=dist_all)
    measures["C"] = closeness(net, reciprocal=cfg.closeness == "reciprocal", dist=dist_all)
    measures["E"] = eccentricity(net, dist=dist_all)
    measures["Ec"] = eigenvector_centrality(net)
    measures["Pr"] = pagerank(net, cfg.alpha)
    measures["Ag"] = generalized_accessibility(net, cfg.ag_exclude_self)

    index = net.node_index()
    if walk_sources is None:
        sources = np.arange(net.node_count)
        want_walks = True
    else:
        sources = np.array(sorted(index[w] for w in walk_sources if w in index), dtype=np.int64)
        want_walks = len(walk_sources) > 0  # empty request omits walk measures

    def walk_measure(name: str, per_source: np.ndarray) -> None:
        values = np.zeros(net.node_count, dtype=np.float64)
        missing = np.ones(net.node_count, dtype=bool)
        values[sources] = per_source
        missing[sources] = False
        from .metrics import NodeMeasures

        measures[name] = NodeMeasures(name, values, missing, doc.id)

    if want_walks:
        dist_sources = dist_all[sources]
        acc = accessibility_batch(net, sources, cfg.h_access, dist_block=dist_sources)
        sb = backbone_symmetry_batch(net, sources, cfg.h_symmetry, dist=dist_sources)
        sm = merged_symmetry_batch(net, sources, cfg.h_symmetry, dist=dist_sources)
        for col, h in enumerate(cfg.h_access):
            walk_measure(f"A{h}", acc[:, col])
        for col, h in enumerate(cfg.h_symmetry):
            walk_measure(f"Sb{h}", sb[:, col])
            walk_measure(f"Sm{h}", sm[:, col])

    return DocumentMeasures(
        doc_id=doc.id,
        label=doc.label,
        node_labels=list(net.node_labels),
        measures=measures,
        vocabulary_size=net.node_count,
        modularity_q=detect_communities(net).q,
        word_frequencies=word_frequencies(doc),
    )


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def _dictionary_digest(dictionary: LemmaDictionary) -> str:
    """sha256 of the lemma mapping and stoplist, independent of their order."""
    blob = json.dumps([sorted(dictionary.mapping.items()), sorted(dictionary.stoplist)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _measure_cache_key(raw_text: str, cfg: RunConfig, dictionary_digest: str,
                       keep_stopwords: bool, walk_sources: list[str] | None,
                       doc_id: str = "") -> str:
    payload = json.dumps(
        {
            "version": __version__,
            "doc_id": doc_id,
            "content": hashlib.sha256(raw_text.encode("utf-8")).hexdigest(),
            "dictionary": dictionary_digest,
            "keep_stopwords": keep_stopwords,
            "window": cfg.window,
            "h_access": list(cfg.h_access),
            "h_symmetry": list(cfg.h_symmetry),
            "alpha": cfg.alpha,
            "closeness": cfg.closeness,
            "cumulative": cfg.cumulative,
            "ag_exclude_self": cfg.ag_exclude_self,
            "sources": sorted(walk_sources) if walk_sources is not None else None,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _measures_to_payload(dm: DocumentMeasures) -> dict:
    return {
        "doc_id": dm.doc_id,
        "label": dm.label,
        "node_labels": dm.node_labels,
        "vocabulary_size": dm.vocabulary_size,
        "modularity_q": repr(dm.modularity_q),
        "word_frequencies": dm.word_frequencies,
        "measures": {
            name: {
                "values": [repr(float(v)) for v in nm.values],
                "missing": [int(m) for m in nm.missing],
            }
            for name, nm in sorted(dm.measures.items())
        },
    }


def _measures_from_payload(data: dict) -> DocumentMeasures:
    from .metrics import NodeMeasures

    measures = {
        name: NodeMeasures(
            name,
            np.array([float(v) for v in block["values"]], dtype=np.float64),
            np.array(block["missing"], dtype=bool),
            data["doc_id"],
        )
        for name, block in data["measures"].items()
    }
    return DocumentMeasures(
        doc_id=data["doc_id"],
        label=data["label"],
        node_labels=list(data["node_labels"]),
        measures=measures,
        vocabulary_size=int(data["vocabulary_size"]),
        modularity_q=float(data["modularity_q"]),
        word_frequencies={k: int(v) for k, v in data["word_frequencies"].items()},
    )


def _cache_load(path: Path, key: str) -> DocumentMeasures | None:
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        payload = entry["payload"]
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        if entry["key"] != key or entry["checksum"] != hashlib.sha256(blob).hexdigest():
            return None
        return _measures_from_payload(payload)
    except (OSError, ValueError, KeyError):
        return None


def _cache_store(path: Path, key: str, dm: DocumentMeasures) -> None:
    payload = _measures_to_payload(dm)
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    entry = {
        "key": key,
        "checksum": hashlib.sha256(blob).hexdigest(),
        "payload": payload,
    }
    atomic_write(path, json.dumps(entry, sort_keys=True))


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# corpus-level measurement with parallelism
# ---------------------------------------------------------------------------

_WORKER_DICT: dict[tuple[str, str], LemmaDictionary] = {}


def _dictionary_for(cfg: RunConfig) -> LemmaDictionary:
    key = (cfg.lemmas, cfg.stoplist)
    if key not in _WORKER_DICT:
        _WORKER_DICT[key] = load_lemma_dictionary(cfg.lemmas or None, cfg.stoplist or None)
    return _WORKER_DICT[key]


def _measure_task(args) -> tuple[str, dict | None, str | None]:
    doc_id, label, path, keep_stopwords, sources, cfg_dict = args
    try:
        cfg = RunConfig(**cfg_dict)
        raw = Path(path).read_text(encoding="utf-8", errors="replace")
        doc = preprocess(raw, _dictionary_for(cfg), keep_stopwords, doc_id, label)
        dm = measure_document(doc, cfg, sources)
        return doc_id, _measures_to_payload(dm), None
    except Exception as exc:  # noqa: BLE001 - reported per document by the caller
        return doc_id, None, f"{type(exc).__name__}: {exc}"


def _plain_cfg_dict(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}


def compute_corpus_measures(
    manifest: CorpusManifest,
    cfg: RunConfig,
    keep_stopwords: bool,
    walk_sources: list[str] | None,
    cache_dir: Path | None = None,
    collect_errors: bool = False,
):
    """Measure every document, using the cache and optional process pool.

    Returns the DocumentMeasures in manifest order; with ``collect_errors``
    the return value is (measures, failures) where failures pairs document
    ids with error strings and the measures list skips the failed ones.
    """
    results: dict[str, DocumentMeasures] = {}
    pending = []
    keys = {}
    dictionary_digest = _dictionary_digest(_dictionary_for(cfg))
    for entry in manifest.entries:
        raw = entry.path.read_text(encoding="utf-8", errors="replace")
        key = _measure_cache_key(raw, cfg, dictionary_digest, keep_stopwords, walk_sources,
                                 entry.doc_id)
        keys[entry.doc_id] = key
        cached = _cache_load(cache_dir / f"{key}.json", key) if cache_dir else None
        if cached is not None and cached.doc_id == entry.doc_id:
            results[entry.doc_id] = cached
        else:
            pending.append(
                (entry.doc_id, entry.label, str(entry.path), keep_stopwords,
                 walk_sources, _plain_cfg_dict(cfg))
            )

    failures: list[tuple[str, str]] = []
    if pending:
        if cfg.jobs > 1:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                computed = list(pool.map(_measure_task, pending, chunksize=1))
        else:
            computed = [_measure_task(args) for args in pending]
        for doc_id, payload, error in computed:
            if error is not None:
                failures.append((doc_id, error))
                continue
            dm = _measures_from_payload(payload)
            results[doc_id] = dm
            if cache_dir:
                _cache_store(cache_dir / f"{keys[doc_id]}.json", keys[doc_id], dm)

    ordered = [results[e.doc_id] for e in manifest.entries if e.doc_id in results]
    if collect_errors:
        return ordered, failures
    if failures:
        summary = "; ".join(f"{doc_id}: {msg}" for doc_id, msg in failures)
        raise ProsenetError(f"{len(failures)} document(s) failed: {summary}")
    return ordered


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
    lines.append(f"{dm.doc_id},,V,{repr(float(dm.vocabulary_size))}")
    lines.append(f"{dm.doc_id},,Q,{repr(float(dm.modularity_q))}")
    return "\n".join(lines) + "\n"


def _load_documents(manifest: CorpusManifest, cfg: RunConfig, keep_stopwords: bool) -> list[Document]:
    dictionary = _dictionary_for(cfg)
    docs = []
    for entry in manifest.entries:
        raw = entry.path.read_text(encoding="utf-8", errors="replace")
        docs.append(preprocess(raw, dictionary, keep_stopwords, entry.doc_id, entry.label))
    return docs


def _strategy_inputs(cfg: RunConfig, manifest: CorpusManifest):
    """(keep_stopwords, walk_sources) for the configured strategy."""
    keep_stopwords = cfg.strategy == "LSS"
    if cfg.strategy == "GS":
        return keep_stopwords, None if cfg.gs_walks else []
    docs = _load_documents(manifest, cfg, keep_stopwords)
    words = select_word_list(docs, cfg.word_list_size, cfg.min_doc_fraction)
    if not words:
        raise ProsenetError(
            "no words satisfy the document-coverage threshold; lower min_doc_fraction"
        )
    return keep_stopwords, words


def build_feature_matrix(
    cfg: RunConfig, manifest: CorpusManifest, cache_dir: Path | None
) -> tuple[FeatureMatrix, list[DocumentMeasures]]:
    """Measure the corpus and assemble the configured strategy's features."""
    keep_stopwords, sources = _strategy_inputs(cfg, manifest)
    doc_measures = compute_corpus_measures(manifest, cfg, keep_stopwords, sources, cache_dir)
    if cfg.strategy == "GS":
        fm = global_features(doc_measures)
    else:
        dictionary = _dictionary_for(cfg)
        fm = local_features(
            doc_measures,
            sources,
            include_stopwords=cfg.strategy == "LSS",
            stoplist=dictionary.stoplist,
        )
        frequencies = {dm.doc_id: dm.word_frequencies for dm in doc_measures}
        fm = frequency_decorrelation_filter(fm, frequencies, cfg.rho_max)
    return fm, doc_measures


def cmd_measure(cfg: RunConfig) -> list[Path]:
    """Compute and write per-document measure CSVs for the configured strategy.

    Failures are collected per document so one broken file does not hide the
    rest; after every processable document is written, any failure raises.
    """
    manifest = load_manifest(cfg.manifest)
    out = Path(cfg.out)
    cache = out / "cache"
    keep_stopwords, sources = _strategy_inputs(cfg, manifest)
    doc_measures, failures = compute_corpus_measures(
        manifest, cfg, keep_stopwords, sources, cache, collect_errors=True
    )
    written = []
    for dm in doc_measures:
        path = out / "measures" / f"{dm.doc_id}.csv"
        atomic_write(path, measures_to_csv(dm))
        written.append(path)
    if failures:
        summary = "; ".join(f"{doc_id}: {msg}" for doc_id, msg in failures)
        raise ProsenetError(f"{len(failures)} document(s) failed: {summary}")
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


def projection_csv(doc_ids, labels, coords) -> str:
    lines = ["doc_id,label,pc1,pc2"]
    for doc_id, label, row in zip(doc_ids, labels, coords):
        lines.append(f"{doc_id},{label},{float(row[0])!r},{float(row[1])!r}")
    return "\n".join(lines) + "\n"


def cmd_classify(cfg: RunConfig) -> dict[str, ClassificationReport]:
    """Features -> decorrelation (local) -> IG top-k -> LOO -> report + PCA."""
    manifest = load_manifest(cfg.manifest)
    out = Path(cfg.out)
    fm, _ = build_feature_matrix(cfg, manifest, out / "cache")

    ranking = rank_features(fm)
    atomic_write(
        out / f"ranking_{cfg.strategy}.csv",
        "feature,information_gain\n"
        + "".join(f"{n},{float(g)!r}\n" for n, g in ranking.ranked),
    )
    top = select_top_k(fm, min(cfg.top_k, len(fm.feature_names)))
    atomic_write(out / f"features_{cfg.strategy}.csv", top.to_csv())

    proj = pca_project(top)
    atomic_write(
        out / f"projection_{cfg.strategy}.csv",
        projection_csv(top.doc_ids, top.labels, proj.coords),
    )

    names = CLASSIFIERS if cfg.classifier == "all" else (cfg.classifier,)
    reports = {}
    for name in names:
        spec = ClassifierSpec(name, knn_k=cfg.knn_k)
        report = loo_evaluate(top, spec)
        reports[name] = report
        atomic_write(out / f"report_{cfg.strategy}_{name}.json", _report_json(report, cfg))
    return reports


def relevance_csvs(report: RelevanceReport) -> tuple[str, str, str]:
    ledger_lines = ["rank,bitmask,features,accuracy"]
    for rank, (mask, acc) in enumerate(report.ledger, start=1):
        feats = ";".join(
            report.feature_names[f] for f in range(report.phi) if mask >> f & 1
        )
        ledger_lines.append(f"{rank},{mask},{feats},{acc!r}")
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


def cmd_relevance(cfg: RunConfig) -> RelevanceReport:
    """Exhaustive subset sweep over the top-phi features of the strategy."""
    manifest = load_manifest(cfg.manifest)
    out = Path(cfg.out)
    fm, _ = build_feature_matrix(cfg, manifest, out / "cache")
    top = select_top_k(fm, min(cfg.phi, len(fm.feature_names)))
    spec = ClassifierSpec(cfg.classifier if cfg.classifier != "all" else "knn", knn_k=cfg.knn_k)
    report = relevance_index(top, spec)
    ledger, index, omega = relevance_csvs(report)
    atomic_write(out / f"relevance_ledger_{cfg.strategy}.csv", ledger)
    atomic_write(out / f"relevance_index_{cfg.strategy}.csv", index)
    atomic_write(out / f"relevance_omega_{cfg.strategy}.csv", omega)
    return report


def cmd_baselines(cfg: RunConfig) -> dict[str, ClassificationReport]:
    """Stopword-frequency and char-bigram reports plus the word-LSA projection."""
    manifest = load_manifest(cfg.manifest)
    out = Path(cfg.out)
    dictionary = _dictionary_for(cfg)

    docs_with_stops = _load_documents(manifest, cfg, keep_stopwords=True)
    docs_content = _load_documents(manifest, cfg, keep_stopwords=False)
    raw_docs = [
        (e.doc_id, e.label, e.path.read_text(encoding="utf-8", errors="replace"))
        for e in manifest.entries
    ]

    spec = ClassifierSpec("knn", knn_k=cfg.knn_k)
    stop_report = baseline_stopword_frequency(
        docs_with_stops, dictionary.stoplist, cfg.baseline_top_k, spec
    )
    bigram_report = baseline_char_bigrams(raw_docs, cfg.baseline_top_k, spec)

    lsa_fm, lsa_coords = baseline_word_lsa(docs_content)
    atomic_write(out / "lsa_features.csv", lsa_fm.to_csv())
    atomic_write(
        out / "lsa_projection.csv",
        projection_csv(lsa_fm.doc_ids, lsa_fm.labels, lsa_coords),
    )
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
    atomic_write(path, network_to_json(net) + "\n")
    return path


def prepare_manifest(
    source_manifest: str | Path,
    out_path: str | Path,
    length_metric: str = "raw",
    strip_pos: bool = False,
    texts_dir: str | Path | None = None,
    cfg: RunConfig | None = None,
) -> int:
    """Balance a labeled corpus: keep the minority class whole and only the
    longest majority-class documents.

    ``length_metric`` picks the ordering: 'raw' counts every token before
    preprocessing, 'preprocessed' counts the lemmas that survive it with
    stopwords removed. ``strip_pos`` rewrites word/TAG formatted files as
    plain text under ``texts_dir``.
    """
    if length_metric not in ("raw", "preprocessed"):
        raise ProsenetError("length_metric must be 'raw' or 'preprocessed'")
    cfg = cfg or RunConfig()
    manifest = load_manifest(source_manifest)
    dictionary = _dictionary_for(cfg)

    records = []
    for entry in manifest.entries:
        text = entry.path.read_text(encoding="utf-8", errors="replace")
        if strip_pos:
            text = " ".join(tok.rsplit("/", 1)[0] for tok in text.split())
            if texts_dir is None:
                raise ProsenetError("strip_pos requires texts_dir")
            target = Path(texts_dir) / f"{entry.doc_id}.txt"
            atomic_write(target, text + "\n")
            doc_path = target
        else:
            doc_path = entry.path
        if length_metric == "raw":
            length = len(tokenize(text))
        else:
            length = len(preprocess(text, dictionary, False, entry.doc_id, entry.label).tokens)
        records.append((entry.doc_id, entry.label, doc_path.resolve(), length))

    by_label: dict[str, list] = {}
    for rec in records:
        by_label.setdefault(rec[1], []).append(rec)
    smallest = min(len(v) for v in by_label.values())
    selected = []
    for label in sorted(by_label):
        group = sorted(by_label[label], key=lambda r: (-r[3], r[0]))[:smallest]
        selected.extend(group)
    selected.sort(key=lambda r: r[0])

    lines = [f"{doc_id}\t{label}\t{path}" for doc_id, label, path, _ in selected]
    atomic_write(Path(out_path), "\n".join(lines) + "\n")
    return len(selected)
