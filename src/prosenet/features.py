"""Feature assembly and selection.

Turns per-document measurement sets into a documents x features matrix under
the global (summary statistics of each measure) or local (one column per
measure/word pair) strategies, filters local columns that track raw word
frequency, and ranks columns by information gain.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .metrics import NodeMeasures

GLOBAL_STATS = ["mean", "std", "median", "max", "min"]
IG_BINS = 10  # equal-frequency bins per column for information gain; read when called


@dataclass
class DocumentMeasures:
    """Everything measured on one document's network, keyed by measure name."""

    doc_id: str
    label: str
    node_labels: list[str]
    measures: dict[str, NodeMeasures]
    modularity_q: float
    word_frequencies: dict[str, int] = field(default_factory=dict)


@dataclass
class FeatureMatrix:
    """Documents x named features with class labels; missing cells imputed."""

    doc_ids: list[str]
    labels: list[str]
    feature_names: list[str]
    values: np.ndarray

    @property
    def n_documents(self) -> int:
        return len(self.doc_ids)

    def subset(self, names: list[str]) -> "FeatureMatrix":
        idx = [self.feature_names.index(n) for n in names]
        return FeatureMatrix(self.doc_ids, self.labels, list(names), self.values[:, idx].copy())

    def to_csv(self) -> str:
        lines = ["doc_id,label," + ",".join(self.feature_names)]
        for i, doc_id in enumerate(self.doc_ids):
            cells = [repr(float(v)) for v in self.values[i]]
            lines.append(f"{doc_id},{self.labels[i]}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def _impute_column_means(values: np.ndarray, missing: np.ndarray) -> np.ndarray:
    out = values.copy()
    for j in range(values.shape[1]):
        gap = missing[:, j]
        if gap.any():
            present = values[~gap, j]
            out[gap, j] = present.mean() if len(present) else 0.0
    return out


def global_features(doc_measures: list[DocumentMeasures]) -> FeatureMatrix:
    """Summary statistics of each measure plus vocabulary size and modularity.

    Per measure X the columns are mean(X), std(X) (population), median(X),
    max(X), min(X), computed over nodes carrying a value. V (the node count)
    and Q are appended as their own columns.
    """
    measure_names = sorted(doc_measures[0].measures)
    names = [f"{s}({m})" for m in measure_names for s in GLOBAL_STATS] + ["V", "Q"]
    rows = np.zeros((len(doc_measures), len(names)), dtype=np.float64)
    for i, dm in enumerate(doc_measures):
        col = 0
        for m in measure_names:
            vals = dm.measures[m].present_values()
            if vals.size == 0:
                raise ValueError(
                    f"measure {m!r} has no values on document {dm.doc_id!r}; "
                    "global statistics need at least one measured node"
                )
            rows[i, col : col + 5] = (
                vals.mean(), vals.std(), np.median(vals), vals.max(), vals.min(),
            )
            col += 5
        rows[i, col] = len(dm.node_labels)
        rows[i, col + 1] = dm.modularity_q
    return FeatureMatrix(
        [dm.doc_id for dm in doc_measures],
        [dm.label for dm in doc_measures],
        names,
        rows,
    )


def select_word_list(
    frequencies: list[dict[str, int]],
    size: int = 50,
    min_doc_fraction: float = 0.9,
) -> list[str]:
    """The most frequent lemmas appearing in at least min_doc_fraction of the
    documents, from each document's lemma counts (``word_frequencies``)."""
    totals, coverage = Counter(), Counter()
    for counts in frequencies:
        totals.update(counts)
        coverage.update(counts.keys())
    threshold = min_doc_fraction * len(frequencies)
    eligible = [w for w, c in coverage.items() if c >= threshold]
    eligible.sort(key=lambda w: (-totals[w], w))
    return eligible[:size]


def local_features(doc_measures: list[DocumentMeasures], word_list: list[str]) -> FeatureMatrix:
    """One column per (measure, word): the word's node value in each document.

    The word list is used as given: LS lists hold no stopwords because LS
    documents are preprocessed without them, and LSS lists keep them. A cell
    is missing when the word is absent from the document (or carries a
    missing marker there); missing cells are imputed with the column mean.
    Each document maps the word list to its node ids once, and every
    measure's cells come from one fancy index into its (measures, nodes)
    values.
    """
    if not word_list:
        raise ValueError("word list is empty")

    measure_names = sorted(doc_measures[0].measures)
    names = [f"{m}@{w}" for m in measure_names for w in word_list]
    shape = (len(doc_measures), len(measure_names), len(word_list))
    values = np.zeros(shape, dtype=np.float64)
    missing = np.ones(shape, dtype=bool)
    for i, dm in enumerate(doc_measures):
        index = {w: node for node, w in enumerate(dm.node_labels)}
        found = [(col, index[w]) for col, w in enumerate(word_list) if w in index]
        if not found:
            continue
        cols, nodes = np.array(found).T
        taken = [dm.measures[m] for m in measure_names]
        gap = np.array([nm.missing for nm in taken])[:, nodes]
        values[i][:, cols] = np.where(gap, 0.0, np.array([nm.values for nm in taken])[:, nodes])
        missing[i][:, cols] = gap
    return FeatureMatrix(
        [dm.doc_id for dm in doc_measures],
        [dm.label for dm in doc_measures],
        names,
        _impute_column_means(values.reshape(len(doc_measures), -1),
                             missing.reshape(len(doc_measures), -1)),
    )


def frequency_decorrelation_filter(
    fm: FeatureMatrix,
    frequencies: dict[str, dict[str, int]],
    rho_max: float = 0.5,
) -> FeatureMatrix:
    """Drop local columns whose |Pearson r| with the word's per-document
    frequency exceeds rho_max. Non-local columns pass through.

    Every local column is correlated at once. Each column and its frequency
    row are made contiguous rows, so every mean is summed in the order a
    single column's ``np.mean`` would sum it."""
    local = [j for j, name in enumerate(fm.feature_names) if "@" in name]
    words = [fm.feature_names[j].split("@", 1)[1] for j in local]
    index = {word: i for i, word in enumerate(dict.fromkeys(words))}
    counts = np.array([[frequencies.get(d, {}).get(word, 0) for d in fm.doc_ids]
                       for word in index], dtype=np.float64).reshape(len(index), len(fm.doc_ids))
    x = np.ascontiguousarray(fm.values[:, local].T)
    y = counts[[index[word] for word in words]]
    sx, sy = x.std(axis=1), y.std(axis=1)
    cov = ((x - x.mean(axis=1, keepdims=True)) * (y - y.mean(axis=1, keepdims=True))).mean(axis=1)
    r = np.divide(cov, sx * sy, out=np.zeros_like(cov), where=(sx != 0.0) & (sy != 0.0))
    rho = dict(zip(local, np.abs(r)))
    return fm.subset([name for j, name in enumerate(fm.feature_names)
                      if j not in rho or rho[j] <= rho_max])


def _equal_frequency_bins(x: np.ndarray) -> np.ndarray:
    """Discretize each column of x (or a 1-D x) into ``IG_BINS``
    equal-frequency bins; tied values share a bin.

    Cut points are order statistics (inverted-CDF quantiles), so the binning
    is invariant under strictly monotone transformations of x. A value's bin
    is the number of cut points at or below it, with NaN above every number
    (the order ``np.sort`` uses).
    """
    qs = [i / IG_BINS for i in range(1, IG_BINS)]
    cuts = np.quantile(x, qs, axis=0, method="inverted_cdf")
    return np.count_nonzero((x[None] >= cuts[:, None]) | np.isnan(x)[None], axis=0)


def rank_features(fm: FeatureMatrix) -> list[tuple[str, float]]:
    """All columns as (name, information gain) pairs, best first; ties by name.

    A column's gain is the plug-in mutual information (bits) between its
    ``IG_BINS`` equal-frequency bins and the label. Every column is binned
    and counted at once; the (bin, label) terms are added in bin-then-label
    order, the same for every column, with each log taken by ``math.log2``.
    """
    n, f = fm.values.shape
    label_names = sorted(set(fm.labels))
    y = np.array([label_names.index(l) for l in fm.labels])
    x = _equal_frequency_bins(fm.values)
    n_labels = len(label_names)
    counts = np.zeros((f, IG_BINS, n_labels), dtype=np.int64)
    np.add.at(counts, (np.arange(f)[None, :], x, y[:, None]), 1)

    p_xy = counts / n
    p_x = counts.sum(axis=2, keepdims=True) / n
    p_y = np.bincount(y, minlength=n_labels) / n
    present = counts > 0
    ratio = p_xy[present] / (p_x * p_y)[present]
    terms = np.zeros(counts.shape)
    terms[present] = p_xy[present] * np.array([math.log2(r) for r in ratio.tolist()])

    total = np.zeros(f)
    for cell in terms.reshape(f, IG_BINS * n_labels).T:  # absent cells add +0.0: no change
        total += cell
    gains = np.maximum(total, 0.0).tolist()
    return sorted(zip(fm.feature_names, gains), key=lambda t: (-t[1], t[0]))


def select_top_k(fm: FeatureMatrix, k: int) -> FeatureMatrix:
    """Keep the k highest-gain columns, in ranking order."""
    if k > len(fm.feature_names):
        raise ValueError(f"k={k} exceeds the {len(fm.feature_names)} available columns")
    return fm.subset([name for name, _ in rank_features(fm)[:k]])
