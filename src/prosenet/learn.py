"""Classifiers, leave-one-out evaluation, the exhaustive feature-relevance
index, PCA projection, and the traditional baselines.

All classifiers are deterministic. Features are z-scored inside each
leave-one-out fold from the training rows only; a zero-variance feature keeps
scale 1. KNN distance ties keep every neighbor at the K-th radius and label
ties resolve toward the lexicographically smaller class.

PCA returns the documents' coordinates on the top two principal components;
it and the word-LSA baseline take their eigenvectors from
``top_eigenpairs_sym``, power iteration with deflation. The baselines build
their relative-frequency tables with ``_frequency_features``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import CostGuardError, ProsenetError
from .corpus import Document, tokenize
from .features import FeatureMatrix, select_top_k

RELEVANCE_MAX_FEATURES = 15
LEDGER_DTYPE = np.dtype([("mask", np.int64), ("accuracy", np.float64)])
# cells of one (n, subsets, n) distance block in the relevance sweep; its
# depth-first stack of these blocks (2.5 MB at n = 40, phi = 15) is the
# sweep's share of the memory peak of `relevance`
SWEEP_BLOCK_CELLS = 1 << 15


@dataclass
class ClassifierSpec:
    """Which classifier to run and with what parameters."""

    name: str = "knn"  # knn | cart | nb
    knn_k: int = 1


@dataclass
class ClassificationReport:
    classifier: str
    accuracy: float
    confusion: dict[str, dict[str, int]]
    p_value: float
    feature_names: list[str]
    n: int
    config: dict = field(default_factory=dict)


@dataclass
class RelevanceReport:
    """Exhaustive subset sweep: every nonempty feature subset's LOO accuracy.

    ``ledger`` is a ``LEDGER_DTYPE`` array of (bitmask, accuracy) records
    sorted best-first (ties: smaller subset, then smaller bitmask).
    ``omega[i, k-1]`` counts appearances of feature i among the k best
    subsets, for k up to 2**(phi-1), as int32; ``r_index`` sums it per feature,
    highest first, ties by name.
    """

    feature_names: list[str]
    ledger: np.ndarray
    omega: np.ndarray
    r_index: dict[str, int]


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

@dataclass
class _CartNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_CartNode | None" = None
    right: "_CartNode | None" = None
    label: str | None = None


def _gini_rows(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity 1 - sum((c/t)^2) of each row of class counts.

    Absent classes add exact zeros, so each sum equals the one over the
    classes present, in label order.
    """
    p = counts / totals[:, None]
    return 1.0 - (p * p).sum(axis=1)


def _best_split(x: np.ndarray, y: np.ndarray, n_classes: int) -> tuple[int, float] | None:
    """(feature, threshold) of the lowest weighted Gini impurity, or None.

    Every column is sorted once; a candidate's class counts are read from
    the cumulative class counts of the labels in sorted order. Candidates run
    in feature order, then ascending threshold, and the first minimum wins.
    """
    n = len(y)
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    # cum[k, f, c]: rows of class c among the k smallest values of column f
    cum = np.zeros((n + 1, x.shape[1], n_classes), dtype=np.int64)
    np.cumsum(y[order][..., None] == np.arange(n_classes), axis=0, out=cum[1:])
    feat, pos = np.nonzero((xs[1:] > xs[:-1]).T)
    upper = xs[pos + 1, feat]
    thr = (xs[pos, feat] + upper) / 2.0
    n_l = pos + 1
    # a midpoint of two adjacent floats can round onto the upper value,
    # which `col <= thr` then counts as well
    for j in np.flatnonzero(thr >= upper):
        n_l[j] = np.searchsorted(xs[:, feat[j]], thr[j], side="right")
    # a threshold that keeps every row on the left is no split
    keep = n_l < n
    feat, thr, n_l = feat[keep], thr[keep], n_l[keep]
    if not len(feat):
        return None
    left = cum[n_l, feat]
    n_r = n - n_l
    impurity = (
        n_l * _gini_rows(left, n_l) + n_r * _gini_rows(cum[n, feat] - left, n_r)
    ) / n
    best = int(np.argmin(impurity))
    return int(feat[best]), float(thr[best])


def cart_train(train_x: np.ndarray, train_y: list[str]) -> _CartNode:
    """Binary Gini tree; thresholds at midpoints of sorted unique values.

    Tie-break across equal-impurity splits: lowest feature index, then lowest
    threshold; a majority tie goes to the smaller label. No pruning.
    """
    labels = sorted(set(train_y))
    code = {lab: i for i, lab in enumerate(labels)}
    y = np.array([code[lab] for lab in train_y], dtype=np.int64)
    x = np.asarray(train_x, dtype=np.float64)

    def build(rows: np.ndarray) -> _CartNode:
        counts = np.bincount(y[rows], minlength=len(labels))
        leaf = _CartNode(label=labels[int(np.argmax(counts))])
        if np.count_nonzero(counts) == 1:
            return leaf
        split = _best_split(x[rows], y[rows], len(labels))
        if split is None:
            return leaf
        f, thr = split
        mask = x[rows, f] <= thr
        node = _CartNode(feature=f, threshold=thr)
        node.left = build(rows[mask])
        node.right = build(rows[~mask])
        return node

    return build(np.arange(len(y)))


def cart_classify(tree: _CartNode, row: np.ndarray) -> str:
    node = tree
    while node.label is None:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.label


@dataclass
class _NbModel:
    labels: list[str]
    priors: np.ndarray
    means: np.ndarray
    variances: np.ndarray


def nb_train(
    train_x: np.ndarray,
    train_y: list[str],
    var_smoothing: float = 1e-9,
    expected_labels: list[str] | None = None,
) -> _NbModel:
    """Per-class per-feature Gaussians with additive variance smoothing."""
    labels = sorted(expected_labels) if expected_labels else sorted(set(train_y))
    y = np.asarray(train_y, dtype=object)
    x = np.asarray(train_x, dtype=np.float64)
    eps = var_smoothing * float(x.var(axis=0).max()) if x.size else var_smoothing
    means, variances, priors = [], [], []
    for lab in labels:
        rows = x[y == lab]
        if len(rows) < 1:
            raise ValueError(f"class {lab!r} absent from training data")
        means.append(rows.mean(axis=0))
        variances.append(rows.var(axis=0) + max(eps, 1e-300))
        priors.append(len(rows) / len(x))
    return _NbModel(labels, np.array(priors), np.array(means), np.array(variances))


def nb_classify(model: _NbModel, row: np.ndarray) -> str:
    log_post = np.log(model.priors) + (
        -0.5 * np.log(2.0 * math.pi * model.variances)
        - (row - model.means) ** 2 / (2.0 * model.variances)
    ).sum(axis=1)
    return model.labels[int(np.argmax(log_post))]  # argmax tie -> smaller label


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def significance(accuracy: float, n: int) -> float:
    """Exact one-sided binomial tail P(X >= round(accuracy*n)) at p = 1/2.

    int / int true division rounds the exact quotient correctly, so this is
    the nearest float to the tail without a Fraction."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hits = round(accuracy * n)
    numer = sum(math.comb(n, k) for k in range(hits, n + 1))
    return numer / 2**n


def _loo_fold_weights(x: np.ndarray) -> np.ndarray:
    """w[i, f]: 1 / variance of column f without row i (1 where it is 0)."""
    n = len(x)
    s = x.sum(axis=0)
    ss = (x * x).sum(axis=0)
    mean_i = (s - x) / (n - 1)
    var_i = (ss - x * x) / (n - 1) - mean_i**2
    w = np.ones_like(var_i)
    np.divide(1.0, var_i, out=w, where=var_i > 1e-300)
    return w


def _knn_term(x: np.ndarray, w: np.ndarray, f: int) -> np.ndarray:
    """Feature f's squared-distance terms w[i, f] * (x[i, f] - x[j, f])^2 of
    leave-one-out fold i, laid out [j, i], with +inf on the diagonal so that
    every sum of terms keeps fold i out of its own neighbours."""
    col = x[:, f]
    term = w[:, f] * (col[:, None] - col[None, :]) ** 2
    np.fill_diagonal(term, np.inf)
    return term


def _knn_vote(blocks: np.ndarray, n0: int, k: int) -> np.ndarray:
    """LOO KNN predictions (0 or 1) per [subset, i] from [j, subset, i]
    blocks of squared distances with +inf diagonals, whose neighbours j are
    ordered by class, the ``n0`` of class 0 first. Every neighbour within
    the K-th radius votes, K clamped to n - 1.

    Each lane [s, i] takes its nearest distance in each class, an
    elementwise minimum over that class's rows. At K = 1 the nearer class
    alone holds the voters, so it decides every lane but an exact tie. Only
    the ties, or every lane when K > 1, are gathered as ``blocks[:, s, i]``
    and sorted for their K-th distance; then one comparison over the block
    marks the voters within each lane's radius, counted per class.
    """
    kk = min(k, len(blocks) - 1)
    near0 = blocks[:n0].min(axis=0, initial=np.inf)
    near1 = blocks[n0:].min(axis=0, initial=np.inf)
    s, i = np.nonzero((near0 == near1) | (kk > 1))
    if not len(s):
        return near1 < near0
    lanes = blocks[:, s, i]
    lanes.sort(axis=0)
    radius = np.minimum(near0, near1)
    radius[s, i] = lanes[kk - 1]
    within = blocks <= radius
    return within[n0:].sum(axis=0) > within[:n0].sum(axis=0)  # tie -> smaller (index 0) label


def _loo_knn_predictions(x: np.ndarray, y01: np.ndarray, k: int) -> np.ndarray:
    """Vectorized leave-one-out KNN with per-fold z-scoring.

    Mean-centering cancels in Euclidean distances, so each fold only needs
    its per-feature inverse variances, computed from leave-one-out sums.
    The squared distances add the per-feature terms in ascending feature
    order from zero, as the relevance sweep does, so a feature set gets the
    accuracy its subset has in the sweep.
    """
    n, phi = x.shape
    w = _loo_fold_weights(x)
    by_class = np.argsort(y01, kind="stable")
    d2 = np.zeros((n, 1, n), dtype=np.float64)
    for f in range(phi):
        d2[:, 0] += _knn_term(x, w, f)[by_class]
    return _knn_vote(d2, int(np.count_nonzero(y01 == 0)), k)[0].astype(np.int64)


def loo_evaluate(fm: FeatureMatrix, spec: ClassifierSpec) -> ClassificationReport:
    """n-fold leave-one-out with per-fold normalization from training rows."""
    n = fm.n_documents
    if n < 2:
        raise ValueError("leave-one-out needs at least two documents")
    labels_sorted = sorted(set(fm.labels))
    x = fm.values
    y = list(fm.labels)

    predictions: list[str] = []
    if spec.name == "knn":
        y01 = np.array([labels_sorted.index(lab) for lab in y])
        preds = _loo_knn_predictions(x, y01, spec.knn_k)
        predictions = [labels_sorted[p] for p in preds]
    else:
        for i in range(n):
            mask = np.ones(n, dtype=bool)
            mask[i] = False
            mean, std = x[mask].mean(axis=0), x[mask].std(axis=0)
            std = np.where(std > 0, std, 1.0)
            train = (x[mask] - mean) / std
            test = (x[i] - mean) / std
            train_y = [y[j] for j in range(n) if mask[j]]
            if spec.name == "cart":
                predictions.append(cart_classify(cart_train(train, train_y), test))
            elif spec.name == "nb":
                model = nb_train(train, train_y, expected_labels=labels_sorted)
                predictions.append(nb_classify(model, test))
            else:
                raise ValueError(f"unknown classifier {spec.name!r}")

    confusion = {t: {p: 0 for p in labels_sorted} for t in labels_sorted}
    hits = 0
    for truth, pred in zip(y, predictions):
        confusion[truth][pred] += 1
        hits += truth == pred
    accuracy = hits / n
    return ClassificationReport(
        classifier=spec.name,
        accuracy=accuracy,
        confusion=confusion,
        p_value=significance(accuracy, n),
        feature_names=list(fm.feature_names),
        n=n,
    )


def _knn_subset_accuracies(
    x: np.ndarray, y01: np.ndarray, k: int, block_cells: int = SWEEP_BLOCK_CELLS
) -> np.ndarray:
    """LOO KNN accuracy of every nonempty column subset, by bitmask - 1.

    A subset's squared distances are its per-feature terms w[i, f] * (x[i, f]
    - x[j, f])^2 added in ascending feature order from zero, so each one is
    bit-identical to a per-subset sum. The 2^L subsets of the L lowest
    features form one block, summed once, where L is the largest that keeps
    2^L n^2 within ``block_cells`` (at least 0). Each subset of the higher
    features adds its highest feature's term to its parent's block (the same
    subset without that feature), depth first, so phi - L + 1 blocks are live
    at most; each block's 2^L subsets are voted on at once by ``_knn_vote``.
    Blocks are laid out [j, subset, i], neighbour j outermost and ordered by
    class, so each class's rows of a block are one contiguous array: the
    nearest distance per class is an elementwise minimum of those rows, and
    a subset's parent-plus-term add broadcasts the term's [j, i] over the
    subsets. The diagonal and the class order are the same for every block,
    so the terms carry the +inf diagonal and are ordered once.
    """
    n, phi = x.shape
    w = _loo_fold_weights(x)
    by_class = np.argsort(y01, kind="stable")
    n0 = int(np.count_nonzero(y01 == 0))
    terms = np.empty((phi, n, n), dtype=np.float64)
    for f in range(phi):
        terms[f] = _knn_term(x, w, f)[by_class]
    low = min(phi, max(0, (block_cells // (n * n)).bit_length() - 1))
    blocks = np.zeros((phi - low + 1, n, 2**low, n), dtype=np.float64)
    for mask in range(1, 2**low):
        top = mask.bit_length() - 1
        np.add(blocks[0, :, mask ^ 1 << top], terms[top], out=blocks[0, :, mask])

    accuracies = np.empty(2**phi, dtype=np.float64)

    def descend(high: int, depth: int) -> None:
        preds = _knn_vote(blocks[depth], n0, k)
        accuracies[high << low:(high + 1) << low] = (preds == y01).mean(axis=1)
        for f in range(high.bit_length(), phi - low):
            np.add(blocks[depth], terms[low + f][:, None], out=blocks[depth + 1])
            descend(high | 1 << f, depth + 1)

    descend(0, 0)
    # descend's closure holds itself, a cycle that would keep the blocks
    # alive until the next garbage collection; break it to free them now
    del descend
    return accuracies[1:]


def refuse_large_sweep(phi: int) -> None:
    """Raise ``CostGuardError`` if a sweep over phi features passes the guard."""
    if phi > RELEVANCE_MAX_FEATURES:
        raise CostGuardError(
            f"relevance sweep over {phi} features needs 2^{phi} evaluations; "
            f"the guard allows at most {RELEVANCE_MAX_FEATURES}"
        )


def relevance_index(fm: FeatureMatrix, spec: ClassifierSpec | None = None) -> RelevanceReport:
    """LOO accuracy for every nonempty feature subset, then the relevance index.

    The ledger sorts subsets by accuracy (descending), then subset size, then
    bitmask. omega accumulates feature appearances down the ledger and the
    index sums omega over the first 2**(phi-1) ranks.
    """
    spec = spec or ClassifierSpec()
    phi = len(fm.feature_names)
    refuse_large_sweep(phi)
    labels_sorted = sorted(set(fm.labels))
    y01 = np.array([labels_sorted.index(lab) for lab in fm.labels])
    x = fm.values

    if spec.name == "knn":
        accuracies = _knn_subset_accuracies(x, y01, spec.knn_k)
    else:
        accuracies = np.zeros(2**phi - 1, dtype=np.float64)
        for mask in range(1, 2**phi):
            names = [fm.feature_names[f] for f in range(phi) if mask >> f & 1]
            accuracies[mask - 1] = loo_evaluate(fm.subset(names), spec).accuracy

    return rank_subsets(list(fm.feature_names), accuracies)


def rank_subsets(feature_names: list[str], accuracies: np.ndarray) -> RelevanceReport:
    """The ledger, omega and index of the subsets' accuracies (by bitmask - 1).

    Subset sizes and omega take one shift of the bitmasks per feature, so
    nothing larger than one int64 per subset is held per feature; omega is
    int32, as its counts are at most 2^(phi-1).
    """
    phi = len(feature_names)
    masks = np.arange(1, 2**phi, dtype=np.int64)
    sizes = np.zeros(len(masks), dtype=np.int64)
    for f in range(phi):
        sizes += masks >> f & 1
    order = np.lexsort((masks, sizes, -accuracies))
    ledger = np.empty(len(masks), dtype=LEDGER_DTYPE)
    ledger["mask"] = masks[order]
    ledger["accuracy"] = accuracies[order]
    top = ledger["mask"][: 2 ** (phi - 1)]
    omega = np.empty((phi, len(top)), dtype=np.int32)  # counts up to 2^14
    for f in range(phi):
        np.cumsum(top >> f & 1, dtype=np.int32, out=omega[f])
    r_index = sorted(zip(feature_names, omega.sum(axis=1).tolist()), key=lambda t: (-t[1], t[0]))
    return RelevanceReport(feature_names, ledger, omega, dict(r_index))


def top_eigenpairs_sym(m: np.ndarray, k: int, tol: float = 1e-12, max_iter: int = 100_000):
    """Largest-k eigenpairs of a symmetric PSD matrix by power iteration + deflation.

    Eigenvector signs follow the convention that the largest-magnitude entry
    is positive. Returns (values, vectors) with vectors in columns.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    values = []
    vectors = []
    work = m.copy()
    for _ in range(k):
        # deterministic generic start direction
        x = 1.0 / np.arange(1.0, n + 1.0)
        x /= np.linalg.norm(x)
        lam = 0.0
        for _ in range(max_iter):
            y = work @ x
            ny = np.linalg.norm(y)
            if ny == 0.0:  # operator annihilates the start vector
                break
            y /= ny
            lam = float(y @ (work @ y))
            if np.linalg.norm(work @ y - lam * y) < tol * max(1.0, abs(lam)):
                x = y
                break
            x = y
        pivot = int(np.argmax(np.abs(x)))
        if x[pivot] < 0:
            x = -x
        values.append(lam)
        vectors.append(x)
        work = work - lam * np.outer(x, x)
    return np.array(values), np.column_stack(vectors)


def pca_project(fm: FeatureMatrix) -> np.ndarray:
    """The documents' (n, 2) coordinates on the columns' top two principal components."""
    if len(fm.feature_names) < 2:
        raise ValueError("PCA needs at least two feature columns")
    centered = fm.values - fm.values.mean(axis=0)
    _, vectors = top_eigenpairs_sym(centered.T @ centered / len(centered), 2)
    return centered @ vectors


# ---------------------------------------------------------------------------
# traditional baselines
# ---------------------------------------------------------------------------

def _frequency_features(counts: list[Mapping[str, int]], vocabulary: list[str],
                        totals: list[int]) -> np.ndarray:
    """Relative frequencies: counts[i][w] / totals[i] per document i and
    vocabulary word w, a row of zeros where a total is 0.

    Counts and totals are integers, so each cell is their correctly rounded
    quotient, whatever order the counts were taken in.
    """
    rows = np.array([[c.get(w, 0) for w in vocabulary] for c in counts], dtype=np.float64)
    rows = rows.reshape(len(counts), len(vocabulary))
    return rows / np.maximum(np.array(totals, dtype=np.float64), 1.0)[:, None]


def baseline_word_lsa(
    docs: list[Document], n_words: int = 10
) -> tuple[FeatureMatrix, np.ndarray]:
    """Relative frequencies of the most frequent words, with a rank-2 SVD map.

    ``docs`` should be stopword-free so the vocabulary is content words.
    Returns the feature matrix and the documents' rank-2 coordinates.
    """
    per_doc = [Counter(doc.tokens) for doc in docs]
    corpus = Counter(tok for doc in docs for tok in doc.tokens)
    vocab = sorted(corpus, key=lambda w: (-corpus[w], w))[:n_words]
    rows = _frequency_features(per_doc, vocab, [len(doc.tokens) for doc in docs])
    fm = FeatureMatrix([d.id for d in docs], [d.label for d in docs], list(vocab), rows)
    gram = rows.T @ rows
    _, vectors = top_eigenpairs_sym(gram, 2)
    return fm, rows @ vectors


def _frequency_baseline(
    ids: list[str], labels: list[str], counts: list[Mapping[str, int]], vocabulary: list[str],
    totals: list[int], top_k: int, spec: ClassifierSpec | None, tag: str, unit: str,
) -> ClassificationReport:
    """Leave-one-out on the top_k relative-frequency columns of ``vocabulary``
    by information gain, tagged as baseline ``tag``; a baseline left without
    columns (no ``unit`` in the corpus) is a ``ProsenetError``."""
    rows = _frequency_features(counts, vocabulary, totals)
    fm = select_top_k(FeatureMatrix(ids, labels, vocabulary, rows), min(top_k, len(vocabulary)))
    if not fm.feature_names:
        raise ProsenetError(f"the {tag} baseline has no columns: no {unit} occurs in the corpus")
    report = loo_evaluate(fm, spec or ClassifierSpec())
    report.config["baseline"] = tag
    return report


def baseline_stopword_frequency(
    docs: list[Document],
    stoplist: set[str],
    top_k: int = 15,
    spec: ClassifierSpec | None = None,
) -> ClassificationReport:
    """Classify on the most informative stopword frequencies.

    ``docs`` must retain stopwords. Stopword columns are ranked by
    information gain and the top_k survive into a leave-one-out run.
    """
    per_doc = [Counter(doc.tokens) for doc in docs]
    present = sorted({tok for counts in per_doc for tok in counts if tok in stoplist})
    return _frequency_baseline(
        [d.id for d in docs], [d.label for d in docs], per_doc, present,
        [len(doc.tokens) for doc in docs], top_k, spec, "stopword-frequency", "stoplist word",
    )


def char_bigram_counts(raw_text: str) -> dict[str, int]:
    """Word-internal character bigram counts over lowercased alphabetic runs."""
    return Counter(a + b for word in tokenize(raw_text) for a, b in zip(word, word[1:]))


def baseline_char_bigrams(
    raw_docs: list[tuple[str, str, str]],
    top_k: int = 15,
    spec: ClassifierSpec | None = None,
) -> ClassificationReport:
    """Classify on the most informative character-bigram frequencies.

    ``raw_docs`` holds (doc_id, label, raw_text) triples; bigrams never cross
    word boundaries.
    """
    per_doc = [char_bigram_counts(text) for _, _, text in raw_docs]
    vocab = sorted({bg for counts in per_doc for bg in counts})
    return _frequency_baseline(
        [d[0] for d in raw_docs], [d[1] for d in raw_docs], per_doc, vocab,
        [sum(counts.values()) for counts in per_doc], top_k, spec, "char-bigrams",
        "character bigram",
    )
