"""Property tests of the vectorised learners against their references.

CART: the sorted-prefix split search builds the same tree, node for node, as
the per-threshold reference on columns with repeated values, constant
columns and adjacent floats, whose midpoints can round onto the upper value.
Relevance sweep: the blocked subset sweep gives every subset exactly the
accuracy of the one-subset-at-a-time reference, across block sizes, K and
duplicate rows (distance ties). LOO-KNN on a feature set scores exactly the
accuracy the sweep gives that set. The significance, an int quotient, is
the float the exact Fraction rounds to, bit for bit. The baselines'
frequency tables, built from per-document counts, equal the per-token and
per-bigram references bit for bit, empty documents included.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_doc
from oracles import (bigram_frequency_matrix, fraction_significance, oracle_cart_train,
                     oracle_knn_subset_accuracies, relative_frequency_matrix)
from prosenet.features import FeatureMatrix
from prosenet.learn import (
    ClassifierSpec,
    _frequency_features,
    _knn_subset_accuracies,
    baseline_char_bigrams,
    baseline_stopword_frequency,
    cart_train,
    loo_evaluate,
    relevance_index,
    significance,
)

PROPERTY = settings(max_examples=80, deadline=None)

# 1 + 2^-52, 1 + 2^-51: their midpoint rounds up onto the upper value
ODD = np.nextafter(1.0, 2.0)
EVEN = np.nextafter(ODD, 2.0)
ATOMS = [-1.0, 0.0, 0.5, 1.0, ODD, EVEN, np.nextafter(EVEN, 2.0), 2.0]


@st.composite
def cart_cases(draw):
    n = draw(st.integers(2, 24))
    n_features = draw(st.integers(1, 4))
    columns = []
    for _ in range(n_features):
        pool = draw(st.lists(
            st.one_of(st.sampled_from(ATOMS), st.floats(-1e3, 1e3, allow_nan=False)),
            min_size=1, max_size=6,
        ))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    n_classes = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    return np.array(columns, dtype=np.float64).T, [f"c{v}" for v in labels]


def splits_every_node(node, x) -> bool:
    """Each internal node sends rows to both sides."""
    if node.label is not None:
        return True
    mask = x[:, node.feature] <= node.threshold
    return (0 < mask.sum() < len(x)
            and splits_every_node(node.left, x[mask])
            and splits_every_node(node.right, x[~mask]))


@PROPERTY
@given(cart_cases())
def test_cart_matches_per_threshold_reference(case):
    x, y = case
    tree = cart_train(x, y)
    try:
        expected = oracle_cart_train(x, y)
    except RecursionError:
        # the reference chose a split that keeps every row on one side
        assert splits_every_node(tree, x)
        return
    assert tree == expected


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(3, 20))
    phi = draw(st.integers(1, 10))
    distinct = draw(st.integers(1, n))
    # small integers a few ulps apart: near-ties that only an exact
    # summation order keeps or breaks as the reference does
    near_integers = st.builds(lambda v, m: v * (1.0 + m * 2.0**-52),
                              st.integers(-3, 3), st.integers(0, 3))
    grid = st.one_of(near_integers, st.floats(-10, 10, allow_nan=False))
    rows = [draw(st.lists(grid, min_size=phi, max_size=phi)) for _ in range(distinct)]
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    x = np.array([rows[p] for p in picks], dtype=np.float64)
    y01 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    k = draw(st.integers(1, 5))  # above n - 1 on the smallest n: the clamp
    block_cells = draw(st.sampled_from([1, n * n, 8 * n * n, 1 << 16]))
    return x, y01, k, block_cells


# feature 0's term plus the sum of the others' differs here from the sum in
# ascending order; a block of 2n^2 cells puts feature 0 alone in the prefix
ORDER_SENSITIVE = (
    np.array([[1, -2, 0], [1, -3, -1], [-3, 1, 1], [1, 0, 0]])
    * (1.0 + np.array([[2, 1, 3], [1, 0, 0], [0, 0, 2], [2, 0, 0]]) * 2.0**-52),
    np.array([0, 1, 0, 1]), 1, 2 * 4 * 4,
)


# K 2, blocks of 4 subsets, rows in equal pairs. On feature 0 (or 2) rows 2-5
# tie four ways at the nearest radius, so it is also their K-th radius, while
# rows 0 and 1 see one neighbour there and vote within a wider one; on
# feature 1 every lane does. A K-th radius written to the wrong [s, i], or a
# vote at the nearest radius, scores otherwise.
WIDER_RADII = (
    np.array([[2, 3, -3], [2, 3, -3], [-2, 2, 3], [-2, 2, 3], [-2, -1, 3], [-2, -1, 3]],
             dtype=np.float64),
    np.array([0, 0, 1, 1, 1, 1]), 2, 4 * 6 * 6,
)

# one class: no class-1 rows, so each lane's class-1 nearest distance is the
# minimum over none, +inf
ONE_CLASS = (
    np.array([[0, 1], [2, -1], [3, 0.5], [2.5, 0]]), np.zeros(4, dtype=np.int64), 1, 1 << 16,
)

# K 1: row 0's nearest distance, 1, is one class-0 and two class-1 neighbours,
# an exact tie across the classes that only a count of both decides
CROSS_CLASS_TIE = (np.array([[0.0], [1.0], [-1.0], [1.0]]), np.array([1, 0, 1, 1]), 1, 1 << 16)

# K 5 on 4 rows: K is clamped to the 3 neighbours each fold has
K_OVER_N = (
    np.array([[0, 1], [2, -1], [3, 0.5], [2.5, 0]]), np.array([0, 1, 1, 0]), 5, 1 << 16,
)


@PROPERTY
@given(sweep_cases())
@example(ORDER_SENSITIVE)
@example(WIDER_RADII)
@example(ONE_CLASS)
@example(CROSS_CLASS_TIE)
@example(K_OVER_N)
def test_sweep_matches_per_subset_reference(case):
    x, y01, k, block_cells = case
    got = _knn_subset_accuracies(x, y01, k, block_cells)
    assert np.array_equal(got, oracle_knn_subset_accuracies(x, y01, k))


@settings(max_examples=15, deadline=None)
@given(sweep_cases())
def test_relevance_ledger_ranks_reference_accuracies(case):
    x, y01, k, _ = case
    n, phi = x.shape
    fm = FeatureMatrix([f"d{i}" for i in range(n)], ["ab"[v] for v in y01],
                       [f"f{f}" for f in range(phi)], x)
    report = relevance_index(fm, ClassifierSpec("knn", knn_k=k))
    present = sorted(set(fm.labels))  # a lone class is index 0 in the sweep
    y_index = np.array([present.index(lab) for lab in fm.labels])
    expected = oracle_knn_subset_accuracies(x, y_index, k)
    order = sorted(range(1, 2**phi), key=lambda m: (-expected[m - 1], bin(m).count("1"), m))
    assert report.ledger.tolist() == [(m, float(expected[m - 1])) for m in order]
    running = np.zeros(phi, dtype=np.int64)
    for rank, (m, _) in enumerate(report.ledger[: 2 ** (phi - 1)]):
        running += [m >> f & 1 for f in range(phi)]
        assert np.array_equal(report.omega[:, rank], running)


# n 4, phi 9, K 1: summed pairwise (numpy's order for a row of 8 or more
# terms) these distances vote for 0.75 accuracy, in ascending order for 0.5
PAIRWISE_SENSITIVE = (
    np.array([[-1, 2, 3, 2, -2, 2, 3, -1, 3], [2, 2, -3, 2, 3, -1, 0, -1, -1],
              [2, -3, -2, -2, -3, -3, 2, 0, -2], [-3, 2, 3, 0, 0, 3, 2, -1, 2]])
    * (1.0 + np.array([[3, 1, 0, 2, 3, 2, 3, 3, 0], [3, 2, 2, 1, 2, 0, 0, 2, 1],
                       [3, 3, 1, 3, 2, 3, 1, 3, 2], [2, 3, 3, 1, 3, 0, 0, 0, 2]]) * 2.0**-52),
    np.array([1, 0, 0, 1]), 1, 1 << 16,
)


@settings(max_examples=30, deadline=None)
@given(sweep_cases())
@example(PAIRWISE_SENSITIVE)
def test_loo_knn_scores_the_ledgers_full_subset_accuracy(case):
    x, y01, k, _ = case
    n, phi = x.shape
    fm = FeatureMatrix([f"d{i}" for i in range(n)], ["ab"[v] for v in y01],
                       [f"f{f}" for f in range(phi)], x)
    spec = ClassifierSpec("knn", knn_k=k)
    ledger = dict(relevance_index(fm, spec).ledger.tolist())
    assert loo_evaluate(fm, spec).accuracy == ledger[2**phi - 1]


@PROPERTY
@given(st.integers(1, 2000), st.floats(0.0, 1.0))
@example(1074, 1.0)  # 2^-1074, the smallest subnormal
@example(1075, 1.0)  # 2^-1075 rounds to 0 at the half-way tie
@example(1100, 0.5)
def test_significance_matches_the_rounded_fraction(n, accuracy):
    assert significance(accuracy, n).hex() == fraction_significance(accuracy, n).hex()


WORDS = ["the", "of", "a", "cat", "sea", "ran", "blue"]
STOPS = {"the", "of", "a"}


class Captured(Exception):
    """Carries the feature table a baseline hands to ``select_top_k``."""


def baseline_table(baseline, *args) -> FeatureMatrix:
    """The relative-frequency table ``baseline`` builds, before selection."""
    def capture(fm, k):
        raise Captured(fm)

    with mock.patch("prosenet.learn.select_top_k", capture), pytest.raises(Captured) as info:
        baseline(*args)
    return info.value.args[0]


@PROPERTY
@given(st.lists(st.lists(st.sampled_from(WORDS), max_size=40), min_size=1, max_size=6),
       st.lists(st.sampled_from(WORDS + ["absent"]), unique=True))
@example([[], ["the", "cat", "the"]], ["cat", "the", "absent"])
def test_frequency_features_match_the_per_token_reference(token_lists, vocabulary):
    docs = [make_doc(tokens, doc_id=f"d{i}") for i, tokens in enumerate(token_lists)]
    got = _frequency_features([Counter(tokens) for tokens in token_lists], vocabulary,
                              [len(tokens) for tokens in token_lists])
    assert np.array_equal(got, relative_frequency_matrix(docs, vocabulary))

    present = sorted({tok for tokens in token_lists for tok in tokens} & STOPS)
    if present:  # the baseline refuses a corpus without stopwords
        table = baseline_table(baseline_stopword_frequency, docs, STOPS)
        assert table.feature_names == present
        assert np.array_equal(table.values, relative_frequency_matrix(docs, present))


@PROPERTY
@given(st.lists(st.text(alphabet="abcAB .'", max_size=40), min_size=1, max_size=6))
@example(["", "a b", "abAB bab."])  # ab is 3 of 5 bigrams: 3/5 is not 3 * (1/5)
def test_bigram_table_matches_the_per_bigram_reference(texts):
    table = baseline_table(baseline_char_bigrams, [(f"d{i}", "x", t) for i, t in enumerate(texts)])
    # the reference counts every bigram of the texts into the table's columns
    assert table.feature_names == sorted(table.feature_names)
    assert np.array_equal(table.values, bigram_frequency_matrix(texts, table.feature_names))
    assert (table.values.sum(axis=0) > 0).all()  # no column for an absent bigram
