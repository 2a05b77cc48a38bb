from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_doc
from oracles import (
    information_gain,
    mutual_information_bits,
    oracle_decorrelation_filter,
    oracle_local_features,
    oracle_mutual_information,
    oracle_rank_features,
    pearson,
)
from prosenet.features import (
    DocumentMeasures,
    FeatureMatrix,
    frequency_decorrelation_filter,
    global_features,
    local_features,
    rank_features,
    select_top_k,
    select_word_list,
)
from prosenet.corpus import word_frequencies
from prosenet.metrics import NodeMeasures


def doc_measures(doc_id, label, words, values_by_measure, q=0.0, freqs=None):
    measures = {}
    for name, vals in values_by_measure.items():
        vals = np.asarray(vals, dtype=np.float64)
        measures[name] = NodeMeasures(vals, np.zeros(len(vals), dtype=bool))
    return DocumentMeasures(doc_id, label, list(words), measures, q, freqs or {})


class TestGlobalFeatures:
    def test_statistics_of_three_values(self):
        dm = doc_measures("d1", "informative", ["a", "b", "c"], {"k": [1, 2, 3]}, q=0.5)
        fm = global_features([dm])
        row = dict(zip(fm.feature_names, fm.values[0]))
        assert row["mean(k)"] == 2.0
        assert row["std(k)"] == pytest.approx(0.8165, abs=1e-4)  # population
        assert row["median(k)"] == 2.0
        assert row["max(k)"] == 3.0
        assert row["min(k)"] == 1.0
        assert row["V"] == 3.0 and row["Q"] == 0.5

    def test_single_node_degenerate(self):
        dm = doc_measures("d1", "informative", ["a"], {"k": [7.0]})
        row = dict(zip(*(lambda f: (f.feature_names, f.values[0]))(global_features([dm]))))
        assert row["mean(k)"] == row["median(k)"] == row["max(k)"] == row["min(k)"] == 7.0
        assert row["std(k)"] == 0.0

    def test_contains_the_named_global_columns(self):
        measures = {m: [1.0, 2.0] for m in
                    ["k", "cc", "B", "C", "E", "Ec", "Pr", "Ag", "N2", "N3",
                     "A2", "A3", "Sb2", "Sb3", "Sb4", "Sm2", "Sm3", "Sm4"]}
        fm = global_features([doc_measures("d", "informative", ["a", "b"], measures)])
        names = set(fm.feature_names)
        required = {
            "V", "mean(k)", "median(Pr)", "mean(Pr)", "std(Pr)", "max(Pr)",
            "std(cc)", "mean(cc)", "min(C)", "std(C)", "mean(C)", "median(C)",
            "mean(Ag)", "mean(B)", "median(B)",
        }
        assert required <= names

    def test_missing_nodes_excluded_from_stats(self):
        nm = NodeMeasures(np.array([1.0, 0.0]), np.array([False, True]))
        dm = DocumentMeasures("d", "informative", ["a", "b"], {"B": nm}, 0.0, {})
        fm = global_features([dm])
        row = dict(zip(fm.feature_names, fm.values[0]))
        assert row["mean(B)"] == 1.0 and row["min(B)"] == 1.0


class TestWordList:
    def test_frequency_and_coverage(self):
        docs = [
            make_doc(["the", "cat", "sat"], "d1"),
            make_doc(["the", "dog", "sat"], "d2"),
            make_doc(["the", "cat", "ran"], "d3"),
        ]
        counts = [word_frequencies(d) for d in docs]
        # 'the' covers 3/3 docs; 'sat' and 'cat' only 2/3, below the 0.9 bar
        assert select_word_list(counts, size=5, min_doc_fraction=0.9) == ["the"]
        # at 2/3 coverage the frequency order kicks in, names break the tie
        assert select_word_list(counts, size=3, min_doc_fraction=0.6) == ["the", "cat", "sat"]

    def test_tie_break_alphabetical(self):
        docs = [make_doc(["b", "a"], "d1"), make_doc(["a", "b"], "d2")]
        assert select_word_list([word_frequencies(d) for d in docs], 2, 1.0) == ["a", "b"]


class TestLocalFeatures:
    def two_docs(self):
        d1 = doc_measures("d1", "informative", ["the", "cat"], {"k": [3.0, 1.0]})
        d2 = doc_measures("d2", "imaginative", ["the"], {"k": [5.0]})
        return [d1, d2]

    def test_dense_column(self):
        fm = local_features(self.two_docs(), ["the"])
        assert fm.feature_names == ["k@the"]
        assert fm.values[:, 0].tolist() == [3.0, 5.0]

    def test_absent_word_imputed_with_column_mean(self):
        fm = local_features(self.two_docs(), ["the", "cat"])
        col = fm.feature_names.index("k@cat")
        assert fm.values[1, col] == 1.0  # column mean over present rows

    def test_empty_word_list_rejected(self):
        with pytest.raises(ValueError):
            local_features(self.two_docs(), [])

    def test_column_naming_matches_selected_feature_style(self):
        d = doc_measures(
            "d1", "informative", ["the", "by"],
            {"Sm2": [0.5, 0.25], "Ag": [2.0, 3.0]},
        )
        fm = local_features([d], ["the", "by"])
        assert "Sm2@the" in fm.feature_names
        assert "Ag@by" in fm.feature_names


@st.composite
def local_cases(draw):
    """Documents over a shared vocabulary, each holding a subset of it in its
    own node order, with measures of every node beside walk measures missing
    at some nodes, and a word list that names words absent from some or all
    documents."""
    vocabulary = [f"w{i}" for i in range(draw(st.integers(1, 12)))]
    measure_names = draw(st.lists(st.sampled_from(["k", "B", "A2", "Sm3", "Ag"]),
                                  min_size=1, unique=True))
    docs = []
    for i in range(draw(st.integers(1, 8))):
        labels = draw(st.permutations(vocabulary))[:draw(st.integers(1, len(vocabulary)))]
        measures = {}
        for name in measure_names:
            values = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(labels),
                                   max_size=len(labels)))
            gaps = draw(st.lists(st.booleans(), min_size=len(labels), max_size=len(labels)))
            missing = np.array(gaps) if name in ("A2", "Sm3", "Ag") else np.zeros(len(labels), bool)
            measures[name] = NodeMeasures(np.where(missing, 0.0, values), missing)
        docs.append(DocumentMeasures(f"d{i}", "informative", list(labels), measures, 0.0))
    words = draw(st.lists(st.sampled_from(vocabulary + ["absent"]), min_size=1, unique=True))
    return docs, words


@settings(max_examples=150, deadline=None)
@given(local_cases())
def test_local_features_match_the_per_cell_reference(case):
    docs, words = case
    got, want = local_features(docs, words), oracle_local_features(docs, words)
    assert got.feature_names == want.feature_names
    assert got.doc_ids == want.doc_ids and got.labels == want.labels
    assert got.values.tobytes() == want.values.tobytes()


class TestDecorrelationFilter:
    def build(self, col, freqs):
        fm = FeatureMatrix(
            ["d1", "d2", "d3", "d4"],
            ["informative", "informative", "imaginative", "imaginative"],
            ["k@w"],
            np.array(col, dtype=np.float64).reshape(-1, 1),
        )
        freq_map = {f"d{i + 1}": {"w": f} for i, f in enumerate(freqs)}
        return fm, freq_map

    def test_column_equal_to_frequency_dropped(self):
        fm, freqs = self.build([1, 2, 3, 4], [1, 2, 3, 4])
        assert frequency_decorrelation_filter(fm, freqs, 0.5).feature_names == []

    def test_constant_column_kept(self):
        fm, freqs = self.build([2, 2, 2, 2], [1, 2, 3, 4])
        assert frequency_decorrelation_filter(fm, freqs, 0.5).feature_names == ["k@w"]

    def test_planted_correlation_dropped_at_threshold(self):
        rng = np.random.default_rng(80)
        n = 60
        freq = rng.integers(1, 30, size=n).astype(float)
        noise = rng.normal(scale=freq.std() * 0.45, size=n)
        col = freq + noise
        r = np.corrcoef(col, freq)[0, 1]
        assert r > 0.85  # planted strong correlation
        fm = FeatureMatrix(
            [f"d{i}" for i in range(n)],
            ["informative"] * (n // 2) + ["imaginative"] * (n - n // 2),
            ["A2@w"],
            col.reshape(-1, 1),
        )
        freq_map = {f"d{i}": {"w": int(freq[i])} for i in range(n)}
        assert frequency_decorrelation_filter(fm, freq_map, 0.5).feature_names == []

    def test_global_columns_pass_through(self):
        fm = FeatureMatrix(["d1", "d2"], ["informative", "imaginative"], ["V"],
                           np.array([[1.0], [2.0]]))
        assert frequency_decorrelation_filter(fm, {}, 0.5).feature_names == ["V"]


def balanced_fm(values, labels=None, name="f"):
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    n = len(values)
    labels = labels or ["imaginative"] * (n // 2) + ["informative"] * (n - n // 2)
    return FeatureMatrix([f"d{i}" for i in range(n)], labels, [name], values)


class TestInformationGain:
    def test_feature_identical_to_label_is_one_bit(self):
        fm = balanced_fm([0.0] * 30 + [1.0] * 30)
        assert information_gain(fm, "f") == pytest.approx(1.0)

    def test_independent_feature_near_zero(self):
        rng = np.random.default_rng(81)
        fm = balanced_fm(rng.normal(size=252))
        assert information_gain(fm, "f") < 0.05

    def test_two_gaussians_match_contingency_oracle(self):
        rng = np.random.default_rng(82)
        x = np.concatenate([rng.normal(0, 1, 126), rng.normal(6, 1, 126)])
        fm = balanced_fm(x)
        from prosenet.features import _equal_frequency_bins

        bins = _equal_frequency_bins(x)
        y = np.array([0] * 126 + [1] * 126)
        assert information_gain(fm, "f") == pytest.approx(
            oracle_mutual_information(bins, y), abs=1e-12
        )
        assert information_gain(fm, "f") > 0.9

    def test_symmetry_of_mutual_information(self):
        rng = np.random.default_rng(83)
        x = rng.integers(0, 10, 100)
        y = (x + rng.integers(0, 3, 100)) % 2
        assert mutual_information_bits(x, y) == pytest.approx(
            mutual_information_bits(y, x), abs=1e-14
        )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(84)
        x = rng.normal(size=100)
        labels = ["imaginative"] * 50 + ["informative"] * 50
        g1 = information_gain(balanced_fm(x, labels), "f")
        g2 = information_gain(balanced_fm(np.exp(3 * x), labels), "f")
        assert g1 == pytest.approx(g2, abs=1e-14)

    def test_ties_share_bins(self):
        fm = balanced_fm([1.0] * 40)  # constant column
        assert information_gain(fm, "f") == 0.0


class TestSelection:
    def make(self):
        rng = np.random.default_rng(85)
        n = 60
        labels = ["imaginative"] * 30 + ["informative"] * 30
        sig = np.array([0.0] * 30 + [1.0] * 30)
        noise = rng.normal(size=n)
        values = np.column_stack([noise, sig])
        return FeatureMatrix([f"d{i}" for i in range(n)], labels, ["zz", "aa"], values)

    def test_k_equal_all_is_reordering_identity(self):
        fm = self.make()
        out = select_top_k(fm, 2)
        assert set(out.feature_names) == {"aa", "zz"}

    def test_k_one_picks_label_feature(self):
        assert select_top_k(self.make(), 1).feature_names == ["aa"]

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            select_top_k(self.make(), 3)

    def test_ranking_tie_break_by_name(self):
        values = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        fm = FeatureMatrix(
            ["d1", "d2", "d3", "d4"],
            ["imaginative", "informative", "imaginative", "informative"],
            ["bb", "aa"],
            values,
        )
        assert [name for name, _ in rank_features(fm)] == ["aa", "bb"]


class TestCsv:
    def test_deterministic_output(self):
        fm = balanced_fm([0.25, 0.5, 0.75, 1.0])
        assert fm.to_csv() == fm.to_csv()
        assert fm.to_csv().startswith("doc_id,label,f\nd0,imaginative,0.25\n")


@st.composite
def ranking_cases(draw):
    """Columns drawn from small pools (ties; a pool of one is a constant
    column; NaN), rows repeated (duplicate rows), up to 3 labels, often fewer
    rows than bins."""
    n_base = draw(st.integers(1, 12))
    n_features = draw(st.integers(1, 6))
    columns = []
    for _ in range(n_features):
        pool = draw(st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(np.nan)),
                             min_size=1, max_size=5))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n_base, max_size=n_base)))
    base = np.array(columns, dtype=np.float64).T
    rows = draw(st.lists(st.integers(0, n_base - 1), min_size=1, max_size=30))
    labels = draw(st.lists(st.sampled_from(["imaginative", "informative", "other"]),
                           min_size=len(rows), max_size=len(rows)))
    names = draw(st.permutations([f"f{j}" for j in range(n_features)]))
    bins = draw(st.sampled_from([2, 3, 10]))
    fm = FeatureMatrix([f"d{i}" for i in range(len(rows))], labels, names, base[rows])
    return fm, bins


@settings(max_examples=150, deadline=None)
@given(ranking_cases())
@example((FeatureMatrix(
    ["d0", "d1", "d2", "d3"], ["other", "informative", "imaginative", "informative"],
    ["b", "a", "c"], np.array([[1.0, 0.5, 2.0], [1.0, 0.5, 2.0], [1.0, 0.25, 3.0], [1.0, 0.0, 3.0]]),
), 10))
# the (bin 0, informative) cell's ratio (2/10) / (3/10 * 7/10): np.log2 and
# math.log2 differ on it by one ulp, and so does the gain
@example((FeatureMatrix(
    [f"d{i}" for i in range(10)],
    ["informative"] * 2 + ["imaginative"] + ["informative"] * 5 + ["imaginative"] * 2,
    ["f"], np.array([[0.0]] * 3 + [[1.0]] * 7),
), 2))
def test_ranking_matches_per_column_reference(case):
    fm, bins = case
    with mock.patch("prosenet.features.IG_BINS", bins):
        ranked = rank_features(fm)
    expected = oracle_rank_features(fm, bins)
    assert [name for name, _ in ranked] == [name for name, _ in expected]
    assert [repr(float(g)) for _, g in ranked] == [repr(float(g)) for _, g in expected]


@st.composite
def decorrelation_cases(draw):
    """Local columns (several measures per word, words absent from some
    documents) beside global ones, with repeated and constant values, and a
    threshold that may sit exactly at one column's reference |r|."""
    n_docs = draw(st.integers(2, 200))
    words = [f"w{i}" for i in range(draw(st.integers(1, 4)))]
    names = draw(st.lists(st.sampled_from([f"{m}@{w}" for m in ("A2", "k", "Sb3") for w in words]
                                          + ["V", "mean(k)"]), min_size=1, unique=True))
    columns = []
    for _ in names:
        pool = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n_docs, max_size=n_docs)))
    doc_ids = [f"d{i}" for i in range(n_docs)]
    frequencies = {
        d: {w: draw(st.integers(0, 30)) for w in words if draw(st.booleans())}
        for d in doc_ids if draw(st.integers(0, 9))
    }
    fm = FeatureMatrix(doc_ids, ["informative"] * n_docs, names, np.array(columns).T)
    local = [j for j, name in enumerate(names) if "@" in name]
    if local and draw(st.booleans()):
        j = draw(st.sampled_from(local))
        word = names[j].split("@", 1)[1]
        freq = np.array([frequencies.get(d, {}).get(word, 0) for d in doc_ids], dtype=np.float64)
        rho_max = abs(pearson(fm.values[:, j], freq))
        if draw(st.booleans()):
            rho_max = float(np.nextafter(rho_max, -np.inf))
    else:
        rho_max = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return fm, frequencies, rho_max


@settings(max_examples=150, deadline=None)
@given(decorrelation_cases())
def test_decorrelation_filter_matches_per_column_reference(case):
    fm, frequencies, rho_max = case
    got = frequency_decorrelation_filter(fm, frequencies, rho_max)
    want = oracle_decorrelation_filter(fm, frequencies, rho_max)
    assert got.feature_names == want.feature_names
    assert np.array_equal(got.values, want.values)
