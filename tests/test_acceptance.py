"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 7 exercises the full balanced-corpus reproduction and needs the
real corpus on disk; point PROSENET_BROWN_MANIFEST at a prepared manifest
(see README) to enable it. Everything else runs self-contained.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import geodesic, write_toy_corpus
from oracles import (
    accessibility,
    adjacency,
    backbone_transform,
    merged_transform,
    modularity,
    net_from_edges,
    oracle_betweenness,
    oracle_clustering,
    oracle_distances,
    oracle_modularity,
    oracle_rings,
    oracle_saw,
    oracle_taylor_expm,
    random_connected_graph,
    saw_distribution,
    symmetry,
    transition_probabilities,
)
from prosenet.features import FeatureMatrix
from prosenet.graph import build_network
from prosenet.learn import (
    ClassifierSpec,
    loo_evaluate,
    nb_classify,
    nb_train,
    relevance_index,
    significance,
)
from prosenet.metrics import clustering, detect_communities
from prosenet.pipeline import RunConfig, cmd_baselines, cmd_classify
from prosenet.walks import expm


def star(leaves):
    return net_from_edges(leaves + 1, {(0, i) for i in range(1, leaves + 1)})


def cycle(n):
    return net_from_edges(n, {(i, (i + 1) % n) for i in range(n)})


def test_criterion_1_oracle_equivalence_on_200_graphs():
    """Exact agreement with brute-force oracles on 200 random graphs."""
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    for _ in range(200):
        n, edges = random_connected_graph(rng, 4, 12)
        net = net_from_edges(n, edges)
        adj = adjacency(n, edges)

        dist = oracle_distances(adj, n)
        measures = geodesic(net, h_access=(1, 2, 3))
        assert np.abs(measures["B"].values - oracle_betweenness(adj, n)).max() <= 1e-10
        assert np.array_equal(measures["C"].values, dist.mean(axis=1))
        assert np.array_equal(measures["E"].values, dist.max(axis=1))
        assert np.array_equal(clustering(net).values, oracle_clustering(adj, n))
        for h in (1, 2, 3):
            rings = [oracle_rings(adj, n, i).get(h, set()) for i in range(n)]
            assert np.array_equal(
                measures[f"N{h}"].values,
                np.array([len(r) for r in rings], dtype=float),
            )
        src = int(rng.integers(0, n))
        for h in (1, 2, 3):
            got = saw_distribution(net, src, h)
            probs, dead = oracle_saw(adj, src, h)
            assert set(got.probs) == set(probs)
            for node, p in probs.items():
                assert got.probs[node] == pytest.approx(float(p), abs=1e-12)
            assert got.dead_end_mass == pytest.approx(float(dead), abs=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS: 200-graph oracle equivalence in {elapsed:.1f}s")


def test_criterion_2_walk_measure_closed_forms():
    """Closed-form walk values and tree-identity transforms, exact."""
    for n in (3, 5, 9):
        assert accessibility(star(n), 0, 1) == pytest.approx(n, abs=1e-12)
        assert accessibility(star(n), 1, 2) == pytest.approx(n - 1, abs=1e-12)
    assert symmetry(cycle(6), 0, 2, "backbone") == pytest.approx(1.0, abs=1e-15)
    assert symmetry(cycle(6), 0, 2, "merged") == pytest.approx(1.0, abs=1e-15)

    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        net = net_from_edges(n, edges)
        for fn in (backbone_transform, merged_transform):
            pat = fn(net, 0, 4)
            assert all(len(m) == 1 for m in pat.members)
            pat_edges = {
                (min(int(pat.members[u][0]), int(pat.members[int(v)][0])),
                 max(int(pat.members[u][0]), int(pat.members[int(v)][0])))
                for u in range(pat.node_count) for v in pat.neighbors(u)
            }
            reachable = {int(m[0]) for m in pat.members}
            assert pat_edges == {e for e in edges if set(e) <= reachable}
    print("\n[criterion 2] PASS: closed-form walk values and tree identities")


def test_criterion_3_matrix_exponential():
    """exp(P) vs 60-term Taylor to 1e-10; row sums equal e to 1e-10."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        n, edges = random_connected_graph(rng, 3, 12)
        net = net_from_edges(n, edges)
        rows = expm(net, np.arange(n))
        taylor = oracle_taylor_expm(transition_probabilities(net), terms=60)
        assert np.abs(rows - taylor).max() < 1e-10
        assert np.abs((taylor).sum(axis=1) - math.e).max() < 1e-10
        assert np.abs(rows.sum(axis=1) - math.e).max() < 1e-10
    print("\n[criterion 3] PASS: matrix exponential matches the Taylor oracle")


def test_criterion_4_modularity_and_communities():
    """Q conventions and greedy detection on the bridged triangles."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        n, edges = random_connected_graph(rng)
        net = net_from_edges(n, edges)
        assert modularity(net, np.zeros(n)) == 0.0

    two_k3 = net_from_edges(6, {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)})
    result = detect_communities(two_k3)
    groups = {tuple(sorted(np.flatnonzero(result.labels == c))) for c in set(result.labels)}
    assert groups == {(0, 1, 2), (3, 4, 5)}

    for _ in range(30):
        n, edges = random_connected_graph(rng)
        net = net_from_edges(n, edges)
        detected = detect_communities(net)
        recomputed = oracle_modularity(n, edges, detected.labels)
        assert abs(detected.q - recomputed) < 1e-12
        assert abs(detected.q - modularity(net, detected.labels)) < 1e-12
    print("\n[criterion 4] PASS: modularity identities and two-clique recovery")


def test_criterion_5_learning_correctness():
    """LOO 1NN, Naive Bayes argmax, and the exact binomial significance."""
    rng = np.random.default_rng(51)
    n = 40
    labels = ["imaginative"] * 20 + ["informative"] * 20
    planted = np.concatenate([rng.normal(-4, 0.5, 20), rng.normal(4, 0.5, 20)])
    noise = rng.normal(size=(n, 3))
    fm = FeatureMatrix(
        [f"d{i}" for i in range(n)], labels, ["sig", "n1", "n2", "n3"],
        np.column_stack([planted, noise]),
    )
    assert loo_evaluate(fm, ClassifierSpec("knn", knn_k=1)).accuracy == 1.0

    x = np.vstack([rng.normal(0, 1, (40, 4)), rng.normal(1.5, 2.0, (40, 4))])
    y = ["a"] * 40 + ["b"] * 40
    model = nb_train(x, y)
    for _ in range(1000):
        row = rng.normal(0.7, 1.8, 4)
        direct = {}
        for ci, lab in enumerate(model.labels):
            log_p = math.log(model.priors[ci])
            for j in range(4):
                var = model.variances[ci, j]
                log_p += -0.5 * math.log(2 * math.pi * var)
                log_p += -((row[j] - model.means[ci, j]) ** 2) / (2 * var)
            direct[lab] = log_p
        expected = min(sorted(direct), key=lambda lab: (-direct[lab], lab))
        assert nb_classify(model, row) == expected

    assert significance(0.78, 252) < 1e-10
    print("\n[criterion 5] PASS: 1NN separability, NB argmax oracle, significance tail")


def test_criterion_6_relevance_index_and_budget():
    """Hand-computed relevance case, planted winner, and the phi=12 budget."""
    rng = np.random.default_rng(61)
    n = 40
    labels = ["a"] * 20 + ["b"] * 20
    f1 = np.array([0.0] * 20 + [1.0] * 20) + rng.normal(0, 0.01, n)
    f2 = rng.normal(size=n)
    fm = FeatureMatrix([f"d{i}" for i in range(n)], labels, ["f1", "f2"],
                       np.column_stack([f1, f2]))
    report = relevance_index(fm, ClassifierSpec("knn"))
    assert [m for m, _ in report.ledger] == [0b01, 0b11, 0b10]
    assert report.r_index == {"f1": 3, "f2": 1}

    planted = np.array([0.0] * 20 + [1.0] * 20)
    cols = [planted] + [rng.normal(size=n) for _ in range(4)]
    fm2 = FeatureMatrix([f"d{i}" for i in range(n)], labels,
                        ["det", "r1", "r2", "r3", "r4"], np.column_stack(cols))
    rep2 = relevance_index(fm2)
    assert max(rep2.r_index, key=rep2.r_index.get) == "det"

    n = 252
    labels = ["imaginative"] * 126 + ["informative"] * 126
    values = rng.normal(size=(n, 12))
    values[:, 0] += np.array([0.0] * 126 + [2.5] * 126)
    fm3 = FeatureMatrix([f"d{i}" for i in range(n)], labels,
                        [f"f{i}" for i in range(12)], values)
    started = time.monotonic()
    rep3 = relevance_index(fm3, ClassifierSpec("knn", knn_k=1))
    elapsed = time.monotonic() - started
    assert len(rep3.ledger) == 2**12 - 1
    assert elapsed < 600.0, f"phi=12 sweep took {elapsed:.0f}s"
    print(f"\n[criterion 6] PASS: relevance hand case exact; phi=12 sweep in {elapsed:.1f}s")


@pytest.mark.skipif(
    "PROSENET_BROWN_MANIFEST" not in os.environ,
    reason="set PROSENET_BROWN_MANIFEST to a prepared balanced manifest to run "
    "the corpus reproduction (see README: Reproducing the corpus experiment)",
)
def test_criterion_7_corpus_reproduction(tmp_path):
    """Soft accuracy targets on the real 252-document corpus."""
    manifest = os.environ["PROSENET_BROWN_MANIFEST"]
    out = Path(os.environ.get("PROSENET_BROWN_OUT", tmp_path / "brown_out"))
    started = time.monotonic()
    jobs = int(os.environ.get("PROSENET_JOBS", "2"))

    accuracies = {}
    for strategy in ("GS", "LS", "LSS"):
        cfg = RunConfig(manifest=manifest, strategy=strategy, out=str(out), jobs=jobs)
        reports = cmd_classify(cfg)
        accuracies[strategy] = {name: r.accuracy for name, r in reports.items()}

    cfg = RunConfig(manifest=manifest, out=str(out), jobs=jobs)
    baselines = cmd_baselines(cfg)
    elapsed = time.monotonic() - started

    best_lss = max(accuracies["LSS"].values())
    best_ls = max(accuracies["LS"].values())
    gs_values = accuracies["GS"].values()
    assert best_lss >= 0.88, accuracies
    assert best_ls >= 0.85, accuracies
    assert all(0.65 <= a <= 0.85 for a in gs_values), accuracies
    for clf in ("knn", "cart", "nb"):
        assert accuracies["GS"][clf] < accuracies["LS"][clf] <= accuracies["LSS"][clf], accuracies
    assert baselines["stopwords"].accuracy >= 0.92
    assert baselines["bigrams"].accuracy >= 0.93
    assert elapsed < 1800.0, f"full pipeline took {elapsed:.0f}s"
    print(f"\n[criterion 7] PASS: corpus reproduction in {elapsed:.0f}s: {accuracies}")


def test_criterion_8_determinism_under_parallelism(tmp_path):
    """Byte-identical outputs across repeated maximally parallel runs."""
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=3, tokens=200)

    def run(out):
        cfg = RunConfig(manifest=str(manifest), strategy="LSS", out=str(out),
                        word_list_size=10, jobs=2)
        cmd_classify(cfg)
        payload = {}
        for p in sorted(out.glob("*")):
            if p.is_file() and p.suffix in (".csv", ".json"):
                text = p.read_text()
                if p.name.startswith("report_"):
                    data = json.loads(text)
                    data["config"].pop("out")
                    text = json.dumps(data, sort_keys=True)
                payload[p.name] = text
        return payload

    runs = [run(tmp_path / f"run{i}") for i in range(2)]
    assert runs[0] == runs[1]
    print("\n[criterion 8] PASS: byte-identical parallel reruns")
