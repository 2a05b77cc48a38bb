import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import make_doc, write_toy_corpus
from prosenet import CostGuardError, ProsenetError
from prosenet.cli import main
from prosenet.corpus import load_lemma_dictionary, load_manifest
from prosenet.pipeline import (
    RunConfig,
    cmd_baselines,
    cmd_classify,
    cmd_measure,
    cmd_relevance,
    config_from_sources,
    measure_document,
    parse_config_file,
    prepare_manifest,
)


class TestConfig:
    def test_file_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# toy run\nstrategy = LS\nalpha = 0.7\nh-access = 2,3,4\n", encoding="utf-8"
        )
        values = parse_config_file(cfg_file)
        cfg = config_from_sources(values, {"alpha": 0.9, "manifest": "m.tsv"})
        assert cfg.strategy == "LS"
        assert cfg.alpha == 0.9  # override wins
        assert cfg.h_access == (2, 3, 4)

    def test_unknown_key_rejected(self):
        with pytest.raises(ProsenetError):
            config_from_sources({"no_such_knob": "1"}, {})

    def test_bad_strategy_rejected(self):
        with pytest.raises(ProsenetError):
            config_from_sources({}, {"strategy": "XX"})


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    base = tmp_path_factory.mktemp("measure_corpus")
    manifest = write_toy_corpus(base, n_per_class=2, tokens=220)
    out = tmp_path_factory.mktemp("measure_out")
    cfg = RunConfig(manifest=str(manifest), strategy="LSS", out=str(out),
                    word_list_size=10)
    written = cmd_measure(cfg)
    return manifest, out, cfg, written


class TestMeasureCommand:

    def test_csvs_share_column_set(self, measured):
        _, out, _, written = measured
        assert len(written) == 4
        headers = {p.read_text().splitlines()[0] for p in written}
        assert headers == {"doc_id,node_label,measure,value"}
        measures = {
            tuple(sorted({line.split(",")[2] for line in p.read_text().splitlines()[1:]}))
            for p in written
        }
        assert len(measures) == 1  # identical measure sets across documents

    def test_rerun_hits_cache_and_is_byte_identical(self, measured):
        manifest, out, cfg, written = measured
        before = {p: p.read_bytes() for p in written}
        cache_files = sorted((out / "cache").glob("*.json"))
        stamps = [p.stat().st_mtime_ns for p in cache_files]
        cmd_measure(cfg)
        assert {p: p.read_bytes() for p in written} == before
        assert [p.stat().st_mtime_ns for p in sorted((out / "cache").glob("*.json"))] == stamps

    def test_corrupted_cache_recomputed_transparently(self, measured):
        manifest, out, cfg, written = measured
        victim = sorted((out / "cache").glob("*.json"))[0]
        entry = json.loads(victim.read_text())
        entry["payload"]["vocabulary_size"] = 99999  # break checksum
        victim.write_text(json.dumps(entry))
        before = {p: p.read_bytes() for p in written}
        cmd_measure(cfg)
        assert {p: p.read_bytes() for p in written} == before
        repaired = json.loads(victim.read_text())
        blob = json.dumps(repaired["payload"], sort_keys=True).encode()
        import hashlib

        assert repaired["checksum"] == hashlib.sha256(blob).hexdigest()


class TestMeasureCacheKey:
    def test_stoplist_change_is_not_served_from_cache(self, measured, tmp_path):
        stoplist = tmp_path / "stop.txt"
        stops = sorted(load_lemma_dictionary().stoplist - {"the", "of", "and"})
        stoplist.write_text("\n".join(stops) + "\n", encoding="utf-8")
        base = {"manifest": str(measured[0]), "strategy": "GS", "gs_walks": False}
        shared = tmp_path / "shared"
        cmd_measure(RunConfig(**base, out=str(shared)))
        reused = cmd_measure(RunConfig(**base, out=str(shared), stoplist=str(stoplist)))
        fresh = cmd_measure(RunConfig(**base, out=str(tmp_path / "fresh"),
                                      stoplist=str(stoplist)))
        assert any(",the,k," in p.read_text() for p in fresh)
        assert [p.read_bytes() for p in reused] == [p.read_bytes() for p in fresh]


class TestMeasureDocument:
    def test_absent_sources_with_many_symmetry_depths(self):
        depths = tuple(range(1, 10))
        dm = measure_document(make_doc(["a", "b", "c", "a"]),
                              RunConfig(h_symmetry=depths), ["zzz"])
        for h in depths:
            assert dm.measures[f"Sb{h}"].missing.all()
            assert dm.measures[f"Sm{h}"].missing.all()


class TestMeasureErrorCollection:
    def test_failures_surface_per_document(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("the quick brown fox jumps over the lazy dog again")
        bad = tmp_path / "bad.txt"
        bad.write_text("12345 !!! 678")  # empty after preprocessing
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(
            f"bad\timaginative\t{bad.name}\ngood\tinformative\t{good.name}\n"
        )
        cfg = RunConfig(manifest=str(manifest), strategy="GS", out=str(tmp_path / "out"))
        with pytest.raises(ProsenetError, match="bad"):
            cmd_measure(cfg)
        # the healthy document was still written before the failure surfaced
        assert (tmp_path / "out" / "measures" / "good.csv").exists()


class TestClassifyCommand:
    def test_toy_separable_reaches_full_accuracy(self, toy_manifest, tmp_path):
        cfg = RunConfig(manifest=str(toy_manifest), strategy="LSS", out=str(tmp_path),
                        word_list_size=20, classifier="knn")
        reports = cmd_classify(cfg)
        assert reports["knn"].accuracy == 1.0
        report_path = tmp_path / "report_LSS_knn.json"
        data = json.loads(report_path.read_text())
        assert data["accuracy"] == 1.0
        assert data["n"] == 16
        assert data["config"]["strategy"] == "LSS"
        assert (tmp_path / "features_LSS.csv").exists()
        # every numeric CSV cell is a plain decimal literal
        for name in ("projection_LSS.csv", "ranking_LSS.csv", "features_LSS.csv"):
            body = (tmp_path / name).read_text()
            assert "np.float" not in body and "(" not in body.split("\n", 1)[1], name
            for line in body.splitlines()[1:3]:
                for cell in line.split(",")[2:]:
                    float(cell)

    def test_strategy_requirements_validated(self, toy_manifest, tmp_path):
        cfg = RunConfig(manifest=str(toy_manifest), strategy="LS", out=str(tmp_path),
                        min_doc_fraction=2.0)  # impossible coverage
        with pytest.raises(ProsenetError):
            cmd_classify(cfg)


class TestRelevanceCommand:
    def test_phi_guard_refuses_16(self, toy_manifest, tmp_path):
        cfg = RunConfig(manifest=str(toy_manifest), strategy="LSS", out=str(tmp_path),
                        phi=16, word_list_size=20)
        with pytest.raises(CostGuardError):
            cmd_relevance(cfg)

    def test_small_sweep_outputs(self, toy_manifest, tmp_path):
        cfg = RunConfig(manifest=str(toy_manifest), strategy="LSS", out=str(tmp_path),
                        phi=3, word_list_size=12)
        report = cmd_relevance(cfg)
        assert report.phi == 3
        assert len(report.ledger) == 7
        ledger = (tmp_path / "relevance_ledger_LSS.csv").read_text().splitlines()
        assert len(ledger) == 8  # header + 7 subsets
        omega = (tmp_path / "relevance_omega_LSS.csv").read_text().splitlines()
        assert len(omega) == 1 + 2 ** (3 - 1)


class TestBaselinesCommand:
    def test_reports_and_projection_written(self, toy_manifest, tmp_path):
        cfg = RunConfig(manifest=str(toy_manifest), out=str(tmp_path), baseline_top_k=5)
        reports = cmd_baselines(cfg)
        assert reports["stopwords"].accuracy >= 0.8  # styles differ in stopword rates
        assert (tmp_path / "lsa_projection.csv").exists()
        lsa = (tmp_path / "lsa_features.csv").read_text().splitlines()
        assert lsa[0].count(",") == 11  # doc_id,label + 10 word columns


class TestCli:
    def test_classify_command(self, toy_manifest, tmp_path, capsys):
        rc = main([
            "classify", "--manifest", str(toy_manifest), "--strategy", "GS",
            "--classifier", "knn", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GS knn: accuracy=" in out

    def test_export_network(self, toy_manifest, tmp_path, capsys):
        rc = main([
            "export-network", "--manifest", str(toy_manifest), "--doc-id", "ima00",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "network_ima00.json").read_text())
        assert payload["nodes"] and payload["edges"]

    def test_error_reported_cleanly(self, tmp_path, capsys):
        rc = main(["classify", "--manifest", str(tmp_path / "missing.tsv"),
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_config_file_flag(self, toy_manifest, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"manifest = {toy_manifest}\nstrategy = GS\nclassifier = knn\n"
            f"out = {tmp_path}\n",
            encoding="utf-8",
        )
        assert main(["classify", "--config", str(cfg_file)]) == 0

    def test_measurement_flags_reach_the_config(self, toy_manifest, tmp_path):
        rc = main([
            "classify", "--manifest", str(toy_manifest), "--strategy", "GS",
            "--classifier", "knn", "--closeness", "reciprocal", "--cumulative",
            "--ag-exclude-self", "--alpha", "0.5", "--h", "2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        data = json.loads((tmp_path / "report_GS_knn.json").read_text())
        cfg = data["config"]
        assert cfg["closeness"] == "reciprocal"
        assert cfg["cumulative"] is True
        assert cfg["ag_exclude_self"] is True
        assert cfg["alpha"] == 0.5
        assert cfg["h_access"] == [2]
        header = (tmp_path / "features_GS.csv").read_text().splitlines()[0]
        assert "N3" not in header  # only h=2 was measured


class TestPrepareManifest:
    def build_source(self, tmp_path, sizes):
        lines = []
        for i, (label, n_tokens) in enumerate(sizes):
            doc_id = f"{label[:3]}{i:02d}"
            path = tmp_path / f"{doc_id}.txt"
            path.write_text(" ".join(f"w{j % 7}ax" for j in range(n_tokens)))
            lines.append(f"{doc_id}\t{label}\t{path.name}")
        src = tmp_path / "source.tsv"
        src.write_text("\n".join(lines) + "\n")
        return src

    def test_keeps_longest_majority_documents(self, tmp_path):
        src = self.build_source(tmp_path, [
            ("informative", 50), ("informative", 200), ("informative", 120),
            ("imaginative", 80), ("imaginative", 90),
        ])
        out = tmp_path / "balanced.tsv"
        count = prepare_manifest(src, out, length_metric="raw")
        assert count == 4
        manifest = load_manifest(out)
        ids = [e.doc_id for e in manifest.entries]
        assert "inf00" not in ids  # the shortest informative text dropped
        assert manifest.class_counts() == {"imaginative": 2, "informative": 2}

    def test_strip_pos_rewrites_files(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("The/at Fulton/np-tl County/nn-tl said/vbd ./.")
        path2 = tmp_path / "b.txt"
        path2.write_text("Plain/jj words/nns here/rb ./.")
        src = tmp_path / "source.tsv"
        src.write_text(f"a\tinformative\t{path.name}\nb\timaginative\t{path2.name}\n")
        out = tmp_path / "balanced.tsv"
        texts = tmp_path / "texts"
        prepare_manifest(src, out, strip_pos=True, texts_dir=texts)
        stripped = (texts / "a.txt").read_text()
        assert "/at" not in stripped and "Fulton" in stripped

    def test_both_length_metrics_run(self, tmp_path):
        src = self.build_source(tmp_path, [
            ("informative", 60), ("informative", 40), ("imaginative", 30),
        ])
        for metric in ("raw", "preprocessed"):
            out = tmp_path / f"balanced_{metric}.tsv"
            assert prepare_manifest(src, out, length_metric=metric) == 2

    def test_length_metrics_can_disagree(self, tmp_path):
        # doc A: longer raw, but mostly stopwords; doc B: shorter raw, all content
        a = tmp_path / "a.txt"
        a.write_text(" ".join(["the"] * 50 + ["castle"] * 5))
        b = tmp_path / "b.txt"
        b.write_text(" ".join(["castle", "tower", "garden"] * 10))
        c = tmp_path / "c.txt"
        c.write_text(" ".join(["story"] * 20))
        src = tmp_path / "source.tsv"
        src.write_text(
            f"a\tinformative\t{a.name}\nb\tinformative\t{b.name}\nc\timaginative\t{c.name}\n"
        )
        raw_manifest = tmp_path / "raw.tsv"
        prepare_manifest(src, raw_manifest, length_metric="raw")
        text = raw_manifest.read_text()
        assert "a\t" in text and "b\t" not in text  # 55 raw tokens beats 30

        pre_manifest = tmp_path / "pre.tsv"
        prepare_manifest(src, pre_manifest, length_metric="preprocessed")
        text = pre_manifest.read_text()
        assert "b\t" in text and "a\t" not in text  # 30 content tokens beats 5


class TestFeatureCellIntegrity:
    def test_batched_cells_match_per_source_recomputation(self, tmp_path):
        """Every local feature cell equals a from-scratch single-source call."""
        from prosenet.corpus import load_lemma_dictionary, preprocess
        from prosenet.features import select_word_list
        from prosenet.graph import build_network
        from prosenet.pipeline import build_feature_matrix
        from prosenet.walks import accessibility, symmetry

        manifest_path = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=260)
        manifest = load_manifest(manifest_path)
        cfg = RunConfig(manifest=str(manifest_path), strategy="LSS",
                        out=str(tmp_path / "out"), word_list_size=8,
                        rho_max=10.0)  # keep every column for the comparison
        fm, _ = build_feature_matrix(cfg, manifest, None)

        dictionary = load_lemma_dictionary()
        docs = {
            e.doc_id: preprocess(e.path.read_text(), dictionary, True, e.doc_id, e.label)
            for e in manifest.entries
        }
        words = select_word_list(list(docs.values()), 8, 0.9)

        checked = 0
        for row, doc_id in enumerate(fm.doc_ids):
            net = build_network(docs[doc_id])
            index = net.node_index()
            for measure, h, fn in [
                ("A2", 2, None), ("A3", 3, None),
                ("Sb2", 2, "backbone"), ("Sb3", 3, "backbone"), ("Sb4", 4, "backbone"),
                ("Sm2", 2, "merged"), ("Sm3", 3, "merged"), ("Sm4", 4, "merged"),
            ]:
                for word in words:
                    node = index.get(word)
                    if node is None:
                        continue
                    col = fm.feature_names.index(f"{measure}@{word}")
                    if fn is None:
                        expected = accessibility(net, node, h)
                    else:
                        expected = symmetry(net, node, h, fn)
                    assert fm.values[row, col] == pytest.approx(expected, abs=1e-12), (
                        doc_id, measure, word,
                    )
                    checked += 1
        assert checked >= 200


class TestDeterminism:
    def test_parallel_equals_serial_and_reruns_identical(self, tmp_path):
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=3, tokens=200)

        def run(out, jobs):
            cfg = RunConfig(manifest=str(manifest), strategy="LSS", out=str(out),
                            word_list_size=10, jobs=jobs)
            cmd_classify(cfg)
            return {
                p.name: p.read_bytes()
                for p in sorted(out.glob("*"))
                if p.is_file() and p.suffix in (".csv", ".json")
            }

        first = run(tmp_path / "run1", jobs=2)
        second = run(tmp_path / "run2", jobs=2)
        assert first.keys() == second.keys()
        for name in first:
            if name.startswith("report_"):
                a = json.loads(first[name])
                b = json.loads(second[name])
                a["config"].pop("out"), b["config"].pop("out")
                assert a == b
            else:
                assert first[name] == second[name], name
        serial = run(tmp_path / "run3", jobs=1)
        for name in first:
            if not name.startswith("report_"):
                assert first[name] == serial[name], name
