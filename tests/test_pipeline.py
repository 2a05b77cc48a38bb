import base64
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_doc, write_toy_corpus, zipf_doc
from oracles import net_from_edges, oracle_rank_subsets, relevance_csvs
from prosenet import CostGuardError, ProsenetError, graph, metrics, pipeline, walks
from prosenet.cli import main
from prosenet.corpus import load_lemma_dictionary, load_manifest, prepare_manifest
from prosenet.graph import build_network, geodesic_row_bytes
from prosenet.learn import LEDGER_DTYPE, RelevanceReport, rank_subsets
from prosenet.metrics import NodeMeasures
from prosenet.pipeline import (
    RunConfig,
    cmd_baselines,
    cmd_classify,
    cmd_measure,
    cmd_relevance,
    config_from_sources,
    geodesic_measures,
    measure_document,
    parse_config_file,
    write_relevance,
)
from prosenet.walks import (
    DEFAULT_DEPTH_CAP,
    accessibility_batch,
    backbone_symmetry_batch,
    merged_row_bytes,
    merged_symmetry_batch,
    saw_row_bytes,
    taylor_row_bytes,
)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus_gen import write_corpus  # noqa: E402


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

    @pytest.mark.parametrize("key, raw", [
        ("top_k", "abc"), ("alpha", "high"), ("h_access", "2,x"), ("cumulative", "ture"),
        ("gs_walks", ""),
    ])
    def test_a_value_that_does_not_parse_names_its_key(self, key, raw):
        with pytest.raises(ProsenetError, match=f"'{key}'.*{raw!r}"):
            config_from_sources({key: raw}, {})

    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("true", True), ("Yes", True), ("0", False), ("FALSE", False),
        ("no", False),
    ])
    def test_booleans_take_the_six_words(self, raw, value):
        assert config_from_sources({"cumulative": raw}, {}).cumulative is value

    def test_the_cli_reports_a_value_that_does_not_parse(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("top_k = abc\n", encoding="utf-8")
        for flags in (["--h", "2,x"], ["--config", str(cfg_file)]):
            assert main(["classify", "--manifest", "m.tsv", *flags]) == 1
            assert capsys.readouterr().err.startswith("error: config key")

    def test_walk_depths_are_capped_where_the_walks_cap_them(self, monkeypatch):
        depths = (1, DEFAULT_DEPTH_CAP)
        assert config_from_sources({}, {"h_access": depths}).h_access == depths
        with pytest.raises(ProsenetError, match=f"1\\.\\.{DEFAULT_DEPTH_CAP}"):
            config_from_sources({}, {"h_access": (DEFAULT_DEPTH_CAP + 1,)})
        monkeypatch.setattr(pipeline, "DEFAULT_DEPTH_CAP", DEFAULT_DEPTH_CAP - 1)
        with pytest.raises(ProsenetError, match=f"1\\.\\.{DEFAULT_DEPTH_CAP - 1}"):
            config_from_sources({}, {"h_access": depths})

    @pytest.mark.parametrize("key", ["h-access", "h_symmetry"])
    def test_a_repeated_walk_depth_in_a_config_file_is_refused(self, key, tmp_path):
        # a second column at one depth would overwrite the first's measure
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = 2,2,3\n", encoding="utf-8")
        with pytest.raises(ProsenetError, match=f"'{key.replace('-', '_')}'.*repeats"):
            config_from_sources(parse_config_file(cfg_file), {})

    def test_the_cli_refuses_a_repeated_walk_depth(self, capsys):
        assert main(["classify", "--manifest", "m.tsv", "--h", "2,3,2"]) == 1
        assert "'h_access' repeats a walk depth" in capsys.readouterr().err


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
        cache_files = sorted((out / "cache").glob("*.bin"))
        stamps = [p.stat().st_mtime_ns for p in cache_files]
        cmd_measure(cfg)
        assert {p: p.read_bytes() for p in written} == before
        assert [p.stat().st_mtime_ns for p in sorted((out / "cache").glob("*.bin"))] == stamps

    def test_corrupted_cache_recomputed_transparently(self, measured):
        manifest, out, cfg, written = measured
        victim = sorted((out / "cache").glob("*.bin"))[0]
        entry = victim.read_bytes()
        victim.write_bytes(entry.replace(b'"modularity_q": ', b'"modularity_q": 9', 1))
        before = {p: p.read_bytes() for p in written}
        cmd_measure(cfg)
        assert {p: p.read_bytes() for p in written} == before
        assert victim.read_bytes() == entry
        checksum, _, rest = entry.partition(b"\n")
        assert checksum.decode() == hashlib.sha256(rest).hexdigest()


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

    def test_an_edited_stoplist_is_read_again(self, measured, tmp_path):
        # one process, one stoplist path, its contents rewritten between runs
        default = sorted(load_lemma_dictionary().stoplist)
        edited = "\n".join(w for w in default if w not in ("that", "is", "was")) + "\n"
        stoplist = tmp_path / "stop.txt"
        stoplist.write_text("\n".join(default) + "\n", encoding="utf-8")
        other = tmp_path / "other.txt"
        other.write_text(edited, encoding="utf-8")
        base = {"manifest": str(measured[0]), "strategy": "LS", "word_list_size": 10}

        def classify(out, path):
            cmd_classify(RunConfig(**base, out=str(tmp_path / out), stoplist=str(path)))
            return {name: (tmp_path / out / f"{name}_LS.csv").read_bytes()
                    for name in ("features", "ranking", "projection")}

        first = classify("first", stoplist)
        stoplist.write_text(edited, encoding="utf-8")
        again = classify("again", stoplist)
        assert again == classify("other", other)
        assert again != first

    def test_ls_word_lists_hold_no_stoplist_lemma(self, measured, tmp_path):
        manifest = load_manifest(measured[0])
        base = {"manifest": str(measured[0]), "strategy": "LS", "word_list_size": 10}
        cache = tmp_path / "cache"
        _, _, by_default = pipeline.compute_corpus_measures(manifest, RunConfig(**base), cache)
        stops = load_lemma_dictionary().stoplist - {"that", "is", "was"} | set(by_default[:2])
        stoplist = tmp_path / "stop.txt"
        stoplist.write_text("\n".join(sorted(stops)) + "\n", encoding="utf-8")
        cfg = RunConfig(**base, stoplist=str(stoplist))
        _, _, words = pipeline.compute_corpus_measures(manifest, cfg, cache)
        assert {"that", "is", "was"} & set(words)  # the custom list is in force
        assert not stops & set(words)
        fm = pipeline.build_feature_matrix(cfg, manifest, cache)
        assert not stops & {name.split("@", 1)[1] for name in fm.feature_names}


class TestSharedMeasureCache:
    """GS and LS measure the same network: one cache entry serves both."""

    @pytest.fixture
    def corpus(self, tmp_path):
        return write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=240)

    @staticmethod
    def measure(manifest, out, strategy):
        cfg = RunConfig(manifest=str(manifest), strategy=strategy, out=str(out),
                        word_list_size=10)
        return {p.name: p.read_bytes() for p in cmd_measure(cfg)}

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        real = pipeline.measure_document

        def counted(doc, *args):
            calls.append(doc.id)
            return real(doc, *args)

        monkeypatch.setattr(pipeline, "measure_document", counted)
        return calls

    def test_ls_after_gs_measures_nothing(self, corpus, tmp_path, monkeypatch):
        shared = tmp_path / "shared"
        self.measure(corpus, shared, "GS")
        entries = sorted((shared / "cache").glob("*.bin"))
        calls = self.count_calls(monkeypatch)
        reused = self.measure(corpus, shared, "LS")
        assert calls == []
        assert sorted((shared / "cache").glob("*.bin")) == entries
        assert reused == self.measure(corpus, tmp_path / "fresh", "LS")

    @staticmethod
    def walked_cells(files):
        """(doc_id, label) of the nodes with an A2 value, over every measure CSV."""
        return {tuple(line.split(",")[:2]) for body in files.values()
                for line in body.decode().splitlines()
                if ",A2," in line and not line.endswith(",")}

    def test_gs_after_ls_measures_each_document_once(self, corpus, tmp_path, monkeypatch):
        shared = tmp_path / "shared"
        by_ls = self.measure(corpus, shared, "LS")
        calls = self.count_calls(monkeypatch)
        walked = []
        real_batch = pipeline.accessibility_batch

        def counted_batch(net, sources, *args, **kwargs):
            walked.append(len(sources))
            return real_batch(net, sources, *args, **kwargs)

        monkeypatch.setattr(pipeline, "accessibility_batch", counted_batch)
        grown = self.measure(corpus, shared, "GS")
        assert sorted(calls) == ["ima00", "ima01", "inf00", "inf01"]
        assert set() < self.walked_cells(by_ls) < self.walked_cells(grown)
        assert sum(walked) == len(self.walked_cells(grown))  # every node, once
        assert len(list((shared / "cache").glob("*.bin"))) == 4
        assert grown == self.measure(corpus, tmp_path / "fresh", "GS")

    def test_an_entry_keeps_the_walks_of_an_earlier_word_list(self, corpus, tmp_path,
                                                            monkeypatch):
        # word lists A, then B, then A again: the entries B grows keep A's
        # walks, so the last run measures nothing
        def measure(out, fraction):
            cfg = RunConfig(manifest=str(corpus), strategy="LS", out=str(out),
                            word_list_size=3, min_doc_fraction=fraction)
            return {p.name: p.read_bytes() for p in cmd_measure(cfg)}

        shared = tmp_path / "shared"
        by_a = measure(shared, 1.0)
        by_b = measure(shared, 0.5)
        a, b = self.walked_cells(by_a), self.walked_cells(by_b)
        assert a - b and b - a  # neither list holds the other
        calls = self.count_calls(monkeypatch)
        assert measure(shared, 1.0) == by_a
        assert calls == []
        assert len(list((shared / "cache").glob("*.bin"))) == 4
        assert by_a == measure(tmp_path / "fresh", 1.0)

    def test_no_walk_request_is_served_by_any_entry(self, corpus, tmp_path, monkeypatch):
        shared = tmp_path / "shared"
        self.measure(corpus, shared, "LS")
        calls = self.count_calls(monkeypatch)
        cfg = RunConfig(manifest=str(corpus), strategy="GS", gs_walks=False, out=str(shared))
        reused = [p.read_bytes() for p in cmd_measure(cfg)]
        assert calls == []
        fresh = RunConfig(manifest=str(corpus), strategy="GS", gs_walks=False,
                          out=str(tmp_path / "fresh"))
        assert reused == [p.read_bytes() for p in cmd_measure(fresh)]
        assert not any(b",A2," in body for body in reused)

    def test_gs_after_ls_classify_measures_nothing(self, corpus, tmp_path, monkeypatch):
        # LS classify stores Q with its entries, so a GS request without walks
        # and an LS measure are served from them
        shared = tmp_path / "shared"
        cmd_classify(RunConfig(manifest=str(corpus), strategy="LS", word_list_size=10,
                               classifier="knn", out=str(shared)))
        calls = self.count_calls(monkeypatch)
        gs = RunConfig(manifest=str(corpus), strategy="GS", gs_walks=False, classifier="knn")
        cmd_classify(dataclasses.replace(gs, out=str(shared)))
        reused = [p.read_bytes() for p in cmd_measure(dataclasses.replace(gs, out=str(shared)))]
        by_ls = self.measure(corpus, shared, "LS")
        assert calls == []
        fresh = [p.read_bytes() for p in cmd_measure(dataclasses.replace(
            gs, out=str(tmp_path / "fresh")))]
        assert reused == fresh
        assert by_ls == self.measure(corpus, tmp_path / "fresh-ls", "LS")


def count_communities(monkeypatch):
    """Node counts of the networks ``detect_communities`` is called on."""
    calls = []
    real = pipeline.detect_communities

    def counted(net):
        calls.append(net.node_count)
        return real(net)

    monkeypatch.setattr(pipeline, "detect_communities", counted)
    return calls


class TestRequestedParts:
    """Every strategy takes Ag at the walk sources, as it takes A, Sb and Sm,
    and every command takes Q, so an entry does not depend on which command
    wrote it."""

    @pytest.fixture
    def corpus(self, tmp_path):
        return write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=240)

    @staticmethod
    def lss(manifest, out):
        return RunConfig(manifest=str(manifest), strategy="LSS", out=str(out),
                         word_list_size=10, classifier="knn")

    def measure(self, manifest, out):
        return {p.name: p.read_bytes() for p in cmd_measure(self.lss(manifest, out))}

    @staticmethod
    def entries(out):
        return {p.name: p.read_bytes() for p in (out / "cache").glob("*.bin")}

    def test_classify_after_measure_is_all_cache_hits(self, corpus, tmp_path, monkeypatch):
        shared = tmp_path / "shared"
        self.measure(corpus, shared)
        calls = TestSharedMeasureCache.count_calls(monkeypatch)
        cmd_classify(self.lss(corpus, shared))
        assert calls == []
        cmd_classify(self.lss(corpus, tmp_path / "fresh"))
        for name in ("features_LSS.csv", "ranking_LSS.csv", "report_LSS_knn.json"):
            fresh = (tmp_path / "fresh" / name).read_text()
            assert (shared / name).read_text() == fresh.replace(str(tmp_path / "fresh"),
                                                                str(shared))

    def test_measure_after_classify_measures_nothing(self, corpus, tmp_path, monkeypatch):
        shared = tmp_path / "shared"
        cmd_classify(self.lss(corpus, shared))
        calls = TestSharedMeasureCache.count_calls(monkeypatch)
        communities = count_communities(monkeypatch)
        served = self.measure(corpus, shared)
        assert calls == [] and communities == []
        assert served == self.measure(corpus, tmp_path / "fresh")
        assert self.entries(shared) == self.entries(tmp_path / "fresh")

    @pytest.mark.parametrize("strategy", ["LS", "LSS"])
    def test_lss_measure_writes_ag_at_the_word_list_only(self, strategy, corpus, tmp_path):
        cfg = dataclasses.replace(self.lss(corpus, tmp_path / "out"), strategy=strategy)
        for path in cmd_measure(cfg):
            lines = [line.split(",") for line in path.read_text().splitlines()[1:]]
            walked = {label for _, label, name, cell in lines if name == "A2" and cell}
            ag = {label for _, label, name, cell in lines if name == "Ag" and cell}
            assert ag == walked
            assert 0 < len(ag) <= 10 < sum(name == "Ag" for _, _, name, _ in lines)

    @pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
    def test_cold_commands_detect_communities_once_per_document(self, strategy, corpus,
                                                                tmp_path, monkeypatch):
        calls = count_communities(monkeypatch)
        cmd_classify(RunConfig(manifest=str(corpus), strategy=strategy, word_list_size=10,
                               classifier="knn", out=str(tmp_path / "classify")))
        assert len(calls) == 4
        calls.clear()
        cmd_relevance(RunConfig(manifest=str(corpus), strategy=strategy, word_list_size=10,
                                phi=3, out=str(tmp_path / "relevance")))
        assert len(calls) == 4

    @staticmethod
    def count_ag_rows(monkeypatch):
        """Rows passed to each ``generalized_accessibility`` call."""
        counts = []
        real = pipeline.generalized_accessibility

        def counted(net, sources, exclude_self):
            counts.append(len(sources))
            return real(net, sources, exclude_self)

        monkeypatch.setattr(pipeline, "generalized_accessibility", counted)
        return counts

    def test_cold_ls_takes_ag_at_the_word_list_only(self, corpus, tmp_path, monkeypatch):
        rows = self.count_ag_rows(monkeypatch)
        cmd_classify(RunConfig(manifest=str(corpus), strategy="LS", word_list_size=10,
                               classifier="knn", out=str(tmp_path / "out")))
        assert len(rows) == 4 and max(rows) <= 10

    def test_gs_without_walks_takes_no_ag(self, corpus, tmp_path, monkeypatch):
        rows = self.count_ag_rows(monkeypatch)
        out = tmp_path / "out"
        cmd_classify(RunConfig(manifest=str(corpus), strategy="GS", gs_walks=False,
                               classifier="knn", out=str(out)))
        assert rows == []
        ranking = (out / "ranking_GS.csv").read_text()
        assert "\nmean(Pr)," in ranking and "(Ag)" not in ranking

    def test_an_entry_with_ag_at_every_node_is_cut_to_the_request(self, corpus, tmp_path,
                                                                  monkeypatch):
        """Entries that hold walks at the word list and ``Ag`` at every node
        serve LS ``measure`` as a fresh measure would: ``Ag`` is cut to the
        walked nodes."""
        shared = tmp_path / "shared"
        cfg = dataclasses.replace(self.lss(corpus, shared), strategy="LS")
        cmd_measure(cfg)
        dictionary = load_lemma_dictionary()
        texts = {e.doc_id: e.path.read_text() for e in load_manifest(corpus).entries}
        for path in sorted((shared / "cache").glob("*.bin")):
            key = path.stem
            dm = pipeline._cache_load(path, key, "")
            doc = pipeline.preprocess(texts[dm.doc_id], dictionary, False, dm.doc_id)
            net = build_network(doc)
            every = np.arange(net.node_count)
            dm.measures["Ag"] = NodeMeasures(pipeline.generalized_accessibility(net, every),
                                             np.zeros(net.node_count, dtype=bool))
            assert dm.measures["A2"].missing.any()
            pipeline._cache_store(path, key, dm)
        calls = TestSharedMeasureCache.count_calls(monkeypatch)
        served = {p.name: p.read_bytes() for p in cmd_measure(cfg)}
        assert calls == []
        fresh = {p.name: p.read_bytes()
                 for p in cmd_measure(dataclasses.replace(cfg, out=str(tmp_path / "fresh")))}
        assert served == fresh
        for body in served.values():
            cells = [line.split(",") for line in body.decode().splitlines()[1:]]
            ag = {label for _, label, name, cell in cells if name == "Ag" and cell}
            assert ag == {label for _, label, name, cell in cells if name == "A2" and cell}

    def test_one_estimate_for_every_strategy(self, monkeypatch):
        """``measure_document`` reads no strategy, and every ``Ag`` comes
        from the same Taylor rows, so one estimate serves every strategy:
        one byte less refuses the document and the estimate itself admits
        it, walked and with ``Ag`` at every node."""
        doc = zipf_doc(500, words=400)
        net = build_network(doc)
        n = net.node_count
        need = pipeline.measurement_bytes(net, np.arange(n), (2, 3))
        for strategy in pipeline.STRATEGIES:
            cfg = RunConfig(strategy=strategy, h_access=(2, 3))
            monkeypatch.setattr(pipeline, "MEASURE_BUDGET", need - 1)
            with pytest.raises(CostGuardError, match=f"{n}-node network"):
                measure_document(doc, cfg, None)
            monkeypatch.setattr(pipeline, "MEASURE_BUDGET", need)
            dm = measure_document(doc, cfg, None)
            assert not dm.measures["Ag"].missing.any()


class TestOneReadPerDocument:
    """A command preprocesses each document at most once, and a document
    served wholly from the cache not at all."""

    @staticmethod
    def count_preprocess(monkeypatch):
        calls = []
        real = pipeline.preprocess

        def counted(raw, dictionary, keep_stopwords, doc_id="", label=""):
            calls.append(doc_id)
            return real(raw, dictionary, keep_stopwords, doc_id, label)

        monkeypatch.setattr(pipeline, "preprocess", counted)
        return calls

    def test_cache_hit_classify_preprocesses_nothing(self, tmp_path, monkeypatch):
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=200)
        cfg = RunConfig(manifest=str(manifest), strategy="LSS", out=str(tmp_path / "out"),
                        word_list_size=10)
        calls = self.count_preprocess(monkeypatch)
        cmd_classify(cfg)
        assert sorted(calls) == ["ima00", "ima01", "inf00", "inf01"]
        calls.clear()
        cmd_classify(cfg)
        assert calls == []

    def test_baselines_preprocess_each_document_once(self, tmp_path, monkeypatch):
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=200)
        calls = self.count_preprocess(monkeypatch)
        cmd_baselines(RunConfig(manifest=str(manifest), out=str(tmp_path), baseline_top_k=5))
        assert calls == ["ima00", "ima01", "inf00", "inf01"]


def restamped(rest: bytes) -> bytes:
    """An entry of the checksum line and ``rest``, with the checksum right."""
    return hashlib.sha256(rest).hexdigest().encode() + b"\n" + rest


def json_layout_entry(path: Path) -> bytes:
    """The entry at ``path`` in the JSON layout with base64 measures that
    preceded the raw block."""
    key = path.stem
    dm = pipeline._cache_load(path, key, "")

    def b64(values):
        return base64.b64encode(values.tobytes()).decode("ascii")

    payload = {
        "doc_id": dm.doc_id,
        "node_labels": dm.node_labels,
        "word_frequencies": dm.word_frequencies,
        "measures": {name: {"values": b64(nm.values.astype("<f8")),
                            "missing": b64(nm.missing.astype(np.uint8))}
                     for name, nm in sorted(dm.measures.items())},
        "modularity_q": repr(dm.modularity_q),
    }
    blob = json.dumps(payload, sort_keys=True)
    checksum = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return f'{{"checksum": "{checksum}", "key": "{key}", "payload": {blob}}}'.encode()


class TestCacheEntryLayout:
    """An entry is a checksum line, a JSON header line and one raw block;
    the checksum covers the bytes as written, and only an entry of that
    layout, of the key asked for and of a block of the header's size is a
    hit."""

    @pytest.fixture
    def filled(self, tmp_path):
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=1, tokens=200)
        cfg = RunConfig(manifest=str(manifest), strategy="GS", gs_walks=False,
                        out=str(tmp_path / "out"))
        written = [p.read_bytes() for p in cmd_measure(cfg)]
        return cfg, sorted((tmp_path / "out" / "cache").glob("*.bin")), written

    def test_flipped_payload_byte_is_a_miss_and_remeasured(self, filled, monkeypatch):
        # one header byte of the first entry, one block byte of the second
        cfg, entries, written = filled
        stored = [path.read_bytes() for path in entries]
        header = bytearray(stored[0])
        at = header.index(b'"modularity_q": ') + len(b'"modularity_q": ')
        assert chr(header[at]).isdigit()
        header[at] = ord("1") if header[at] != ord("1") else ord("2")  # still valid JSON
        block = bytearray(stored[1])
        block[-1] ^= 1  # the last mask byte
        entries[0].write_bytes(bytes(header))
        entries[1].write_bytes(bytes(block))
        calls = TestSharedMeasureCache.count_calls(monkeypatch)
        assert [p.read_bytes() for p in cmd_measure(cfg)] == written
        assert sorted(calls) == ["ima00", "inf00"]
        assert [path.read_bytes() for path in entries] == stored
        assert [p.read_bytes() for p in cmd_measure(cfg)] == written
        assert len(calls) == 2  # the rewritten entries are hits

    def test_other_layouts_and_keys_are_misses_and_remeasured(self, filled, monkeypatch):
        cfg, entries, written = filled
        victim, stored = entries[0], entries[0].read_bytes()
        rest = stored.partition(b"\n")[2]
        other_key = rest.replace(f'"key": "{victim.stem}"'.encode(),
                                 f'"key": "{"0" * 64}"'.encode(), 1)
        assert other_key != rest
        spoiled = {
            "json layout": json_layout_entry(victim),
            "block one byte short": restamped(rest[:-1]),
            "block one byte extra": restamped(rest + b"\0"),
            "header of another key": restamped(other_key),
        }
        doc_id = pipeline._cache_load(victim, victim.stem, "").doc_id
        calls = TestSharedMeasureCache.count_calls(monkeypatch)
        for case, data in spoiled.items():
            victim.write_bytes(data)
            assert [p.read_bytes() for p in cmd_measure(cfg)] == written, case
            assert calls == [doc_id], case
            assert victim.read_bytes() == stored, case
            calls.clear()

    def test_payload_round_trip_is_exact(self, tmp_path):
        dm = measure_document(make_doc("a b c a d e b f c g a h d".split()), RunConfig(), ["b"])
        odd = np.array([-0.0, 5e-324, np.finfo(float).max, 0.1, 1 / 3, -2.5e-300, 7.0, 1e16 + 2])
        dm.measures["odd"] = NodeMeasures(odd, odd < 0)
        dm.modularity_q = 1 / 3
        path = tmp_path / "entry.bin"
        pipeline._cache_store(path, "k", dm)
        back = pipeline._cache_load(path, "k", dm.label)
        assert back.measures.keys() == dm.measures.keys()
        for name, nm in dm.measures.items():
            assert back.measures[name].values.tobytes() == nm.values.tobytes(), name
            assert np.array_equal(back.measures[name].missing, nm.missing), name
        assert dataclasses.replace(back, measures={}) == dataclasses.replace(dm, measures={})
        assert pipeline._cache_load(path, "other", dm.label) is None

    def test_layout_is_part_of_the_key(self, monkeypatch, tmp_path):
        key = pipeline._measure_cache_key("text", RunConfig(), "digest", False, "d")
        monkeypatch.setattr(pipeline, "CACHE_LAYOUT", "repr-lists")
        assert pipeline._measure_cache_key("text", RunConfig(), "digest", False, "d") != key
        # an entry under the tag of the layout that held LSS Ag from eigh misses
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=1, tokens=200)
        cfg = RunConfig(manifest=str(manifest), strategy="LSS", word_list_size=10,
                        out=str(tmp_path / "out"))
        monkeypatch.setattr(pipeline, "CACHE_LAYOUT", "b64-f8le")
        cmd_measure(cfg)
        monkeypatch.undo()
        calls = TestSharedMeasureCache.count_calls(monkeypatch)
        cmd_measure(cfg)
        assert calls == ["ima00", "inf00"]


class TestCachedLabels:
    def test_relabelled_document_keeps_its_manifest_label(self, tmp_path):
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=1, tokens=120)
        cache = tmp_path / "out" / "cache"

        def labels(gs_walks):
            cfg = RunConfig(manifest=str(manifest), strategy="GS", gs_walks=gs_walks)
            measured, _, _ = pipeline.compute_corpus_measures(
                load_manifest(manifest), cfg, cache)
            return [(dm.doc_id, dm.label) for dm in measured]

        assert labels(False) == [("ima00", "imaginative"), ("inf00", "informative")]
        swapped = manifest.read_text(encoding="utf-8").replace("\timaginative\t", "\tX\t")
        swapped = swapped.replace("\tinformative\t", "\timaginative\t").replace("\tX\t", "\tinformative\t")
        manifest.write_text(swapped, encoding="utf-8")
        relabelled = [("ima00", "informative"), ("inf00", "imaginative")]
        assert labels(False) == relabelled  # every entry covers the request
        assert labels(True) == relabelled  # every entry is walked further


class TestResumableRuns:
    def test_interrupted_run_keeps_finished_documents(self, tmp_path, monkeypatch):
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=200)
        cfg = RunConfig(manifest=str(manifest), strategy="GS", gs_walks=False,
                        out=str(tmp_path / "out"))
        cache = tmp_path / "out" / "cache"
        real = pipeline.measure_document

        def interrupting(doc, *args):
            if doc.id == "inf00":  # the third document in manifest order
                raise KeyboardInterrupt
            return real(doc, *args)

        monkeypatch.setattr(pipeline, "measure_document", interrupting)
        with pytest.raises(KeyboardInterrupt):
            cmd_measure(cfg)
        finished = sorted(cache.glob("*.bin"))
        assert len(finished) == 2

        measured = []

        def counting(doc, *args):
            measured.append(doc.id)
            return real(doc, *args)

        monkeypatch.setattr(pipeline, "measure_document", counting)
        resumed = [p.read_bytes() for p in cmd_measure(cfg)]
        assert measured == ["inf00", "inf01"]
        assert set(finished) < set(cache.glob("*.bin"))
        fresh = RunConfig(manifest=str(manifest), strategy="GS", gs_walks=False,
                          out=str(tmp_path / "fresh"))
        assert resumed == [p.read_bytes() for p in cmd_measure(fresh)]


class TestMeasureDocument:
    def test_absent_sources_with_many_symmetry_depths(self):
        depths = tuple(range(1, 10))
        dm = measure_document(make_doc(["a", "b", "c", "a"]),
                              RunConfig(h_symmetry=depths), ["zzz"])
        for h in depths:
            assert dm.measures[f"Sb{h}"].missing.all()
            assert dm.measures[f"Sm{h}"].missing.all()

    @staticmethod
    def at_each_block(net, measure):
        """``measure()`` as bytes at the 8 MiB, 64 KiB and 4 KiB blocks and at
        blocks of five geodesic rows, so that walk rows are held across blocks."""
        seen = []
        for block in (8 << 20, 64 << 10, 4 << 10, 5 * geodesic_row_bytes(net)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graph, "BLOCK_BYTES", block)
                measures, q = measure()
            seen.append({name: (nm.values.tobytes(), nm.missing.tobytes())
                         for name, nm in measures.items()} | {"Q": np.float64(q).tobytes()})
        return seen

    @pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
    def test_a_documents_bytes_do_not_depend_on_the_block(self, strategy):
        doc = zipf_doc(200)
        counts = Counter(doc.tokens)
        common = sorted(counts, key=lambda w: (-counts[w], w))
        words = {"GS": None, "LS": common[:50], "LSS": common[:7] + ["absent"]}[strategy]
        net = build_network(doc)

        def measure():
            dm = measure_document(doc, RunConfig(strategy=strategy), words)
            return dm.measures, dm.modularity_q

        first, *rest = self.at_each_block(net, measure)
        assert len(first) == 1 + 9 + 9  # Q, nine measures of every node, nine walk measures
        assert all(other == first for other in rest)

    @pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
    @pytest.mark.parametrize("block", [8 << 20, 4 << 10])
    def test_one_distance_pass_per_document(self, block, strategy, monkeypatch):
        """Every distance row comes from the geodesic pass: one search per
        block of source rows, each made by ``betweenness``, and none by a
        walk kernel."""
        doc = zipf_doc(300)
        monkeypatch.setattr(graph, "BLOCK_BYTES", block)
        callers = []
        real = graph.bfs_distances

        def counted(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        for module in (graph, metrics, walks):
            monkeypatch.setattr(module, "bfs_distances", counted)
        measure_document(doc, RunConfig(strategy=strategy), walk_words(doc, strategy))
        blocks = len(pipeline._geodesic_blocks(build_network(doc)))
        assert blocks > 1 if block == 4 << 10 else blocks == 1
        assert callers == ["betweenness"] * blocks

    def test_two_components_do_not_depend_on_the_block(self):
        """Rows outside the largest component, and walk sources in the small
        component and on an isolated node."""
        big = build_network(zipf_doc(150))
        n = big.node_count + 6
        small = {(n - 6, n - 5), (n - 5, n - 4), (n - 4, n - 3), (n - 3, n - 6), (n - 3, n - 2)}
        net = net_from_edges(n, set(big.edges()) | small)  # node n - 1 is isolated
        requested = np.zeros(n, dtype=bool)
        requested[[0, 3, big.node_count - 1, n - 5, n - 2, n - 1]] = True

        def measure():
            return geodesic_measures(net, RunConfig(), requested), 0.0

        first, *rest = self.at_each_block(net, measure)
        assert all(other == first for other in rest)
        assert np.frombuffer(first["C"][1], dtype=bool)[big.node_count:].all()
        walked = ~np.frombuffer(first["A2"][1], dtype=bool)
        assert np.array_equal(walked, requested)


def traced_peak(fn):
    """(fn's result, the peak bytes that tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def hub_docs(draw):
    """Documents in which every other token is one of a few hubs, so each hub
    node neighbours up to a few hundred spokes."""
    hubs = draw(st.integers(1, 3))
    spokes = draw(st.integers(2, 300))
    order = draw(st.lists(st.integers(0, hubs - 1), min_size=spokes, max_size=2 * spokes))
    return make_doc([tok for i, h in enumerate(order) for tok in (f"h{h}", f"s{i % spokes}")])


def walk_words(doc, strategy: str) -> list[str] | None:
    """The walk sources of ``doc``: every node under GS, its 50 commonest
    words under LS and LSS."""
    counts = Counter(doc.tokens)
    return None if strategy == "GS" else sorted(counts, key=lambda w: (-counts[w], w))[:50]


def uniform_doc():
    """575 nodes of degree at most 18: 1800 draws from 600 words."""
    rng = np.random.default_rng(5)
    return make_doc([f"w{t}" for t in rng.integers(0, 600, 1800)])


# a fresh interpreter's first ``measure_document`` call on ``uniform_doc``
# from ``walk_words``, importing only prosenet: [estimate, tracemalloc peak]
FIRST_CALL = """
import json, sys, tracemalloc
from collections import Counter
import numpy as np
from prosenet import graph, pipeline
from prosenet.corpus import Document
strategy, graph.BLOCK_BYTES = sys.argv[1], int(sys.argv[2])
tokens = [f"w{t}" for t in np.random.default_rng(5).integers(0, 600, 1800)]
doc = Document("t", "informative", tokens, len(tokens), [False] * len(tokens))
counts = Counter(tokens)
words = None if strategy == "GS" else sorted(counts, key=lambda w: (-counts[w], w))[:50]
cfg = pipeline.RunConfig(strategy=strategy)
tracemalloc.start()
pipeline.measure_document(doc, cfg, words)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
net = pipeline.build_network(doc)
sources = np.flatnonzero(pipeline._source_mask(net.node_labels, words))
print(json.dumps([pipeline.measurement_bytes(net, sources, cfg.h_access), peak]))
"""


def estimate_and_peak(doc, strategy: str) -> tuple[int, int]:
    """``measurement_bytes`` of ``doc`` under ``strategy`` and the
    ``tracemalloc`` peak of measuring it from ``walk_words``."""
    cfg = RunConfig(strategy=strategy)
    words = walk_words(doc, strategy)
    net = build_network(doc)
    sources = np.flatnonzero(pipeline._source_mask(net.node_labels, words))
    need = pipeline.measurement_bytes(net, sources, cfg.h_access)
    _, peak = traced_peak(lambda: measure_document(doc, cfg, words))
    return need, peak


class TestMeasurementMemory:
    @pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
    @pytest.mark.parametrize("tokens", [300, 2000])
    def test_peak_stays_within_the_estimate(self, tokens, strategy):
        need, peak = estimate_and_peak(zipf_doc(tokens), strategy)
        assert peak <= need

    @settings(max_examples=12, deadline=None)
    @given(hub_docs(), st.sampled_from(pipeline.STRATEGIES))
    def test_hub_network_peak_stays_within_the_estimate(self, doc, strategy):
        need, peak = estimate_and_peak(doc, strategy)
        assert peak <= need

    @pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
    def test_peak_stays_within_the_estimate_at_a_64_kib_block(self, strategy, monkeypatch):
        """With a small block the per-node outputs are no longer hidden by
        it, and the estimate follows the block the kernels are given."""
        monkeypatch.setattr(graph, "BLOCK_BYTES", 64 << 10)
        need, peak = estimate_and_peak(zipf_doc(300), strategy)
        assert need < 1 << 20
        assert peak <= need

    @pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
    @pytest.mark.parametrize("tokens", [100, 300])
    def test_peak_stays_within_the_estimate_at_a_4_kib_block(self, tokens, strategy,
                                                             monkeypatch):
        """With a block this small, what a document holds whatever its node
        count shows on small networks: 100 tokens give 78 nodes."""
        monkeypatch.setattr(graph, "BLOCK_BYTES", 4 << 10)
        need, peak = estimate_and_peak(zipf_doc(tokens), strategy)
        assert peak <= need

    def test_blocked_pass_stays_within_its_budget(self):
        """The geodesic pass without walks holds one block and its per-node
        outputs; in one block of every row it would take far more."""
        net = build_network(zipf_doc(3000))
        n = net.node_count
        budget = graph.BLOCK_BYTES + pipeline.NODE_OUTPUT_BYTES * n
        assert n * geodesic_row_bytes(net) > graph.BLOCK_BYTES  # one block would not fit

        def geodesic_pass():
            return geodesic_measures(net, RunConfig())

        blocked, peak = traced_peak(geodesic_pass)
        assert peak <= budget
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "BLOCK_BYTES", n * geodesic_row_bytes(net))
            whole, whole_peak = traced_peak(geodesic_pass)
        assert whole_peak > budget
        assert sorted(blocked) == ["B", "C", "E", "N2", "N3"]
        for name, nm in blocked.items():
            assert np.array_equal(nm.values, whole[name].values), name
            assert np.array_equal(nm.missing, whole[name].missing), name

    @pytest.mark.parametrize("strategy", ["GS", "LSS"])
    def test_measuring_holds_no_n_by_n_array(self, strategy, monkeypatch):
        """A network of 575 nodes of degree at most 18: at a 64 KiB block its
        whole estimate is below the 4 n^2 bytes that an int32 n x n distance
        matrix alone would take, and its peak is below both."""
        doc = uniform_doc()
        monkeypatch.setattr(graph, "BLOCK_BYTES", 64 << 10)
        n = build_network(doc).node_count
        need, peak = estimate_and_peak(doc, strategy)
        assert need < 4 * n * n
        assert peak < 4 * n * n
        assert peak <= need

    @pytest.mark.parametrize("strategy", ["GS", "LSS"])
    @pytest.mark.parametrize("block", [64 << 10, 4 << 10])
    def test_a_first_call_stays_within_the_estimate(self, block, strategy):
        """A process's first call peaks higher than later ones, as community
        detection also fills the interpreter's free lists; on ``uniform_doc``
        the estimate leaves no room for it unless it counts that search."""
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", FIRST_CALL, strategy, str(block)],
                             env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                             text=True, check=True)
        need, peak = json.loads(run.stdout)
        assert peak <= need

    def test_symmetry_blocks_stay_within_the_budget(self):
        net = build_network(zipf_doc(1000))
        n = net.node_count
        dist = graph.bfs_distances(net, np.arange(n))
        assert n * merged_row_bytes(net) > graph.BLOCK_BYTES  # one block would not fit
        for batch in (backbone_symmetry_batch, merged_symmetry_batch):
            def walk():
                return batch(net, np.arange(n), (2, 3, 4), dist)

            blocked, peak = traced_peak(walk)
            assert peak <= graph.BLOCK_BYTES, batch.__name__
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graph, "BLOCK_BYTES", n * merged_row_bytes(net))
                whole, whole_peak = traced_peak(walk)
            assert whole_peak > graph.BLOCK_BYTES, batch.__name__
            assert np.array_equal(blocked, whole)

    def test_saw_blocks_stay_within_the_budget_plus_one_source(self):
        net = build_network(zipf_doc(500, words=400))  # hubs of degree 50
        sources = np.sort(np.argsort(-net.degrees, kind="stable")[:16])
        h_access = (2, 3, 4)
        largest = saw_row_bytes(net, sources, max(h_access)).max()
        dist = graph.bfs_distances(net, sources)

        def enumerate_walks():
            return accessibility_batch(net, sources, h_access, dist)

        blocked, peak = traced_peak(enumerate_walks)
        assert peak <= graph.BLOCK_BYTES + largest
        with pytest.MonkeyPatch.context() as patch:  # the 16 sources in one block
            patch.setattr(graph, "BLOCK_BYTES", 1 << 40)
            whole, whole_peak = traced_peak(enumerate_walks)
        assert whole_peak > graph.BLOCK_BYTES + largest
        assert np.array_equal(blocked, whole)

    def test_walk_sources_over_budget_are_refused_before_the_enumeration(self, monkeypatch):
        doc = zipf_doc(500, words=400)
        net = build_network(doc)
        cfg = RunConfig(strategy="GS", h_access=(2, 3, 4))
        n = net.node_count
        largest = saw_row_bytes(net, np.arange(n), 4).max()
        need = pipeline.measurement_bytes(net, np.arange(n), cfg.h_access)
        # the SAW row is the largest, over the Taylor row among others
        assert largest > taylor_row_bytes(net)
        held = min(n, pipeline._geodesic_blocks(net)[0].stop)  # walk rows of one block
        assert need == (4 * n * held + pipeline.NODE_OUTPUT_BYTES * n
                        + pipeline.DOCUMENT_FIXED_BYTES + graph.BLOCK_BYTES + largest)
        monkeypatch.setattr(pipeline, "MEASURE_BUDGET", need - 1)

        def refused():
            with pytest.raises(CostGuardError, match=f"{net.node_count}-node network"):
                measure_document(doc, cfg, None)

        _, peak = traced_peak(refused)
        assert peak < largest
        assert len(measure_document(doc, cfg, []).node_labels) == net.node_count

    def test_over_budget_document_is_refused_before_any_n_by_n_array(self, monkeypatch):
        doc = zipf_doc(3000)
        n = build_network(doc).node_count
        monkeypatch.setattr(pipeline, "MEASURE_BUDGET", 1 << 20)

        def refused():
            with pytest.raises(CostGuardError, match=rf"{n}-node network.*1\.0 MiB budget"):
                measure_document(doc, RunConfig(), None)

        _, peak = traced_peak(refused)
        assert peak < n * n  # less than one byte per pair of nodes

    def test_refused_document_goes_on_the_failure_list(self, tmp_path, monkeypatch):
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=200)
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = [f"q{a}{b}z" for a in letters for b in letters][:400]
        (tmp_path / "corpus" / "long.txt").write_text(" ".join(words), encoding="utf-8")
        with_long = tmp_path / "corpus" / "with_long.tsv"
        with_long.write_text(manifest.read_text() + "long\tinformative\tlong.txt\n")
        # admits the same path cut to 300 nodes: the 400-node path is
        # refused, the short documents (under 100 nodes) are not
        path = build_network(make_doc(words[:300]))
        monkeypatch.setattr(pipeline, "MEASURE_BUDGET", pipeline.measurement_bytes(
            path, np.arange(300), RunConfig().h_access))

        def measure(path, out):
            return cmd_measure(RunConfig(manifest=str(path), strategy="GS", out=str(out)))

        with pytest.raises(ProsenetError, match="1 document.*long: CostGuardError.*400-node"):
            measure(with_long, tmp_path / "with")
        written = sorted((tmp_path / "with" / "measures").glob("*.csv"))
        alone = measure(manifest, tmp_path / "without")
        assert [p.name for p in written] == [p.name for p in alone]
        assert [p.read_bytes() for p in written] == [p.read_bytes() for p in alone]


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

    def test_stopword_only_document_fails_alone_under_ls(self, tmp_path):
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=200)
        (tmp_path / "corpus" / "stops.txt").write_text("The of and, to THE in that.")
        with_stops = tmp_path / "corpus" / "with_stops.tsv"
        with_stops.write_text(manifest.read_text() + "stops\timaginative\tstops.txt\n")

        def measure(path, out):
            cfg = RunConfig(manifest=str(path), strategy="LS", out=str(out), word_list_size=10)
            return cmd_measure(cfg)

        with pytest.raises(ProsenetError, match="1 document.*stops: EmptyDocumentError"):
            measure(with_stops, tmp_path / "with")
        written = sorted((tmp_path / "with" / "measures").glob("*.csv"))
        alone = measure(manifest, tmp_path / "without")
        assert [p.name for p in written] == [p.name for p in alone]
        assert [p.read_bytes() for p in written] == [p.read_bytes() for p in alone]
        only_stops = tmp_path / "corpus" / "only_stops.tsv"
        only_stops.write_text("a\timaginative\tstops.txt\nb\tinformative\tstops.txt\n")
        with pytest.raises(ProsenetError, match="2 document"):  # not "no words satisfy"
            measure(only_stops, tmp_path / "none")


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
        assert not (tmp_path / "cache").exists()  # refused before measuring

    def test_small_sweep_outputs(self, toy_manifest, tmp_path):
        cfg = RunConfig(manifest=str(toy_manifest), strategy="LSS", out=str(tmp_path),
                        phi=3, word_list_size=12)
        report = cmd_relevance(cfg)
        assert len(report.feature_names) == 3
        assert len(report.ledger) == 7
        ledger = (tmp_path / "relevance_ledger_LSS.csv").read_text().splitlines()
        assert len(ledger) == 8  # header + 7 subsets
        omega = (tmp_path / "relevance_omega_LSS.csv").read_text().splitlines()
        assert len(omega) == 1 + 2 ** (3 - 1)


RELEVANCE_FILES = ("ledger", "index", "omega")


def written_relevance(report: RelevanceReport, out: Path) -> list[bytes]:
    write_relevance(report, out, "LSS")
    return [(out / f"relevance_{name}_LSS.csv").read_bytes() for name in RELEVANCE_FILES]


def lss_names(phi: int) -> list[str]:
    return [f"{'AS'[j % 2]}{2 + j % 3}@word{j}" for j in range(phi)]


def grid_accuracies(phi: int, n: int, seed: int) -> np.ndarray:
    """LOO accuracies k/n of 2^phi - 1 subsets: at most n + 1 values, many ties."""
    return np.random.default_rng(seed).integers(0, n + 1, 2**phi - 1) / n


@st.composite
def relevance_cases(draw):
    phi = draw(st.integers(1, 12))
    names = draw(st.lists(st.text("abAS@_;,é23", min_size=1, max_size=6),
                          min_size=phi, max_size=phi, unique=True))
    accuracies = grid_accuracies(phi, draw(st.integers(1, 60)), draw(st.integers(0, 2**32 - 1)))
    return names, accuracies, draw(st.integers(1, 2**phi))


class TestRelevanceCsv:
    @pytest.mark.parametrize("phi", range(1, 7))
    def test_ledger_names_equal_the_per_mask_join(self, phi, tmp_path):
        rng = np.random.default_rng(phi)
        names = [f"m{j}@w{j}" for j in range(phi)]
        masks = rng.permutation(np.arange(1, 2**phi)).tolist()
        ledger = list(zip(masks, rng.random(len(masks)).tolist()))
        report = RelevanceReport(names, np.array(ledger, dtype=LEDGER_DTYPE),
                                 np.zeros((phi, 1), dtype=np.int64), {})
        expected = ["rank,bitmask,features,accuracy"] + [
            f"{rank},{mask},{';'.join(names[f] for f in range(phi) if mask >> f & 1)},{acc!r}"
            for rank, (mask, acc) in enumerate(ledger, start=1)
        ]
        assert written_relevance(report, tmp_path)[0].decode() == "\n".join(expected) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(relevance_cases())
    @example((lss_names(15), grid_accuracies(15, 40, 15), pipeline.RELEVANCE_BLOCK_ROWS))
    def test_streamed_outputs_equal_the_oracle(self, case):
        names, accuracies, rows = case
        report = rank_subsets(names, accuracies)
        ledger, omega, r_index = oracle_rank_subsets(names, accuracies)
        assert report.ledger.tolist() == ledger
        assert np.array_equal(report.omega, omega)
        assert report.r_index == r_index
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(pipeline, "RELEVANCE_BLOCK_ROWS", rows), \
                mock.patch.object(pipeline, "OMEGA_FORMAT_ROWS", rows):
            got = written_relevance(report, Path(tmp))
        assert got == [text.encode("utf-8") for text in relevance_csvs(report)]

    def test_streamed_outputs_peak_within_about_one_block(self, tmp_path):
        report = rank_subsets(lss_names(15), grid_accuracies(15, 40, 5))
        # an omega row of 15 counts takes about 1.4 KiB as Python ints, a list
        # and its line (a ledger row about 0.35 KiB); the name tables and the
        # file buffers are fixed
        row_bytes, fixed_bytes = 2048, 256 * 1024
        for rows in (256, pipeline.RELEVANCE_BLOCK_ROWS):
            with mock.patch.object(pipeline, "RELEVANCE_BLOCK_ROWS", rows):
                _, peak = traced_peak(lambda: write_relevance(report, tmp_path, "LSS"))
            assert peak < rows * row_bytes + fixed_bytes, rows

        def whole_strings():
            for name, text in zip(RELEVANCE_FILES, relevance_csvs(report)):
                pipeline.atomic_write(tmp_path / f"relevance_{name}_LSS.csv", text)

        _, oracle_peak = traced_peak(whole_strings)
        assert oracle_peak > 15 * 2**20 > 2 * peak

    def test_omega_writer_peaks_no_higher_than_the_ledger_writer(self):
        # a block of 4096 omega rows as Python ints took about 3 MiB
        report = rank_subsets(lss_names(15), grid_accuracies(15, 40, 5))

        def drained(blocks):
            return lambda: sum(len(block) for block in blocks(report))

        omega_chars, omega_peak = traced_peak(drained(pipeline.omega_csv_blocks))
        ledger_chars, ledger_peak = traced_peak(drained(pipeline.ledger_csv_blocks))
        assert omega_chars > pipeline.RELEVANCE_BLOCK_ROWS * 16  # several full blocks
        assert omega_peak <= ledger_peak


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

    @pytest.mark.parametrize("flag, value", [
        ("--knn-k", "0"), ("--top-k", "0"), ("--top-k", "1"), ("--rho-max", "-1"),
        ("--window", "0"), ("--word-list-size", "0"), ("--min-doc-fraction", "0"),
        ("--min-doc-fraction", "1.5"), ("--phi", "0"), ("--baseline-top-k", "0"),
        ("--jobs", "0"),
    ])
    def test_out_of_range_value_is_a_clean_error(self, flag, value, tmp_path, capsys):
        rc = main(["classify", "--manifest", str(tmp_path / "m.tsv"), flag, value,
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {flag} must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["config", "lemmas", "stoplist", "lemma-line-measure",
                                      "lemma-line-prepare-manifest"])
    def test_a_bad_input_file_is_an_error_line(self, case, toy_manifest, tmp_path, capsys):
        bad = tmp_path / "missing.txt"
        if case.startswith("lemma-line"):
            bad = tmp_path / "lemmas.tsv"
            bad.write_text("walked\twalk\nran run\n", encoding="utf-8")
        flag = {"config": "--config", "stoplist": "--stoplist"}.get(case, "--lemmas")
        if case == "lemma-line-prepare-manifest":
            args = ["prepare-manifest", "--source-manifest", str(toy_manifest),
                    "--out-manifest", str(tmp_path / "balanced.tsv")]
        else:
            args = ["measure", "--manifest", str(toy_manifest), "--out", str(tmp_path / "out")]
        rc = main(args + [flag, str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and str(bad) in err
        if case.startswith("lemma-line"):
            assert f"{bad}:2: expected surface<TAB>lemma" in err
        assert "Traceback" not in err

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

    @staticmethod
    def assert_refused(rc, err, out: Path, *phrases):
        """Exit 1 with an error: line naming ``phrases``, no traceback, and
        no result file (the measure cache is not one)."""
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert rc == 1 and errors, err
        assert all(phrase in errors[0] for phrase in phrases), errors[0]
        assert "Traceback" not in err
        assert not [p.name for p in out.glob("*") if p.name != "cache"]

    @pytest.mark.parametrize("command, need", [("classify", 2), ("relevance", 1)])
    def test_too_few_decorrelated_columns_are_refused(self, command, need, toy_manifest,
                                                      tmp_path, capsys):
        # at --rho-max 0 every LS column that tracks its word's frequency at all goes
        rc = main([command, "--manifest", str(toy_manifest), "--strategy", "LS",
                   "--rho-max", "0", "--out", str(tmp_path)])
        self.assert_refused(rc, capsys.readouterr().err, tmp_path,
                            "--rho-max 0.0 leaves", f"needs at least {need}")

    @pytest.mark.parametrize("command", ["classify", "relevance"])
    def test_naive_bayes_on_a_class_of_one_is_refused(self, command, toy_manifest,
                                                      tmp_path, capsys):
        entries = load_manifest(toy_manifest).entries
        kept = [e for e in entries if e.label == "informative"][:3]
        kept += [e for e in entries if e.label == "imaginative"][:1]
        manifest = tmp_path / "lone.tsv"
        manifest.write_text("".join(f"{e.doc_id}\t{e.label}\t{e.path}\n" for e in kept))
        out = tmp_path / "out"
        args = [command, "--manifest", str(manifest), "--strategy", "GS", "--out", str(out)]
        rc = main(args + ["--classifier", "nb"])
        self.assert_refused(rc, capsys.readouterr().err, out, "naive Bayes", "'imaginative'")
        assert main(args + ["--classifier", "knn"]) == 0

    @pytest.mark.parametrize("case", ["stoplist", "one-letter-words"])
    def test_a_frequency_baseline_without_columns_is_refused(self, case, toy_manifest,
                                                             tmp_path, capsys):
        manifest, extra, phrase = toy_manifest, [], "stopword-frequency"
        if case == "stoplist":
            stoplist = tmp_path / "stoplist.txt"
            stoplist.write_text("zyzzyva\nquokka\n")
            extra = ["--stoplist", str(stoplist)]
        else:
            manifest, phrase = tmp_path / "manifest.tsv", "char-bigrams"
            rows = []
            for i, label in enumerate(["informative", "imaginative"] * 2):
                (tmp_path / f"d{i}.txt").write_text("a b c i o u x y z " * (i + 3))
                rows.append(f"d{i}\t{label}\td{i}.txt\n")
            manifest.write_text("".join(rows))
        out = tmp_path / "out"
        rc = main(["baselines", "--manifest", str(manifest), "--out", str(out)] + extra)
        self.assert_refused(rc, capsys.readouterr().err, out, phrase, "has no columns")


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

    def test_a_text_of_stopwords_alone_has_preprocessed_length_zero(self, tmp_path):
        src = self.build_source(tmp_path, [
            ("informative", 30), ("informative", 20), ("informative", 10),
            ("imaginative", 25), ("imaginative", 15), ("imaginative", 2), ("imaginative", 40),
        ])
        (tmp_path / "ima04.txt").write_text("the and of a to")  # 5 raw tokens, 0 content
        for metric, dropped in (("raw", "ima05"), ("preprocessed", "ima04")):
            out = tmp_path / f"balanced_{metric}.tsv"
            assert main(["prepare-manifest", "--source-manifest", str(src),
                         "--out-manifest", str(out), "--length-metric", metric]) == 0
            ids = [e.doc_id for e in load_manifest(out).entries]
            assert len(ids) == 6 and dropped not in ids, metric


class TestFeatureCellIntegrity:
    def test_batched_cells_match_per_source_recomputation(self, tmp_path):
        """Every local feature cell equals a from-scratch single-source call."""
        from prosenet.corpus import load_lemma_dictionary, preprocess, word_frequencies
        from prosenet.features import select_word_list
        from prosenet.graph import build_network
        from prosenet.pipeline import build_feature_matrix
        from oracles import accessibility, symmetry

        manifest_path = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=260)
        manifest = load_manifest(manifest_path)
        cfg = RunConfig(manifest=str(manifest_path), strategy="LSS",
                        out=str(tmp_path / "out"), word_list_size=8,
                        rho_max=10.0)  # keep every column for the comparison
        fm = build_feature_matrix(cfg, manifest, tmp_path / "out" / "cache")

        dictionary = load_lemma_dictionary()
        docs = {
            e.doc_id: preprocess(e.path.read_text(), dictionary, True, e.doc_id, e.label)
            for e in manifest.entries
        }
        words = select_word_list([word_frequencies(d) for d in docs.values()], 8, 0.9)

        checked = 0
        for row, doc_id in enumerate(fm.doc_ids):
            net = build_network(docs[doc_id])
            index = {label: i for i, label in enumerate(net.node_labels)}
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

    def test_manifest_order_changes_no_output(self, tmp_path):
        manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=3, tokens=200)
        lines = manifest.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "corpus" / "shuffled.tsv"
        order = np.random.default_rng(1).permutation(len(lines))
        shuffled.write_text("".join(lines[i] for i in order))
        assert shuffled.read_text() != manifest.read_text()

        def run(path, out):
            for strategy in pipeline.STRATEGIES:
                cmd_classify(RunConfig(manifest=str(path), strategy=strategy, word_list_size=10,
                                       out=str(out)))
            cmd_relevance(RunConfig(manifest=str(path), word_list_size=10, phi=3, out=str(out)))
            cmd_baselines(RunConfig(manifest=str(path), out=str(out)))
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*.*"))}
            for name in [name for name in files if name.endswith(".json")]:
                report = json.loads(files[name])
                for field in ("out", "manifest", "jobs"):  # the fields that name the run
                    del report["config"][field]
                files[name] = report
            return files

        original = run(manifest, tmp_path / "original")
        reordered = run(shuffled, tmp_path / "reordered")
        assert len(original) == 25  # 11 reports, 9 classify, 3 relevance and 2 LSA CSVs
        assert [name for name in original if original[name] != reordered.get(name)] == []

    def test_gs_and_ls_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """Cold GS and LS ``measure`` and ``classify --classifier all``, each
        in a fresh interpreter under 1 and under 2 OpenBLAS threads, write the
        same bytes, cache entries included: every ``Ag`` comes from
        ``walks.expm``, which calls no BLAS. On these networks (about 200
        nodes) a LAPACK eigensolver's last bits follow the thread count."""
        write_corpus(tmp_path / "corpus", 2, 600, 5)
        manifest = str(tmp_path / "corpus" / "manifest.tsv")
        commands = [[command, "--manifest", manifest, "--strategy", strategy, "--out", strategy]
                    + extra for strategy in ("GS", "LS")
                    for command, extra in (("measure", []), ("classify", ["--classifier", "all"]))]
        script = f"from prosenet.cli import main\nfor args in {commands!r}:\n    assert main(args) == 0\n"
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in (1, 2):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
            subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, check=True,
                           capture_output=True)
            outputs.append({p.relative_to(cwd): p.read_bytes()
                            for p in sorted(cwd.rglob("*")) if p.is_file()})
        assert outputs[0].keys() == outputs[1].keys()
        assert len([p for p in outputs[0] if p.parts[1] == "measures"]) == 8
        assert [str(p) for p in outputs[0] if outputs[0][p] != outputs[1][p]] == []
