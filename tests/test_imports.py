"""Start-up cost: no command imports scipy, neither one served from the
cache nor one that measures networks; prepare-manifest imports neither numpy
nor the pipeline; a run that starts no process pool imports no
multiprocessing; no command imports hashlib, which loads OpenSSL, and none at
one job on a balanced manifest imports logging; and every name the
benchmark's tracer wraps still resolves."""

import importlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_toy_corpus
from prosenet.cli import main
from prosenet.corpus import load_manifest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402


POOL = ("concurrent.futures.process", "multiprocessing")
OPENSSL = ("hashlib", "_hashlib")


def modules_after(code: str, *prefixes: str) -> list[str]:
    """The modules named by, or inside, any of ``prefixes`` that a fresh
    interpreter holds after running ``code``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = code + ("\nimport json, sys\n"
                     f"prefixes = {prefixes!r}\n"
                     "print(json.dumps(sorted(m for m in sys.modules\n"
                     "                        if any(m == p or m.startswith(p + '.') for p in prefixes))))")
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def cli_code(args: list[str]) -> str:
    return f"from prosenet.cli import main\nassert main({args!r}) == 0"


def test_importing_the_cli_leaves_scipy_out():
    assert modules_after("import prosenet.cli", "scipy") == []


def test_classify_served_from_the_cache_leaves_scipy_out(tmp_path):
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=3, tokens=240)
    args = ["classify", "--manifest", str(manifest), "--strategy", "LS",
            "--word-list-size", "10", "--out", str(tmp_path / "out")]
    assert main(args) == 0  # fills the cache
    stamps = sorted(p.stat().st_mtime_ns for p in (tmp_path / "out" / "cache").iterdir())
    assert modules_after(cli_code(args), "scipy") == []
    assert sorted(p.stat().st_mtime_ns for p in (tmp_path / "out" / "cache").iterdir()) == stamps


def test_cold_measure_leaves_scipy_out(tmp_path):
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=240)
    for strategy in ("GS", "LSS"):
        out = tmp_path / strategy
        args = ["measure", "--manifest", str(manifest), "--strategy", strategy,
                "--word-list-size", "10", "--out", str(out)]
        assert modules_after(cli_code(args), "scipy") == []
        assert len(list((out / "cache").iterdir())) == 4  # every document measured


@pytest.mark.parametrize("options", [["--length-metric", "raw"],
                                     ["--length-metric", "preprocessed"],
                                     ["--strip-pos", "--texts-dir", "texts"]],
                         ids=["raw", "preprocessed", "strip-pos"])
def test_prepare_manifest_leaves_numpy_and_the_pipeline_out(tmp_path, options):
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=60)
    options = [str(tmp_path / o) if o == "texts" else o for o in options]
    args = ["prepare-manifest", "--source-manifest", str(manifest),
            "--out-manifest", str(tmp_path / "balanced.tsv"), *options]
    assert modules_after(cli_code(args), "numpy", "prosenet.pipeline") == []
    assert len(load_manifest(tmp_path / "balanced.tsv")) == 4


def test_cold_measure_at_one_job_leaves_the_pool_out(tmp_path):
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=240)
    args = ["measure", "--manifest", str(manifest), "--strategy", "LSS", "--jobs", "1",
            "--word-list-size", "10", "--out", str(tmp_path / "out")]
    assert modules_after(cli_code(args), *POOL) == []
    assert len(list((tmp_path / "out" / "cache").iterdir())) == 4  # every document measured


def test_classify_served_from_the_cache_leaves_the_pool_out(tmp_path):
    """Even at --jobs 2: a pool starts only for documents left to measure."""
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=3, tokens=240)
    args = ["classify", "--manifest", str(manifest), "--strategy", "LS",
            "--word-list-size", "10", "--out", str(tmp_path / "out")]
    assert main(args) == 0  # fills the cache
    assert modules_after(cli_code(args + ["--jobs", "2"]), *POOL) == []


def test_no_command_at_one_job_loads_openssl_or_logging(tmp_path):
    """SHA-256 comes from the interpreter's built-in module, and the one
    logging call waits for an unbalanced manifest."""
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=240)
    common = ["--manifest", str(manifest), "--word-list-size", "10", "--jobs", "1"]
    commands = [
        ["prepare-manifest", "--source-manifest", str(manifest),
         "--out-manifest", str(tmp_path / "balanced.tsv")],
        ["measure", "--strategy", "GS", "--out", str(tmp_path / "gs"), *common],
        ["measure", "--strategy", "LSS", "--out", str(tmp_path / "lss"), *common],
        # served from the cache the LSS measure filled
        ["classify", "--strategy", "LSS", "--out", str(tmp_path / "lss"), *common],
        ["relevance", "--strategy", "LSS", "--phi", "4", "--out", str(tmp_path / "lss"), *common],
        ["baselines", "--out", str(tmp_path / "base"), *common],
    ]
    code = "\n".join(cli_code(args) for args in commands)
    assert modules_after(code, *OPENSSL, "logging") == []
    assert len(list((tmp_path / "lss" / "cache").iterdir())) == 4  # one entry per document


def test_a_pooled_run_leaves_openssl_out(tmp_path):
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=240)
    args = ["classify", "--manifest", str(manifest), "--strategy", "GS", "--jobs", "2",
            "--word-list-size", "10", "--out", str(tmp_path / "out")]
    assert modules_after(cli_code(args), *OPENSSL) == []


def test_without_the_built_in_sha256_hashlib_writes_the_same_entries(tmp_path):
    """The fallback gives the same cache keys (the entry names) and checksums."""
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=1, tokens=120)
    outs = {}
    for name, block in (("built_in", ""), ("hashlib", "sys.modules['_sha2'] = None\n"
                                                       "sys.modules['_sha256'] = None\n")):
        outs[name] = tmp_path / name
        args = ["measure", "--manifest", str(manifest), "--strategy", "LSS",
                "--word-list-size", "10", "--jobs", "1", "--out", str(outs[name])]
        loaded = modules_after("import sys\n" + block + cli_code(args), *OPENSSL)
        assert ("hashlib" in loaded) == (name == "hashlib")
    entries = {name: {p.name: p.read_bytes() for p in (out / "cache").iterdir()}
               for name, out in outs.items()}
    assert len(entries["built_in"]) == 2
    assert entries["hashlib"] == entries["built_in"]


def test_an_unbalanced_manifest_still_logs_a_warning(tmp_path, caplog):
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=60)
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="prosenet.corpus"):
        assert len(load_manifest(manifest)) == 3
    assert f"manifest {manifest} is unbalanced" in caplog.text


def test_every_traced_name_resolves():
    for module, attr, *_ in tracer.PATCHES:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
