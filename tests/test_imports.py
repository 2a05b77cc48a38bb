"""Start-up cost: no command imports scipy, neither one served from the
cache nor one that measures networks, and every name the benchmark's tracer
wraps still resolves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import write_toy_corpus
from prosenet.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = code + ("\nimport json, sys\n"
                     "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_scipy_out():
    assert scipy_modules_after("import prosenet.cli") == []


def test_classify_served_from_the_cache_leaves_scipy_out(tmp_path):
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=3, tokens=240)
    args = ["classify", "--manifest", str(manifest), "--strategy", "LS",
            "--word-list-size", "10", "--out", str(tmp_path / "out")]
    assert main(args) == 0  # fills the cache
    stamps = sorted(p.stat().st_mtime_ns for p in (tmp_path / "out" / "cache").iterdir())
    code = f"from prosenet.cli import main\nassert main({args!r}) == 0"
    assert scipy_modules_after(code) == []
    assert sorted(p.stat().st_mtime_ns for p in (tmp_path / "out" / "cache").iterdir()) == stamps


def test_cold_measure_leaves_scipy_out(tmp_path):
    manifest = write_toy_corpus(tmp_path / "corpus", n_per_class=2, tokens=240)
    for strategy in ("GS", "LSS"):
        out = tmp_path / strategy
        args = ["measure", "--manifest", str(manifest), "--strategy", strategy,
                "--word-list-size", "10", "--out", str(out)]
        code = f"from prosenet.cli import main\nassert main({args!r}) == 0"
        assert scipy_modules_after(code) == []
        assert len(list((out / "cache").iterdir())) == 4  # every document measured


def test_every_traced_name_resolves():
    for module, attr, *_ in tracer.PATCHES:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
