"""The benchmark's fixed anchor corpus, run through every command, must still
match the stored reference values (``perfbench/reference.json``)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402


def test_anchor_outputs_match_reference(tmp_path):
    reference = json.loads(check.REFERENCE.read_text(encoding="utf-8"))
    summary = check.run_anchor(tmp_path)
    assert check.compare(reference, summary) == []
