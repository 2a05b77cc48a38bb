"""Tests of the benchmark's own parts: corpus generator, span arithmetic and
output checker. They do not run prosenet."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import check  # noqa: E402
import tracer  # noqa: E402
from corpus_gen import Vocabulary, write_corpus  # noqa: E402


def _corpus_bytes(base: Path, seed: int, vocab: Vocabulary) -> dict[str, bytes]:
    write_corpus(base, 2, 300, seed, vocab)
    return {str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    vocab = Vocabulary()
    first = _corpus_bytes(tmp_path / "a", 5, vocab)
    again = _corpus_bytes(tmp_path / "b", 5, Vocabulary())
    other = _corpus_bytes(tmp_path / "c", 6, vocab)
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[k] != other[k] for k in first if k.startswith("texts/"))
    assert len(first["manifest.tsv"].decode().splitlines()) == 4


def test_generator_classes_differ_in_stopword_rate(tmp_path):
    vocab = Vocabulary()
    manifest = write_corpus(tmp_path, 1, 4000, 3, vocab)
    stops = set(vocab.stopwords)
    rates = {}
    for line in manifest.read_text().splitlines():
        _, label, rel = line.split("\t")
        words = (tmp_path / rel).read_text().lower().replace(".", " ").split()
        assert len(words) == 4000
        rates[label] = sum(w in stops for w in words) / len(words)
    assert rates["imaginative"] > rates["informative"] + 0.05


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: cover 5) and
    # [8, 9]; the first child has a grandchild [2, 3]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["a", 3.0, 6.0, 0],
        ["b", 8.0, 9.0, 0],
        ["root", 20.0, 21.0, -1],
    ]
    times = tracer.self_times(spans)
    assert times == {"root": 10.0 - 6.0 + 1.0, "a": (3.0 - 1.0) + 3.0, "leaf": 1.0, "b": 1.0}
    assert tracer.root_coverage(spans) == 11.0
    assert tracer.covered_time([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_recorder_nests_spans_and_counts():
    recorder = tracer.Recorder()
    inner = recorder.wrap(lambda x: x * 2, "inner", tracer._calls("inner_calls"))
    outer = recorder.wrap(lambda x: inner(x) + inner(x), lambda x: f"outer{x}")
    assert outer(3) == 12
    names = [(name, parent) for name, _, _, parent in recorder.spans]
    assert names == [("outer3", -1), ("inner", 0), ("inner", 0)]
    assert recorder.counts["inner_calls"] == 2


def _write_classify_outputs(out: Path, accuracy: float) -> list[str]:
    doc_ids = ["ima000", "inf000", "ima001", "inf001"]
    labels = ["imaginative", "informative"] * 2
    rows = "".join(f"{d},{lab},0.5,1.5\n" for d, lab in zip(doc_ids, labels))
    (out / "features_GS.csv").write_text("doc_id,label,f1,f2\n" + rows)
    (out / "projection_GS.csv").write_text("doc_id,label,pc1,pc2\n" + rows)
    (out / "ranking_GS.csv").write_text("feature,information_gain\nf1,0.5\nf2,0.25\n")
    for name in ("knn", "cart", "nb"):
        report = {
            "accuracy": accuracy,
            "confusion": {"imaginative": {"imaginative": 2, "informative": 0},
                          "informative": {"imaginative": 1, "informative": 1}},
            "features": ["f1", "f2"], "n": 4, "p_value": 0.3125,
            "config": {"jobs": 2, "out": str(out)},
        }
        (out / f"report_GS_{name}.json").write_text(json.dumps(report))
    return doc_ids


def test_checker_rejects_a_perturbed_report(tmp_path):
    command = ["classify", "--strategy", "GS", "--classifier", "all"]
    doc_ids = _write_classify_outputs(tmp_path, 0.75)
    assert check.command_problems(tmp_path, command, doc_ids) == []
    reference = check.summarise(tmp_path)
    assert check.compare(reference, check.summarise(tmp_path)) == []

    _write_classify_outputs(tmp_path, 0.5)  # the confusion matrix says 3/4
    assert any("accuracy" in p for p in check.command_problems(tmp_path, command, doc_ids))
    assert any("accuracy" in p for p in check.compare(reference, check.summarise(tmp_path)))


def test_compare_tolerates_rounding_but_not_exact_fields():
    reference = {"report.json": {"accuracy": 0.75, "p_value": 0.3125},
                 "t.csv": {"header": ["feature", "r_index", "value"],
                           "rows": [["a", 3, 1.0]]}}
    close = json.loads(json.dumps(reference))
    close["report.json"]["p_value"] *= 1 + 1e-12
    close["t.csv"]["rows"][0][2] = 1.0 + 1e-12
    assert check.compare(reference, close) == []
    for path, value in ((("report.json", "accuracy"), 0.75 + 1e-15),
                        (("report.json", "p_value"), 0.3126)):
        bad = json.loads(json.dumps(reference))
        bad[path[0]][path[1]] = value
        assert check.compare(reference, bad)
    bad = json.loads(json.dumps(reference))
    bad["t.csv"]["rows"][0][1] = 4
    assert check.compare(reference, bad)


def test_digests_ignore_the_fields_that_name_the_run(tmp_path):
    _write_classify_outputs(tmp_path, 0.75)
    before = check.digests(tmp_path)
    for path in tmp_path.glob("report_*.json"):
        data = json.loads(path.read_text())
        data["config"].update(jobs=1, out="elsewhere")
        path.write_text(json.dumps(data, indent=2))
    assert check.digests(tmp_path) == before
