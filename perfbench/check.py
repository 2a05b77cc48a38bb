"""Output checks: structural invariants of every command's files, and a
comparison of a fixed anchor corpus's outputs with stored reference values.

The workloads draw a new corpus per seed, so their numbers cannot be stored
ahead of time; each of their outputs is checked for shape and internal
consistency, and for byte-identity across repeats. The anchor corpus is
fixed, so its outputs are compared value by value with ``reference.json``:
floats within a relative tolerance, and accuracies, confusion matrices,
selected features and relevance order exactly.

    python perfbench/check.py --anchor DIR            # run the anchor, write DIR/summary.json
    python perfbench/check.py --anchor DIR --record   # rewrite reference.json

Record only when a change alters prosenet's outputs on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
ABS_TOL = 1e-12
# floats that must match exactly: accuracies are ratios of counts. Integers
# and strings (confusion counts, selected features, the relevance order)
# always compare exactly.
EXACT_FIELDS = {"accuracy"}

ANCHOR_SHAPE = {"docs_per_class": 3, "tokens": 300, "seed": 0}
ANCHOR_COMMANDS = [
    ["measure", "--strategy", "GS"],
    ["classify", "--strategy", "GS", "--classifier", "all"],
    ["classify", "--strategy", "LS", "--classifier", "all"],
    ["classify", "--strategy", "LSS", "--classifier", "all"],
    ["relevance", "--strategy", "LSS", "--phi", "8"],
    ["baselines"],
]


# ---------------------------------------------------------------------------
# parsing and digests
# ---------------------------------------------------------------------------

def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_csv(path: Path) -> tuple[list[str], list[list]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [[_cell(c) for c in line.split(",")] for line in lines[1:]]


def output_files(out_dir: Path) -> list[Path]:
    """Every result file a command writes (the cache is not a result)."""
    return sorted(
        [p for p in out_dir.glob("*") if p.suffix in (".csv", ".json")]
        + list(out_dir.glob("measures/*.csv"))
    )


RUN_FIELDS = ("jobs", "manifest", "out")  # config fields that name the run, not the result


def _without_run_fields(data: dict) -> dict:
    for name in RUN_FIELDS:
        data.get("config", {}).pop(name, None)
    return data


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each output; reports are hashed without their RUN_FIELDS."""
    result = {}
    for path in output_files(out_dir):
        blob = path.read_bytes()
        if path.suffix == ".json":
            blob = json.dumps(_without_run_fields(json.loads(blob)), sort_keys=True).encode()
        result[str(path.relative_to(out_dir))] = hashlib.sha256(blob).hexdigest()
    return result


# ---------------------------------------------------------------------------
# structural invariants of one command's outputs
# ---------------------------------------------------------------------------

def _report_problems(path: Path, n_docs: int) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    data = json.loads(path.read_text(encoding="utf-8"))
    confusion = data["confusion"]
    total = sum(sum(row.values()) for row in confusion.values())
    hits = sum(confusion[label].get(label, 0) for label in confusion)
    problems = []
    if data["n"] != n_docs or total != n_docs:
        problems.append(f"{path.name}: n={data['n']} confusion total={total}, want {n_docs}")
    if data["accuracy"] != hits / n_docs:
        problems.append(f"{path.name}: accuracy {data['accuracy']} != {hits}/{n_docs}")
    if not 0.0 <= data["p_value"] <= 1.0:
        problems.append(f"{path.name}: p_value {data['p_value']} outside [0, 1]")
    if not data["features"]:
        problems.append(f"{path.name}: no features")
    return problems


def _table_problems(path: Path, n_rows: int | None, first_numeric: int,
                    allow_missing: bool = False) -> list[str]:
    """Row count, rectangular shape, and finite numbers from ``first_numeric``
    on (empty cells too, where missing values are allowed)."""
    if not path.is_file():
        return [f"{path.name} missing"]
    header, rows = read_csv(path)
    problems = []
    if n_rows is not None and len(rows) != n_rows:
        problems.append(f"{path.name}: {len(rows)} rows, want {n_rows}")
    for row in rows:
        if len(row) != len(header):
            problems.append(f"{path.name}: ragged row {row[:2]}")
            break
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   or allow_missing and v == "" for v in row[first_numeric:]):
            problems.append(f"{path.name}: non-finite cell in row {row[:2]}")
            break
    return problems


def command_problems(out_dir: Path, command: list[str], doc_ids: list[str]) -> list[str]:
    """What is wrong with the files ``command`` wrote; empty when all is well."""
    n = len(doc_ids)
    kind = command[0]
    strategy = command[command.index("--strategy") + 1] if "--strategy" in command else ""
    problems: list[str] = []
    if kind == "measure":
        for doc_id in doc_ids:
            path = out_dir / "measures" / f"{doc_id}.csv"
            problems += _table_problems(path, None, 3, allow_missing=True)
    elif kind == "classify":
        features = out_dir / f"features_{strategy}.csv"
        problems += _table_problems(features, n, 2)
        problems += _table_problems(out_dir / f"projection_{strategy}.csv", n, 2)
        problems += _table_problems(out_dir / f"ranking_{strategy}.csv", None, 1)
        for name in ("knn", "cart", "nb"):
            report = out_dir / f"report_{strategy}_{name}.json"
            problems += _report_problems(report, n)
            if report.is_file() and features.is_file():
                chosen = json.loads(report.read_text(encoding="utf-8"))["features"]
                if chosen != read_csv(features)[0][2:]:
                    problems.append(f"{report.name}: features differ from {features.name}")
    elif kind == "relevance":
        index = out_dir / f"relevance_index_{strategy}.csv"
        ledger = out_dir / f"relevance_ledger_{strategy}.csv"
        problems += _table_problems(index, None, 1)
        if not problems:
            phi = len(read_csv(index)[1])
            problems += _table_problems(ledger, 2**phi - 1, 3)
            problems += _table_problems(out_dir / f"relevance_omega_{strategy}.csv",
                                        2 ** (phi - 1), 0)
    elif kind == "baselines":
        for name in ("baseline_stopwords.json", "baseline_bigrams.json"):
            problems += _report_problems(out_dir / name, n)
        problems += _table_problems(out_dir / "lsa_features.csv", n, 2)
        problems += _table_problems(out_dir / "lsa_projection.csv", n, 2)
    else:
        problems.append(f"no check for command {kind!r}")
    return problems


# ---------------------------------------------------------------------------
# value comparison against stored references
# ---------------------------------------------------------------------------

def summarise(out_dir: Path) -> dict:
    """Comparable form of every output file.

    Measure CSVs shrink to (count, sum, sum of squares) per measure; reports
    drop their RUN_FIELDS.
    """
    summary: dict = {}
    for path in output_files(out_dir):
        key = str(path.relative_to(out_dir))
        if path.parent.name == "measures":
            header, rows = read_csv(path)
            per_measure: dict = {}
            for _, _, measure, value in rows:
                if value != "":
                    acc = per_measure.setdefault(measure, [0, 0.0, 0.0])
                    acc[0] += 1
                    acc[1] += value
                    acc[2] += value * value
            summary[key] = per_measure
        elif path.suffix == ".json":
            summary[key] = _without_run_fields(json.loads(path.read_text(encoding="utf-8")))
        else:
            header, rows = read_csv(path)
            summary[key] = {"header": header, "rows": rows}
    return summary


def _tables_differ(ref: dict, got: dict, where: str) -> list[str]:
    if ref["header"] != got["header"] or len(ref["rows"]) != len(got["rows"]):
        return [f"{where}: header or row count differs"]
    exact = [name in EXACT_FIELDS for name in ref["header"]]
    for i, (a, b) in enumerate(zip(ref["rows"], got["rows"])):
        for j, (x, y) in enumerate(zip(a, b)):
            if not _equal(x, y, exact[j] if j < len(exact) else False):
                return [f"{where} row {i + 1} column {ref['header'][j]}: {y!r} != {x!r}"]
    return []


def _equal(x, y, exact: bool) -> bool:
    if isinstance(x, float) or isinstance(y, float):
        if not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
            return False
        return x == y if exact else math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return x == y


def compare(ref, got, where: str = "", exact: bool = False) -> list[str]:
    """Differences between a stored summary and a fresh one (first per file)."""
    if isinstance(ref, dict) and set(ref) == {"header", "rows"}:
        return _tables_differ(ref, got, where) if isinstance(got, dict) and set(got) == set(ref) \
            else [f"{where}: not a table"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            missing = sorted(set(ref) ^ set(got)) if isinstance(got, dict) else "type"
            return [f"{where}: keys differ ({missing})"]
        problems = []
        for key in sorted(ref):
            problems += compare(ref[key], got[key], f"{where}/{key}" if where else key,
                                exact or key in EXACT_FIELDS)
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: length differs"]
        for i, (a, b) in enumerate(zip(ref, got)):
            problems = compare(a, b, f"{where}[{i}]", exact)
            if problems:
                return problems
        return []
    return [] if _equal(ref, got, exact) else [f"{where}: {got!r} != {ref!r}"]


# ---------------------------------------------------------------------------
# the anchor corpus
# ---------------------------------------------------------------------------

def run_anchor(work: Path) -> dict:
    """Generate the anchor corpus, run every command in this process, summarise."""
    from corpus_gen import write_corpus
    from prosenet.cli import main as cli_main

    manifest = write_corpus(work / "corpus", ANCHOR_SHAPE["docs_per_class"],
                            ANCHOR_SHAPE["tokens"], ANCHOR_SHAPE["seed"])
    out = work / "out"
    for command in ANCHOR_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(command + ["--manifest", str(manifest), "--out", str(out)])
        if code != 0:
            raise SystemExit(f"anchor command {' '.join(command)} exited {code}")
    return summarise(out)


def main() -> int:
    parser = argparse.ArgumentParser(description="run the anchor corpus and summarise it")
    parser.add_argument("--anchor", required=True, help="scratch directory for the anchor run")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()
    summary = run_anchor(Path(args.anchor))
    if args.record:
        REFERENCE.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    else:
        (Path(args.anchor) / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
