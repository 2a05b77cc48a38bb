"""Run the benchmark over seeds 1 to 10 and report how steady it is.

For each workload in BENCHMARK.json and each end-to-end metric: the median
over the seeds, the
quartiles, and the spread (interquartile distance over the median) next to
the metric's bound from BENCHMARK.json. With ``--record`` it also makes one
traced run per workload and writes everything, with provenance, to a
trajectory file (``perfbench/trajectory/BENCH_<n>.json``), the per-commit
record later changes quote.

    python3 perfbench/sweep.py
    python3 perfbench/sweep.py --record perfbench/trajectory/BENCH_1.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(detail line, result line) of one benchmark run."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed: {detail['problems'][:5]}")
    return detail, result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", help="trajectory file to write")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record: dict = {"run_seconds": BENCHMARK["run_seconds"], "seeds": SEEDS, "workloads": {}}
    steady = True
    for name in (w["name"] for w in BENCHMARK["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in SEEDS:
            detail, result = run(name, seed, 0)
            record["provenance"] = detail["provenance"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        entry = {"end_to_end": {}}
        for metric, series in values.items():
            stats = spread(series)
            stats["unit"] = units[metric]
            entry["end_to_end"][metric] = stats
            ok = metric == "setup_s" or stats["spread"] < bounds[metric] / 3
            steady &= ok
            print(f"{name:16s} {metric:12s} median {stats['median']:10.4f} {units[metric]:3s} "
                  f"spread {stats['spread']:.4f} bound {bounds[metric]} {'ok' if ok else 'WIDE'}",
                  flush=True)
        if args.record:
            _, traced = run(name, SEEDS[0], 1)
            entry["per_layer"] = {k: [v["value"], v["unit"]] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
