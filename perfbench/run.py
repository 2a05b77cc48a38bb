"""prosenet benchmark: the CLI run the way users run it, on seeded synthetic text.

    python3 perfbench/run.py --workload strategies_cold --seed 1 --seconds 30 --trace 0

Each command runs as ``python -m prosenet.cli ...`` in a child process of
its own (closed loop: the next command starts when the previous one has
exited), with BLAS pinned to one thread. Set-up writes the corpus and
balances it with ``prosenet prepare-manifest``, the step a user runs before
the others. ``--trace 0`` repeats the workload's command sequence until
``--seconds`` have passed (at least ``MIN_ITERATIONS`` times) and reports
medians over the repeats. ``--trace 1`` runs the sequence once untraced, then
``OVERHEAD_PAIRS`` pairs of an untraced and a traced pass at ``--jobs 1``
(traced through ``tracer.py``) in alternating order; it reports the medians
of the per-layer self times and counts over the traced passes, and of the
traced-minus-untraced wall time over the pairs.

Every command's outputs are checked (``check.py``): structural invariants,
byte-identity across repeats and across ``--jobs``, and, on the fixed anchor
corpus, equality with stored reference values. The result is the last line
of standard output; the line before it has every figure by name and unit
plus the provenance of the run. Without ``src/prosenet`` beside this
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
from corpus_gen import Vocabulary, write_corpus  # noqa: E402

CLASSIFY = ["--classifier", "all"]
WORKLOADS = {
    # the paper's experiment: three strategies, cold cache, process pool
    "strategies_cold": {
        "docs_per_class": 4, "tokens": 900, "jobs": 2,
        "commands": [["classify", "--strategy", s] + CLASSIFY for s in ("GS", "LS", "LSS")],
    },
    # every measurement a cache hit: features, learning and baselines do the work
    "learn_warm": {
        "docs_per_class": 20, "tokens": 400, "jobs": 1,
        "warm": (["measure", "--strategy", "LSS"], 2),
        "commands": [["classify", "--strategy", "LSS"] + CLASSIFY,
                     ["relevance", "--strategy", "LSS", "--phi", "15"],
                     ["baselines"]],
    },
}
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
OVERHEAD_PAIRS = 3
COMMAND_TIMEOUT_S = 150
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

COMMAND_METRICS = ["classify_GS_s", "classify_LS_s", "classify_LSS_s",
                   "relevance_LSS_s", "baselines_s"]
SPAN_METRICS = [
    "corpus.preprocess", "graph.build_network", "graph.bfs",
    "metrics.betweenness", "metrics.closeness", "metrics.eccentricity", "metrics.clustering",
    "metrics.neighborhood", "metrics.eigenvector", "metrics.pagerank", "metrics.communities",
    "walks.accessibility", "walks.backbone", "walks.merged", "walks.ag", "linalg.expm",
    "features.assemble", "features.decorrelation", "features.rank",
    "learn.loo_knn", "learn.loo_cart", "learn.loo_nb", "learn.relevance", "learn.pca",
    "learn.baselines", "pipeline.write",
]
COUNT_METRICS = [
    "corpus.preprocess_calls", "corpus.tokens", "graph.bfs_calls", "graph.nodes",
    "graph.edges", "walks.sources", "linalg.expm_calls", "features.rank_calls",
    "features.columns_in", "features.columns_kept", "learn.relevance_subsets",
    "pipeline.cache_hits", "pipeline.cache_misses", "pipeline.bytes_written",
]


def command_metric(command: list[str]) -> str:
    strategy = command[command.index("--strategy") + 1] if "--strategy" in command else ""
    return "_".join(filter(None, [command[0], strategy, "s"]))


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

@dataclass
class CommandRun:
    seconds: float
    peak_rss_mb: float
    returncode: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def run_child(argv: list[str], log: Path) -> CommandRun:
    """Run ``argv`` to completion; time it and take its tree's peak RSS from wait4.

    The child leads a session of its own, so a timeout kills its pool workers too.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, 9))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(seconds, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_argv(command: list[str], manifest: Path, out: Path, jobs: int,
             spans: Path | None = None) -> list[str]:
    tail = command + ["--manifest", str(manifest), "--out", str(out), "--jobs", str(jobs)]
    if spans is None:
        return [sys.executable, "-m", "prosenet.cli"] + tail
    return [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--"] + tail


@dataclass
class Pass:
    """One run of a workload's command sequence."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    command_s: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # one spans file's content per command


def run_pass(commands: list[list[str]], manifest: Path, doc_ids: list[str] | None, out: Path,
             jobs: int, traced: bool = False) -> Pass:
    """Run ``commands`` in order into ``out``; check each one's files unless
    ``doc_ids`` is None, and take digests of the outputs at the end."""
    result = Pass()
    out.mkdir(parents=True, exist_ok=True)
    for i, command in enumerate(commands):
        spans = out.parent / f"{out.name}-spans{i}.json" if traced else None
        log = out.parent / f"{out.name}-{i}.log"
        run = run_child(cli_argv(command, manifest, out, jobs, spans), log)
        result.attempted += 1
        result.wall_s += run.seconds
        result.peak_rss_mb = max(result.peak_rss_mb, run.peak_rss_mb)
        result.command_s[command_metric(command)] = run.seconds
        problems = [f"exited {run.returncode}"] if run.returncode != 0 else []
        if not problems and doc_ids is not None:
            try:
                problems = check.command_problems(out, command, doc_ids)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"malformed output: {exc!r}"]
        result.failed += bool(problems)
        result.problems += [f"{' '.join(command)}: {p}" for p in problems]
        if spans is not None and not problems:
            result.spans.append(json.loads(spans.read_text(encoding="utf-8")))
    try:
        result.digests = check.digests(out)
    except ValueError as exc:
        result.failed += 1
        result.problems.append(f"malformed output: {exc!r}")
    return result


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

def manifest_ids(manifest: Path) -> list[str]:
    return sorted(line.split("\t")[0] for line in manifest.read_text().splitlines())


def setup(spec: dict, seed: int, work: Path, times: list[float],
          checks: Pass) -> tuple[Path, list[str]]:
    """Set up the inputs SETUP_REPEATS times over, adding each time (checks
    excluded) to ``times``: write the corpus and balance it with
    ``prepare-manifest``, and for a warm workload fill a cache, in a directory
    of its own each time. Return the balanced manifest and the document ids;
    add the set-up's checks to ``checks``. The corpus is balanced already, so
    every document must be kept; the first fill's outputs are checked and the
    others must match them byte for byte."""
    first_fill: dict = {}
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        written = write_corpus(work / "corpus", spec["docs_per_class"], spec["tokens"], seed,
                               Vocabulary())
        manifest = work / "corpus" / "balanced.tsv"
        balance = run_child([sys.executable, "-m", "prosenet.cli", "prepare-manifest",
                             "--source-manifest", str(written), "--out-manifest", str(manifest),
                             "--length-metric", "preprocessed"], work / "balance.log")
        elapsed = time.perf_counter() - start
        doc_ids = manifest_ids(written)
        checks.attempted += 1
        if balance.returncode != 0:
            checks.failed += 1
            checks.problems.append(f"prepare-manifest exited {balance.returncode}")
            manifest = written
        elif manifest_ids(manifest) != doc_ids:
            checks.failed += 1
            checks.problems.append("prepare-manifest dropped documents of a balanced corpus")
        if "warm" in spec:
            command, jobs = spec["warm"]
            fill = run_pass([command], manifest, doc_ids if i == 0 else None, work / f"warm{i}", jobs)
            elapsed += fill.wall_s
            checks.attempted += fill.attempted
            checks.failed += fill.failed
            checks.problems += fill.problems
            if i == 0:
                first_fill = fill.digests
            elif fill.digests != first_fill:
                checks.failed += 1
                checks.problems.append(f"cache fill {i} outputs differ from fill 0")
        times.append(elapsed)
    return manifest, doc_ids


def anchor_problems(work: Path) -> list[str]:
    log = work / "anchor.log"
    run = run_child([sys.executable, str(HERE / "check.py"), "--anchor", str(work / "anchor")], log)
    if run.returncode != 0:
        return [f"anchor run exited {run.returncode}: {log.read_text()[-400:]}"]
    summary = json.loads((work / "anchor" / "summary.json").read_text(encoding="utf-8"))
    reference = json.loads(check.REFERENCE.read_text(encoding="utf-8"))
    return [f"anchor: {p}" for p in check.compare(reference, summary)]


def timed(one_pass, seconds: float) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; at least MIN_ITERATIONS."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        next_end = time.perf_counter() - start + statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_ITERATIONS and next_end > seconds:
            return passes


def layer_metrics(untraced: Pass, pairs: list[tuple[Pass, Pass]]) -> dict:
    """Per-layer metrics: medians over the traced passes of ``pairs`` (untraced,
    traced), the overhead as the median of their differences, and the
    per-command times of ``untraced``."""
    per_pass = [traced_metrics(traced) for _, traced in pairs]
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_s"] = (
        statistics.median(traced.wall_s - plain.wall_s for plain, traced in pairs), "s")
    for name in COMMAND_METRICS:
        metrics[f"cmd.{name}"] = (untraced.command_s.get(name, 0.0), "s")
    return metrics


def traced_metrics(traced: Pass) -> dict:
    """Self times, counts and coverage of one traced pass."""
    totals: dict = {}
    counts: dict = {}
    documents: list[float] = []
    covered = 0.0
    for dump in traced.spans:
        for name, value in tracer.self_times(dump["spans"]).items():
            totals[name] = totals.get(name, 0.0) + value
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
        documents += [end - start for name, start, end, _ in dump["spans"]
                      if name == "pipeline.measure_document"]
        covered += tracer.root_coverage(dump["spans"])
    metrics = {f"{name}_s": (totals.get(name, 0.0), "s") for name in SPAN_METRICS}
    metrics["pipeline.corpus_measures_self_s"] = (totals.get("pipeline.corpus_measures", 0.0), "s")
    metrics["pipeline.measure_document_s.p50"] = (percentile(documents, 0.5), "s")
    metrics["pipeline.measure_document_s.p80"] = (percentile(documents, 0.8), "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "B" if name.endswith("bytes_written") else "count")
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.uncovered_s"] = (traced.wall_s - covered, "s")
    return metrics


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def provenance() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the repository holding the benchmark, when it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description="prosenet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "prosenet" / "cli.py").is_file():
        print(f"error: no prosenet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times: list[float] = []
        checks = Pass()
        manifest, doc_ids = setup(spec, args.seed, work, setup_times, checks)

        def one_pass(jobs: int = spec["jobs"], traced: bool = False) -> Pass:
            """Warm workloads reuse the filled cache. Cold ones write their corpus
            again, so set-up is sampled all through the run, and start from an
            empty --out; the path stays the same, since reports record it."""
            out = work / "warm0"
            if "warm" not in spec:
                setup(spec, args.seed, work, setup_times, checks)
                out = work / "out"
                shutil.rmtree(out, ignore_errors=True)
            return run_pass(spec["commands"], manifest, doc_ids, out, jobs, traced)

        if args.trace:
            # untraced as in --trace 0; then untraced/traced pairs at --jobs 1, the
            # order alternating so that a drift of the host's speed cancels out
            untraced = one_pass()
            pairs = []
            for i in range(OVERHEAD_PAIRS):
                order = (False, True) if i % 2 == 0 else (True, False)
                got = {traced: one_pass(1, traced) for traced in order}
                pairs.append((got[False], got[True]))
            passes = [untraced] + [run for pair in pairs for run in pair]
        else:
            passes = timed(one_pass, args.seconds)
        problems = checks.problems + [p for run in passes for p in run.problems]
        failed = checks.failed + sum(run.failed for run in passes)
        for i, run in enumerate(passes[1:], start=1):  # byte-identical repeats
            changed = sorted(k for k in set(run.digests) | set(passes[0].digests)
                             if run.digests.get(k) != passes[0].digests.get(k))
            if changed:
                failed += 1
                problems.append(f"pass {i} outputs differ from pass 0: {changed[:5]}")
        anchor = anchor_problems(work)
        failed += bool(anchor)
        problems += anchor
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run shares the directory
            (ROOT / ".perfbench_work").rmdir()

    # set-up steps, every command, every repeat compared with the first, and the anchor
    attempted = checks.attempted + sum(run.attempted for run in passes) + len(passes) - 1 + 1
    reported = [untraced] if args.trace else passes
    end_to_end = {
        "wall_s": (statistics.median(run.wall_s for run in reported), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(run.peak_rss_mb for run in reported), "MB"),
    }
    commands_s = {name: (statistics.median(run.command_s[name] for run in reported), "s")
                  for name in reported[0].command_s}
    metrics = layer_metrics(untraced, pairs) if args.trace else end_to_end
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "end_to_end": {**end_to_end, **commands_s, "fail_frac": (failed / attempted, "ratio")},
        "problems": problems,
        "provenance": provenance(),
    }
    print(json.dumps(detail, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
