"""Span recorder that wraps prosenet's public functions from outside.

Each wrapper replaces a function at the name its caller looks up (for
example ``prosenet.pipeline.betweenness`` or ``prosenet.walks.expm``), opens
a span around the call and bumps counters taken from the arguments or the
result. Spans (name, start, end, parent) stay in memory and are written as
JSON when the command ends. Nothing under ``src/`` changes.

Run one CLI command traced, in its own process:

    python perfbench/tracer.py --spans spans.json -- classify --manifest m.tsv ...
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import Counter


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None):
        """``fn`` inside a span named ``name``: a string, a function of the
        arguments, or None for no span. ``count(counts, args, kwargs, result)``
        runs after each call that returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                label = name(*args, **kwargs) if callable(name) else name
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([label, time.perf_counter(), None, parent])
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    self.spans[index][2] = time.perf_counter()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = covered_time(children.get(index, []))
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def covered_time(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def root_coverage(spans: list[list]) -> float:
    """Time covered by the top-level spans."""
    return covered_time([(s, e) for _, s, e, parent in spans if parent < 0])


# ---------------------------------------------------------------------------
# what is wrapped, and where the caller looks it up
# ---------------------------------------------------------------------------

def _add(key, value_of):
    def count(counts, args, kwargs, result):
        counts[key] += value_of(args, kwargs, result)
    return count


def _calls(key):
    return _add(key, lambda a, k, r: 1)


def _both(*counters):
    def count(counts, args, kwargs, result):
        for counter in counters:
            counter(counts, args, kwargs, result)
    return count


def _cache_lookup(counts, args, kwargs, result):
    counts["pipeline.cache_misses" if result is None else "pipeline.cache_hits"] += 1


def _loo_name(*args, **kwargs):
    return f"learn.loo_{_arg(args, kwargs, 1, 'spec').name}"


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


# (module, attribute, span name or None for counting only, counter)
PATCHES = [
    ("prosenet.pipeline", "preprocess", "corpus.preprocess",
     _both(_calls("corpus.preprocess_calls"),
           _add("corpus.tokens", lambda a, k, r: r.raw_token_count))),
    ("prosenet.pipeline", "build_network", "graph.build_network",
     _both(_add("graph.nodes", lambda a, k, r: r.node_count),
           _add("graph.edges", lambda a, k, r: r.edge_count))),
    ("prosenet.graph", "bfs_distances", "graph.bfs", _calls("graph.bfs_calls")),
    ("prosenet.metrics", "bfs_distances", "graph.bfs", _calls("graph.bfs_calls")),
    ("prosenet.walks", "bfs_distances", "graph.bfs", _calls("graph.bfs_calls")),
    ("prosenet.pipeline", "betweenness", "metrics.betweenness", None),
    ("prosenet.pipeline", "closeness", "metrics.closeness", None),
    ("prosenet.pipeline", "eccentricity", "metrics.eccentricity", None),
    ("prosenet.pipeline", "clustering", "metrics.clustering", None),
    ("prosenet.pipeline", "neighborhood_connectivity", "metrics.neighborhood", None),
    ("prosenet.pipeline", "eigenvector_centrality", "metrics.eigenvector", None),
    ("prosenet.pipeline", "pagerank", "metrics.pagerank", None),
    ("prosenet.pipeline", "detect_communities", "metrics.communities", None),
    ("prosenet.pipeline", "accessibility_batch", "walks.accessibility",
     _add("walks.sources", lambda a, k, r: len(_arg(a, k, 1, "sources")))),
    ("prosenet.pipeline", "backbone_symmetry_batch", "walks.backbone", None),
    ("prosenet.pipeline", "merged_symmetry_batch", "walks.merged", None),
    ("prosenet.pipeline", "generalized_accessibility", "walks.ag", None),
    ("prosenet.walks", "expm", "linalg.expm", _calls("linalg.expm_calls")),
    ("prosenet.pipeline", "global_features", "features.assemble", None),
    ("prosenet.pipeline", "local_features", "features.assemble", None),
    ("prosenet.pipeline", "frequency_decorrelation_filter", "features.decorrelation",
     _both(_add("features.columns_in", lambda a, k, r: len(_arg(a, k, 0, "fm").feature_names)),
           _add("features.columns_kept", lambda a, k, r: len(r.feature_names)))),
    ("prosenet.pipeline", "rank_features", "features.rank", _calls("features.rank_calls")),
    ("prosenet.features", "rank_features", "features.rank", _calls("features.rank_calls")),
    ("prosenet.pipeline", "loo_evaluate", _loo_name, None),
    ("prosenet.pipeline", "relevance_index", "learn.relevance",
     _add("learn.relevance_subsets", lambda a, k, r: len(r.ledger))),
    ("prosenet.pipeline", "pca_project", "learn.pca", None),
    ("prosenet.pipeline", "baseline_stopword_frequency", "learn.baselines", None),
    ("prosenet.pipeline", "baseline_char_bigrams", "learn.baselines", None),
    ("prosenet.pipeline", "baseline_word_lsa", "learn.baselines", None),
    ("prosenet.pipeline", "measure_document", "pipeline.measure_document", None),
    ("prosenet.pipeline", "compute_corpus_measures", "pipeline.corpus_measures", None),
    ("prosenet.pipeline", "_cache_load", None, _cache_lookup),
    ("prosenet.pipeline", "atomic_write", "pipeline.write",
     _add("pipeline.bytes_written",
          lambda a, k, r: len(_arg(a, k, 1, "text").encode("utf-8")))),
]


def install(recorder: Recorder) -> None:
    """Replace every patched name; a missing one fails loudly."""
    for module_name, attr, span, count in PATCHES:
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.wrap(getattr(module, attr), span, count))


def main() -> int:
    parser = argparse.ArgumentParser(description="run one prosenet CLI command traced")
    parser.add_argument("--spans", required=True, help="where to write spans and counts")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = Recorder()
    install(recorder)
    from prosenet.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
