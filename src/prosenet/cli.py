"""Command-line entry point.

Commands: measure, classify, relevance, baselines, export-network,
prepare-manifest. Options may come from a key=value config file (--config);
command-line flags override it. ``prosenet.pipeline``, and with it numpy and
the measuring and learning layers, is imported only by the commands that
measure or learn; prepare-manifest needs ``prosenet.corpus`` alone.
"""

from __future__ import annotations

import argparse
import sys

from . import ProsenetError
from .corpus import load_lemma_dictionary, prepare_manifest


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--manifest", help="corpus manifest (id<TAB>label<TAB>path)")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--strategy", choices=["GS", "LS", "LSS"], help="feature strategy")
    parser.add_argument("--classifier", choices=["all", "knn", "cart", "nb"])
    parser.add_argument("--knn-k", type=int, dest="knn_k")
    parser.add_argument("--top-k", type=int, dest="top_k", help="features kept after ranking")
    parser.add_argument("--phi", type=int, help="feature count for the relevance sweep")
    parser.add_argument("--h", dest="h_access", help="comma list of walk depths, e.g. 2,3")
    parser.add_argument("--alpha", type=float, help="PageRank damping")
    parser.add_argument("--rho-max", type=float, dest="rho_max", help="decorrelation cutoff")
    parser.add_argument("--closeness", choices=["mean", "reciprocal"])
    parser.add_argument("--cumulative", action="store_const", const=True,
                        help="count neighborhoods within h instead of exactly at h")
    parser.add_argument("--ag-exclude-self", action="store_const", const=True,
                        dest="ag_exclude_self")
    parser.add_argument("--gs-no-walks", action="store_const", const=False,
                        dest="gs_walks",
                        help="drop the walk measures (A, Ag, Sb, Sm) from the global strategy")
    parser.add_argument("--word-list-size", type=int, dest="word_list_size")
    parser.add_argument("--min-doc-fraction", type=float, dest="min_doc_fraction")
    parser.add_argument("--window", type=int, help="adjacency window (default 1)")
    parser.add_argument("--baseline-top-k", type=int, dest="baseline_top_k")
    parser.add_argument("--lemmas", help="custom lemma dictionary (surface<TAB>lemma)")
    parser.add_argument("--stoplist", help="custom stopword list, one per line")
    parser.add_argument("--jobs", type=int, help="parallel document workers")


def _build_config(args: argparse.Namespace):
    from .pipeline import config_from_sources, parse_config_file

    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "doc_id", "keep_stopwords")}
    cfg = config_from_sources(file_values, overrides)
    if not cfg.manifest:
        raise ProsenetError("--manifest (or a config file with manifest=) is required")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="prosenet",
        description="Word-adjacency network measurements and prose-style classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("measure", "compute and cache per-document measure CSVs"),
        ("classify", "full pipeline: features, selection, leave-one-out reports, PCA"),
        ("relevance", "exhaustive feature-subset sweep and relevance index"),
        ("baselines", "stopword-frequency, char-bigram and word-LSA baselines"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("export-network", help="dump one document's network as JSON")
    _add_common(p)
    p.add_argument("--doc-id", required=True, dest="doc_id")
    p.add_argument("--keep-stopwords", action="store_true", dest="keep_stopwords")

    p = sub.add_parser("prepare-manifest", help="balance classes by keeping the longest texts")
    p.add_argument("--source-manifest", required=True, dest="source_manifest")
    p.add_argument("--out-manifest", dest="out_manifest", required=True,
                   help="path of the balanced manifest to write")
    p.add_argument("--length-metric", choices=["raw", "preprocessed"],
                   default="raw", dest="length_metric")
    p.add_argument("--strip-pos", action="store_true", dest="strip_pos",
                   help="strip word/TAG annotations into plain-text copies")
    p.add_argument("--texts-dir", dest="texts_dir", help="where stripped texts go")
    p.add_argument("--lemmas", help="custom lemma dictionary (surface<TAB>lemma)")
    p.add_argument("--stoplist", help="custom stopword list, one per line")

    args = parser.parse_args(argv)
    try:
        if args.command == "prepare-manifest":
            count = prepare_manifest(
                args.source_manifest,
                args.out_manifest,
                args.length_metric,
                args.strip_pos,
                args.texts_dir,
                load_lemma_dictionary(args.lemmas or None, args.stoplist or None),
            )
            print(f"wrote {args.out_manifest} with {count} documents")
            return 0

        from .pipeline import (
            cmd_baselines,
            cmd_classify,
            cmd_export_network,
            cmd_measure,
            cmd_relevance,
        )

        cfg = _build_config(args)
        if args.command == "measure":
            written = cmd_measure(cfg)
            print(f"wrote {len(written)} measure files under {cfg.out}/measures")
        elif args.command == "classify":
            reports = cmd_classify(cfg)
            for name, report in sorted(reports.items()):
                print(
                    f"{cfg.strategy} {name}: accuracy={report.accuracy:.4f} "
                    f"p={report.p_value:.3e} n={report.n}"
                )
        elif args.command == "relevance":
            report = cmd_relevance(cfg)
            print(f"relevance over phi={len(report.feature_names)} features ({cfg.strategy}):")
            for feat, r in report.r_index.items():
                print(f"  R({feat}) = {r}")
        elif args.command == "baselines":
            reports = cmd_baselines(cfg)
            for name, report in sorted(reports.items()):
                print(f"baseline {name}: accuracy={report.accuracy:.4f} p={report.p_value:.3e}")
        elif args.command == "export-network":
            path = cmd_export_network(cfg, args.doc_id, args.keep_stopwords)
            print(f"wrote {path}")
    except ProsenetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
