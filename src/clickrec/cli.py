"""Command-line entry point.

Subcommands cover every pipeline stage; all files are the TSV formats
produced by the corresponding modules.  A config file is plain-text
``key=value`` lines applied to the synth / training configs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import candidates as cand
from . import features as feat
from . import gbdt, pipeline, synth, taxonomy
from . import logs as logmod


# Config value parsers by field annotation; both config classes use
# ``from __future__ import annotations``, so annotations are strings.
_PARSERS = {
    "int": int,
    "int | None": lambda val: None if val in ("", "None") else int(val),
    "float": float,
}
_CONFIG_KEYS = {
    f.name for cls in (synth.SynthConfig, gbdt.TrainConfig) for f in dataclasses.fields(cls)
}


def _apply(cfg, path: str | None):
    """Apply a ``key=value`` config file to cfg, one key at a time.

    Each key is set with dataclasses.replace, so the config's own checks
    see every value.  Keys of the other config class are skipped; any other
    bad line raises ValueError("<path>:<line>: <reason>").
    """
    if not path:
        return cfg
    types = {f.name: f.type for f in dataclasses.fields(cfg)}
    for lineno, line in enumerate(logmod.read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if not eq:
                raise ValueError(f"expected key=value, got {line!r}")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if key in types:
                cfg = dataclasses.replace(cfg, **{key: _PARSERS[types[key]](val)})
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return cfg


def _write(path: str, lines: list[str], tail: bytes = b"") -> None:
    """Write each line and its newline ("\n" alone for no lines), then the
    bytes of tail, which is already UTF-8."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines or [""]:
            fh.write(line)
            fh.write("\n")
        fh.flush()
        fh.buffer.write(tail)


def _parse_file(path: str, parse):
    """parse(lines of the file); its "<line>: <reason>" errors name the file."""
    lines = logmod.read_lines(path)
    try:
        return parse(lines)
    except ValueError as exc:
        raise ValueError(f"{path}:{exc}") from None


def _parse_log(path: str):
    """parse_log on a file; its error, which has no line, names the file."""
    lines = logmod.read_lines(path)
    try:
        return logmod.parse_log(lines)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _prepare(log_path: str):
    """Parse + clean a log and build every shared structure."""
    parsed = _parse_log(log_path)
    stats = logmod.build_click_stats(logmod.clean_log(parsed.records))
    sessions = logmod.segment_sessions(parsed.records)
    lex = cand.detect_facets(stats)
    return stats, sessions, lex


def _assignments(stats, taxonomy_path: str):
    index = _parse_file(taxonomy_path, taxonomy.load_taxonomy)
    return {q: taxonomy.assign_category(q, index) for q in stats.queries}


def cmd_synth(args) -> int:
    cfg = _apply(synth.SynthConfig(), args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    clicks, tax = synth.synth_logs(cfg)
    _write(os.path.join(args.out, "clicks.tsv"), clicks)
    _write(os.path.join(args.out, "taxonomy.tsv"), tax)
    print(f"wrote {len(clicks)} click events and {len(tax)} taxonomy sites to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    parsed = _parse_log(args.log)
    records = logmod.clean_log(parsed.records)
    sessions = logmod.segment_sessions(parsed.records)
    _write(os.path.join(args.out, "cleaned.tsv"), logmod.serialize_records(records))
    _write(os.path.join(args.out, "sessions.tsv"), logmod.dump_sessions(sessions))
    print(
        f"parsed {len(parsed.records)} records ({parsed.skipped} skipped), "
        f"{len(records)} after cleaning, {len(sessions)} sessions"
    )
    return 0


def cmd_candidates(args) -> int:
    stats, sessions, lex = _prepare(args.log)
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    _write(os.path.join(args.out, "candidates.tsv"), cand.dump_candidates(pairs))
    print(f"{len(pairs)} candidate pairs")
    return 0


def cmd_assign(args) -> int:
    stats = logmod.build_click_stats(logmod.clean_log(_parse_log(args.log).records))
    assignments = _assignments(stats, args.taxonomy)
    lines = taxonomy.dump_assignments([assignments[q] for q in stats.queries])
    _write(os.path.join(args.out, "assignments.tsv"), lines)
    print(f"assigned {sum(1 for a in assignments.values() if a.category)} of {len(assignments)} queries")
    return 0


def _dataset(build, args):
    """build (pipeline.build_dataset or feature_matrix) on the log and taxonomy."""
    stats, sessions, lex = _prepare(args.log)
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    assignments = _assignments(stats, args.taxonomy)
    clusters = taxonomy.cluster_trivial_variants(stats)
    return build(
        pairs,
        stats,
        sessions,
        lex,
        assignments,
        clusters,
        neg_ratio=args.neg_ratio,
        seed=args.seed or 0,
    )


def cmd_features(args) -> int:
    matrix = _dataset(pipeline.feature_matrix, args)
    _write(os.path.join(args.out, "features.tsv"), matrix.lines, matrix.tail)
    print(f"{matrix.rows} feature rows")
    return 0


def cmd_train(args) -> int:
    cfg = _apply(gbdt.TrainConfig(), args.config)
    rows = _parse_file(args.features, feat.parse_feature_matrix)
    labeled = [(fv.values(), fv.sim) for _, _, _, fv in rows if fv.sim is not None]
    if len(labeled) < 2:
        raise ValueError(f"{args.features}: need at least 2 labeled rows (Sim column set)")
    X = [v for v, _ in labeled]
    y = [s for _, s in labeled]
    try:
        model = gbdt.fit(X, y, cfg, feature_names=feat.FEATURE_NAMES)
    except ValueError as exc:
        raise ValueError(f"{args.features}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    gbdt.save_model(model, os.path.join(args.out, "model.txt"))
    print(f"trained {len(model.trees)} trees, final MSE {model.train_mse[-1]:.6g}")
    return 0


def cmd_rank(args) -> int:
    model = gbdt.load_model(args.model)
    if model.feature_names != feat.FEATURE_NAMES:
        raise ValueError(
            f"{args.model}: the model's features are not the feature matrix columns"
        )
    rows = _parse_file(args.features, feat.parse_feature_matrix)
    query = logmod.normalize_query(args.q1)  # as every q1 in the matrix is
    cands = [(q2, fv) for q1, q2, _, fv in rows if q1 == query]
    for q2, score in gbdt.rank(model, query, cands):
        print(f"{q2}\t{score:.12g}")
    return 0


def cmd_crossval(args) -> int:
    cfg = _apply(gbdt.TrainConfig(), args.config)
    report = pipeline.run_crossval(_dataset(pipeline.build_dataset, args), cfg)
    _write(os.path.join(args.out, "report.tsv"), report.lines())
    for m in pipeline.ALL_METHODS:
        n, a = report.metrics[m]
        print(f"{m}\t{n:.4f}\t{a:.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="clickrec", description="Query recommendation mining toolkit"
    )
    parser.add_argument("--config", help="plain-text key=value config file")
    parser.add_argument("--seed", type=int, help="random seed override")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, about):
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        return p

    command("synth", cmd_synth, "generate a synthetic click log + taxonomy")
    p = command("ingest", cmd_ingest, "parse, clean and sessionize a click log")
    p.add_argument("--log", required=True)
    p = command("candidates", cmd_candidates, "dump candidate pairs for every query")
    p.add_argument("--log", required=True)
    p = command("assign", cmd_assign, "assign taxonomy categories to queries")
    p.add_argument("--log", required=True)
    p.add_argument("--taxonomy", required=True)
    p = command("features", cmd_features, "build the labeled feature matrix")
    p.add_argument("--log", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--neg-ratio", type=float, default=1.0)
    p = command("train", cmd_train, "train the GBDT ranker from a feature matrix")
    p.add_argument("--features", required=True)
    p = command("rank", cmd_rank, "rank candidates of one query with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--q1", required=True, help="the query, whitespace normalized as in the log")
    p = command("crossval", cmd_crossval, "end-to-end two-fold cross-validation")
    p.add_argument("--log", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--neg-ratio", type=float, default=1.0)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
