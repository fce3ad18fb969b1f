"""Spans around calls into clickrec, recorded for the traced run.

The tracer replaces module attributes with timing wrappers. A module that
imports a function by name calls it through its own attribute, so the name
is patched where the caller looks it up (``pipeline.build_features`` as
well as ``features.build_features``); names a module does not have are
skipped. Spans stay in memory as
``[name, start, end, parent]`` rows and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute the caller looks up, span name)
SPANNED = [
    ("synth", "synth_logs", "synth.synth_logs"),
    ("cli", "main", "cli.main"),
    ("logs", "parse_log", "logs.parse_log"),
    ("logs", "clean_log", "logs.clean_log"),
    ("logs", "build_click_stats", "logs.build_click_stats"),
    ("logs", "segment_sessions", "logs.segment_sessions"),
    ("candidates", "detect_facets", "candidates.detect_facets"),
    ("candidates", "generate_all", "candidates.generate_all"),
    ("candidates", "dump_candidates", "candidates.dump_candidates"),
    ("candidates", "build_session_stats", "candidates.build_session_stats"),
    ("pipeline", "build_session_stats", "candidates.build_session_stats"),
    ("taxonomy", "load_taxonomy", "taxonomy.load_taxonomy"),
    ("taxonomy", "assign_category", "taxonomy.assign_category"),
    ("taxonomy", "dump_assignments", "taxonomy.dump_assignments"),
    ("taxonomy", "cluster_trivial_variants", "taxonomy.cluster_trivial_variants"),
    ("features", "build_features", "features.build_features"),
    ("pipeline", "build_features", "features.build_features"),
    ("features", "feature_matrix_lines", "features.feature_matrix_lines"),
    ("features", "parse_feature_matrix", "features.parse_feature_matrix"),
    ("pipeline", "generate_candidates", "pipeline.generate_candidates"),
    ("pipeline", "build_dataset", "pipeline.build_dataset"),
    ("pipeline", "run_crossval", "pipeline.run_crossval"),
    ("gbdt", "fit", "gbdt.fit"),
    ("gbdt", "predict", "gbdt.predict"),
    ("gbdt", "rank", "gbdt.rank"),
    ("gbdt", "save_model", "gbdt.save_model"),
    ("gbdt", "load_model", "gbdt.load_model"),
    ("evaluation", "ndcg5", "evaluation.ndcg5"),
    ("evaluation", "average_precision", "evaluation.average_precision"),
    ("evaluation", "mean_average_precision", "evaluation.mean_average_precision"),
    ("evaluation", "wilcoxon_signed_rank", "evaluation.wilcoxon_signed_rank"),
    ("evaluation", "precision_recall_curve", "evaluation.precision_recall_curve"),
]

# Calls that cost about as much as a span are counted, not timed; their
# time stays in the caller's self time. ``taxonomy._cosine`` is the
# query-vs-centroid similarity inside cluster_trivial_variants.
COUNTED = [
    ("taxonomy", "query_similarity", "taxonomy.query_similarity"),
    ("pipeline", "query_similarity", "taxonomy.query_similarity"),
    ("taxonomy", "_cosine", "taxonomy.cosine"),
]

# Spans whose arguments and results are kept, to derive counts afterwards.
KEPT = {
    "logs.parse_log",
    "logs.clean_log",
    "logs.segment_sessions",
    "pipeline.generate_candidates",
    "taxonomy.assign_category",
    "taxonomy.cluster_trivial_variants",
    "pipeline.build_dataset",
    "gbdt.fit",
    "gbdt.predict",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.kept: dict[str, list] = defaultdict(list)  # name -> [(args, result)]
        self._stack = [-1]
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def installed(self):
        """Patch every name in SPANNED and COUNTED; restore them on exit."""
        for mod, attr, name in SPANNED:
            self._patch(mod, attr, self._timed(name, name in KEPT))
        for mod, attr, name in COUNTED:
            self._patch(mod, attr, self._counted(name))
        try:
            yield
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _patch(self, mod: str, attr: str, wrap) -> None:
        module = importlib.import_module(f"clickrec.{mod}")
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self._stack.pop()
        self.spans[i][2] = time.perf_counter()

    def _timed(self, name: str, keep: bool):
        kept = self.kept[name]

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(i)
                if keep:
                    kept.append((args, result))
                return result

            return wrapper

        return wrap

    def _counted(self, name: str):
        counts = self.counts

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return wrap

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed self time and number of spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
            calls[name] += 1
        return out, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, node_counts: list[int]) -> dict[str, float]:
    """Per-layer metrics from one traced set-up and pass.

    ``node_counts`` holds the tree-node count of every model gbdt.fit
    returned, taken from the saved model files.
    """
    self_s, calls = tracer.self_times()
    kept = tracer.kept

    def s(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def total(name: str, size) -> int:
        return sum(size(args, result) for args, result in kept[name])

    pairs = total("pipeline.generate_candidates", lambda a, r: len(r))
    assigned = total("taxonomy.assign_category", lambda a, r: 1 if r.votes else 0)
    rows = total("pipeline.build_dataset", lambda a, r: len(r.rows))
    positives = total("pipeline.build_dataset", lambda a, r: sum(1 for x in r.rows if x.kinds))
    distinct = total("pipeline.build_dataset", lambda a, r: len({(p.q1, p.q2) for p in a[0]}))
    fit_row_trees = total("gbdt.fit", lambda a, r: len(a[0]) * len(r.trees))
    predict_rows = total("gbdt.predict", lambda a, r: 1 if getattr(a[1], "ndim", 2) == 1 else len(a[1]))
    fit_s = s("gbdt.fit")
    predict_s = s("gbdt.predict")
    build_s = s("features.build_features")
    evaluation = [n for n in calls if n.startswith("evaluation.")]
    return {
        "synth.s": s("synth.synth_logs"),
        "cli.self_s": s("cli.main"),
        "logs.parse_s": s("logs.parse_log"),
        "logs.clean_s": s("logs.clean_log"),
        "logs.stats_s": s("logs.build_click_stats"),
        "logs.sessions_s": s("logs.segment_sessions"),
        "logs.records_in": total("logs.parse_log", lambda a, r: len(r.records)),
        "logs.records_kept": total("logs.clean_log", lambda a, r: len(r)),
        "logs.sessions": total("logs.segment_sessions", lambda a, r: len(r)),
        "candidates.s": s(
            "candidates.detect_facets", "candidates.generate_all", "candidates.dump_candidates"
        ),
        "candidates.session_stats_s": s("candidates.build_session_stats"),
        "candidates.pairs": pairs,
        "candidates.pairs_per_query": _ratio(pairs, calls["candidates.generate_all"]),
        "taxonomy.assign_s": s(
            "taxonomy.load_taxonomy", "taxonomy.assign_category", "taxonomy.dump_assignments"
        ),
        "taxonomy.assigned_ratio": _ratio(assigned, calls["taxonomy.assign_category"]),
        "taxonomy.cluster_s": s("taxonomy.cluster_trivial_variants"),
        "taxonomy.clusters": total(
            "taxonomy.cluster_trivial_variants", lambda a, r: len(set(r.values()))
        ),
        "taxonomy.similarity_calls": tracer.counts["taxonomy.cosine"],
        "taxonomy.query_similarity_calls": tracer.counts["taxonomy.query_similarity"],
        "features.build_s": build_s,
        "features.build_calls": calls["features.build_features"],
        "features.us_per_row": 1e6 * _ratio(build_s, calls["features.build_features"]),
        "features.matrix_io_s": s(
            "features.feature_matrix_lines", "features.parse_feature_matrix"
        ),
        "pipeline.candidates_self_s": s("pipeline.generate_candidates"),
        "pipeline.dataset_self_s": s("pipeline.build_dataset"),
        "pipeline.dataset_rows": rows,
        "pipeline.positive_kept_ratio": _ratio(positives, distinct),
        "pipeline.crossval_self_s": s("pipeline.run_crossval"),
        "gbdt.fit_s": fit_s,
        "gbdt.fit_row_trees_per_s": _ratio(fit_row_trees, fit_s),
        "gbdt.nodes": sum(node_counts),
        "gbdt.predict_s": predict_s,
        "gbdt.predict_calls": calls["gbdt.predict"],
        "gbdt.predict_us_per_row": 1e6 * _ratio(predict_s, predict_rows),
        "gbdt.rank_s": s("gbdt.rank"),
        "gbdt.model_io_s": s("gbdt.save_model", "gbdt.load_model"),
        "evaluation.s": s(*evaluation),
        "evaluation.calls": sum(calls[n] for n in evaluation),
        "bench.self_s": s("bench.setup", "bench.pass"),
        "trace.spans": len(tracer.spans),
    }
