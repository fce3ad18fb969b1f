"""The benchmark's four workloads.

Each workload has a set-up, which writes its inputs from the seed, and a
pass, the unit of work a user waits for. Every call into clickrec goes
through ``Run.stage`` and looks the function up on its module at call time,
so the traced run sees it. A pass times its own work into ``Run.pass_s``
and returns its outputs as named bytes, read back after the clock stops.

- crossval-1x: ``clickrec crossval`` on the default corpus; gbdt.fit dominates.
- features-2x: ``clickrec features`` on a 2x corpus; build_dataset dominates
  and nothing is trained.
- extract-8x: the library calls of ``clickrec features`` before
  build_dataset, on an 8x corpus; candidates, assign and cluster dominate.
- serve-rank: one closed-loop client sending gbdt.rank requests to a model
  fitted, saved and reloaded in set-up.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import time

from clickrec import candidates, cli, features, gbdt, logs, pipeline, synth, taxonomy

N_TREES = 100
TINY = {"n_topics": 16, "n_users": 30, "n_events": 6000}  # acceptance criterion 7
TINY_TREES = 15
RANK_REQUESTS = 1000  # leaves 10 samples beyond p99


class Run:
    """State of one workload in one process: inputs, timings and op counts."""

    def __init__(self, workdir: str, seed: int, tiny: bool):
        self.dir = workdir
        self.seed = seed
        self.tiny = tiny
        self.tracer = None  # set only while a traced phase runs
        self.n_trees = TINY_TREES if tiny else N_TREES
        self.items = 0  # input log lines, or rank requests per pass
        self.attempted = 0
        self.state: dict = {}
        self.setup_s: list[float] = []
        self.pass_s: list[float] = []
        self.latencies_s: list[float] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def corpus(self, scale: int) -> synth.SynthConfig:
        if self.tiny:
            return synth.SynthConfig(seed=self.seed, **TINY)
        return synth.SynthConfig(
            n_topics=60 * scale, n_events=30000 * scale, seed=self.seed
        )

    def stage(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def timed(self, phase: str, out: list[float]):
        """Time a phase into ``out``; under a tracer it is also a root span."""
        gc.collect()
        start = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span(f"bench.{phase}"):
                    yield
        finally:
            out.append(time.perf_counter() - start)


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _read_bytes(run: Run, *names: str) -> dict[str, bytes]:
    out = {}
    for name in names:
        with open(run.path(name), "rb") as fh:
            out[name] = fh.read()
    return out


def write_corpus(run: Run, scale: int) -> None:
    clicks, tax = run.stage(synth.synth_logs, run.corpus(scale))
    _write(run.path("clicks.tsv"), clicks)
    _write(run.path("taxonomy.tsv"), tax)
    run.items = len(clicks)


def _cli(run: Run, *args: str) -> None:
    argv = ["--seed", str(run.seed), "--out", run.path("out"), *args]
    with contextlib.redirect_stdout(io.StringIO()):
        code = run.stage(cli.main, argv)
    if code != 0:
        raise RuntimeError(f"clickrec {' '.join(argv)} exited with {code}")


def _cli_inputs(run: Run) -> list[str]:
    return ["--log", run.path("clicks.tsv"), "--taxonomy", run.path("taxonomy.tsv")]


# crossval-1x ---------------------------------------------------------------


def crossval_setup(run: Run) -> None:
    write_corpus(run, 1)
    _write(run.path("train.cfg"), [f"n_trees={run.n_trees}"])


def crossval_pass(run: Run) -> dict[str, bytes]:
    with run.timed("pass", run.pass_s):
        _cli(run, "--config", run.path("train.cfg"), "crossval", *_cli_inputs(run))
    return _read_bytes(run, "out/report.tsv")


def report_gbdt_wins(report: bytes) -> list[str]:
    """Errors unless GBDT's NDCG5 is strictly above every single signal."""
    ndcg = {}
    for line in report.decode("utf-8").splitlines()[1:]:
        parts = line.split("\t")
        if parts[0] in pipeline.ALL_METHODS:
            ndcg[parts[0]] = float(parts[1])
    return [
        f"GBDT NDCG5 {ndcg['GBDT']} not above {m} {ndcg[m]}"
        for m in pipeline.SINGLE_METHODS
        if not ndcg["GBDT"] > ndcg[m]
    ]


def model_nodes(model, path: str) -> int:
    """Tree-node count of a model, read from its saved file."""
    gbdt.save_model(model, path)
    lines = _read_lines(path)
    return sum(int(ln.split("\t")[3]) for ln in lines if ln.startswith("tree\t"))


def report_quality(report: bytes | None) -> dict[str, float]:
    """NDCG5 and MAP of the GBDT row of report.tsv; zeros without a report."""
    out = {"crossval.ndcg5_gbdt": 0.0, "crossval.map_gbdt": 0.0}
    for line in report.decode("utf-8").splitlines() if report else []:
        parts = line.split("\t")
        if parts[0] == "GBDT":
            out = {"crossval.ndcg5_gbdt": float(parts[1]), "crossval.map_gbdt": float(parts[2])}
    return out


# features-2x ---------------------------------------------------------------


def features_setup(run: Run) -> None:
    write_corpus(run, 2)


def features_pass(run: Run) -> dict[str, bytes]:
    with run.timed("pass", run.pass_s):
        _cli(run, "features", *_cli_inputs(run))
    return _read_bytes(run, "out/features.tsv")


# extract-8x ----------------------------------------------------------------


def front_half(run: Run):
    """The library calls ``clickrec features`` makes before build_dataset."""
    parsed = run.stage(logs.parse_log, _read_lines(run.path("clicks.tsv")))
    records = run.stage(logs.clean_log, parsed.records)
    stats = run.stage(logs.build_click_stats, records)
    sessions = run.stage(logs.segment_sessions, parsed.records)
    lex = run.stage(candidates.detect_facets, stats)
    pairs = run.stage(pipeline.generate_candidates, stats, sessions, lex)
    index = run.stage(taxonomy.load_taxonomy, _read_lines(run.path("taxonomy.tsv")))
    assignments = {q: run.stage(taxonomy.assign_category, q, index) for q in stats.queries}
    clusters = run.stage(taxonomy.cluster_trivial_variants, stats)
    return stats, sessions, lex, pairs, assignments, clusters


def extract_setup(run: Run) -> None:
    write_corpus(run, 8)


def extract_pass(run: Run) -> dict[str, bytes]:
    with run.timed("pass", run.pass_s):
        stats, _, _, pairs, assignments, clusters = front_half(run)
        _write(run.path("candidates.tsv"), run.stage(candidates.dump_candidates, pairs))
        _write(
            run.path("assignments.tsv"),
            run.stage(taxonomy.dump_assignments, [assignments[q] for q in stats.queries]),
        )
        _write(run.path("clusters.tsv"), [f"{q}\t{clusters[q]}" for q in sorted(clusters)])
    return _read_bytes(run, "candidates.tsv", "assignments.tsv", "clusters.tsv")


# serve-rank ----------------------------------------------------------------


def serve_setup(run: Run) -> None:
    """Write features.tsv, fit on every row, save and reload the model."""
    write_corpus(run, 1)
    stats, sessions, lex, pairs, assignments, clusters = front_half(run)
    dataset = run.stage(
        pipeline.build_dataset, pairs, stats, sessions, lex, assignments, clusters,
        seed=run.seed,
    )
    rows = [
        (r.q1, r.q2, "+".join(sorted(r.kinds)) if r.kinds else "-", r.fv)
        for r in dataset.rows
    ]
    _write(run.path("features.tsv"), run.stage(features.feature_matrix_lines, rows))
    del dataset, rows
    matrix = run.stage(features.parse_feature_matrix, _read_lines(run.path("features.tsv")))
    labeled = [(fv.values(), fv.sim) for _, _, _, fv in matrix if fv.sim is not None]
    model = run.stage(
        gbdt.fit,
        [v for v, _ in labeled],
        [s for _, s in labeled],
        gbdt.TrainConfig(n_trees=run.n_trees),
        feature_names=features.FEATURE_NAMES,
    )
    run.stage(gbdt.save_model, model, run.path("model.txt"))
    model = run.stage(gbdt.load_model, run.path("model.txt"))

    by_q1: dict[str, list] = {}
    with_candidates = set()
    for q1, q2, kind, fv in matrix:
        by_q1.setdefault(q1, []).append((q2, fv))
        if kind != "-":
            with_candidates.add(q1)
    queries = sorted(with_candidates)
    rng = random.Random(run.seed)
    requests = rng.choices(queries, weights=[stats.cnt_q[q] for q in queries], k=RANK_REQUESTS)
    run.state = {"model": model, "by_q1": by_q1, "clusters": clusters, "requests": requests}
    run.items = len(requests)


def serve_pass(run: Run) -> dict[str, bytes]:
    model, by_q1, clusters = run.state["model"], run.state["by_q1"], run.state["clusters"]
    responses = []
    clock = time.perf_counter
    with run.timed("pass", run.pass_s):
        for q1 in run.state["requests"]:
            start = clock()
            ranked = run.stage(gbdt.rank, model, q1, by_q1[q1], clusters)
            run.latencies_s.append(clock() - start)
            responses.append((q1, ranked))
    lines = [f"{q1}\t{q2}\t{score!r}" for q1, ranked in responses for q2, score in ranked]
    return {"ranked.tsv": ("\n".join(lines) + "\n").encode("utf-8")}


# name -> (set-up, pass, set-ups per untraced run). serve-rank's set-up fits
# a 100-tree model (8-12 s on a 2-core Xeon), so it is timed twice rather
# than three times, which keeps its runs about as long as the others'.
WORKLOADS = {
    "crossval-1x": (crossval_setup, crossval_pass, 3),
    "features-2x": (features_setup, features_pass, 3),
    "extract-8x": (extract_setup, extract_pass, 3),
    "serve-rank": (serve_setup, serve_pass, 2),
}
