"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from clickrec import candidates as cand
from clickrec import evaluation as ev
from clickrec import gbdt, logs, pipeline, synth, taxonomy
from clickrec.features import levenshtein
from clickrec.logs import ClickRecord, build_click_stats, segment_sessions

from conftest import cli_env, random_records
from test_candidates import oracle_brccq, oracle_csq, oracle_p_cc, oracle_p_cs
from test_evaluation import GRADES, oracle_ap, oracle_dcg, oracle_ndcg5, ranking, relevance
from test_features import features, oracle_levenshtein, random_string, session_features


def _report(n, desc):
    print(f"ACCEPTANCE {n}: PASS - {desc}")


def test_criterion_1_extractor_oracle_equivalence():
    start = time.time()
    rng = random.Random(1001)
    records = logs.clean_log(random_records(rng, 1000))
    stats = build_click_stats(records)
    sessions = segment_sessions(random_records(random.Random(1001), 1000))
    st = cand.build_session_stats(sessions)
    lex = cand.detect_facets(stats, min_distinct=1, min_query_freq=1)
    postings = cand.url_postings(stats)
    queries = sorted(stats.cnt_q)
    for q1 in queries:
        assert cand.brccq(q1, stats) == oracle_brccq(q1, records)
        for p in cand.generate_all(q1, stats, st, lex, postings):
            if p.kind == cand.CO_CLICK:
                assert p.strength == oracle_p_cc(q1, p.q2, records)
        co_session = cand.co_session_strengths(q1, st)
        assert set(co_session) == oracle_csq(q1, sessions)
        expansions = cand.ctq(q1, lex, stats)
        brute_ctq = {
            q2
            for q2 in queries
            if q2.startswith(q1 + " ")
            and q2[len(q1) + 1 :] in lex
            and " " not in q2[len(q1) + 1 :]
        }
        assert expansions == brute_ctq
        co_topic = cand.co_topic_strengths(q1, lex, stats)
        assert set(co_topic) == expansions
        denom = stats.cnt_q[q1] + sum(stats.cnt_q[e] for e in expansions)
        for q2 in queries:
            assert abs(co_session.get(q2, 0.0) - oracle_p_cs(q1, q2, sessions)) < 1e-12
            if q2 in expansions:
                assert abs(co_topic[q2] - stats.cnt_q[q2] / denom) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0, f"extractor oracle check took {elapsed:.1f}s"
    _report(1, f"extractors match brute-force oracles ({elapsed:.1f}s)")


def test_criterion_2_similarity_fixtures():
    spain = taxonomy.parse_path("Regional/Countries/Spain")
    barcelona = taxonomy.parse_path(
        "Regional/Countries/Spain/Autonomous Communities/Catalonia/Cities/Barcelona"
    )
    assert taxonomy.sim_prefix(spain, barcelona) == 3 / 7
    rng = random.Random(1002)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(10000):
        d1 = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 7)))
        d2 = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 7)))
        assert taxonomy.sim_substring(d1, d2) >= taxonomy.sim_prefix(d1, d2)
    for sim, score in [(0.8, 10.0), (0.6, 7.0), (0.3, 3.0), (0.1, 0.5), (0.0, 0.0)]:
        assert taxonomy.grade(sim)[1] == score
    _report(2, "Spain/Barcelona 3/7, substring >= prefix on 10k pairs, exact grades")


def test_criterion_3_feature_oracles():
    recs = [ClickRecord(t, f"u{t}", "q", "http://a", 1) for t in range(3)]
    recs.append(ClickRecord(9, "u9", "q", "http://b", 1))
    assert abs(features("q", "q", build_click_stats(recs)).ent_q1 - 0.8113) < 1e-4

    rng = random.Random(1003)
    for _ in range(1000):
        a, b = random_string(rng), random_string(rng)
        assert levenshtein(a, b) == oracle_levenshtein(a, b)
        assert levenshtein(a.encode("utf-8"), b.encode("utf-8")) == oracle_levenshtein(
            a.encode("utf-8"), b.encode("utf-8")
        )
    for _ in range(1000):
        a, b, c = (random_string(rng, max_len=5) for _ in range(3))
        dab = levenshtein(a, b)
        assert dab == levenshtein(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= levenshtein(a, c) + levenshtein(c, b)

    # exactly proportional table: q2 follows q1 and others at the same rate
    proportional = (
        [["q1", "q2"]] * 2 + [["q1", "zz"]] * 4 + [["xx", "q2"]] * 3 + [["xx", "zz"]] * 6
    )
    assert abs(session_features("q1", "q2", proportional).llr) < 1e-9
    diagonal = [["q1", "q2"]] * 10 + [["xx", "yy"]] * 10
    assert abs(session_features("q1", "q2", diagonal).llr - 2 * 20 * math.log(2)) < 1e-3
    _report(3, "entropy 0.8113, Levenshtein DP-exact + metric axioms, G2 fixtures")


def test_criterion_4_gbdt_correctness(tmp_path):
    start = time.time()
    rng = np.random.default_rng(1004)
    for _ in range(50):
        n = int(rng.integers(20, 80))
        d = int(rng.integers(2, 6))
        X = rng.random((n, d))
        y = rng.standard_normal(n)
        model = gbdt.fit(X, y, gbdt.TrainConfig(n_trees=20, shrinkage=0.5, min_leaf=2))
        mse = model.train_mse
        assert all(b <= a + 1e-12 for a, b in zip(mse, mse[1:]))

    X = rng.random((50, 3))
    y = rng.random(50)
    exact = gbdt.fit(
        X, y, gbdt.TrainConfig(n_trees=1, shrinkage=1.0, max_depth=None, min_leaf=1)
    )
    assert exact.train_mse[-1] < 1e-12

    for _ in range(200):
        vals = rng.standard_normal(int(rng.integers(2, 50)))
        k = int(rng.integers(1, len(vals)))
        left, right = vals[:k], vals[k:]
        sse = lambda v: float(np.sum((v - v.mean()) ** 2))
        decrease = sse(vals) - sse(left) - sse(right)
        gain = gbdt.split_gain(len(left), left.mean(), len(right), right.mean())
        assert abs(gain - decrease) < 1e-9

    model = gbdt.fit(X, y, gbdt.TrainConfig(n_trees=15))
    p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    gbdt.save_model(model, str(p1))
    gbdt.save_model(gbdt.load_model(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    elapsed = time.time() - start
    assert elapsed < 30.0, f"GBDT checks took {elapsed:.1f}s"
    _report(4, f"MSE monotone x50, exact fit, gain = SSE decrease, round-trip ({elapsed:.1f}s)")


def test_criterion_5_metric_oracles():
    rng = random.Random(1005)
    levels = [k / 10 for k in range(11)]
    for _ in range(1000):
        g = [rng.choice(GRADES) for _ in range(rng.randint(1, 10))]
        r = ranking(g)
        rels = relevance(g)
        assert abs(ev.dcg_at(r, 5) - oracle_dcg(g, 5)) < 1e-12
        assert abs(ev.ndcg5(r) - oracle_ndcg5(g)) < 1e-12
        assert abs(ev.average_precision(r) - oracle_ap(rels)) < 1e-12
        if sum(rels):
            curve = ev.precision_recall_curve([r])
            pts = []
            hits = 0
            for j, rel in enumerate(rels, 1):
                hits += rel
                pts.append((hits / sum(rels), hits / j))
            for (lv, p) in curve:
                want = max((pr for rc, pr in pts if rc >= lv), default=0.0)
                assert abs(p - want) < 1e-12
    stat, p = ev.wilcoxon_signed_rank([1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 0])
    assert abs(p - 0.03125) < 1e-15
    _report(5, "NDCG5/AP/MAP/P-R match brute force on 1000 rankings; exact Wilcoxon")


def test_criterion_6_end_to_end_direction_of_effect():
    start = time.time()
    cfg = synth.SynthConfig()  # 60 topics, 30k events, seed 42
    clicks, taxo = synth.synth_logs(cfg)
    parsed = logs.parse_log(clicks)
    records = logs.clean_log(parsed.records)
    stats = logs.build_click_stats(records)
    sessions = logs.segment_sessions(parsed.records)
    lex = cand.detect_facets(stats)
    sst = cand.build_session_stats(sessions)
    rows = pipeline.candidate_rows(stats, sst, lex)
    index = taxonomy.load_taxonomy(taxo)
    assignments = {q: taxonomy.assign_category(q, index) for q in stats.queries}
    clusters = taxonomy.cluster_trivial_variants(stats)
    keys = pipeline.select_rows(rows, stats, assignments, clusters, 1.0, cfg.seed)
    assert len({q1 for q1, _, _ in keys}) >= 200, "needs >= 200 original queries"
    assert len(keys) >= 5000, "needs >= 5000 pairs"
    build_row = pipeline.row_builder(stats, sst, lex, assignments)
    report = pipeline.run_crossval(keys, build_row, gbdt.TrainConfig(n_trees=100))
    g_ndcg, g_map = report.metrics["GBDT"]
    for m in pipeline.SINGLE_METHODS:
        s_ndcg, s_map = report.metrics[m]
        assert g_ndcg > s_ndcg, f"GBDT NDCG5 not above {m}"
        assert g_map > s_map, f"GBDT MAP not above {m}"
        w = report.wilcoxon[m]
        assert w is not None and w[1] <= 0.05, f"GBDT vs {m} not significant"
    elapsed = time.time() - start
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"
    _report(
        6,
        f"GBDT beats all single signals (NDCG5 {g_ndcg:.4f}, MAP {g_map:.4f}) "
        f"with p <= 0.05 in {elapsed:.0f}s",
    )


def test_criterion_7_crossval_determinism(tmp_path):
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text("n_topics=16\nn_users=30\nn_events=6000\nn_trees=15\n")

    def run(outdir, *args):
        r = subprocess.run(
            [sys.executable, "-m", "clickrec.cli", "--config", str(cfgfile),
             "--seed", "5", "--out", str(outdir), *args],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cli_env(),
        )
        assert r.returncode == 0, r.stderr
        return r

    run(tmp_path / "data", "synth")
    log = tmp_path / "data" / "clicks.tsv"
    taxo = tmp_path / "data" / "taxonomy.tsv"
    run(tmp_path / "r1", "crossval", "--log", str(log), "--taxonomy", str(taxo))
    run(tmp_path / "r2", "crossval", "--log", str(log), "--taxonomy", str(taxo))
    b1 = (tmp_path / "r1" / "report.tsv").read_bytes()
    b2 = (tmp_path / "r2" / "report.tsv").read_bytes()
    assert b1 == b2
    _report(7, "two crossval runs produced byte-identical reports")
