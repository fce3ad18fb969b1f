import subprocess
import sys

import pytest

from clickrec import candidates as cand
from clickrec import features, gbdt, logs, pipeline, synth, taxonomy
from conftest import cli_env


SMALL = dict(n_topics=16, n_users=30, n_events=6000, seed=5)


def make_world(**kw):
    cfg = synth.SynthConfig(**{**SMALL, **kw})
    clicks, taxo = synth.synth_logs(cfg)
    parsed = logs.parse_log(clicks)
    records = logs.clean_log(parsed.records)
    stats = logs.build_click_stats(records)
    sessions = logs.segment_sessions(parsed.records)
    lex = cand.detect_facets(stats)
    index = taxonomy.load_taxonomy(taxo)
    assignments = {q: taxonomy.assign_category(q, index) for q in stats.queries}
    clusters = taxonomy.cluster_trivial_variants(stats)
    return cfg, stats, sessions, lex, assignments, clusters


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.fixture(scope="module")
def dataset(world):
    _, stats, sessions, lex, assignments, clusters = world
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    return pipeline.build_dataset(
        pairs, stats, sessions, lex, assignments, clusters, seed=2
    )


class TestSynth:
    def test_seed_determinism(self):
        cfg = synth.SynthConfig(**SMALL)
        assert synth.synth_logs(cfg) == synth.synth_logs(synth.SynthConfig(**SMALL))

    def test_seed_changes_output(self):
        a = synth.synth_logs(synth.SynthConfig(**{**SMALL, "seed": 1}))
        b = synth.synth_logs(synth.SynthConfig(**{**SMALL, "seed": 2}))
        assert a != b

    def test_planted_co_topic_recovered(self, world):
        _, stats, sessions, lex, _, _ = world
        # every topic with a frequent expansion must see it in CTQ
        found = 0
        for i in range(SMALL["n_topics"]):
            t = f"t{i:03d}"
            expansions = cand.ctq(t, lex, stats)
            for q2 in expansions:
                assert q2.startswith(t + " ")
            found += len(expansions)
        assert found > SMALL["n_topics"]  # plenty of planted expansions recovered

    def test_planted_co_click_recovered(self, world):
        _, stats, sessions, lex, _, _ = world
        hits = 0
        for i in range(SMALL["n_topics"]):
            t = f"t{i:03d}"
            related = cand.brccq(t, stats)
            hits += sum(1 for q2 in related if q2.startswith(t + " "))
        assert hits > 0  # expansions click shared URLs at rank 1

    def test_planted_co_session_recovered(self, world):
        _, stats, sessions, lex, _, _ = world
        st = cand.build_session_stats(sessions)
        sibling_moves = 0
        for i in range(SMALL["n_topics"]):
            t = f"t{i:03d}"
            for q2 in cand.csq(t, st):
                if q2.startswith("t") and " " not in q2 and q2 != t:
                    g1, g2 = i // synth.SIBLINGS_PER_GROUP, int(q2[1:]) // synth.SIBLINGS_PER_GROUP
                    if g1 == g2:
                        sibling_moves += 1
        assert sibling_moves > SMALL["n_topics"] // 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            synth.SynthConfig(n_topics=0)


class TestDataset:
    def test_no_pair_in_both_roles(self, dataset):
        pos = {(r.q1, r.q2) for r in dataset.rows if r.kinds}
        neg = {(r.q1, r.q2) for r in dataset.rows if not r.kinds}
        assert not pos & neg

    def test_fold_is_function_of_q1(self, dataset):
        for r in dataset.rows:
            assert dataset.folds[r.q1] == pipeline.fold_of(r.q1)

    def test_all_rows_categorized_targets(self, dataset):
        for r in dataset.rows:
            assert 0.0 <= r.fv.sim <= 1.0
            assert r.q1 != r.q2

    def test_no_variant_mates(self, world, dataset):
        _, stats, _, _, _, clusters = world
        for r in dataset.rows:
            assert clusters.get(r.q1) != clusters.get(r.q2)

    def test_uncategorized_queries_excluded(self, world, dataset):
        _, _, _, _, assignments, _ = world
        for r in dataset.rows:
            assert assignments[r.q1].votes and assignments[r.q2].votes

    def test_neg_ratio_zero(self, world):
        _, stats, sessions, lex, assignments, clusters = world
        pairs = pipeline.generate_candidates(stats, sessions, lex)
        ds = pipeline.build_dataset(
            pairs, stats, sessions, lex, assignments, clusters, neg_ratio=0.0
        )
        assert all(r.kinds for r in ds.rows)

    def test_feature_matrix_round_trip(self, dataset):
        rows = [(r.q1, r.q2, "+".join(sorted(r.kinds)) or "-", r.fv) for r in dataset.rows]
        lines = features.feature_matrix_lines(rows)
        assert features.feature_matrix_lines(features.parse_feature_matrix(lines)) == lines
        types = [typ for _, _, typ in features.FEATURES]
        for r in dataset.rows:
            assert [type(v) for v in r.fv.values()] == types

    def test_neg_ratio_one_doubles(self, dataset):
        n_pos = sum(1 for r in dataset.rows if r.kinds)
        n_neg = sum(1 for r in dataset.rows if not r.kinds)
        assert n_neg == n_pos


def three_queries(clicked, clusters, neg_ratio):
    """build_dataset over queries a, b and c, one URL each, all categorized.

    One session goes a -> b, so (a, b) is the only candidate pair; only the
    clicked queries are in the click counts, so only they can be drawn.
    """
    recs = [
        logs.ClickRecord(0, "u1", "a", "http://a", 1),
        logs.ClickRecord(10, "u1", "b", "http://b", 1),
        logs.ClickRecord(10000, "u2", "c", "http://c", 1),
    ]
    stats = logs.build_click_stats([r for r in recs if r.query in clicked])
    sessions = logs.segment_sessions(recs)
    lex = cand.FacetLexicon()
    assignments = {q: taxonomy.CategoryAssignment(q, ("x",), {("x",): 1}) for q in "abc"}
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    assert [(p.q1, p.q2) for p in pairs] == [("a", "b")]
    return pipeline.build_dataset(
        pairs, stats, sessions, lex, assignments, clusters, neg_ratio=neg_ratio
    )


class TestNegativeSampling:
    def test_draws_every_free_pair(self):
        # a and c are variant mates: (b, a), (b, c) and (c, b) are left.
        ds = three_queries("abc", {"a": 0, "b": 1, "c": 0}, neg_ratio=3)
        assert sorted((r.q1, r.q2) for r in ds.rows if not r.kinds) == [
            ("b", "a"), ("b", "c"), ("c", "b")
        ]

    def test_one_categorized_query(self):
        with pytest.raises(ValueError, match="need at least 2 categorized queries"):
            three_queries("a", {}, neg_ratio=1)

    def test_more_than_the_free_pairs(self):
        # 3 x 2 ordered pairs, less the candidate pair.
        with pytest.raises(ValueError, match="could not draw 6 x 1 negative pairs from 5 free"):
            three_queries("abc", {}, neg_ratio=6)

    def test_free_pairs_all_variant_mates(self):
        with pytest.raises(ValueError, match=r"could not draw 4 negative pairs \(3 found\)"):
            three_queries("abc", {"a": 0, "b": 1, "c": 0}, neg_ratio=4)


@pytest.fixture(scope="module")
def report(dataset):
    return pipeline.run_crossval(dataset, gbdt.TrainConfig(n_trees=40))


class TestCrossval:
    def test_eight_method_rows(self, report):
        assert len(report.metrics) == 8
        assert set(report.metrics) == set(pipeline.ALL_METHODS)

    def test_gbdt_at_least_learns_signal(self, report):
        for m in pipeline.SINGLE_METHODS:
            assert report.metrics["GBDT"][0] >= report.metrics[m][0] - 0.01

    def test_report_lines_shape(self, report):
        lines = report.lines()
        assert lines[0] == "method\tNDCG5\tMAP"
        assert sum(1 for ln in lines if ln.startswith("wilcoxon\t")) == 3
        assert sum(1 for ln in lines if ln.startswith("importance\t")) == 23

    def test_determinism(self, dataset):
        cfg = gbdt.TrainConfig(n_trees=10)
        r1 = pipeline.run_crossval(dataset, cfg)
        r2 = pipeline.run_crossval(dataset, cfg)
        assert r1.lines() == r2.lines()

    def test_empty_fold_detected(self, dataset):
        broken = pipeline.Dataset(
            rows=[r for r in dataset.rows if dataset.folds[r.q1] == 0],
            folds=dataset.folds,
        )
        with pytest.raises(ValueError):
            pipeline.run_crossval(broken, gbdt.TrainConfig(n_trees=2))


class TestCLI:
    def run(self, *args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "clickrec.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=cli_env(),
        )

    def test_end_to_end_smoke(self, tmp_path):
        cfgfile = tmp_path / "synth.cfg"
        cfgfile.write_text("n_topics=12\nn_users=20\nn_events=3000\nn_trees=10\n")
        out = tmp_path / "out"
        r = self.run(
            "--config", str(cfgfile), "--seed", "3", "--out", str(out), "synth",
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert (out / "clicks.tsv").exists() and (out / "taxonomy.tsv").exists()

        r = self.run("--out", str(out), "ingest", "--log", str(out / "clicks.tsv"), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = self.run("--out", str(out), "candidates", "--log", str(out / "clicks.tsv"), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = self.run(
            "--out", str(out), "assign",
            "--log", str(out / "clicks.tsv"), "--taxonomy", str(out / "taxonomy.tsv"),
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        r = self.run(
            "--out", str(out), "features",
            "--log", str(out / "clicks.tsv"), "--taxonomy", str(out / "taxonomy.tsv"),
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        r = self.run(
            "--config", str(cfgfile), "--out", str(out), "train",
            "--features", str(out / "features.tsv"), cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        q1 = (out / "features.tsv").read_text().splitlines()[1].split("\t")[0]
        r = self.run(
            "--out", str(out), "rank",
            "--model", str(out / "model.txt"),
            "--features", str(out / "features.tsv"), "--q1", q1, cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip()

    def test_missing_file_is_clean_error(self, tmp_path):
        r = self.run("--out", str(tmp_path), "ingest", "--log", "nope.tsv", cwd=tmp_path)
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
