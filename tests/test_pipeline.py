import contextlib
import errno
import os
import pickle
import random
import re
import signal
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import crossval_reference
import rows_reference
from clickrec import candidates as cand
from clickrec import features, gbdt, logs, pipeline, synth, taxonomy
from conftest import assert_no_child_left, cli_env, random_records
from test_features_equivalence import worlds


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


def regroup(pairs):
    """Candidate pairs as candidate rows: (q1, q2, {kind: strength}) in sorted order."""
    grouped = {}
    for p in pairs:
        grouped.setdefault((p.q1, p.q2), {})[p.kind] = p.strength
    return [(q1, q2, strengths) for (q1, q2), strengths in sorted(grouped.items())]


def split_rows(args, neg_ratio=1.0, seed=0):
    """select_rows' keys and row_builder's step for build_dataset's arguments."""
    pairs, stats, sessions, lex, assignments, clusters = args
    keys = pipeline.select_rows(regroup(pairs), stats, assignments, clusters, neg_ratio, seed)
    return keys, pipeline.row_builder(stats, cand.build_session_stats(sessions), lex, assignments)


@pytest.fixture(scope="module")
def rows(world):
    """The keys and row step of the dataset fixture's rows."""
    _, stats, sessions, lex, assignments, clusters = world
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    return split_rows((pairs, stats, sessions, lex, assignments, clusters), seed=2)


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
            for q2 in cand.co_session_strengths(t, st):
                if q2.startswith("t") and " " not in q2 and q2 != t:
                    g1, g2 = i // synth.SIBLINGS_PER_GROUP, int(q2[1:]) // synth.SIBLINGS_PER_GROUP
                    if g1 == g2:
                        sibling_moves += 1
        assert sibling_moves > SMALL["n_topics"] // 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            synth.SynthConfig(n_topics=0)


class TestGenerateCandidates:
    def test_one_generate_all_call_per_query(self, monkeypatch, world):
        # The traced benchmark patches candidates.generate_all, times it and
        # divides the pair count by its calls (candidates.pairs_per_query).
        _, stats, sessions, lex, _, _ = world
        want = pipeline.generate_candidates(stats, sessions, lex)
        generate_all = cand.generate_all
        calls = []

        def counted(q1, *args):
            calls.append(q1)
            return generate_all(q1, *args)

        monkeypatch.setattr(cand, "generate_all", counted)
        assert pipeline.generate_candidates(stats, sessions, lex) == want
        assert calls == stats.queries


class TestDataset:
    def test_no_pair_in_both_roles(self, dataset):
        pos = {(r.q1, r.q2) for r in dataset.rows if r.kinds}
        neg = {(r.q1, r.q2) for r in dataset.rows if not r.kinds}
        assert not pos & neg

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

    def test_kinds_are_the_candidate_kinds(self, world, dataset):
        _, stats, sessions, lex, _, _ = world
        strengths = {}
        for p in pipeline.generate_candidates(stats, sessions, lex):
            strengths.setdefault((p.q1, p.q2), {})[p.kind] = p.strength
        for r in dataset.rows:
            assert r.kinds == frozenset(strengths.get((r.q1, r.q2), {}))

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


def three_query_inputs(clicked, clusters):
    """build_dataset's arguments over queries a, b and c, one URL each, all
    categorized, up to neg_ratio and seed.

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
    lex = frozenset()
    assignments = {q: taxonomy.CategoryAssignment(q, ("x",), {("x",): 1}) for q in "abc"}
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    assert [(p.q1, p.q2) for p in pairs] == [("a", "b")]
    return pairs, stats, sessions, lex, assignments, clusters


def three_queries(clicked, clusters, neg_ratio):
    """build_dataset over three_query_inputs(clicked, clusters)."""
    return pipeline.build_dataset(*three_query_inputs(clicked, clusters), neg_ratio=neg_ratio)


class TestNegativeSampling:
    def test_draws_every_free_pair(self):
        # a and c are variant mates: (b, a), (b, c) and (c, b) are left.
        ds = three_queries("abc", {"a": 0, "b": 1, "c": 0}, neg_ratio=3)
        assert sorted((r.q1, r.q2) for r in ds.rows if not r.kinds) == [
            ("b", "a"), ("b", "c"), ("c", "b")
        ]

    def test_one_categorized_query(self):
        with pytest.raises(ValueError, match="could not draw 1 x 1 negative pairs from 0 free"):
            three_queries("a", {}, neg_ratio=1)

    def test_more_than_the_free_pairs(self):
        # 3 x 2 ordered pairs, less the candidate pair.
        with pytest.raises(ValueError, match="could not draw 6 x 1 negative pairs from 5 free"):
            three_queries("abc", {}, neg_ratio=6)

    def test_free_pairs_all_variant_mates(self):
        # (a, c) and (c, a) are mates, so 3 of the 5 non-candidate pairs are free.
        with pytest.raises(ValueError, match="could not draw 4 x 1 negative pairs from 3 free"):
            three_queries("abc", {"a": 0, "b": 1, "c": 0}, neg_ratio=4)


@st.composite
def categorized_worlds(draw):
    """A random log whose queries are mostly categorized and often share a
    variant cluster, so the pool holds mates."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    records = random_records(
        rng, draw(st.integers(2, 120)), n_users=draw(st.integers(1, 6)),
        n_queries=draw(st.integers(2, 10)), n_urls=draw(st.integers(1, 8)),
    )
    stats = logs.build_click_stats(records)
    sessions = logs.segment_sessions(records)
    n_clusters = draw(st.integers(1, 4))
    assignments, clusters = {}, {}
    for q in sorted(stats.cnt_q):
        if rng.random() < 0.9:
            assignments[q] = taxonomy.CategoryAssignment(q, ("x",), {("x",): 1})
        if rng.random() < 0.7:
            clusters[q] = rng.randrange(n_clusters)
    return stats, sessions, assignments, clusters


@settings(max_examples=150, deadline=None)
@given(categorized_worlds())
def test_negatives_are_exactly_the_free_pairs(world):
    """Asking for every free pair draws each once; one more raises."""
    stats, sessions, assignments, clusters = world
    lex = frozenset()
    pairs = pipeline.generate_candidates(stats, sessions, lex)

    def build(neg_ratio):
        return pipeline.build_dataset(
            pairs, stats, sessions, lex, assignments, clusters, neg_ratio=neg_ratio, seed=1
        )

    taken = {(r.q1, r.q2) for r in build(0).rows}
    n = len(taken)
    pool = [q for q in sorted(stats.cnt_q) if q in assignments]
    free = {
        (q1, q2)
        for q1 in pool
        for q2 in pool
        if q1 != q2
        and (q1, q2) not in taken
        and not (q1 in clusters and clusters.get(q1) == clusters.get(q2))
    }
    assume(n > 0 and len(free) / n * n == len(free))
    rows = build(len(free) / n).rows
    assert [(r.q1, r.q2) for r in rows[:n]] == sorted(taken)
    assert sorted((r.q1, r.q2) for r in rows[n:]) == sorted(free)
    with pytest.raises(ValueError, match=f"from {len(free)} free pairs"):
        build((len(free) + 1) / n)


def test_many_variant_mates_leave_enough_free_pairs():
    """400 mutual mates and z: 100 sessions q_i -> z leave 700 free pairs
    (z -> q_i and the other q_i -> z).  Most draws land on mates, so a cap
    on the number of draws would give up here."""
    mates = [f"m{i:03d}" for i in range(400)]
    recs = [logs.ClickRecord(0, "u", "z", "http://z", 1)]
    for i, q in enumerate(mates):
        recs.append(logs.ClickRecord(0, f"u{i:03d}", q, f"http://{q}", 1))
        if i < 100:
            recs.append(logs.ClickRecord(10, f"u{i:03d}", "z", "http://z", 1))
    stats = logs.build_click_stats(recs)
    sessions = logs.segment_sessions(recs)
    lex = frozenset()
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    assert sorted({(p.q1, p.q2) for p in pairs}) == [(q, "z") for q in mates[:100]]
    assignments = {q: taxonomy.CategoryAssignment(q, ("x",), {("x",): 1}) for q in [*mates, "z"]}
    dataset = pipeline.build_dataset(
        pairs, stats, sessions, lex, assignments, dict.fromkeys(mates, 0), seed=0
    )
    negatives = [(r.q1, r.q2) for r in dataset.rows if not r.kinds]
    assert len(negatives) == 100
    assert all("z" in pair for pair in negatives)


@st.composite
def row_worlds(draw):
    """select_rows' inputs up to neg_ratio and seed.  Candidate pairs join any
    two of a few queries, self pairs and repeated pairs included.  Only some
    queries are clicked, so some pairs lead to a query missing from the click
    counts.  A query has votes, an assignment without votes or none, also
    outside the click counts, and few variant clusters make mates common,
    among the candidates too."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    queries = [f"q{i}" for i in range(draw(st.integers(1, 12)))]
    clicked = [q for q in queries if rng.random() < 0.8]
    stats = logs.build_click_stats([logs.ClickRecord(0, "u", q, f"http://{q}", 1) for q in clicked])
    n_clusters = draw(st.integers(1, 4))
    assignments, clusters = {}, {}
    for q in queries:
        if (r := rng.random()) < 0.9:
            votes = {("x",): 1} if r < 0.75 else {}
            assignments[q] = taxonomy.CategoryAssignment(q, ("x",) if votes else None, votes)
        if rng.random() < 0.5:
            clusters[q] = rng.randrange(n_clusters)
    pairs = [
        cand.CandidatePair(*rng.choices(queries, k=2), rng.choice(cand.KINDS), rng.random())
        for _ in range(draw(st.integers(0, 40)))
    ]
    return pairs, stats, assignments, clusters


@settings(max_examples=300, deadline=None)
@given(row_worlds(), st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.integers(0, 3))
def test_select_rows_matches_the_reference(world, neg_ratio, seed):
    """The reference's keys in its order, or its error type and message."""
    pairs, *rest = world
    try:
        want = rows_reference.select_rows(pairs, *rest, neg_ratio, seed)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            pipeline.select_rows(regroup(pairs), *rest, neg_ratio, seed)
    else:
        assert pipeline.select_rows(regroup(pairs), *rest, neg_ratio, seed) == want


@pytest.mark.parametrize("neg_ratio", [0.0, 1.0, 2.0])
def test_select_rows_matches_the_reference_on_a_synthetic_log(world, neg_ratio):
    _, stats, sessions, lex, assignments, clusters = world
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    rows = pipeline.candidate_rows(stats, cand.build_session_stats(sessions), lex)
    assert rows == regroup(pairs)
    want = rows_reference.select_rows(pairs, stats, assignments, clusters, neg_ratio, 3)
    assert pipeline.select_rows(rows, stats, assignments, clusters, neg_ratio, 3) == want


def exact(rows):
    """Rows with each strength as float.hex, its kinds in their dict order."""
    return [(q1, q2, [(k, s.hex()) for k, s in strengths.items()]) for q1, q2, strengths in rows]


@settings(max_examples=200, deadline=None)
@given(worlds())
def test_candidate_rows_are_the_regrouped_pairs(world):
    """Keys, kind order and every strength's bits, with all three kinds in play."""
    stats, sst, _ = world
    lex = cand.detect_facets(stats, min_distinct=1, min_query_freq=1)
    want = regroup(pipeline.candidate_pairs(stats, sst, lex))
    assert exact(pipeline.candidate_rows(stats, sst, lex)) == exact(want)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for seconds."""

    def timeout(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def no_fork():
    """A patch that makes os.fork fail, as where no process can be started."""
    return mock.patch.object(os, "fork", side_effect=OSError("no fork"))


def dataset_matrix(args, **kw) -> bytes:
    """features.tsv's bytes: feature_matrix_lines over build_dataset's rows."""
    rows = [
        (r.q1, r.q2, "+".join(sorted(r.kinds)) or "-", r.fv)
        for r in pipeline.build_dataset(*args, **kw).rows
    ]
    return ("\n".join(features.feature_matrix_lines(rows)) + "\n").encode("utf-8")


def split_matrix(args, forked=True, **kw) -> bytes:
    """pipeline.feature_matrix's bytes, after checking that this process
    built the first half of the rows in key order, and the second half too
    unless forked."""
    keys, build_row = split_rows(args, **kw)
    built_here = []

    def recording_build_row(*key):
        built_here.append(key)
        return build_row(*key)

    lines = pipeline.feature_matrix(keys, recording_build_row)
    assert built_here == (keys[: len(keys) // 2] if forked else keys)
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def matrix_worlds(draw):
    """build_dataset's arguments, up to neg_ratio and seed, for a random log
    over non-ASCII queries with random categories (some queries get none)
    and variant clusters (some queries are in none)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    words = draw(st.lists(st.text("a\u00e9\u3042\U0001f600", min_size=1, max_size=3),
                          min_size=1, max_size=8))
    names = [f"q{i} {w}" for i, w in enumerate(words)]
    records = random_records(
        rng, draw(st.integers(1, 80)), n_users=draw(st.integers(1, 6)),
        n_queries=len(names), n_urls=draw(st.integers(1, 8)),
    )
    records = [r._replace(query=names[int(r.query[1:])]) for r in records]
    stats = logs.build_click_stats(records)
    sessions = logs.segment_sessions(records)
    lex = frozenset()
    assignments, clusters = {}, {}
    for q in sorted(stats.cnt_q):
        if rng.random() < 0.8:
            path = rng.choice([("a",), ("a", "b"), ("c",)])
            assignments[q] = taxonomy.CategoryAssignment(q, path, {path: 1})
        if rng.random() < 0.3:
            clusters[q] = rng.randrange(3)
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    return pairs, stats, sessions, lex, assignments, clusters


class TestFeatureMatrix:
    """feature_matrix builds its second half of the rows in a forked child."""

    @settings(max_examples=60, deadline=None)
    @given(matrix_worlds(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_same_bytes_as_the_datasets_matrix(self, args, neg_ratio):
        try:
            want = dataset_matrix(args, neg_ratio=neg_ratio, seed=4)
        except ValueError as exc:  # too few free pairs for the negatives
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                pipeline.feature_matrix(*split_rows(args, neg_ratio=neg_ratio, seed=4))
            return
        assert split_matrix(args, neg_ratio=neg_ratio, seed=4) == want
        with no_fork():
            assert split_matrix(args, forked=False, neg_ratio=neg_ratio, seed=4) == want
        assert_no_child_left()

    @pytest.mark.parametrize(
        "clusters, neg_ratio, n_rows",
        [({"a": 0, "b": 0}, 0, 0), ({}, 0, 1), ({}, 2, 3), ({}, 4, 5)],
    )
    def test_few_rows(self, clusters, neg_ratio, n_rows):
        args = three_query_inputs("abc", clusters)
        want = dataset_matrix(args, neg_ratio=neg_ratio)
        assert want.count(b"\n") == 1 + n_rows
        assert split_matrix(args, neg_ratio=neg_ratio) == want
        assert_no_child_left()

    @staticmethod
    def fail_on(monkeypatch, world, halves, exit_code=None):
        """Patch query_similarity to fail on the first row of each half named.

        It raises ValueError("<half> row failed in process <pid>"), or with
        exit_code it leaves its process through os._exit(exit_code).
        """
        _, stats, sessions, lex, assignments, clusters = world
        pairs = pipeline.generate_candidates(stats, sessions, lex)
        keys = pipeline.select_rows(regroup(pairs), stats, assignments, clusters, 1.0, 0)
        first = {"parent": keys[0][:2], "child": keys[len(keys) // 2][:2]}
        failing = {first[half]: half for half in halves}
        similarity = pipeline.query_similarity

        def failing_similarity(q1, q2, assignments):
            half = failing.get((q1, q2))
            if half is not None:
                if exit_code is not None:
                    os._exit(exit_code)
                raise ValueError(f"{half} row failed in process {os.getpid()}")
            return similarity(q1, q2, assignments)

        monkeypatch.setattr(pipeline, "query_similarity", failing_similarity)
        return pairs, stats, sessions, lex, assignments, clusters

    @pytest.mark.parametrize("halves", [("child",), ("parent",), ("parent", "child")])
    def test_errors_come_in_row_order(self, monkeypatch, world, halves):
        args = self.fail_on(monkeypatch, world, halves)
        with pytest.raises(ValueError, match=r"^\w+ row failed in process \d+$") as info:
            pipeline.feature_matrix(*split_rows(args))
        half, pid = str(info.value).split()[0], int(str(info.value).split()[-1])
        assert half == halves[0]
        assert (pid == os.getpid()) == (half == "parent")
        assert_no_child_left()

    def test_child_that_dies_is_an_error(self, monkeypatch, world):
        args = self.fail_on(monkeypatch, world, ("child",), exit_code=3)
        with pytest.raises(ChildProcessError, match="exited with status 3"):
            pipeline.feature_matrix(*split_rows(args))
        assert_no_child_left()


@pytest.fixture(scope="module")
def report(rows):
    return pipeline.run_crossval(*rows, gbdt.TrainConfig(n_trees=40))


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

    def test_determinism(self, rows):
        cfg = gbdt.TrainConfig(n_trees=10)
        r1 = pipeline.run_crossval(*rows, cfg)
        r2 = pipeline.run_crossval(*rows, cfg)
        assert r1.lines() == r2.lines()

    def test_degenerate_counts_queries_with_only_zero_grades(self):
        # Four queries per fold, three candidates each: q0-q3 are in fold 0
        # and q4-q7 in fold 1.  q0 and q4 have only sim-0 candidates; every
        # other query has one sim-0 candidate and two that grade above 0.
        assert [pipeline.fold_of(f"q{i}") for i in range(8)] == [0] * 4 + [1] * 4
        rng = random.Random(11)
        rows = {}
        for i in range(8):
            q1 = f"q{i}"
            sims = [0.0, 0.0, 0.0] if i % 4 == 0 else [0.0, 0.2, 0.9]
            for j, sim in enumerate(sims):
                values = [rng.randint(0, 9) if typ is int else rng.random()
                          for _, _, typ in features.FEATURES]
                fv = features.FeatureVector(*values, sim=sim)
                q2 = f"{q1}r{j}"
                rows[q1, q2] = pipeline.DatasetRow(q1, q2, frozenset({"co_click"}), fv)
        keys = [(q1, q2, {"co_click": 1.0}) for q1, q2 in rows]
        report = pipeline.run_crossval(
            keys, lambda q1, q2, strengths: rows[q1, q2].fv, gbdt.TrainConfig(n_trees=3, min_leaf=1)
        )
        assert report.n_queries == 8
        assert report.n_degenerate == 2

    def test_empty_fold_detected(self, rows):
        keys, build_row = rows
        broken = [key for key in keys if pipeline.fold_of(key[0]) == 0]
        with pytest.raises(ValueError):
            pipeline.run_crossval(broken, build_row, gbdt.TrainConfig(n_trees=2))

    @settings(max_examples=150, deadline=None)
    @given(matrix_worlds(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_same_report_as_the_reference(self, args, neg_ratio):
        """Forked, without a fork and by the one-process reference: one report, or one error."""
        cfg = gbdt.TrainConfig(n_trees=3, min_leaf=1)
        error = None
        try:
            dataset = pipeline.build_dataset(*args, neg_ratio=neg_ratio, seed=4)
            want = crossval_reference.run_crossval(dataset, cfg).lines()
        except ValueError as exc:  # an empty fold, a fold too small to fit or too few free pairs
            error = exc
        for context in (contextlib.nullcontext(), no_fork()):
            with context:
                if error is None:
                    report = pipeline.run_crossval(*split_rows(args, neg_ratio, 4), cfg)
                    assert report.lines() == want
                else:
                    with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                        pipeline.run_crossval(*split_rows(args, neg_ratio, 4), cfg)
        assert_no_child_left()


class TestForkHalves:
    """_fork_halves sends what the child's half returns back as one pickle."""

    @pytest.mark.parametrize("forked", [True, False])
    def test_a_value_larger_than_the_pipe_buffer(self, forked):
        # The child can exit only once this process has read its pipe.
        value = [str(i).rjust(100, "x") for i in range(2000)]
        assert len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL)) > 65536
        with deadline(60), contextlib.nullcontext() if forked else no_fork():
            mine, theirs = pipeline._fork_halves(os.getpid, lambda: (os.getpid(), value))
        assert mine == os.getpid()
        assert (theirs[0] != mine) == forked
        assert theirs[1] == value
        assert_no_child_left()

    def test_an_unpicklable_value_is_an_error(self):
        def there():
            return lambda: None

        with pytest.raises(ChildProcessError, match="exited with status 1"):
            pipeline._fork_halves(lambda: None, there)
        assert_no_child_left()
        with no_fork():
            assert pipeline._fork_halves(lambda: None, there)[1]() is None

    def test_an_unpicklable_exception_is_an_error(self):
        class LocalError(Exception):
            pass

        def there():
            raise LocalError("raised by there()")

        with pytest.raises(ChildProcessError, match="exited with status 1"):
            pipeline._fork_halves(lambda: None, there)
        assert_no_child_left()
        with no_fork(), pytest.raises(LocalError, match=r"^raised by there\(\)$"):
            pipeline._fork_halves(lambda: None, there)


class TestFoldFits:
    """run_crossval fits fold 1 in a forked child while it fits fold 0."""

    CFG = gbdt.TrainConfig(n_trees=5)

    @staticmethod
    def fail_on(monkeypatch, dataset, folds, exit_code=None):
        """Patch gbdt.fit to fail on the training rows of the given folds.

        It raises ValueError("fold <f> failed in process <pid>"), or with
        exit_code it leaves its process through os._exit(exit_code).
        """
        fold_X = {
            f: np.array([r.fv.values() for r in dataset.rows if pipeline.fold_of(r.q1) == f])
            for f in folds
        }
        fit = gbdt.fit

        def failing_fit(X, y, cfg, **kw):
            for f, Xf in fold_X.items():
                if X.shape == Xf.shape and np.array_equal(X, Xf):
                    if exit_code is not None:
                        os._exit(exit_code)
                    raise ValueError(f"fold {f} failed in process {os.getpid()}")
            return fit(X, y, cfg, **kw)

        monkeypatch.setattr(gbdt, "fit", failing_fit)

    @pytest.mark.parametrize("folds", [(1,), (0,), (0, 1)])
    def test_errors_come_in_fold_order(self, monkeypatch, dataset, rows, folds):
        self.fail_on(monkeypatch, dataset, folds)
        with pytest.raises(ValueError, match=r"^fold \d failed in process \d+$") as info:
            pipeline.run_crossval(*rows, self.CFG)
        fold, pid = map(int, re.findall(r"\d+", str(info.value)))
        assert fold == min(folds)
        # Fold 1's error comes from the child, fold 0's from this process.
        assert (pid == os.getpid()) == (fold == 0)
        assert_no_child_left()

    def test_child_that_dies_is_an_error(self, monkeypatch, dataset, rows):
        self.fail_on(monkeypatch, dataset, (1,), exit_code=3)
        with pytest.raises(ChildProcessError, match="exited with status 3"):
            pipeline.run_crossval(*rows, self.CFG)
        assert_no_child_left()

    def test_without_fork_fits_both_folds_here(self, monkeypatch, dataset, rows):
        # Fold 1's pickled model outgrows a 64 KiB pipe buffer, so the child
        # exits only once its pipe is read: waiting first would hang.
        cfg = gbdt.TrainConfig(n_trees=100)
        X1, y1 = (np.array(col) for col in zip(*(
            (r.fv.values(), r.fv.sim) for r in dataset.rows if pipeline.fold_of(r.q1) == 1
        )))
        model1 = gbdt.fit(X1, y1, cfg, feature_names=features.FEATURE_NAMES)
        assert len(pickle.dumps(("ok", model1), pickle.HIGHEST_PROTOCOL)) > 65536
        with deadline(60):
            forked = pipeline.run_crossval(*rows, cfg)
        assert_no_child_left()

        pids = []
        fit = gbdt.fit

        def recording_fit(X, y, cfg, **kw):
            pids.append(os.getpid())
            return fit(X, y, cfg, **kw)

        monkeypatch.setattr(gbdt, "fit", recording_fit)
        with no_fork():
            assert pipeline.run_crossval(*rows, cfg).lines() == forked.lines()
        assert pids == [os.getpid()] * 2


@pytest.mark.parametrize("run", ["feature_matrix", "run_crossval"])
def test_a_pipe_that_cannot_be_made_runs_both_halves_here(monkeypatch, rows, run):
    """A full descriptor table falls back like a failed fork, not to an error."""
    output = {
        "feature_matrix": lambda: pipeline.feature_matrix(*rows),
        "run_crossval": lambda: pipeline.run_crossval(*rows, gbdt.TrainConfig(n_trees=5)).lines(),
    }[run]
    forked = output()

    def no_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    def refuse():
        raise AssertionError("os.fork called without a pipe")

    monkeypatch.setattr(os, "pipe", no_pipe)
    monkeypatch.setattr(os, "fork", refuse)
    assert output() == forked
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
class TestChildPlacement:
    """The fold-1 child moves off the parent's CPU once, then is placed freely."""

    CFG = gbdt.TrainConfig(n_trees=5)

    def test_other_cpus_leave_out_exactly_this_one(self):
        allowed = os.sched_getaffinity(0)
        others = pipeline._other_cpus()
        if len(allowed) > 1:
            assert others < allowed and len(allowed - others) == 1
        else:
            assert others == set()

    def test_child_moves_then_restores_its_mask(self, monkeypatch, rows):
        allowed = os.sched_getaffinity(0)
        calls = []
        set_affinity = os.sched_setaffinity

        def recording_set(pid, cpus):
            calls.append(sorted(cpus))
            set_affinity(pid, cpus)

        fit = gbdt.fit

        def report_calls(X, y, cfg, **kw):
            if os.getpid() != parent:
                raise ValueError(repr(calls))
            return fit(X, y, cfg, **kw)

        parent = os.getpid()
        others = {min(allowed)}  # any CPU of the mask will do
        monkeypatch.setattr(pipeline, "_other_cpus", lambda: others)
        monkeypatch.setattr(os, "sched_setaffinity", recording_set)
        monkeypatch.setattr(gbdt, "fit", report_calls)
        with pytest.raises(ValueError) as info:
            pipeline.run_crossval(*rows, self.CFG)
        assert str(info.value) == repr([sorted(others), sorted(allowed)])
        assert calls == []  # only the child moved
        assert os.sched_getaffinity(0) == allowed

    def test_no_other_cpu_means_no_move(self, monkeypatch, rows):
        expected = pipeline.run_crossval(*rows, self.CFG).lines()

        def refuse(pid, cpus):
            raise AssertionError("sched_setaffinity called")

        other_cpus = pipeline._other_cpus
        monkeypatch.setattr(pipeline, "_other_cpus", set)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        # A call would end the child with status 1: a ChildProcessError here.
        assert pipeline.run_crossval(*rows, self.CFG).lines() == expected
        # Without sched_getaffinity, _other_cpus itself finds no other CPU.
        monkeypatch.setattr(pipeline, "_other_cpus", other_cpus)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert pipeline._other_cpus() == set()
        assert pipeline.run_crossval(*rows, self.CFG).lines() == expected

    def test_a_refused_move_still_fits(self, monkeypatch, rows):
        expected = pipeline.run_crossval(*rows, self.CFG).lines()

        def refuse(pid, cpus):
            raise OSError("not permitted")

        monkeypatch.setattr(pipeline, "_other_cpus", lambda: {0})
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert pipeline.run_crossval(*rows, self.CFG).lines() == expected


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
