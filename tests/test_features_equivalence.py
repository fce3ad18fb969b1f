"""The per-query feature context against the per-call reference builder.

Worlds are random click logs whose queries mix 1- to 4-byte UTF-8
characters, double spaces, reordered chunks and facet expansions.  Every
(q1, q2) pair of clicked queries, q1 == q2 included, must give the same
``repr`` of its FeatureVector as ``features_reference``, with and without
session pairs, when build_features gets the strengths that
``candidates.generate_all`` gives the pair; a q2 outside the click counts
raises KeyError.  Whole datasets, negatives included, must match too: on
random worlds with random categories and variant clusters, and on the
criterion-7 corpus.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import features_reference as ref
from clickrec import candidates as cand
from clickrec import logs, pipeline, synth, taxonomy
from clickrec.features import FeatureContext, build_features
from conftest import random_records

ALPHABET = "abéあ\U0001f600"  # 1-, 2-, 3- and 4-byte UTF-8


@st.composite
def worlds(draw):
    words = draw(st.lists(st.text(ALPHABET, min_size=1, max_size=5), min_size=1, max_size=4, unique=True))
    phrases = draw(
        st.lists(
            st.tuples(st.lists(st.sampled_from(words), min_size=1, max_size=3), st.sampled_from([" ", "  "])),
            min_size=1,
            max_size=6,
        )
    )
    names = {sep.join(chunks) for chunks, sep in phrases}
    names |= {" ".join(reversed(chunks)) for chunks, _ in phrases}
    # Facet expansions: a phrase plus a word that ends another phrase.
    names |= {f"{n} {words[-1]}" for n in sorted(names)[: draw(st.integers(0, 3))]}
    names = sorted(names)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    records = random_records(
        rng,
        draw(st.integers(1, 250)),
        n_users=draw(st.integers(1, 6)),
        n_queries=len(names),
        n_urls=draw(st.integers(1, 8)),
    )
    records = [r._replace(query=names[int(r.query[1:])]) for r in records]
    stats = logs.build_click_stats(records)
    sessions = [] if draw(st.booleans()) else logs.segment_sessions(records)
    return stats, cand.build_session_stats(sessions), names


@settings(max_examples=200, deadline=None)
@given(worlds(), st.text(ALPHABET + " ", min_size=1, max_size=6))
def test_every_pair_matches_reference(world, unknown):
    stats, sst, names = world
    lex = cand.detect_facets(stats, min_distinct=1, min_query_freq=1)
    ctx = FeatureContext(stats, sst, lex)
    postings = cand.url_postings(stats)
    for q1 in sorted(stats.cnt_q):
        strengths = {}
        for p in cand.generate_all(q1, stats, sst, lex, postings):
            strengths.setdefault(p.q2, {})[p.kind] = p.strength
        for q2 in [*names, unknown]:
            if q2 not in stats.cnt_q:
                with pytest.raises(KeyError):
                    build_features(q1, q2, ctx, {})
                continue
            # A pair outside every relation gets {}; the reference computes
            # its strengths and must find them all 0.
            got = build_features(q1, q2, ctx, strengths.get(q2, {}), sim=0.5)
            want = ref.build_features(q1, q2, stats, sst, lex, sim=0.5)
            assert repr(got) == repr(want), (q1, q2)


PATHS = [("a",), ("a", "b"), ("a", "c"), ("d",), ("d", "a", "b")]


@st.composite
def dataset_worlds(draw):
    """A random log over plain queries and facet expansions of some of them,
    with random categories (some queries get none) and variant clusters
    (some queries are in none)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    bases = [f"b{i}" for i in range(draw(st.integers(2, 16)))]
    names = bases + [f"{b} {w}" for b in bases[: draw(st.integers(0, len(bases)))] for w in "xy"]
    records = random_records(
        rng,
        draw(st.integers(20, 300)),
        n_users=draw(st.integers(1, 12)),
        n_queries=len(names),
        n_urls=draw(st.integers(1, 60)),
    )
    records = [r._replace(query=names[int(r.query[1:])]) for r in records]
    stats = logs.build_click_stats(records)
    sessions = [] if draw(st.booleans()) else logs.segment_sessions(records)
    p_uncategorized = draw(st.sampled_from([0.0, 0.2, 0.5]))
    n_clusters = draw(st.integers(1, 8))
    assignments, clusters = {}, {}
    for q in sorted(stats.cnt_q):
        votes = {}
        if rng.random() >= p_uncategorized:
            votes = {rng.choice(PATHS): rng.randint(1, 3) for _ in range(rng.randint(1, 2))}
        assignments[q] = taxonomy.CategoryAssignment(q, max(votes, key=votes.get, default=None), votes)
        if rng.random() < 0.5:
            clusters[q] = rng.randrange(n_clusters)
    return stats, sessions, assignments, clusters


@settings(max_examples=150, deadline=None)
@given(dataset_worlds(), st.sampled_from([0.2, 0.5, 1.0]))
def test_whole_dataset_matches_reference(world, neg_ratio):
    stats, sessions, assignments, clusters = world
    sst = cand.build_session_stats(sessions)
    lex = cand.detect_facets(stats, min_distinct=1, min_query_freq=1)
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    try:
        dataset = pipeline.build_dataset(
            pairs, stats, sessions, lex, assignments, clusters, neg_ratio=neg_ratio, seed=3
        )
    except ValueError as exc:  # too few free pairs for the negatives
        assert str(exc).startswith("could not draw"), exc
        return
    kinds = {}
    for p in pairs:
        kinds.setdefault((p.q1, p.q2), set()).add(p.kind)
    for r in dataset.rows:
        assert r.kinds == kinds.get((r.q1, r.q2), set()), (r.q1, r.q2)
        assert r.fv.sim == taxonomy.query_similarity(r.q1, r.q2, assignments)
        want = ref.build_features(r.q1, r.q2, stats, sst, lex, sim=r.fv.sim)
        assert repr(r.fv) == repr(want), (r.q1, r.q2)


def test_unknown_q1_raises():
    stats = logs.build_click_stats(random_records(random.Random(1), 50))
    ctx = FeatureContext(stats, cand.build_session_stats([]), frozenset())
    assert "q1" in ctx.queries
    with pytest.raises(KeyError):
        build_features("never logged", "q1", ctx, {})
    with pytest.raises(KeyError):
        build_features("q1", "never logged", ctx, {})


@pytest.mark.parametrize("seed", [42, 2026])
def test_criterion_7_dataset_matches_reference(seed):
    cfg = synth.SynthConfig(n_topics=16, n_users=30, n_events=6000, seed=seed)
    clicks, taxo = synth.synth_logs(cfg)
    parsed = logs.parse_log(clicks)
    stats = logs.build_click_stats(logs.clean_log(parsed.records))
    sessions = logs.segment_sessions(parsed.records)
    lex = cand.detect_facets(stats)
    index = taxonomy.load_taxonomy(taxo)
    assignments = {q: taxonomy.assign_category(q, index) for q in stats.queries}
    clusters = taxonomy.cluster_trivial_variants(stats)
    pairs = pipeline.generate_candidates(stats, sessions, lex)
    dataset = pipeline.build_dataset(pairs, stats, sessions, lex, assignments, clusters, seed=seed)
    sst = cand.build_session_stats(sessions)
    assert len(dataset.rows) > 1000
    for r in dataset.rows:
        want = ref.build_features(r.q1, r.q2, stats, sst, lex, sim=r.fv.sim)
        assert repr(r.fv) == repr(want), (r.q1, r.q2)
