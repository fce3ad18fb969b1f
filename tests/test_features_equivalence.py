"""The per-query feature context against the per-call reference builder.

Worlds are random click logs whose queries mix 1- to 4-byte UTF-8
characters, double spaces, reordered chunks and facet expansions.  Every
(q1, q2) pair, including q1 == q2 and a q2 that was never logged, must give
the same ``repr`` of its FeatureVector as ``features_reference``, with and
without session pairs.  Whole datasets on the criterion-7 corpus must match
too.
"""

import dataclasses
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
    records = [dataclasses.replace(r, query=names[int(r.query[1:])]) for r in records]
    stats = logs.build_click_stats(records)
    sessions = [] if draw(st.booleans()) else logs.segment_sessions(records)
    return stats, cand.build_session_stats(sessions), names


@settings(max_examples=200, deadline=None)
@given(worlds(), st.text(ALPHABET + " ", min_size=1, max_size=6))
def test_every_pair_matches_reference(world, unknown):
    stats, sst, names = world
    lex = cand.detect_facets(stats, min_distinct=1, min_query_freq=1)
    ctx = FeatureContext(stats, sst, lex)
    for q1 in sorted(stats.cnt_q):
        for q2 in [*names, unknown]:
            got = build_features(q1, q2, ctx, sim=0.5)
            want = ref.build_features(q1, q2, stats, sst, lex, sim=0.5)
            assert repr(got) == repr(want), (q1, q2)


def test_unknown_q1_raises():
    stats = logs.build_click_stats(random_records(random.Random(1), 50))
    ctx = FeatureContext(stats, cand.build_session_stats([]), cand.FacetLexicon())
    with pytest.raises(KeyError):
        build_features("never logged", "q1", ctx)


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
