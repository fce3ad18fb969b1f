import random

import pytest

from clickrec.candidates import (
    brccq,
    build_session_stats,
    csq,
    ctq,
    detect_facets,
    dump_candidates,
    generate_all,
    p_cc,
    p_cs,
    p_ct,
)
from clickrec.logs import ClickRecord, build_click_stats, segment_sessions
from conftest import random_records


# ---------------------------------------------------------------------------
# Brute-force oracles, written against the raw definitions.
# ---------------------------------------------------------------------------

def oracle_brccq(q, records):
    """Queries with the lowest best rank on some URL q clicked, less q."""
    best = {}  # (url, query) -> best rank
    for r in records:
        best[(r.url, r.query)] = min(best.get((r.url, r.query), r.rank), r.rank)
    result = set()
    for u in {r.url for r in records if r.query == q}:
        ranks = {q2: rank for (u2, q2), rank in best.items() if u2 == u}
        low = min(ranks.values())
        result |= {q2 for q2, rank in ranks.items() if rank == low}
    result.discard(q)
    return result


def oracle_p_cc(q1, q2, records):
    """Sum over q1's URLs, in sorted order, of P(u|q1) P(q2) P(u|q2) / P(u),
    with every count taken from the records."""
    n = len(records)
    n1 = sum(1 for r in records if r.query == q1)
    n2 = sum(1 for r in records if r.query == q2)
    total = 0.0
    for u in sorted({r.url for r in records if r.query == q1}):
        k1 = sum(1 for r in records if r.url == u and r.query == q1)
        k2 = sum(1 for r in records if r.url == u and r.query == q2)
        if k2 == 0:
            continue
        n_u = sum(1 for r in records if r.url == u)
        total += k1 / n1 * (n2 / n) * (k2 / n2) / (n_u / n)
    return total


def oracle_csq(q1, sessions):
    out = set()
    for s in sessions:
        qs = [q for _, q in s.queries]
        for a, b in zip(qs, qs[1:]):
            if a == q1 and b != q1:
                out.add(b)
    return out


def oracle_p_cs(q1, q2, sessions):
    adjacent = 0
    occurrences = 0
    for s in sessions:
        qs = [q for _, q in s.queries]
        occurrences += sum(1 for q in qs if q == q1)
        adjacent += sum(1 for a, b in zip(qs, qs[1:]) if a == q1 and b == q2)
    return adjacent / occurrences if occurrences else 0.0


class TestBrccq:
    def test_unique_minimum(self):
        recs = [
            ClickRecord(1, "u1", "q", "http://a", 3),
            ClickRecord(2, "u2", "q", "http://a", 3),
            ClickRecord(3, "u1", "qq", "http://a", 1),
            ClickRecord(4, "u2", "qq", "http://a", 1),
        ]
        stats = build_click_stats(recs)
        assert brccq("q", stats) == {"qq"}

    def test_self_only_url_contributes_nothing(self):
        recs = [
            ClickRecord(1, "u1", "q", "http://a", 1),
            ClickRecord(2, "u2", "q", "http://a", 2),
        ]
        stats = build_click_stats(recs)
        assert brccq("q", stats) == set()

    def test_argmin_ties_all_kept(self):
        recs = [
            ClickRecord(1, "u1", "q", "http://a", 5),
            ClickRecord(2, "u1", "qa", "http://a", 1),
            ClickRecord(3, "u1", "qb", "http://a", 1),
        ]
        stats = build_click_stats(recs)
        assert brccq("q", stats) == {"qa", "qb"}

    def test_unknown_query_empty(self):
        assert brccq("nope", build_click_stats([])) == set()

    def test_matches_oracle_on_random_logs(self):
        rng = random.Random(13)
        for trial in range(10):
            records = random_records(rng, 200)
            stats = build_click_stats(records)
            for q in stats.cnt_q:
                assert brccq(q, stats) == oracle_brccq(q, records)


class TestPcc:
    def test_disjoint_support_is_zero(self):
        recs = [
            ClickRecord(1, "u1", "q1", "http://a", 1),
            ClickRecord(2, "u1", "q2", "http://b", 1),
        ]
        stats = build_click_stats(recs)
        assert p_cc("q1", "q2", stats) == 0.0

    def test_single_url_world(self):
        # only u clicked: q1 3 times, q2 once; total=4
        recs = [ClickRecord(t, f"u{t}", "q1", "http://u", 1) for t in range(3)]
        recs.append(ClickRecord(9, "u9", "q2", "http://u", 1))
        stats = build_click_stats(recs)
        assert abs(p_cc("q1", "q2", stats) - 0.25) < 1e-15

    def test_self_value_well_defined(self):
        recs = [ClickRecord(t, f"u{t}", "q1", "http://u", 1) for t in range(3)]
        recs.append(ClickRecord(9, "u9", "q2", "http://u", 1))
        stats = build_click_stats(recs)
        assert abs(p_cc("q1", "q1", stats) - 0.75) < 1e-15

    def test_unknown_query_raises(self):
        with pytest.raises(KeyError):
            p_cc("nope", "q", build_click_stats([]))

    def test_matches_oracle(self):
        rng = random.Random(17)
        records = random_records(rng, 400)
        stats = build_click_stats(records)
        for q1 in stats.cnt_q:
            for q2 in stats.cnt_q:
                assert p_cc(q1, q2, stats) == oracle_p_cc(q1, q2, records)

    def test_count_scale_invariance(self):
        rng = random.Random(19)
        base = random_records(rng, 150)
        stats1 = build_click_stats(base)
        tripled = [
            ClickRecord(r.timestamp, f"{r.user}#{k}", r.query, r.url, r.rank)
            for r in base
            for k in range(3)
        ]
        stats3 = build_click_stats(tripled)
        for q1 in stats1.cnt_q:
            for q2 in stats1.cnt_q:
                assert abs(p_cc(q1, q2, stats1) - p_cc(q1, q2, stats3)) < 1e-12


def _facet_world(count_per_query=10):
    recs = []
    t = 0
    queries = [f"{topic} recipe" for topic in ("curry", "beef", "soup", "pasta", "cake")]
    for q in queries:
        for i in range(count_per_query):
            t += 1
            recs.append(ClickRecord(t, f"u{i}", q, f"http://{q.split()[0]}", 1))
    return recs


class TestFacets:
    def test_five_distinct_enders_make_a_facet(self):
        stats = build_click_stats(_facet_world(10))
        lex = detect_facets(stats)
        assert "recipe" in lex

    def test_frequency_floor(self):
        stats = build_click_stats(_facet_world(9))
        lex = detect_facets(stats)
        assert "recipe" not in lex

    def test_single_chunk_query_does_not_count(self):
        recs = _facet_world(10)[: 4 * 10]  # only four two-chunk queries
        t = 1000
        for i in range(10):  # "recipe" alone as a fifth ender must not count
            t += 1
            recs.append(ClickRecord(t, f"u{i}", "recipe", "http://r", 1))
        stats = build_click_stats(recs)
        assert "recipe" not in detect_facets(stats)


class TestCtqPct:
    def _world(self):
        recs = _facet_world(10)
        t = 10000
        for i in range(60):
            t += 1
            recs.append(ClickRecord(t, f"u{i%7}", "curry", "http://c", 1))
        # second facet: restaurant
        for topic in ("curry", "beef", "soup", "pasta", "cake"):
            for i in range(10):
                t += 1
                recs.append(ClickRecord(t, f"u{i}", f"{topic} restaurant", "http://r", 1))
        return build_click_stats(recs)

    def test_expansions_returned(self):
        stats = self._world()
        lex = detect_facets(stats)
        assert ctq("curry", lex, stats) == {"curry recipe", "curry restaurant"}

    def test_non_facet_excluded(self):
        stats = self._world()
        lex = detect_facets(stats)
        assert "curry recipes" not in ctq("curry", lex, stats)

    def test_no_expansions_empty(self):
        stats = self._world()
        lex = detect_facets(stats)
        assert ctq("unknown", lex, stats) == set()

    def test_p_ct_formula(self):
        stats = self._world()
        lex = detect_facets(stats)
        # cnt(curry)=60, expansions: recipe 10, restaurant 10 -> denominator 80
        assert abs(p_ct("curry", "curry recipe", lex, stats) - 10 / 80) < 1e-15

    def test_p_ct_requires_membership(self):
        stats = self._world()
        lex = detect_facets(stats)
        with pytest.raises(ValueError):
            p_ct("curry", "beef recipe", lex, stats)

    def test_p_ct_sum_strictly_below_one(self):
        stats = self._world()
        lex = detect_facets(stats)
        total = sum(p_ct("curry", e, lex, stats) for e in ctq("curry", lex, stats))
        assert total < 1.0

    def test_ctq_members_are_space_expansions(self, small_world):
        _, _, stats, _ = small_world
        lex = detect_facets(stats, min_distinct=1, min_query_freq=1)
        for q1 in stats.cnt_q:
            for q2 in ctq(q1, lex, stats):
                assert q2.startswith(q1 + " ")


def _sessions_from_queries(seqs):
    recs = []
    t = 0
    for i, seq in enumerate(seqs):
        t += 10000
        for q in seq:
            t += 10
            recs.append(ClickRecord(t, f"u{i}", q, "http://x", 1))
    return build_session_stats(segment_sessions(recs))


class TestCsqPcs:
    def test_adjacency(self):
        sessions = _sessions_from_queries([["ana", "jal"]])
        assert csq("ana", sessions) == {"jal"}

    def test_singleton_contributes_nothing(self):
        sessions = _sessions_from_queries([["a"]])
        assert csq("a", sessions) == set()

    def test_both_directions_counted_separately(self):
        sessions = _sessions_from_queries([["a", "b", "a"]])
        assert csq("a", sessions) == {"b"}
        assert csq("b", sessions) == {"a"}

    def test_p_cs_fraction(self):
        seqs = [["q1", "q2"]] * 4 + [["q1", "zz"]] * 6
        sessions = _sessions_from_queries(seqs)
        assert abs(p_cs("q1", "q2", sessions) - 0.4) < 1e-15

    def test_never_adjacent_zero(self):
        sessions = _sessions_from_queries([["a", "b"]])
        assert p_cs("a", "c", sessions) == 0.0

    def test_always_followed_gives_one(self):
        sessions = _sessions_from_queries([["a", "b"]] * 5)
        assert p_cs("a", "b", sessions) == 1.0

    def test_p_cs_sums_to_at_most_one(self, small_world):
        _, _, _, sessions = small_world
        st = build_session_stats(sessions)
        for q1 in st.occurrences:
            total = sum(
                p_cs(q1, q2, st) for q2 in st.successors.get(q1, {}) if q2 != q1
            )
            assert total <= 1.0 + 1e-12

    def test_matches_oracle(self, small_world):
        _, _, _, sessions = small_world
        st = build_session_stats(sessions)
        queries = sorted(st.occurrences)
        for q1 in queries:
            assert csq(q1, st) == oracle_csq(q1, sessions)
            for q2 in queries:
                assert abs(p_cs(q1, q2, st) - oracle_p_cs(q1, q2, sessions)) < 1e-12


class TestGenerateAll:
    def test_unknown_query_empty(self, small_world):
        _, _, stats, sessions = small_world
        lex = detect_facets(stats)
        assert generate_all("never seen", stats, build_session_stats(sessions), lex) == []

    def test_matches_oracle_union(self, small_world):
        _, cleaned, stats, sessions = small_world
        lex = detect_facets(stats, min_distinct=1, min_query_freq=1)
        st = build_session_stats(sessions)
        for q1 in stats.cnt_q:
            pairs = generate_all(q1, stats, st, lex)
            by_kind = {}
            for p in pairs:
                by_kind.setdefault(p.kind, set()).add(p.q2)
                assert p.q1 == q1 and p.q2 != q1
                assert 0.0 <= p.strength <= 1.0 + 1e-12
            assert by_kind.get("co_click", set()) == oracle_brccq(q1, cleaned)
            assert by_kind.get("co_session", set()) == oracle_csq(q1, sessions)

    def test_deterministic_order_and_dump(self, small_world):
        _, _, stats, sessions = small_world
        lex = detect_facets(stats, min_distinct=1, min_query_freq=1)
        q1 = sorted(stats.cnt_q)[0]
        st = build_session_stats(sessions)
        pairs = generate_all(q1, stats, st, lex)
        assert pairs == generate_all(q1, stats, st, lex)
        for line in dump_candidates(pairs):
            assert len(line.split("\t")) == 4
