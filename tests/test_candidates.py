import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickrec import candidates as cand
from clickrec.candidates import (
    CO_CLICK,
    KINDS,
    CandidatePair,
    brccq,
    build_session_stats,
    co_session_strengths,
    co_topic_strengths,
    ctq,
    detect_facets,
    dump_candidates,
    generate_all,
    url_postings,
)
from clickrec.logs import ClickRecord, Session, build_click_stats, clean_log, segment_sessions
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


def generate(q1, stats, st=None, lex=frozenset()):
    st = build_session_stats([]) if st is None else st
    return generate_all(q1, stats, st, lex, url_postings(stats))


def co_click(q1, stats):
    """P_cc of q1 with each co-click candidate, read from generate_all."""
    return {p.q2: p.strength for p in generate(q1, stats) if p.kind == CO_CLICK}


def assert_co_click_matches_oracle(records):
    stats = build_click_stats(records)
    for q1 in stats.cnt_q:
        strengths = co_click(q1, stats)
        assert set(strengths) == oracle_brccq(q1, records)
        for q2, strength in strengths.items():
            assert strength == oracle_p_cc(q1, q2, records)


@st.composite
def shared_url_logs(draw):
    """Records over few queries and URLs with ranks 1-3, so queries share
    URLs and tie for the best rank on them."""
    n_queries = draw(st.integers(1, 6))
    n_urls = draw(st.integers(1, 4))
    return [
        ClickRecord(t, f"u{t % 3}", f"q{draw(st.integers(0, n_queries - 1))}",
                    f"http://s{draw(st.integers(0, n_urls - 1))}", draw(st.integers(1, 3)))
        for t in range(draw(st.integers(1, 40)))
    ]


class TestPcc:
    def test_disjoint_support_is_zero(self):
        recs = [
            ClickRecord(1, "u1", "q1", "http://a", 1),
            ClickRecord(2, "u1", "q2", "http://b", 1),
        ]
        stats = build_click_stats(recs)
        # No shared URL: q2 is no co-click candidate, so no pair carries a 0.
        assert co_click("q1", stats) == {}

    def test_single_url_world(self):
        # only u clicked: q1 3 times, q2 once; total=4
        recs = [ClickRecord(t, f"u{t}", "q1", "http://u", 1) for t in range(3)]
        recs.append(ClickRecord(9, "u9", "q2", "http://u", 1))
        stats = build_click_stats(recs)
        assert abs(co_click("q1", stats)["q2"] - 0.25) < 1e-15

    def test_matches_oracle(self):
        assert_co_click_matches_oracle(random_records(random.Random(17), 400))

    @settings(max_examples=200, deadline=None)
    @given(shared_url_logs())
    def test_sweep_matches_oracle_on_shared_urls_and_ties(self, records):
        assert_co_click_matches_oracle(records)

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
            once, thrice = co_click(q1, stats1), co_click(q1, stats3)
            assert set(once) == set(thrice)
            for q2 in once:
                assert abs(once[q2] - thrice[q2]) < 1e-12


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
        assert abs(co_topic_strengths("curry", lex, stats)["curry recipe"] - 10 / 80) < 1e-15

    def test_p_ct_sum_strictly_below_one(self):
        stats = self._world()
        lex = detect_facets(stats)
        strengths = co_topic_strengths("curry", lex, stats)
        assert set(strengths) == ctq("curry", lex, stats)
        assert sum(strengths.values()) < 1.0

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


def zip_session_stats(sessions):
    """build_session_stats as it was written before the one-walk loop."""
    occurrences, successors, successor_totals = {}, {}, {}
    for s in sessions:
        qs = [q for _, q in s.queries]
        for q in qs:
            occurrences[q] = occurrences.get(q, 0) + 1
        for a, b in zip(qs, qs[1:]):
            after = successors.setdefault(a, {})
            after[b] = after.get(b, 0) + 1
            successor_totals[b] = successor_totals.get(b, 0) + 1
    return occurrences, successors, successor_totals, sum(successor_totals.values())


def ordered(table):
    """A count table as nested item lists, so == also compares insertion order."""
    if isinstance(table, dict):
        return [(k, ordered(v)) for k, v in table.items()]
    return table


class TestCsqPcs:
    # Hand-built sessions may repeat a query back to back, which
    # segment_sessions never does.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6), max_size=8))
    def test_one_walk_matches_zip_spelling(self, seqs):
        sessions = [Session(f"u{i}", list(enumerate(qs))) for i, qs in enumerate(seqs)]
        want = zip_session_stats(sessions)
        assert [ordered(t) for t in build_session_stats(sessions)] == [ordered(t) for t in want]

    def test_session_stats_fields_cannot_be_reassigned(self):
        st = _sessions_from_queries([["a", "b"]])
        assert st.total_pairs == 1
        for name in st._fields:
            with pytest.raises(AttributeError):
                setattr(st, name, None)

    def test_adjacency(self):
        sessions = _sessions_from_queries([["ana", "jal"]])
        assert set(co_session_strengths("ana", sessions)) == {"jal"}

    def test_singleton_contributes_nothing(self):
        sessions = _sessions_from_queries([["a"]])
        assert co_session_strengths("a", sessions) == {}

    def test_both_directions_counted_separately(self):
        sessions = _sessions_from_queries([["a", "b", "a"]])
        assert set(co_session_strengths("a", sessions)) == {"b"}
        assert set(co_session_strengths("b", sessions)) == {"a"}

    def test_p_cs_fraction(self):
        seqs = [["q1", "q2"]] * 4 + [["q1", "zz"]] * 6
        sessions = _sessions_from_queries(seqs)
        assert abs(co_session_strengths("q1", sessions)["q2"] - 0.4) < 1e-15

    def test_never_adjacent_zero(self):
        sessions = _sessions_from_queries([["a", "b"]])
        assert "c" not in co_session_strengths("a", sessions)

    def test_always_followed_gives_one(self):
        sessions = _sessions_from_queries([["a", "b"]] * 5)
        assert co_session_strengths("a", sessions) == {"b": 1.0}

    def test_p_cs_sums_to_at_most_one(self, small_world):
        _, _, _, sessions = small_world
        st = build_session_stats(sessions)
        for q1 in st.occurrences:
            assert sum(co_session_strengths(q1, st).values()) <= 1.0 + 1e-12

    def test_matches_oracle(self, small_world):
        # q2 == q1 included: segment_sessions never repeats a query back to
        # back, so the oracle gives 0.0 for it too
        _, _, _, sessions = small_world
        st = build_session_stats(sessions)
        queries = sorted(st.occurrences)
        for q1 in queries:
            strengths = co_session_strengths(q1, st)
            assert set(strengths) == oracle_csq(q1, sessions)
            for q2 in queries:
                assert abs(strengths.get(q2, 0.0) - oracle_p_cs(q1, q2, sessions)) < 1e-12


def key_ordered(pairs):
    """The order generate_all used to give with a key function."""
    return sorted(pairs, key=lambda p: (KINDS.index(p.kind), -p.strength, p.q2))


class TestGenerateAll:
    def test_unknown_query_empty(self, small_world):
        _, _, stats, sessions = small_world
        lex = detect_facets(stats)
        assert generate("never seen", stats, build_session_stats(sessions), lex) == []

    def test_matches_oracle_union(self, small_world):
        _, cleaned, stats, sessions = small_world
        lex = detect_facets(stats, min_distinct=1, min_query_freq=1)
        st = build_session_stats(sessions)
        for q1 in stats.cnt_q:
            pairs = generate(q1, stats, st, lex)
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
        pairs = generate(q1, stats, st, lex)
        assert pairs == generate(q1, stats, st, lex)
        for line in dump_candidates(pairs):
            assert len(line.split("\t")) == 4

    @settings(max_examples=200, deadline=None)
    @given(shared_url_logs())
    def test_order_matches_the_key_function(self, records):
        stats = build_click_stats(records)
        st = build_session_stats(segment_sessions(records))
        lex = detect_facets(stats, min_distinct=1, min_query_freq=1)
        for q1 in stats.cnt_q:
            pairs = generate(q1, stats, st, lex)
            assert pairs == key_ordered(pairs)

    def test_equal_strengths_ordered_by_q2(self):
        # "b" and "a" click u exactly as often at the same best rank, so
        # they tie on P_cc and on P_cs and are ordered by q2.
        recs = [
            ClickRecord(1, "x", "q", "http://u", 2),
            ClickRecord(2, "x", "b", "http://u", 1),
            ClickRecord(3, "y", "q", "http://u", 2),
            ClickRecord(4, "y", "a", "http://u", 1),
        ]
        stats = build_click_stats(recs)
        pairs = generate("q", stats, build_session_stats(segment_sessions(recs)))
        assert [(p.kind, p.q2) for p in pairs] == [
            ("co_click", "a"), ("co_click", "b"), ("co_session", "a"), ("co_session", "b"),
        ]
        assert pairs[0].strength == pairs[1].strength
        assert pairs[2].strength == pairs[3].strength
        assert pairs == key_ordered(pairs)

    def test_unclicked_query_keeps_topic_and_session_pairs(self):
        # "curry" was logged once, so cleaning drops its click, but its
        # facet expansion and its session successor remain.
        recs = [ClickRecord(1, "u0", "curry", "http://c", 1)]
        for t, q in enumerate(["curry recipe", "curry recipe", "beef recipe", "beef recipe"], 2):
            recs.append(ClickRecord(t, f"u{t % 2}", q, f"http://{q.split()[0]}", 1))
        stats = build_click_stats(clean_log(recs))
        sessions = segment_sessions(recs)
        lex = detect_facets(stats, min_distinct=1, min_query_freq=1)
        assert "curry" not in stats.clicks and lex == {"recipe"}
        pairs = generate("curry", stats, build_session_stats(sessions), lex)
        assert pairs == [
            CandidatePair("curry", "curry recipe", "co_topic", 1.0),
            CandidatePair("curry", "curry recipe", "co_session", 1.0),
        ]
        assert co_topic_strengths("curry", lex, stats) == {"curry recipe": 1.0}
        assert oracle_p_cs("curry", "curry recipe", sessions) == 1.0

    def test_one_ctq_scan_per_query(self, small_world, monkeypatch):
        # P_ct and its Freq.topic denominator come from the same expansions
        _, _, stats, sessions = small_world
        lex = detect_facets(stats, min_distinct=1, min_query_freq=1)
        scans = []
        monkeypatch.setattr(cand, "ctq", lambda q1, *args: scans.append(q1) or ctq(q1, *args))
        st = build_session_stats(sessions)
        for q1 in stats.cnt_q:
            generate(q1, stats, st, lex)
        assert scans == list(stats.cnt_q)


def fstring_dump(pairs):
    """dump_candidates as it was written before the one-format spelling."""
    return [f"{p.q1}\t{p.q2}\t{p.kind}\t{p.strength:.12g}" for p in pairs]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.text(alphabet="ab %s\u00e9\u3000\U0001f600", max_size=4),
    st.text(alphabet="ab %s\u00e9\u3000\U0001f600", max_size=4),
    st.sampled_from(KINDS),
    st.one_of(st.sampled_from([0.0, 1e-300, 1 / 3, 1.0]), st.floats(0, 1)),
), max_size=5))
def test_dump_matches_the_fstring_spelling(rows):
    pairs = [CandidatePair(*row) for row in rows]
    assert dump_candidates(pairs) == fstring_dump(pairs)
