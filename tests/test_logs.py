import gc
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickrec import candidates, pipeline
from clickrec.logs import (
    SESSION_TIMEOUT_S,
    ClickRecord,
    build_click_stats,
    clean_log,
    dump_sessions,
    normalize_query,
    parse_log,
    read_lines,
    segment_sessions,
    serialize_records,
)
from conftest import random_records


class TestReadLines:
    # str.splitlines breaks on each of these; none of them ends a line.
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_newlines_end_a_line(self, tmp_path, sep):
        path = tmp_path / "lines.tsv"
        path.write_bytes(f"1\tu{sep}1\r\n\n2\tq{sep}x\r3".encode())
        assert read_lines(str(path)) == [f"1\tu{sep}1", "", f"2\tq{sep}x", "3"]

    def test_only_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "lines.tsv"
        path.write_bytes("\ufeff1\tu\n\ufeff2\tq\n".encode())
        assert read_lines(str(path)) == ["1\tu", "\ufeff2\tq"]


class TestNormalizeQuery:
    @pytest.mark.parametrize(
        "raw, want",
        [
            ("curry  recipe", "curry recipe"),
            ("curry\t\trecipe \t thai", "curry recipe thai"),
            ("curry\u3000recipe", "curry recipe"),
            ("curry\u00a0recipe", "curry recipe"),
            ("\u3000 curry\u00a0 \u3000recipe\u00a0", "curry recipe"),
            ("  curry recipe\t", "curry recipe"),
            ("\tcurry", "curry"),
            ("curry", "curry"),
            ("", ""),
            (" \t\u3000\u00a0 ", ""),
        ],
    )
    def test_whitespace_runs_become_one_space(self, raw, want):
        assert normalize_query(raw) == want


class TestParseLog:
    def test_direct_field_mapping(self):
        res = parse_log(["100\tu1\tcurry\thttp://a\t1"])
        assert res.records == [ClickRecord(100, "u1", "curry", "http://a", 1)]
        assert res.skipped == 0

    def test_whitespace_normalization(self):
        res = parse_log(["100\tu1\t  curry   recipe \thttp://a\t2"])
        assert res.records[0].query == "curry recipe"

    def test_skip_tally(self):
        good = [f"{i}\tu1\tq\thttp://a\t1" for i in range(10)]
        res = parse_log(good + ["garbage line"])
        assert len(res.records) == 10
        assert res.skipped == 1

    def test_mostly_garbage_is_hard_error(self):
        with pytest.raises(ValueError):
            parse_log(["nope"] * 6 + ["1\tu\tq\thttp://a\t1"] * 4)

    def test_half_garbage_parses_and_more_is_an_error(self):
        good = "1\tu\tq\thttp://a\t1"
        res = parse_log(["nope", "", good, "nope", good])
        assert len(res.records) == 2 and res.skipped == 2
        msg = "3 of 5 lines malformed; input does not look like a click log"
        with pytest.raises(ValueError, match=msg):
            parse_log(["nope", good, "nope", "", "nope", good])

    def test_preserves_order(self):
        lines = [f"{i}\tu1\tq{i}\thttp://a\t1" for i in range(5)]
        res = parse_log(lines)
        assert [r.query for r in res.records] == [f"q{i}" for i in range(5)]

    def test_round_trip(self):
        rng = random.Random(3)
        records = random_records(rng, 200)
        assert parse_log(serialize_records(records)).records == records

    def test_bad_rank_skipped(self):
        good = [f"{i}\tu\tq\thttp://a\t1" for i in range(5)]
        res = parse_log(good + ["1\tu\tq\thttp://a\t0", "1\tu\tq\thttp://a\tx"])
        assert len(res.records) == 5 and res.skipped == 2

    def test_equal_fields_share_one_string(self):
        # Each line is split afresh, so equal fields start as separate objects.
        queries = ["a b", " a  b ", "a b", "c", "a  b"]
        lines = [f"{i}\tu{i % 2}\t{q}\thttp://a{i % 3}\t1" for i, q in enumerate(queries)]
        records = parse_log(lines).records
        for field in ("user", "query", "url"):
            by_text = {}
            for r in records:
                value = getattr(r, field)
                assert by_text.setdefault(value, value) is value, (field, value)
        assert [r.query for r in records] == ["a b", "a b", "a b", "c", "a b"]

    def test_user_and_url_keep_their_own_whitespace(self):
        # The raw query "a  b" normalizes to "a b"; a user or URL with the
        # same raw text must not pick up that normalized form.
        res = parse_log(["1\ta  b\ta  b\ta  b\t1", "2\ta b\ta  b\tx  y\t1"])
        assert res.records == [
            ClickRecord(1, "a  b", "a b", "a  b", 1),
            ClickRecord(2, "a b", "a b", "x  y", 1),
        ]


class TestCleanLog:
    def test_same_cookie_counted_once(self):
        recs = [
            ClickRecord(5, "u1", "q", "http://a", 2),
            ClickRecord(1, "u1", "q", "http://a", 3),
            ClickRecord(2, "u2", "q", "http://a", 1),
        ]
        out = clean_log(recs)
        assert len(out) == 2
        merged = next(r for r in out if r.user == "u1")
        assert merged.timestamp == 1 and merged.rank == 2  # earliest ts, best rank

    def test_singleton_pair_removed(self):
        recs = [ClickRecord(1, "u1", "q", "http://a", 1)]
        assert clean_log(recs) == []

    def test_pair_with_two_users_survives(self):
        recs = [
            ClickRecord(1, "u1", "q", "http://a", 1),
            ClickRecord(2, "u2", "q", "http://a", 1),
        ]
        assert len(clean_log(recs)) == 2

    def test_idempotent(self):
        rng = random.Random(11)
        recs = random_records(rng, 500)
        once = clean_log(recs)
        assert clean_log(once) == once

    @staticmethod
    def brute_force(recs):
        """One record per (user, query, url) in first-occurrence order, each the
        first record's fields with the minimum timestamp and rank; then drop
        the records whose (query, url) has only one merged record."""
        triples = list(dict.fromkeys((r.user, r.query, r.url) for r in recs))
        merged = []
        for user, query, url in triples:
            same = [r for r in recs if (r.user, r.query, r.url) == (user, query, url)]
            merged.append(
                ClickRecord(
                    min(r.timestamp for r in same), user, query, url, min(r.rank for r in same)
                )
            )
        return [
            r for r in merged
            if sum((m.query, m.url) == (r.query, r.url) for m in merged) >= 2
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        recs = random_records(rng, rng.randint(1, 400), n_users=rng.randint(1, 8))
        rng.shuffle(recs)  # so the earliest timestamp is not always the first seen
        expected = self.brute_force(recs)
        assert len(expected) < len({(r.user, r.query, r.url) for r in recs})  # some dropped
        assert clean_log(recs) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keeps_or_merges_repeats_like_brute_force(self, data):
        # Small ranges make equal timestamps and equal ranks common.
        record = st.builds(
            ClickRecord,
            st.integers(0, 5),
            st.sampled_from(["u1", "u2"]),
            st.sampled_from(["q1", "q2"]),
            st.sampled_from(["http://a", "http://b"]),
            st.integers(1, 3),
        )
        recs = data.draw(st.lists(record, max_size=30))
        # One repeat the first-seen record already covers, and one with an
        # earlier timestamp but a worse rank: in any order of the three, one
        # repeat changes nothing and the other improves the kept record.
        a = ClickRecord(5, "u3", "q1", "http://a", 2)
        b = a._replace(timestamp=3, rank=4)
        recs = data.draw(st.permutations(recs + [a, a._replace(), b]))
        merges = []
        replace = ClickRecord._replace

        def spy(self, **changes):
            merges.append(changes)
            return replace(self, **changes)

        with mock.patch.object(ClickRecord, "_replace", spy):
            out = clean_log(recs)
        assert out == self.brute_force(recs)
        repeats = len(recs) - len({(r.user, r.query, r.url) for r in recs})
        assert 1 <= len(merges) < repeats  # both branches ran


class TestSegmentSessions:
    def test_single_session(self):
        recs = [ClickRecord(t, "u1", f"q{t}", "http://a", 1) for t in (0, 100, 200)]
        sessions = segment_sessions(recs)
        assert len(sessions) == 1
        assert len(sessions[0].queries) == 3

    def test_gap_splits(self):
        recs = [
            ClickRecord(0, "u1", "a", "http://a", 1),
            ClickRecord(400, "u1", "b", "http://a", 1),
        ]
        assert len(segment_sessions(recs)) == 2

    def test_duplicate_collapse(self):
        recs = [
            ClickRecord(0, "u1", "ana", "http://a", 1),
            ClickRecord(10, "u1", "ana", "http://b", 2),
            ClickRecord(20, "u1", "jal", "http://c", 1),
        ]
        (s,) = segment_sessions(recs)
        assert [q for _, q in s.queries] == ["ana", "jal"]

    def test_nonconsecutive_repeats_kept(self):
        recs = [
            ClickRecord(0, "u1", "a", "http://a", 1),
            ClickRecord(10, "u1", "b", "http://a", 1),
            ClickRecord(20, "u1", "a", "http://a", 1),
        ]
        (s,) = segment_sessions(recs)
        assert [q for _, q in s.queries] == ["a", "b", "a"]

    def test_no_internal_gap_exceeds_timeout(self):
        # Kept events may be further apart than the timeout: (0, a) (200, a)
        # (400, a) (600, b) is one session whose kept events are 600 s apart.
        # So check the raw events: none inside a session's span is more than
        # the timeout after the one before it, and each later session of a
        # user starts more than the timeout after the user's last earlier
        # event.
        rng = random.Random(5)
        for trial in range(20):
            recs = random_records(rng, 100, n_users=rng.randint(1, 6), n_queries=rng.randint(1, 4))
            raw = {}
            for r in recs:
                raw.setdefault(r.user, []).append(r.timestamp)
            prev_user = None
            for s in segment_sessions(recs):
                times = [t for t, _ in s.queries]
                assert times == sorted(times)
                inside = sorted(t for t in raw[s.user] if times[0] <= t <= times[-1])
                assert all(b - a <= SESSION_TIMEOUT_S for a, b in zip(inside, inside[1:]))
                if s.user == prev_user:
                    before = max(t for t in raw[s.user] if t < times[0])
                    assert times[0] - before > SESSION_TIMEOUT_S
                prev_user = s.user

    def test_every_event_in_exactly_one_session(self):
        rng = random.Random(9)
        for trial in range(20):
            recs = random_records(rng, 300, n_users=rng.randint(1, 6), n_queries=rng.randint(1, 4))
            want = []
            by_user = {}
            for r in recs:
                by_user.setdefault(r.user, []).append(r)
            for user, events in by_user.items():
                events.sort(key=lambda r: r.timestamp)
                for prev, r in zip([None, *events], events):
                    split = prev is None or r.timestamp - prev.timestamp > SESSION_TIMEOUT_S
                    if split or r.query != prev.query:
                        want.append((user, r.timestamp, r.query))
            got = [(s.user, t, q) for s in segment_sessions(recs) for t, q in s.queries]
            assert sorted(got) == sorted(want)

    def test_dump_numbers_sessions_in_list_order(self):
        recs = [
            ClickRecord(0, "u2", "c", "http://a", 1),
            ClickRecord(0, "u1", "a", "http://a", 1),
            ClickRecord(400, "u1", "b", "http://a", 1),
        ]
        assert dump_sessions(segment_sessions(recs)) == [
            "u1\t0\t0\ta",
            "u1\t1\t400\tb",
            "u2\t2\t0\tc",
        ]


class TestBuildClickStats:
    def test_direct_counting(self):
        recs = [
            ClickRecord(1, "u1", "q", "http://a", 1),
            ClickRecord(2, "u2", "q", "http://a", 1),
            ClickRecord(3, "u3", "q", "http://a", 2),
            ClickRecord(4, "u4", "q", "http://b", 1),
        ]
        stats = build_click_stats(recs)
        assert stats.cnt_q["q"] == 4
        assert stats.clicks["q"] == {"http://a": 3, "http://b": 1}

    def test_best_queries_keep_every_query_at_the_lowest_rank(self):
        recs = [
            ClickRecord(1, "u1", "q", "http://a", 3),
            ClickRecord(2, "u2", "q", "http://a", 1),
            ClickRecord(3, "u3", "p", "http://a", 1),
            ClickRecord(4, "u4", "r", "http://a", 2),
        ]
        assert build_click_stats(recs).best_queries == {"http://a": {"q", "p"}}

    def test_lower_rank_arriving_last_resets_best_queries(self):
        recs = [
            ClickRecord(1, "u1", "q", "http://a", 2),
            ClickRecord(2, "u2", "p", "http://a", 2),
            ClickRecord(3, "u3", "r", "http://a", 1),
        ]
        assert build_click_stats(recs).best_queries == {"http://a": {"r"}}

    def test_empty(self):
        stats = build_click_stats([])
        assert stats.total == 0 and not stats.cnt_q

    def test_fields_cannot_be_reassigned(self):
        stats = build_click_stats([ClickRecord(1, "u1", "q", "http://a", 1)])
        for name in stats._fields:
            with pytest.raises(AttributeError):
                setattr(stats, name, None)

    def test_tables_consistent(self, small_world):
        _, cleaned, stats, _ = small_world
        assert sum(stats.cnt_q.values()) == stats.total
        assert set(stats.clicks) == set(stats.cnt_q)
        for q, urls in stats.clicks.items():
            brute = {}
            for r in cleaned:
                if r.query == q:
                    brute[r.url] = brute.get(r.url, 0) + 1
            assert urls == brute
            assert list(urls) == sorted(urls)
            assert sum(urls.values()) == stats.cnt_q[q]
        assert set(stats.best_queries) == set(stats.cnt_u)
        for u, winners in stats.best_queries.items():
            ranks = [r.rank for r in cleaned if r.url == u]
            assert winners == {r.query for r in cleaned if r.url == u and r.rank == min(ranks)}

    def test_conditional_probability_sums_to_one(self, small_world):
        _, _, stats, _ = small_world
        for q in stats.cnt_q:
            total = sum(c / stats.cnt_q[q] for c in stats.clicks[q].values())
            assert abs(total - 1.0) < 1e-12


def _watched(items, seen):
    """Yield ``items``, noting whether the collector was on at each step."""
    for item in items:
        seen.append(gc.isenabled())
        yield item


class TestCollectorPause:
    """Bulk stages pause the cyclic collector and restore its earlier state."""

    def test_stages_run_with_the_collector_paused(self, monkeypatch, small_world):
        records, _, stats, sessions = small_world
        lex = candidates.detect_facets(stats)
        sst = candidates.build_session_stats(sessions)

        def candidate_rows(seen):
            # candidate_rows reads no iterable _watched could wrap; it calls
            # candidates.strengths once per query, so that call is watched.
            strengths = candidates.strengths

            def watched(*args):
                seen.append(gc.isenabled())
                return strengths(*args)

            with monkeypatch.context() as m:
                m.setattr(candidates, "strengths", watched)
                pipeline.candidate_rows(stats, sst, lex)

        calls = [
            lambda seen: clean_log(_watched(records, seen)),
            lambda seen: segment_sessions(_watched(records, seen)),
            lambda seen: pipeline.generate_candidates(stats, _watched(sessions, seen), lex),
            lambda seen: candidates.build_session_stats(_watched(sessions, seen)),
            candidate_rows,
        ]
        for call in calls:
            seen = []
            call(seen)
            assert seen and not any(seen)
            assert gc.isenabled()

    def test_a_raising_stage_restores_the_collector(self):
        with pytest.raises(AttributeError):
            clean_log([None])
        assert gc.isenabled()

    def test_parse_errors_leave_the_collector_enabled(self):
        with pytest.raises(ValueError, match="does not look like a click log"):
            parse_log(["nope"] * 3 + ["1\tu\tq\thttp://a\t1"])
        assert gc.isenabled()

    def test_a_callers_own_pause_outlasts_a_stage(self, small_world):
        records = small_world[0]
        gc.disable()
        try:
            clean_log(records)
            segment_sessions(records)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_records_stay_tracked_unlike_exact_tuples(self):
        # The premise of the pause. If a CPython release untracks NamedTuples
        # as it does exact tuples, logs.nogc no longer saves anything.
        fields = [1, "u", "q", "http://a", 1]
        record, plain = ClickRecord(*fields), tuple(fields)
        gc.collect()
        assert not gc.is_tracked(plain)
        assert gc.is_tracked(record), (
            "this CPython untracks NamedTuple records; logs.nogc can go"
        )
