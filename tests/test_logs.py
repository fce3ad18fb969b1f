import random

import pytest

from clickrec.logs import (
    SESSION_TIMEOUT_S,
    ClickRecord,
    build_click_stats,
    clean_log,
    dump_sessions,
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
