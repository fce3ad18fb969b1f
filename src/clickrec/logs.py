"""Click log parsing, cleaning, session segmentation and count tables.

The input format is one click event per line:
``timestamp<TAB>user<TAB>query<TAB>url<TAB>rank`` (UTF-8, no header).
"""

from __future__ import annotations

import functools
import gc
from collections import Counter
from operator import attrgetter
from typing import NamedTuple

# A user's query events more than this many seconds apart start a new session.
SESSION_TIMEOUT_S = 300


def normalize_query(q: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return " ".join(q.split())


class ClickRecord(NamedTuple):
    timestamp: int
    user: str
    query: str
    url: str
    rank: int


class ParseResult(NamedTuple):
    records: list[ClickRecord]
    skipped: int


class Session(NamedTuple):
    user: str
    queries: list[tuple[int, str]]  # time-ordered (timestamp, query)


class ClickStats(NamedTuple):
    """Count tables over the cleaned records, built once and then only read.

    Each query's URLs in ``clicks`` are in sorted order.  P_cc, the click
    entropy and the clustering cosine add floats in that order, so it
    decides their output bytes.
    """

    clicks: dict[str, dict[str, int]]  # query -> url -> clicks
    cnt_q: dict[str, int]  # query -> clicks
    cnt_u: dict[str, int]  # url -> clicks
    total: int
    # url -> the queries that clicked it at the lowest rank any query did
    best_queries: dict[str, set[str]]

    @property
    def queries(self) -> list[str]:
        return sorted(self.cnt_q)


def _split_lines(text: str) -> list[str]:
    """Split on "\n", "\r\n" and "\r", the newlines text-mode open() reads.

    str.splitlines also splits on characters such as U+2028 and "\x1c",
    which may occur inside a TSV field.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, without their line endings.

    A leading byte-order mark is an encoding signature, not text, and is
    dropped. Invalid UTF-8 raises ValueError("<path>:<line>: invalid UTF-8 ...").
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _split_lines(data.decode("utf-8").removeprefix("\ufeff"))
    except UnicodeDecodeError as exc:
        # Everything before the first bad byte decodes; with "x" standing in
        # for that byte, the last line is the one the bad byte is on.
        line = len(_split_lines(data[: exc.start].decode("utf-8") + "x"))
        raise ValueError(
            f"{path}:{line}: invalid UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})"
        ) from None


def nogc(fn):
    """Run ``fn`` with the cyclic garbage collector paused.

    Records are NamedTuples, and CPython untracks only exact tuples, so a
    record stays tracked for as long as it lives. A stage that runs while a
    few hundred thousand records are alive, and builds as many objects more,
    sets off collections that walk them all again, though no record can be
    in a cycle; reference counting frees them without the collector. Only
    such stages use this. The collector's earlier state comes back on return
    and on raise, and nothing here forces a collection.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return wrapper


def _parse_line(
    line: str, normalized: dict[str, str], shared: dict[str, str]
) -> ClickRecord | None:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 5:
        return None
    ts_s, user, raw, url, rank_s = parts
    query = normalized.get(raw)
    if query is None:
        query = normalize_query(raw)
        query = normalized[raw] = shared.setdefault(query, query)
    if not query or not url or not user:
        return None
    try:
        ts = int(ts_s)
        rank = int(rank_s)
    except ValueError:
        return None
    if rank < 1:
        return None
    return ClickRecord(ts, shared.setdefault(user, user), query, shared.setdefault(url, url), rank)


def parse_log(lines) -> ParseResult:
    """Parse raw log lines, skipping malformed ones.

    Equal user, query and URL fields share one string object, and each
    distinct raw query is normalized once.

    Raises ValueError when more than half of the non-empty input lines are
    malformed, which almost always means the wrong file was supplied.
    """
    records: list[ClickRecord] = []
    skipped = 0
    normalized: dict[str, str] = {}  # raw query -> its normalized text
    # text -> the one object that holds it.  Apart from ``normalized``, so a
    # user or URL equal to some raw query keeps its own text.
    shared: dict[str, str] = {}
    for line in lines:
        if not line.strip():
            continue
        rec = _parse_line(line, normalized, shared)
        if rec is None:
            skipped += 1
        else:
            records.append(rec)
    if skipped > len(records):
        raise ValueError(
            f"{skipped} of {skipped + len(records)} lines malformed; "
            "input does not look like a click log"
        )
    return ParseResult(records, skipped)


def serialize_records(records: list[ClickRecord]) -> list[str]:
    return [
        f"{r.timestamp}\t{r.user}\t{r.query}\t{r.url}\t{r.rank}" for r in records
    ]


@nogc
def clean_log(records: list[ClickRecord]) -> list[ClickRecord]:
    """Per-cookie dedup then singleton-pair removal.

    Identical (user, query, url) triples collapse to a single record keeping
    the earliest timestamp and the best (minimum) rank.  After collapsing,
    (query, url) pairs with a total count of 1 are dropped entirely.
    """
    collapsed: dict[tuple[str, str, str], ClickRecord] = {}
    for r in records:
        key = (r.user, r.query, r.url)
        prev = collapsed.setdefault(key, r)
        # Most repeats change nothing; build a new record only when one does.
        if r.timestamp < prev.timestamp or r.rank < prev.rank:
            collapsed[key] = prev._replace(
                timestamp=min(prev.timestamp, r.timestamp), rank=min(prev.rank, r.rank)
            )
    pair_count = Counter((r.query, r.url) for r in collapsed.values())
    return [r for r in collapsed.values() if pair_count[(r.query, r.url)] >= 2]


@nogc
def segment_sessions(records: list[ClickRecord]) -> list[Session]:
    """Split each user's time-ordered query events on gaps > SESSION_TIMEOUT_S.

    Consecutive duplicate queries within a session are collapsed to one
    event; non-consecutive repeats are kept.
    """
    by_user: dict[str, list[ClickRecord]] = {}
    for r in records:
        by_user.setdefault(r.user, []).append(r)
    sessions: list[Session] = []
    for user in sorted(by_user):
        events = sorted(by_user[user], key=attrgetter("timestamp"))
        current: list[tuple[int, str]] = []
        prev_ts: int | None = None
        for r in events:
            if prev_ts is not None and r.timestamp - prev_ts > SESSION_TIMEOUT_S:
                sessions.append(Session(user, current))
                current = []
            if not current or current[-1][1] != r.query:
                current.append((r.timestamp, r.query))
            prev_ts = r.timestamp
        if current:
            sessions.append(Session(user, current))
    return sessions


def dump_sessions(sessions: list[Session]) -> list[str]:
    lines = []
    for sid, s in enumerate(sessions):
        for ts, q in s.queries:
            lines.append(f"{s.user}\t{sid}\t{ts}\t{q}")
    return lines


def build_click_stats(records: list[ClickRecord]) -> ClickStats:
    """Populate all count tables from (already cleaned) records."""
    clicks: dict[str, dict[str, int]] = {}
    cnt_q: dict[str, int] = {}
    cnt_u: dict[str, int] = {}
    best_queries: dict[str, set[str]] = {}
    best: dict[str, int] = {}  # url -> lowest rank clicked
    for r in records:
        urls = clicks.setdefault(r.query, {})
        urls[r.url] = urls.get(r.url, 0) + 1
        cnt_q[r.query] = cnt_q.get(r.query, 0) + 1
        cnt_u[r.url] = cnt_u.get(r.url, 0) + 1
        low = best.get(r.url)
        if low is None or r.rank < low:
            best[r.url] = r.rank
            best_queries[r.url] = {r.query}
        elif r.rank == low:
            best_queries[r.url].add(r.query)
    clicks = {q: dict(sorted(urls.items())) for q, urls in clicks.items()}
    return ClickStats(clicks, cnt_q, cnt_u, len(records), best_queries)
