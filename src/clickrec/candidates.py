"""Candidate recommendation extraction: co-click, co-topic, co-session.

Each relation has one strengths function, which maps an input query's
related queries to their strength probabilities.  All three are pure
functions of count tables (ClickStats, SessionStats) that are built once and
then only read.  Co-click strengths also read url_postings(stats), the URL ->
queries index a caller builds once per ClickStats.
"""

from __future__ import annotations

from typing import NamedTuple

from .logs import ClickStats, Session, nogc

CO_CLICK = "co_click"
CO_TOPIC = "co_topic"
CO_SESSION = "co_session"
KINDS = (CO_CLICK, CO_TOPIC, CO_SESSION)


class CandidatePair(NamedTuple):
    q1: str
    q2: str
    kind: str
    strength: float


class SessionStats(NamedTuple):
    """Adjacency counts over ordered consecutive query pairs in sessions."""

    occurrences: dict[str, int]  # session event count
    successors: dict[str, dict[str, int]]  # q1 -> q2 -> count
    successor_totals: dict[str, int]  # column sums
    total_pairs: int


@nogc
def build_session_stats(sessions: list[Session]) -> SessionStats:
    occurrences: dict[str, int] = {}
    successors: dict[str, dict[str, int]] = {}
    successor_totals: dict[str, int] = {}
    for s in sessions:
        prev = None
        for _, q in s.queries:
            occurrences[q] = occurrences.get(q, 0) + 1
            if prev is not None:
                after = successors.setdefault(prev, {})
                after[q] = after.get(q, 0) + 1
                successor_totals[q] = successor_totals.get(q, 0) + 1
            prev = q
    return SessionStats(
        occurrences, successors, successor_totals, sum(successor_totals.values())
    )


def brccq(q: str, stats: ClickStats) -> set[str]:
    """Best-rank co-click queries of q.

    For every URL clicked for q, take all queries that achieve the minimal
    best rank for that URL (argmin ties are kept); union over URLs, with q
    itself removed.  Unknown q yields the empty set.
    """
    out: set[str] = set()
    for u in stats.clicks.get(q, ()):
        out |= stats.best_queries[u]
    out.discard(q)
    return out


def url_postings(stats: ClickStats) -> dict[str, list[str]]:
    """URL -> the queries that clicked it, in query order: stats.clicks transposed."""
    postings: dict[str, list[str]] = {}
    for q in stats.queries:
        for u in stats.clicks[q]:
            postings.setdefault(u, []).append(q)
    return postings


def co_click_strengths(
    q1: str, stats: ClickStats, postings: dict[str, list[str]]
) -> dict[str, float]:
    """P_cc(q1, q2) for each q2 in brccq(q1): the sum over q1's URLs of
    P(u|q1)*P(q2)*P(u|q2)/P(u).

    One sweep over q1's URLs, in their sorted order, adds each term to the
    accumulator of every member that clicked the URL.  So a member's terms
    arrive in the order of q1's URLs, whichever queries share them.
    """
    acc = dict.fromkeys(brccq(q1, stats), 0.0)
    if not acc:
        return acc
    clicks, cnt_q, total = stats.clicks, stats.cnt_q, stats.total
    n1 = cnt_q[q1]
    for u, k1 in clicks[q1].items():
        p_u1 = k1 / n1
        p_u = stats.cnt_u[u] / total
        for q2 in postings[u]:
            if q2 in acc:
                n2 = cnt_q[q2]
                acc[q2] += p_u1 * (n2 / total) * (clicks[q2][u] / n2) / p_u
    return acc


def detect_facets(
    stats: ClickStats, min_distinct: int = 5, min_query_freq: int = 10
) -> frozenset[str]:
    """Find the facet directives: words that end many distinct frequent queries.

    Only queries with cnt(q) >= min_query_freq and at least two chunks
    qualify; a word is a facet when it ends >= min_distinct of them.
    """
    enders: dict[str, set[str]] = {}
    for q, c in stats.cnt_q.items():
        if c < min_query_freq:
            continue
        chunks = q.split()
        if len(chunks) < 2:
            continue
        enders.setdefault(chunks[-1], set()).add(q)
    return frozenset(w for w, qs in enders.items() if len(qs) >= min_distinct)


def ctq(q1: str, lex: frozenset[str], stats: ClickStats) -> set[str]:
    """Logged co-topic expansions: q1 + " " + facet word."""
    out = set()
    for w in lex:
        q2 = f"{q1} {w}"
        if stats.cnt_q.get(q2, 0) > 0:
            out.add(q2)
    return out


def freq_topic(q1: str, expansions: set[str], stats: ClickStats) -> int:
    """Freq.topic: cnt(q1) plus the counts of its expansions, ctq(q1, lex, stats)."""
    return stats.cnt_q.get(q1, 0) + sum(stats.cnt_q[e] for e in expansions)


def co_topic_strengths(q1: str, lex: frozenset[str], stats: ClickStats) -> dict[str, float]:
    """P_ct(q1, q2) = cnt(q2) / Freq.topic(q1) for each q2 in ctq(q1), from one ctq."""
    expansions = ctq(q1, lex, stats)
    freq = freq_topic(q1, expansions, stats)
    return {q2: stats.cnt_q[q2] / freq for q2 in expansions}


def co_session_strengths(q1: str, st: SessionStats) -> dict[str, float]:
    """P_cs(q1, q2) for each q2 right after q1 in some session, q1 itself
    excluded: the adjacent q1 -> q2 count over q1's event count."""
    occ = st.occurrences.get(q1, 0)  # at least 1 when q1 has a successor
    return {q2: n / occ for q2, n in st.successors.get(q1, {}).items() if q2 != q1}


def _ranked(q1: str, kind: str, strengths: dict[str, float]) -> list[CandidatePair]:
    """One kind's pairs, strength descending, then q2."""
    order = sorted([(-s, q2) for q2, s in strengths.items()])
    return [CandidatePair(q1, q2, kind, -neg) for neg, q2 in order]


def strengths(
    q1: str,
    stats: ClickStats,
    st: SessionStats,
    lex: frozenset[str],
    postings: dict[str, list[str]],
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """q1's {q2: strength} dicts in KINDS order; postings is url_postings(stats)."""
    return (
        co_click_strengths(q1, stats, postings),
        co_topic_strengths(q1, lex, stats),
        co_session_strengths(q1, st),
    )


def generate_all(
    q1: str,
    stats: ClickStats,
    st: SessionStats,
    lex: frozenset[str],
    postings: dict[str, list[str]],
) -> list[CandidatePair]:
    """q1's strengths as pairs, one CandidatePair per (q2, kind).

    postings is url_postings(stats).  Order is deterministic: kind, then
    strength descending, then q2.
    """
    by_kind = strengths(q1, stats, st, lex, postings)
    return [p for kind, s in zip(KINDS, by_kind) for p in _ranked(q1, kind, s)]


def dump_candidates(pairs: list[CandidatePair]) -> list[str]:
    return ["%s\t%s\t%s\t%.12g" % p for p in pairs]
