"""Candidate recommendation extraction: co-click, co-topic, co-session.

Each extractor returns the related query set for an input query plus a
strength probability.  All three are pure functions of count tables
(ClickStats, SessionStats) that are built once and then only read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .logs import ClickStats, Session

CO_CLICK = "co_click"
CO_TOPIC = "co_topic"
CO_SESSION = "co_session"
KINDS = (CO_CLICK, CO_TOPIC, CO_SESSION)
_KIND_ORDER = {k: i for i, k in enumerate(KINDS)}


@dataclass(frozen=True)
class CandidatePair:
    q1: str
    q2: str
    kind: str
    strength: float


@dataclass
class SessionStats:
    """Adjacency counts over ordered consecutive query pairs in sessions."""

    occurrences: dict[str, int] = field(default_factory=dict)  # session event count
    successors: dict[str, dict[str, int]] = field(default_factory=dict)  # q1 -> q2 -> count
    successor_totals: dict[str, int] = field(default_factory=dict)  # column sums
    total_pairs: int = 0


def build_session_stats(sessions: list[Session]) -> SessionStats:
    st = SessionStats()
    for s in sessions:
        qs = [q for _, q in s.queries]
        for q in qs:
            st.occurrences[q] = st.occurrences.get(q, 0) + 1
        for a, b in zip(qs, qs[1:]):
            st.successors.setdefault(a, {})
            st.successors[a][b] = st.successors[a].get(b, 0) + 1
            st.successor_totals[b] = st.successor_totals.get(b, 0) + 1
            st.total_pairs += 1
    return st


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


def p_cc(q1: str, q2: str, stats: ClickStats) -> float:
    """Co-click probability: sum over q1's URLs of P(u|q1)*P(q2)*P(u|q2)/P(u)."""
    urls1 = stats.clicks.get(q1)
    if urls1 is None:
        raise KeyError(f"unknown query: {q1!r}")
    urls2 = stats.clicks.get(q2)
    if urls2 is None:
        return 0.0
    n1, n2, total = stats.cnt_q[q1], stats.cnt_q[q2], stats.total
    pq2 = n2 / total
    out = 0.0
    for u, k1 in urls1.items():
        k2 = urls2.get(u)
        if k2 is not None:
            out += k1 / n1 * pq2 * (k2 / n2) / (stats.cnt_u[u] / total)
    return out


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


def freq_topic(q1: str, lex: frozenset[str], stats: ClickStats) -> int:
    """Freq.topic: cnt(q1) plus the counts of its CTQ expansions."""
    return stats.cnt_q.get(q1, 0) + sum(stats.cnt_q[e] for e in ctq(q1, lex, stats))


def p_ct(q1: str, q2: str, lex: frozenset[str], stats: ClickStats) -> float:
    """Co-topic probability: cnt(q2) / Freq.topic(q1)."""
    if q2 not in ctq(q1, lex, stats):
        raise ValueError(f"{q2!r} is not a co-topic expansion of {q1!r}")
    return stats.cnt_q[q2] / freq_topic(q1, lex, stats)


def csq(q1: str, st: SessionStats) -> set[str]:
    """Queries immediately following q1 in some session (q1 itself excluded)."""
    return {q2 for q2 in st.successors.get(q1, ()) if q2 != q1}


def p_cs(q1: str, q2: str, st: SessionStats) -> float:
    """Co-session probability: adjacent q1->q2 count over q1's event count."""
    occ = st.occurrences.get(q1, 0)
    if occ == 0:
        return 0.0
    return st.successors.get(q1, {}).get(q2, 0) / occ


def generate_all(
    q1: str,
    stats: ClickStats,
    st: SessionStats,
    lex: frozenset[str],
) -> list[CandidatePair]:
    """Union of the three extractors, one CandidatePair per (q2, kind).

    Self-pairs are removed.  Order is deterministic: kind, then strength
    descending, then q2.
    """
    pairs: list[CandidatePair] = []
    for q2 in brccq(q1, stats):
        pairs.append(CandidatePair(q1, q2, CO_CLICK, p_cc(q1, q2, stats)))
    for q2 in ctq(q1, lex, stats):
        pairs.append(CandidatePair(q1, q2, CO_TOPIC, p_ct(q1, q2, lex, stats)))
    for q2 in csq(q1, st):
        pairs.append(CandidatePair(q1, q2, CO_SESSION, p_cs(q1, q2, st)))
    pairs.sort(key=lambda p: (_KIND_ORDER[p.kind], -p.strength, p.q2))
    return pairs


def dump_candidates(pairs: list[CandidatePair]) -> list[str]:
    return [f"{p.q1}\t{p.q2}\t{p.kind}\t{p.strength:.12g}" for p in pairs]
