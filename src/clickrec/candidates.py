"""Candidate recommendation extraction: co-click, co-topic, co-session.

Each extractor returns the related query set for an input query plus a
strength probability.  All three are pure functions of immutable count
tables (ClickStats, SessionStats) and can run in parallel across input
queries.
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
class FacetLexicon:
    """Facet directives: words that terminate many distinct frequent queries."""

    facets: dict[str, int] = field(default_factory=dict)  # word -> distinct queries


@dataclass
class SessionStats:
    """Adjacency counts over ordered consecutive query pairs in sessions."""

    pair_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    occurrences: dict[str, int] = field(default_factory=dict)  # session event count
    successors: dict[str, dict[str, int]] = field(default_factory=dict)
    successor_totals: dict[str, int] = field(default_factory=dict)  # column sums
    total_pairs: int = 0


def build_session_stats(sessions: list[Session]) -> SessionStats:
    st = SessionStats()
    for s in sessions:
        qs = [q for _, q in s.queries]
        for q in qs:
            st.occurrences[q] = st.occurrences.get(q, 0) + 1
        for a, b in zip(qs, qs[1:]):
            st.pair_counts[(a, b)] = st.pair_counts.get((a, b), 0) + 1
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
    urls = stats.uc.get(q)
    if not urls:
        return set()
    out: set[str] = set()
    for u in urls:
        best: int | None = None
        winners: set[str] = set()
        for q2 in stats.qc[u]:
            r = stats.best_rank[(u, q2)]
            if best is None or r < best:
                best = r
                winners = {q2}
            elif r == best:
                winners.add(q2)
        out |= winners
    out.discard(q)
    return out


def p_cc(q1: str, q2: str, stats: ClickStats) -> float:
    """Co-click probability: sum over q1's URLs of P(u|q1)*P(q2)*P(u|q2)/P(u)."""
    urls = stats.uc.get(q1)
    if urls is None:
        raise KeyError(f"unknown query: {q1!r}")
    pq2 = stats.p_q(q2)
    if pq2 == 0.0:
        return 0.0
    total = 0.0
    for u in sorted(urls):
        pu_q2 = stats.p_u_given_q(u, q2)
        if pu_q2 == 0.0:
            continue
        total += stats.p_u_given_q(u, q1) * pq2 * pu_q2 / stats.p_u(u)
    return total


def detect_facets(
    stats: ClickStats, min_distinct: int = 5, min_query_freq: int = 10
) -> FacetLexicon:
    """Find facet words: final chunks of enough distinct frequent queries.

    Only queries with cnt(q) >= min_query_freq and at least two chunks
    qualify; a word enters the lexicon when it ends >= min_distinct of them.
    """
    enders: dict[str, set[str]] = {}
    for q, c in stats.cnt_q.items():
        if c < min_query_freq:
            continue
        chunks = q.split()
        if len(chunks) < 2:
            continue
        enders.setdefault(chunks[-1], set()).add(q)
    facets = {
        w: len(qs) for w, qs in sorted(enders.items()) if len(qs) >= min_distinct
    }
    return FacetLexicon(facets)


def ctq(q1: str, lex: FacetLexicon, stats: ClickStats) -> set[str]:
    """Logged co-topic expansions: q1 + " " + facet word."""
    out = set()
    for w in lex.facets:
        q2 = f"{q1} {w}"
        if stats.cnt_q.get(q2, 0) > 0:
            out.add(q2)
    return out


def p_ct(q1: str, q2: str, lex: FacetLexicon, stats: ClickStats) -> float:
    """Co-topic probability: cnt(q2) / (cnt(q1) + sum of CTQ counts)."""
    expansions = ctq(q1, lex, stats)
    if q2 not in expansions:
        raise ValueError(f"{q2!r} is not a co-topic expansion of {q1!r}")
    denom = stats.cnt_q.get(q1, 0) + sum(stats.cnt_q[e] for e in expansions)
    return stats.cnt_q[q2] / denom


def csq(q1: str, st: SessionStats) -> set[str]:
    """Queries immediately following q1 in some session (q1 itself excluded)."""
    return {q2 for q2 in st.successors.get(q1, ()) if q2 != q1}


def p_cs(q1: str, q2: str, st: SessionStats) -> float:
    """Co-session probability: adjacent q1->q2 count over q1's event count."""
    occ = st.occurrences.get(q1, 0)
    if occ == 0:
        return 0.0
    return st.pair_counts.get((q1, q2), 0) / occ


def generate_all(
    q1: str,
    stats: ClickStats,
    st: SessionStats,
    lex: FacetLexicon,
) -> list[CandidatePair]:
    """Union of the three extractors, one CandidatePair per (q2, kind).

    Self-pairs are removed.  Order is deterministic: kind, then strength
    descending, then q2.
    """
    pairs: list[CandidatePair] = []
    if q1 in stats.uc:
        for q2 in brccq(q1, stats):
            pairs.append(CandidatePair(q1, q2, CO_CLICK, p_cc(q1, q2, stats)))
    for q2 in ctq(q1, lex, stats):
        if q2 != q1:
            pairs.append(CandidatePair(q1, q2, CO_TOPIC, p_ct(q1, q2, lex, stats)))
    for q2 in csq(q1, st):
        pairs.append(CandidatePair(q1, q2, CO_SESSION, p_cs(q1, q2, st)))
    pairs.sort(key=lambda p: (_KIND_ORDER[p.kind], -p.strength, p.q2))
    return pairs


def dump_candidates(pairs: list[CandidatePair]) -> list[str]:
    return [f"{p.q1}\t{p.q2}\t{p.kind}\t{p.strength:.12g}" for p in pairs]
