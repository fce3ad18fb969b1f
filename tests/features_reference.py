"""Reference feature builder for equivalence tests.

This is the ``build_features`` that ``clickrec.features`` used before the
per-query ``FeatureContext`` and the bit-parallel edit distance.  Every call
rescans ``brccq`` and ``ctq``, recomputes both click entropies, the
next-query entropy and the successor-row sum, rebuilds both bag pairs and
runs the quadratic dynamic-programming edit distance twice.  It is slow, but
it is the specification the fast builder must match bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter

from clickrec.candidates import SessionStats, brccq, ctq
from clickrec.features import FeatureVector
from clickrec.logs import ClickStats


def _entropy(counts) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    ent = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            ent -= p * math.log2(p)
    return ent


def p_cc(q1: str, q2: str, stats: ClickStats) -> float:
    """Co-click probability: sum over q1's URLs of P(u|q1)*P(q2)*P(u|q2)/P(u)."""
    urls2 = stats.clicks.get(q2)
    if urls2 is None:
        return 0.0
    n1, n2, total = stats.cnt_q[q1], stats.cnt_q[q2], stats.total
    pq2 = n2 / total
    out = 0.0
    for u, k1 in stats.clicks[q1].items():
        k2 = urls2.get(u)
        if k2 is not None:
            out += k1 / n1 * pq2 * (k2 / n2) / (stats.cnt_u[u] / total)
    return out


def click_entropy(q: str, stats: ClickStats) -> float:
    """Shannon entropy (bits) of the click distribution over q's URLs."""
    urls = stats.clicks.get(q)
    if not urls:
        raise KeyError(f"unknown query: {q!r}")
    return _entropy([urls[u] for u in sorted(urls)])


def next_query_entropy(q1: str, st: SessionStats) -> float:
    """Entropy (bits) of the immediate-successor distribution of q1."""
    succ = st.successors.get(q1)
    if not succ:
        return 0.0
    return _entropy([succ[k] for k in sorted(succ)])


def llr(q1: str, q2: str, st: SessionStats) -> float:
    """Dunning G-squared of observing q2 right after q1 in a session."""
    n = st.total_pairs
    if n == 0:
        raise ValueError("no session-adjacent pairs observed")
    k11 = st.successors.get(q1, {}).get(q2, 0)
    row1 = sum(st.successors.get(q1, {}).values())
    col1 = st.successor_totals.get(q2, 0)
    k12 = row1 - k11
    k21 = col1 - k11
    k22 = n - k11 - k12 - k21
    g2 = 0.0
    for obs, rt, ct in (
        (k11, row1, col1),
        (k12, row1, n - col1),
        (k21, n - row1, col1),
        (k22, n - row1, n - col1),
    ):
        if obs > 0:
            expected = rt * ct / n
            g2 += obs * math.log(obs / expected)
    return max(2.0 * g2, 0.0)


def levenshtein(a: str, b: str, unit: str = "codepoint") -> int:
    """Unit-cost edit distance over code points or UTF-8 bytes (row DP)."""
    if unit == "byte":
        sa: bytes | str = a.encode("utf-8")
        sb: bytes | str = b.encode("utf-8")
    elif unit == "codepoint":
        sa, sb = a, b
    else:
        raise ValueError(f"unknown unit: {unit!r}")
    if len(sa) < len(sb):
        sa, sb = sb, sa
    prev = list(range(len(sb) + 1))
    for i, ca in enumerate(sa, 1):
        cur = [i]
        for j, cb in enumerate(sb, 1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def _bag(s: str, unit: str) -> Counter:
    if unit == "chunk":
        return Counter(s.split())
    if unit == "char-bigram":
        compact = "".join(s.split())
        return Counter(compact[i : i + 2] for i in range(len(compact) - 1))
    raise ValueError(f"unknown unit: {unit!r}")


def bag_cosine(a: str, b: str, unit: str = "chunk") -> float:
    """Cosine between unit-count vectors; 0 when either bag is empty."""
    ba, bb = _bag(a, unit), _bag(b, unit)
    if not ba or not bb:
        return 0.0
    if ba == bb:
        return 1.0
    dot = sum(c * bb[k] for k, c in sorted(ba.items()) if k in bb)
    na = math.sqrt(sum(c * c for c in ba.values()))
    nb = math.sqrt(sum(c * c for c in bb.values()))
    return dot / (na * nb)


def build_features(
    q1: str,
    q2: str,
    stats: ClickStats,
    st: SessionStats,
    lex: frozenset[str],
    sim: float | None = None,
) -> FeatureVector:
    """Assemble the full feature vector for a (q1, q2) pair."""
    if q1 not in stats.cnt_q:
        raise KeyError(f"unknown query: {q1!r}")

    in_cc = q2 in brccq(q1, stats)
    expansions = ctq(q1, lex, stats)
    f_pcc = p_cc(q1, q2, stats) if in_cc else 0.0
    occ = st.occurrences.get(q1, 0)
    f_pcs = st.successors.get(q1, {}).get(q2, 0) / occ if occ else 0.0

    freq_q1 = stats.cnt_q.get(q1, 0)
    freq_q2 = stats.cnt_q.get(q2, 0)
    freq_topic = freq_q1 + sum(stats.cnt_q[e] for e in expansions)
    f_pct = stats.cnt_q[q2] / freq_topic if q2 in expansions else 0.0

    len_q1, len_q2 = len(q1), len(q2)
    clen_q1, clen_q2 = len(q1.split()), len(q2.split())
    ent_q1 = click_entropy(q1, stats)
    ent_q2 = click_entropy(q2, stats) if q2 in stats.clicks else 0.0

    return FeatureVector(
        p_cc=f_pcc,
        p_ct=f_pct,
        p_cs=f_pcs,
        freq_q1=freq_q1,
        freq_q2=freq_q2,
        freq_topic=freq_topic,
        len_q1=len_q1,
        len_q2=len_q2,
        clen_q1=clen_q1,
        clen_q2=clen_q2,
        delta_len=len_q2 - len_q1,
        delta_len_rel=(len_q2 - len_q1) / len_q1,
        delta_clen=clen_q2 - clen_q1,
        delta_clen_rel=(clen_q2 - clen_q1) / clen_q1,
        mb_leven=levenshtein(q1, q2, "codepoint"),
        leven=levenshtein(q1, q2, "byte"),
        ccos=bag_cosine(q1, q2, "chunk"),
        bcos=bag_cosine(q1, q2, "char-bigram"),
        ent_q1=ent_q1,
        ent_q2=ent_q2,
        delta_ent=ent_q1 - ent_q2,
        next_ent=next_query_entropy(q1, st),
        llr=llr(q1, q2, st) if st.total_pairs else 0.0,
        sim=sim,
    )
