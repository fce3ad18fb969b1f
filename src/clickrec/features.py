"""Per-pair feature computation for the supervised ranker.

Covers relation strengths, frequency and length statistics, edit distances,
bag cosines, click entropies and session co-occurrence statistics.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .candidates import (
    FacetLexicon,
    SessionStats,
    brccq,
    ctq,
    p_cc,
    p_cs,
    p_ct,
)
from .logs import ClickStats

# The 23 ranking features in feature-matrix column order, one row each:
# (column name, FeatureVector attribute, type).  Every other spelling of the
# feature list (names, vector fields, matrix header and parsing) derives
# from this table.
FEATURES = [
    ("P_cc", "p_cc", float),
    ("P_ct", "p_ct", float),
    ("P_cs", "p_cs", float),
    ("Freq.q1", "freq_q1", int),
    ("Freq.q2", "freq_q2", int),
    ("Freq.topic", "freq_topic", int),
    ("Len.q1", "len_q1", int),
    ("Len.q2", "len_q2", int),
    ("CLen.q1", "clen_q1", int),
    ("CLen.q2", "clen_q2", int),
    ("delta.Len", "delta_len", int),
    ("delta.Len.Rel", "delta_len_rel", float),
    ("delta.CLen", "delta_clen", int),
    ("delta.CLen.Rel", "delta_clen_rel", float),
    ("mb.Leven", "mb_leven", int),
    ("Leven", "leven", int),
    ("CCos", "ccos", float),
    ("BCos", "bcos", float),
    ("Ent.q1", "ent_q1", float),
    ("Ent.q2", "ent_q2", float),
    ("delta.Ent", "delta_ent", float),
    ("Next.Ent", "next_ent", float),
    ("LLR", "llr", float),
]
FEATURE_NAMES = [name for name, _, _ in FEATURES]
TARGET_NAME = "Sim"
_COLUMNS = ["q1", "q2", "kind", *FEATURE_NAMES, TARGET_NAME]
_TYPES = [typ for _, _, typ in FEATURES]
_N_FEATURES = len(FEATURES)


class FeatureVector(
    namedtuple("FeatureVector", [attr for _, attr, _ in FEATURES] + ["sim"], defaults=[None])
):
    """The features of one (q1, q2) pair, then ``sim``: the training target,
    absent (None) at ranking time."""

    __slots__ = ()

    def values(self) -> tuple:
        """Feature values in FEATURE_NAMES order (target excluded)."""
        return self[:_N_FEATURES]


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


def click_entropy(q: str, stats: ClickStats) -> float:
    """Shannon entropy (bits) of the click distribution over q's URLs."""
    urls = stats.uc.get(q)
    if not urls:
        raise KeyError(f"unknown query: {q!r}")
    return _entropy([stats.cnt_uq[(u, q)] for u in sorted(urls)])


def next_query_entropy(q1: str, st: SessionStats) -> float:
    """Entropy (bits) of the immediate-successor distribution of q1."""
    succ = st.successors.get(q1)
    if not succ:
        return 0.0
    return _entropy([succ[k] for k in sorted(succ)])


def llr(q1: str, q2: str, st: SessionStats) -> float:
    """Dunning G-squared of observing q2 right after q1 in a session.

    The 2x2 table is over all session-adjacent ordered pairs: rows split on
    the predecessor being q1, columns on the successor being q2.
    """
    n = st.total_pairs
    if n == 0:
        raise ValueError("no session-adjacent pairs observed")
    k11 = st.pair_counts.get((q1, q2), 0)
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
    """Unit-cost edit distance over code points or UTF-8 bytes."""
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
    lex: FacetLexicon,
    sim: float | None = None,
) -> FeatureVector:
    """Assemble the full feature vector for a (q1, q2) pair.

    Relation strengths are 0 when the pair is not in that relation; textual
    features are always populated.
    """
    if q1 not in stats.cnt_q:
        raise KeyError(f"unknown query: {q1!r}")

    in_cc = q2 in brccq(q1, stats)
    expansions = ctq(q1, lex, stats)
    f_pcc = p_cc(q1, q2, stats) if in_cc else 0.0
    f_pct = p_ct(q1, q2, lex, stats) if q2 in expansions else 0.0
    f_pcs = p_cs(q1, q2, st)

    freq_q1 = stats.cnt_q.get(q1, 0)
    freq_q2 = stats.cnt_q.get(q2, 0)
    freq_topic = freq_q1 + sum(stats.cnt_q[e] for e in expansions)

    len_q1, len_q2 = len(q1), len(q2)
    clen_q1, clen_q2 = len(q1.split()), len(q2.split())
    ent_q1 = click_entropy(q1, stats)
    ent_q2 = click_entropy(q2, stats) if q2 in stats.uc else 0.0

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


def feature_matrix_lines(rows: list[tuple[str, str, str, FeatureVector]]) -> list[str]:
    """TSV dump: header, then q1/q2/kind keys followed by numeric columns."""
    lines = ["\t".join(_COLUMNS)]
    for q1, q2, kind, fv in rows:
        nums = [f"{v:.12g}" for v in fv.values()]
        nums.append("-" if fv.sim is None else f"{fv.sim:.12g}")
        lines.append(f"{q1}\t{q2}\t{kind}\t" + "\t".join(nums))
    return lines


def parse_feature_matrix(lines) -> list[tuple[str, str, str, FeatureVector]]:
    """Inverse of feature_matrix_lines.

    A malformed matrix raises ValueError("<line>: <reason>"), counting
    lines from 1; every value must be a finite number.
    """
    it = iter(lines)
    header = next(it, None)
    if header is None:
        raise ValueError("1: empty file, expected the feature matrix header")
    if header.rstrip("\n").split("\t") != _COLUMNS:
        raise ValueError("1: unexpected feature matrix header")
    rows = []
    for lineno, line in enumerate(it, 2):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"{lineno}: expected {len(_COLUMNS)} fields, got {len(parts)}")
        try:
            nums = [float(raw) for raw in parts[3:-1]]
            sim = None if parts[-1] == "-" else float(parts[-1])
        except ValueError as exc:
            raise ValueError(f"{lineno}: {exc}") from None
        if not all(map(math.isfinite, nums)) or (sim is not None and not math.isfinite(sim)):
            raise ValueError(f"{lineno}: non-finite value")
        fv = FeatureVector(*[typ(v) for typ, v in zip(_TYPES, nums)], sim)
        rows.append((parts[0], parts[1], parts[2], fv))
    return rows
