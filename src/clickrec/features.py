"""Per-pair feature computation for the supervised ranker.

Covers frequency and length statistics, edit distances, bag cosines, click
entropies and session co-occurrence statistics; the three relation
strengths come from the candidate pairs.  A FeatureContext computes what
depends on one query once, so build_features does only the work that
depends on both.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from typing import NamedTuple

from .candidates import CO_CLICK, CO_SESSION, CO_TOPIC, FacetLexicon, SessionStats, ctq
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


def _g2(k11: int, row1: int, col1: int, n: int) -> float:
    """Dunning G-squared of a 2x2 table from its k11 cell, first row and
    first column sums and total."""
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
    return _g2(k11, row1, st.successor_totals.get(q2, 0), n)


def _edit_distance(a, b) -> int:
    """Unit-cost edit distance between two sequences (str or bytes).

    Myers' bit-vector algorithm in Hyyrö's formulation (Myers, JACM 1999;
    Hyyrö 2001): the longer sequence is the pattern, each Python int holds
    one column of vertical deltas, and one step per element of the shorter
    sequence updates the whole column.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(a)
    if not b:
        return m
    peq: dict = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | 1 << i
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        ph = ph << 1 | 1
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def levenshtein(a: str, b: str, unit: str = "codepoint") -> int:
    """Unit-cost edit distance over code points or UTF-8 bytes."""
    if unit == "byte":
        return _edit_distance(a.encode("utf-8"), b.encode("utf-8"))
    if unit == "codepoint":
        return _edit_distance(a, b)
    raise ValueError(f"unknown unit: {unit!r}")


class _Bag(NamedTuple):
    counts: Counter
    items: tuple  # sorted (unit, count) pairs
    norm: float


def _bag(s: str, unit: str) -> _Bag:
    if unit == "chunk":
        counts = Counter(s.split())
    elif unit == "char-bigram":
        compact = "".join(s.split())
        counts = Counter(compact[i : i + 2] for i in range(len(compact) - 1))
    else:
        raise ValueError(f"unknown unit: {unit!r}")
    norm = math.sqrt(sum(c * c for c in counts.values()))
    return _Bag(counts, tuple(sorted(counts.items())), norm)


def _cosine(a: _Bag, b: _Bag) -> float:
    if not a.items or not b.items:
        return 0.0
    # Equal bags are exactly 1.0; dot / (norm * norm) can round below it.
    if a.items == b.items:
        return 1.0
    bc = b.counts
    dot = sum(c * bc[k] for k, c in a.items if k in bc)
    return dot / (a.norm * b.norm)


def bag_cosine(a: str, b: str, unit: str = "chunk") -> float:
    """Cosine between unit-count vectors; 0 when either bag is empty."""
    return _cosine(_bag(a, unit), _bag(b, unit))


class _Query(NamedTuple):
    """What build_features needs of one query, whichever side it is on."""

    cnt: int
    freq_topic: int  # cnt plus the counts of the ctq expansions
    len: int
    clen: int
    ent: float  # click entropy, 0.0 for a query without clicks
    next_ent: float
    successor_sum: int  # the first row sum of llr's table
    chunks: _Bag
    bigrams: _Bag
    utf8: bytes
    isascii: bool


class FeatureContext:
    """Per-query feature inputs, computed the first time a query is met.

    One context serves every pair built over the same count tables, so
    build_features does only the work that depends on both queries.
    """

    def __init__(self, stats: ClickStats, st: SessionStats, lex: FacetLexicon):
        self.stats = stats
        self.st = st
        self.lex = lex
        self._queries: dict[str, _Query] = {}

    def query(self, q: str) -> _Query:
        info = self._queries.get(q)
        if info is None:
            info = self._queries[q] = self._describe(q)
        return info

    def _describe(self, q: str) -> _Query:
        stats = self.stats
        cnt = stats.cnt_q.get(q, 0)
        return _Query(
            cnt=cnt,
            freq_topic=cnt + sum(stats.cnt_q[e] for e in ctq(q, self.lex, stats)),
            len=len(q),
            clen=len(q.split()),
            ent=click_entropy(q, stats) if q in stats.uc else 0.0,
            next_ent=next_query_entropy(q, self.st),
            successor_sum=sum(self.st.successors.get(q, {}).values()),
            chunks=_bag(q, "chunk"),
            bigrams=_bag(q, "char-bigram"),
            utf8=q.encode("utf-8"),
            isascii=q.isascii(),
        )


def build_features(
    q1: str,
    q2: str,
    ctx: FeatureContext,
    strengths: dict[str, float],
    sim: float | None = None,
) -> FeatureVector:
    """Assemble the full feature vector for a (q1, q2) pair.

    strengths maps a candidate kind to the pair's strength in that relation
    (CandidatePair.strength); a kind it lacks has strength 0.  The other
    features are always populated.
    """
    stats, st = ctx.stats, ctx.st
    if q1 not in stats.cnt_q or q1 not in stats.uc:
        raise KeyError(f"unknown query: {q1!r}")
    a, b = ctx.query(q1), ctx.query(q2)

    mb_leven = _edit_distance(q1, q2)
    # An ASCII string's UTF-8 bytes are its code points.
    leven = mb_leven if a.isascii and b.isascii else _edit_distance(a.utf8, b.utf8)
    n = st.total_pairs
    if n:
        k11 = st.pair_counts.get((q1, q2), 0)
        f_llr = _g2(k11, a.successor_sum, st.successor_totals.get(q2, 0), n)
    else:
        f_llr = 0.0

    return FeatureVector(
        p_cc=strengths.get(CO_CLICK, 0.0),
        p_ct=strengths.get(CO_TOPIC, 0.0),
        p_cs=strengths.get(CO_SESSION, 0.0),
        freq_q1=a.cnt,
        freq_q2=b.cnt,
        freq_topic=a.freq_topic,
        len_q1=a.len,
        len_q2=b.len,
        clen_q1=a.clen,
        clen_q2=b.clen,
        delta_len=b.len - a.len,
        delta_len_rel=(b.len - a.len) / a.len,
        delta_clen=b.clen - a.clen,
        delta_clen_rel=(b.clen - a.clen) / a.clen,
        mb_leven=mb_leven,
        leven=leven,
        ccos=_cosine(a.chunks, b.chunks),
        bcos=_cosine(a.bigrams, b.bigrams),
        ent_q1=a.ent,
        ent_q2=b.ent,
        delta_ent=a.ent - b.ent,
        next_ent=a.next_ent,
        llr=f_llr,
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
